#pragma once

// RunContext: the one plumbing path for cross-cutting run state — the
// deterministic work sink, the fault rung, cancellation sources, the
// memory quota and governor, and metrics.
//
// The engine constructs one per cone evaluation (per retry rung), and
// decompose -> reduce -> simplify -> cec -> sat all take a
// `const RunContext&`. Every field is an unowned pointer that must outlive
// the call; every field defaults to "absent", so `RunContext{}` is a valid
// do-nothing context for tests and simple CLI paths (docs/ENGINE.md,
// "Run context").

#include <cstdint>
#include <string_view>

#include "common/budget.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/memgov.hpp"

namespace lls {

class Metrics;

struct RunContext {
    /// Deterministic work sink of the current evaluation: attempts and SAT
    /// conflicts are accumulated here, always at serial points or in fixed
    /// index order after a parallel join (common/budget.hpp). May be null
    /// (work is then unmetered, as for ad-hoc CLI verification calls).
    WorkCost* cost = nullptr;

    /// Fault-injection context of the current retry rung, or null for
    /// fault-free execution. Stages call `check_fault(site, stage)` at
    /// their counted work points ("decompose", "spcf", "sat", "cec").
    const FaultContext* faults = nullptr;

    /// Process/batch-level shutdown token, or null. Together with
    /// `deadline` this mirrors what the evaluating thread's CancelScope
    /// holds — carried explicitly so the SAT solver can poll the context
    /// directly between decisions.
    const CancelToken* cancel = nullptr;

    /// Per-cone wall-clock watchdog (unarmed-or-null = never expires).
    const Deadline* deadline = nullptr;

    /// Deterministic byte quota of this evaluation rung, or null
    /// for unmetered memory (common/memgov.hpp). Like `cost`, the quota is
    /// not thread-safe: it is charged only from the evaluating thread.
    MemoryQuota* mem_quota = nullptr;

    /// Process-wide byte accountant, or null. Components with real arenas
    /// (SAT solvers) push counted byte deltas here; purely observability,
    /// never a result-changing input.
    MemoryGovernor* governor = nullptr;

    /// Metrics registry, or null to fall back to the process-global one.
    Metrics* metrics = nullptr;

    /// Fires the planned fault for `site` (if any) as LlsError at `stage`.
    void check_fault(std::string_view site, std::string_view stage) const {
        if (faults != nullptr) faults->check(site, stage);
    }

    /// Merges `delta` into the context's work sink, if one is attached.
    void charge(const WorkCost& delta) const {
        if (cost != nullptr) *cost += delta;
    }

    /// Charges `bytes` against the per-cone quota, if one is attached;
    /// throws LlsError{ResourceExhausted, kMemgovStage} past the limit.
    /// Callers must only invoke this at deterministic program points.
    void charge_memory(std::uint64_t bytes) const {
        if (mem_quota != nullptr) mem_quota->charge(bytes);
    }

    /// True when the context's token was requested or its deadline has
    /// expired. Unlike the thread-local `lls::cancel_pending()`, this reads
    /// the clock unamortized — it is the *between-queries* poll, where each
    /// unit of work dwarfs a clock read. Per-decision hot loops amortize it
    /// themselves (sat::Solver::bind_run_context).
    bool cancel_pending() const {
        if (cancel != nullptr && cancel->requested()) return true;
        return deadline != nullptr && deadline->expired();
    }

    /// Throws LlsError{Cancelled} at `stage` when a cancellation source
    /// fired, otherwise returns immediately.
    void poll_cancellation(const char* stage) const {
        if (!cancel_pending()) return;
        const bool shutdown = cancel != nullptr && cancel->requested();
        throw LlsError(ErrorKind::Cancelled,
                       shutdown ? "cancellation requested" : "cone deadline expired", stage);
    }
};

}  // namespace lls
