#pragma once

// Deterministic byte-level memory governance, in the image of WorkCost
// (common/budget.hpp):
//
// MemoryQuota: a *deterministic* per-cone byte quota (`lls_opt
// --cone-mem`). Stages charge bytes at fixed program points with
// allocation-count-derived costs (SAT literal counts, signature word
// counts, AIG and network node counts — never malloc observations), so the
// running total is a pure function of (cone, params). Exceeding the quota
// throws LlsError{ResourceExhausted} at stage `kMemgovStage`, which the
// engine's retry ladder contains by degrading the cone to its original
// structure — a deterministic fault that memoizes like any other. Like
// WorkCost, a MemoryQuota is deliberately NOT thread-safe: it is charged
// only from the thread evaluating its cone.
//
// MemoryGovernor: a process-wide byte accountant behind the
// `engine.mem.charged_bytes` metric. Solver arenas push counted byte
// deltas into it; it never changes what a run computes.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/error.hpp"

namespace lls {

/// Stage name of every per-cone quota exhaustion. The engine's retry ladder
/// recognizes it and ends the ladder immediately: escalated rungs only
/// *grow* the footprint, so retrying under the same quota deterministically
/// re-fails — the cone degrades at the first exhaustion, and fuzzing can
/// assert a quota-degraded cone is never reported as recovered.
inline constexpr const char* kMemgovStage = "memgov";

/// Allocation-count-derived byte costs of the governed structures. The
/// constants price one *counted unit* (a stored literal, a signature word,
/// a node) including its amortized container overhead — the point is a
/// schedule-invariant charge stream, not malloc-exact totals.
namespace memcost {
/// One stored SAT literal: 4 B literal + watcher pair + clause header,
/// amortized across typical clause lengths.
inline constexpr std::uint64_t kSatLiteralBytes = 48;
/// One 64-bit simulation-signature word.
inline constexpr std::uint64_t kSignatureWordBytes = 8;
/// One AIG node (fanins + level + hash bucket share).
inline constexpr std::uint64_t kAigNodeBytes = 24;
/// One technology-independent network node (fanins, truth table, fanouts).
inline constexpr std::uint64_t kNetworkNodeBytes = 96;
}  // namespace memcost

/// Deterministic byte quota of one cone-evaluation rung.
class MemoryQuota {
public:
    /// `limit_bytes` = 0 disables the quota (charges still accumulate).
    explicit MemoryQuota(std::uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

    /// Adds `bytes` to the running total; throws LlsError{ResourceExhausted}
    /// at stage `kMemgovStage` when a nonzero limit is exceeded. The charge
    /// is recorded before the throw, so `charged()` stays monotonic.
    void charge(std::uint64_t bytes) {
        charged_ += bytes;
        if (limit_ != 0 && charged_ > limit_)
            throw LlsError(ErrorKind::ResourceExhausted,
                           "cone memory quota exceeded (" + std::to_string(charged_) + " of " +
                               std::to_string(limit_) + " bytes)",
                           kMemgovStage);
    }

    std::uint64_t charged() const { return charged_; }
    std::uint64_t limit() const { return limit_; }

private:
    std::uint64_t limit_ = 0;
    std::uint64_t charged_ = 0;
};

/// Process-wide byte accountant. Thread-safe.
class MemoryGovernor {
public:
    /// `budget_bytes` must be 0: there is no process-wide memory budget.
    explicit MemoryGovernor(std::uint64_t budget_bytes = 0) { LLS_REQUIRE(budget_bytes == 0); }

    MemoryGovernor(const MemoryGovernor&) = delete;
    MemoryGovernor& operator=(const MemoryGovernor&) = delete;

    /// Counted-byte delta from a component (solver arena growth). Negative
    /// deltas (arena shrinkage) are ignored.
    void charge(std::int64_t delta) {
        if (delta > 0)
            charged_total_.fetch_add(static_cast<std::uint64_t>(delta),
                                     std::memory_order_relaxed);
    }

    /// Monotonic sum of positive charges (the `engine.mem.charged_bytes`
    /// feed).
    std::uint64_t charged_total() const {
        return charged_total_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> charged_total_{0};
};

}  // namespace lls
