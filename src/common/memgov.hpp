#pragma once

// Two-tier byte-level memory governance, mirroring the engine's split
// between deterministic budgets and nondeterministic wall rails
// (common/budget.hpp vs. the per-cone deadline):
//
// Tier 1 — MemoryQuota: a *deterministic* per-cone byte quota
// (`lls_opt --cone-mem`). Stages charge bytes at fixed program points with
// allocation-count-derived costs (literal counts, BDD node counts,
// signature word counts — never malloc observations), so the running total
// is a pure function of (cone, params). Exceeding the quota throws
// LlsError{ResourceExhausted} at stage `kMemgovStage`, which the engine's
// retry ladder contains by degrading the cone to its original structure —
// a deterministic fault that memoizes like any other. Like WorkCost, a
// MemoryQuota is deliberately NOT thread-safe: it is charged only from the
// thread evaluating its cone.
//
// Tier 2 — MemoryGovernor: a *process-wide* high-water rail
// (`lls_opt --mem-budget`). Solver arenas push counted byte deltas into
// one atomic accountant; the memo caches and warm-start buffers are polled
// through registered gauges. Crossing the rail first triggers cache
// shedding (registered shed hooks halve the memo caches), then admission
// control in batch mode (new items block at the gate until in-flight ones
// finish and release memory). The rail is wall-state-dependent — *when*
// it fires depends on scheduling — but it only ever evicts pure memo
// entries and delays dispatch, so committed results stay byte-identical;
// its event counts are reported as nondeterministic observability, like
// the per-cone deadline's cancellations.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace lls {

/// Stage name of every Tier-1 quota exhaustion. The engine's retry ladder
/// recognizes it and ends the ladder immediately: escalated rungs only
/// *grow* the footprint, so retrying under the same quota deterministically
/// re-fails — the cone degrades at the first exhaustion, and fuzzing can
/// assert a quota-degraded cone is never reported as recovered.
inline constexpr const char* kMemgovStage = "memgov";

/// Allocation-count-derived byte costs of the governed structures. The
/// constants price one *counted unit* (a stored literal, a BDD node, a
/// signature word) including its amortized container overhead — the point
/// is a schedule-invariant charge stream, not malloc-exact totals.
namespace memcost {
/// One stored SAT literal: 4 B literal + watcher pair + clause header,
/// amortized across typical clause lengths.
inline constexpr std::uint64_t kSatLiteralBytes = 48;
/// One BDD node: 8 B packed word + unique-table entry.
inline constexpr std::uint64_t kBddNodeBytes = 32;
/// One 64-bit simulation-signature word.
inline constexpr std::uint64_t kSignatureWordBytes = 8;
/// One AIG node (fanins + level + hash bucket share).
inline constexpr std::uint64_t kAigNodeBytes = 24;
/// One technology-independent network node (fanins, truth table, fanouts).
inline constexpr std::uint64_t kNetworkNodeBytes = 96;
}  // namespace memcost

/// Tier 1: deterministic byte quota of one cone-evaluation rung.
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

/// Tier 2: process-wide byte accountant with a high-water relief rail.
///
/// Thread-safe for charging and admission once configured; gauges and shed
/// hooks must be registered during setup, before concurrent use.
class MemoryGovernor {
public:
    /// `budget_bytes` = 0 keeps the accountant running (metrics) with the
    /// relief rail disabled.
    explicit MemoryGovernor(std::uint64_t budget_bytes = 0);

    MemoryGovernor(const MemoryGovernor&) = delete;
    MemoryGovernor& operator=(const MemoryGovernor&) = delete;

    std::uint64_t budget() const { return budget_; }

    /// Counted-byte delta from a component (solver arena growth, warm-start
    /// flush buffer). Negative deltas release. Positive deltas may trigger
    /// relief when the rail is armed.
    void charge(std::int64_t delta);

    /// Registers a polled byte source (memo caches, warm-start sets).
    void add_gauge(std::function<std::uint64_t()> gauge);

    /// Registers a relief action (e.g. shed half of a memo cache). Hooks
    /// run outside any charging lock, one relief episode at a time.
    void add_shed_hook(std::function<void()> hook);

    /// Live counted bytes (no gauge poll).
    std::uint64_t counted_bytes() const {
        return static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, counted_.load(std::memory_order_relaxed)));
    }

    /// Counted bytes + a fresh poll of every gauge.
    std::uint64_t current_bytes();

    /// Monotonic sum of positive charges (the `engine.mem.charged_bytes`
    /// feed).
    std::uint64_t charged_total() const {
        return charged_total_.load(std::memory_order_relaxed);
    }

    std::uint64_t shed_events() const { return shed_events_.load(std::memory_order_relaxed); }
    std::uint64_t admission_holds() const {
        return admission_holds_.load(std::memory_order_relaxed);
    }

    /// True while the post-shedding high-water hold is in effect (admission
    /// control active).
    bool admission_held() const { return hold_.load(std::memory_order_relaxed); }

    /// Batch admission gate: blocks while the rail is held *and* at least
    /// one item is in flight (so progress is always possible — with nothing
    /// in flight the item is admitted regardless, because only finishing
    /// work can release memory). Pairs with admission_release().
    void admission_acquire();
    void admission_release();

private:
    /// Cheap screen + one-reliever slow path; called from charge().
    void maybe_relieve();
    std::uint64_t poll_gauges_locked();

    const std::uint64_t budget_;
    std::atomic<std::int64_t> counted_{0};
    std::atomic<std::uint64_t> charged_total_{0};
    std::atomic<std::uint64_t> gauge_cache_{0};
    std::atomic<std::uint64_t> since_poll_{0};

    std::mutex config_mutex_;  // guards registration during setup
    std::vector<std::function<std::uint64_t()>> gauges_;
    std::vector<std::function<void()>> shed_hooks_;

    std::mutex relief_mutex_;  // one relief episode at a time
    std::uint64_t last_relief_bytes_ = 0;
    std::atomic<bool> hold_{false};

    std::mutex gate_mutex_;
    std::condition_variable gate_cv_;
    int inflight_ = 0;

    std::atomic<std::uint64_t> shed_events_{0};
    std::atomic<std::uint64_t> admission_holds_{0};
};

}  // namespace lls
