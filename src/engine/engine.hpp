#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common/cancel.hpp"
#include "engine/cache.hpp"
#include "lookahead/optimize.hpp"
#include "lookahead/params.hpp"

namespace lls {

class MemoryGovernor;
class WarmStart;

/// Execution knobs of the concurrent optimization engine. These control
/// *how* the flow runs, never *what* it computes: the result is
/// bit-identical for every `jobs` value, including runs bounded by the
/// deterministic `params.work_budget` (see docs/ENGINE.md, "Determinism
/// contract" and "Budget semantics").
struct EngineOptions {
    /// Worker threads used to evaluate per-cone decomposition candidates
    /// (and, in batch mode, to run whole circuits). 1 = serial.
    int jobs = 1;

    /// Consult/populate the process-wide decomposition memo (keyed by cone
    /// structural hash + parameter fingerprint) and the CEC verdict memo.
    bool use_result_cache = true;

    /// Persistent-store bridge (engine/warm_start.hpp), or nullptr for a
    /// memory-only run. When set (and `use_result_cache` is on), the
    /// engine notes warm hits against the imported entries and flushes
    /// newly computed memo entries to the store at round boundaries.
    /// Imported entries replay their stored WorkCost, so budgeted warm
    /// runs stay bit-identical to cold ones. Not owned.
    WarmStart* warm_start = nullptr;

    /// Process/batch-level cooperative cancellation (common/cancel.hpp),
    /// or nullptr for none. When the token is requested — the CLI's
    /// SIGTERM/SIGINT handler does this — the engine stops dispatching new
    /// cones and rounds, cancels in-flight evaluations at their next poll,
    /// and returns with `OptimizeStats::cancelled` set; batch mode stops
    /// starting items and marks interrupted ones `BatchOutcome::cancelled`
    /// so they are never journaled or written. Not owned; must outlive the
    /// run.
    const CancelToken* cancel = nullptr;

    /// Process-wide byte accountant (common/memgov.hpp), or nullptr for
    /// none. The engine binds it to every solver the run creates (via
    /// RunContext), which report their arena bytes to it; the run then
    /// raises `engine.mem.charged_bytes` to its total. Observability only:
    /// it never changes what a run computes. Not owned; must outlive the
    /// run.
    MemoryGovernor* governor = nullptr;
};

/// The paper's timing-driven flow, executed by the concurrent engine: each
/// round fans the candidate lookahead decompositions of all timing-critical
/// POs across `engine.jobs` workers (every worker owns its cone copy,
/// simulation state, and SAT solvers), then commits the verified winners
/// serially in PO order. `optimize_timing` is this function with the
/// default (serial) EngineOptions.
Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats = nullptr);

/// One circuit of a batch run.
struct BatchItem {
    std::string name;
    Aig input;
};

struct BatchOutcome {
    std::string name;
    Aig output;
    OptimizeStats stats;
    double seconds = 0.0;
    /// The item's optimization threw past every recovery rung. The batch
    /// keeps going; `output` is the *input circuit unchanged* (the same
    /// degrade-to-original rule the per-cone fault boundary applies), and
    /// `error` carries the diagnostic.
    bool failed = false;
    std::string error;
    /// A batch-level cancellation (SIGTERM/SIGINT token) interrupted this
    /// item. `output` is the unmodified input when the item never started,
    /// or the engine's best verified circuit so far when it was in flight;
    /// either way it must NOT be journaled or written — `--resume` re-runs
    /// the item from scratch, which reproduces the uninterrupted bytes.
    bool cancelled = false;
};

/// Optimizes every item of a batch, running up to `engine.jobs` circuits
/// concurrently on a pool capped at `items - 1` workers. Each item runs
/// serially on the thread that picked it up (docs/ENGINE.md,
/// "Scheduling"), so outputs are byte-identical across `jobs` values.
/// Outcomes are returned in input order regardless of completion order.
///
/// Any exception escaping one item is contained at the item boundary: the
/// outcome is marked `failed`, its output degrades to the unmodified
/// input, and the remaining items still run.
///
/// `on_complete` (optional) is invoked once per item as it finishes, under
/// an internal mutex (never concurrently), with the finished outcome and
/// its index. This is the checkpoint hook: journaling and output writing
/// happen here so an interrupted batch keeps every finished circuit.
/// Completion *order* follows the thread schedule; anything order-sensitive
/// must key on the index, not the call sequence.
std::vector<BatchOutcome> optimize_timing_batch(
    const std::vector<BatchItem>& items, const LookaheadParams& params,
    const EngineOptions& engine,
    const std::function<void(const BatchOutcome&, std::size_t)>& on_complete = {});

/// The fingerprint of every LookaheadParams field the cone evaluations
/// read (including a non-empty fault plan). This keys the decomposition
/// memo and seeds the per-cone RNGs; batch checkpoints store it so
/// `--resume` only reuses journal entries produced under identical
/// parameters. Throws LlsError{ParseError} if `params.fault_plan` is
/// malformed.
std::uint64_t lookahead_params_fingerprint(const LookaheadParams& params);

/// Stats of the process-wide decomposition memo (tests and --metrics).
CacheStatsSnapshot decomposition_cache_stats();

/// Drops every entry of the engine's process-wide caches (decomposition
/// memo, CEC memo, and the exact-rewrite NPN/structure memos) — what the
/// persistence tests use to simulate a fresh process. Counters are not
/// reset.
void clear_engine_caches();

/// Does nothing. Kept because the repo benchmark (perfbench) still calls
/// it; the memo caches are bounded by entry count alone.
void register_memo_governance(MemoryGovernor& governor);

}  // namespace lls
