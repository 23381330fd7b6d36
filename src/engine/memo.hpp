#pragma once

// The engine's decomposition memo, factored out of engine.cpp so the
// persistence bridge (engine/warm_start.hpp) can export and import entries
// without reaching into the driver's translation unit.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "common/fault.hpp"
#include "engine/cache.hpp"
#include "lookahead/decompose.hpp"

namespace lls {

/// The memoized result of evaluating one cone: the outcome (nullptr
/// recording "no improvement found" — negative results are just as
/// expensive to recompute) plus the deterministic work it cost. Storing
/// the cost is what keeps budgeted runs independent of cache state: a memo
/// hit charges exactly the units the avoided recomputation would have.
struct ConeEvaluation {
    std::shared_ptr<const DecomposeOutcome> outcome;
    WorkCost cost;
    /// Faults contained by the retry ladder while evaluating this cone
    /// (cone id/name are filled in at the serial commit). Stored in the
    /// memo with the rest of the evaluation, so a cache hit replays its
    /// fault history the same way it replays its cost. Entries with a
    /// fault history are never *persisted*: recomputing them replays the
    /// same faults and charges the same cost (injection is a pure function
    /// of (cone, params)), so the store only ever carries clean records.
    std::vector<FaultRecord> faults;
    /// The evaluation was cut short by a wall-clock cancellation (fired
    /// cone deadline, or an injected `cancel@site` fault exercising that
    /// path). Such evaluations are a function of elapsed time, not just of
    /// (cone, params): the engine never memoizes or persists them, so one
    /// slow run cannot poison the byte-identity of later runs.
    bool timing_dependent = false;
};

/// Decomposition memo: (cone structural hash, params fingerprint) -> the
/// evaluation. Shared across runs in the process.
using DecomposeMemo =
    ShardedCache<std::pair<std::uint64_t, std::uint64_t>, ConeEvaluation, U64PairHash>;

/// The process-wide instance (defined in engine.cpp).
DecomposeMemo& decompose_memo();

}  // namespace lls
