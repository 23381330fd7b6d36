#pragma once

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common/fault.hpp"
#include "lookahead/params.hpp"

namespace lls {

/// Statistics of a full lookahead optimization run.
struct OptimizeStats {
    int initial_depth = 0;
    int final_depth = 0;
    std::size_t initial_ands = 0;
    std::size_t final_ands = 0;
    int iterations = 0;            ///< accepted decomposition levels
    int outputs_decomposed = 0;    ///< per-output decompositions accepted (total)
    bool verified = true;          ///< every accepted step passed CEC
    /// Work units charged against `params.work_budget` (decomposition
    /// attempts + SAT conflicts of the cone evaluations); deterministic for
    /// a given (input, params), whatever the job count or cache state.
    std::uint64_t work_units = 0;
    /// The deterministic work budget stopped the run before the iteration
    /// limit. The result is still bit-identical across `--jobs` values.
    bool budget_exhausted = false;
    /// Cone evaluations cancelled by the per-cone deadline watchdog
    /// (`cone_deadline_seconds`). Nonzero means the result is
    /// timing-dependent: a rerun may cancel different cones (or none). Each
    /// cancelled cone also appears in `faults` as a FaultRecord{Cancelled}.
    int deadline_cancelled = 0;
    /// Cones degraded to their original structure by the deterministic
    /// per-cone memory quota (`params.cone_mem_bytes`). Unlike
    /// `deadline_cancelled` this count is deterministic — a pure function
    /// of (input, params) — and each degraded cone appears in `faults`
    /// with stage "memgov" and `recovered = false`.
    int quota_degraded = 0;
    /// A process/batch-level cancellation (CancelToken, e.g. SIGTERM) was
    /// requested during the run: the engine stopped at the next round
    /// boundary and returned the best verified circuit so far. Batch mode
    /// treats such items as *not finished* — they are never journaled, so
    /// `--resume` re-runs them from scratch, byte-identically.
    bool cancelled = false;
    /// Contained faults, appended during the serial commit in deterministic
    /// task order (common/fault.hpp). Every exception that escaped a cone
    /// evaluation — real or injected — lands here with its retry history;
    /// `recovered` tells whether a later ladder rung completed or the cone
    /// deterministically kept its original structure.
    std::vector<FaultRecord> faults;
    std::vector<std::string> log;  ///< human-readable per-iteration notes
};

/// The paper's full timing-driven optimization flow: iterates one level of
/// lookahead decomposition per round over every PO whose cone reaches the
/// current critical depth, rebuilds the circuit, recovers area by SAT
/// sweeping, and verifies each accepted round by CEC. Iterations stop when
/// no output improves or `params.max_iterations` is reached.
///
/// Implemented by the concurrent engine (src/engine/engine.cpp, linked via
/// lls_engine) running serially; `optimize_timing_engine` in
/// engine/engine.hpp exposes the multi-threaded driver with the same QoR.
Aig optimize_timing(const Aig& input, const LookaheadParams& params = {},
                    OptimizeStats* stats = nullptr);

}  // namespace lls
