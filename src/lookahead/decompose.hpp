#pragma once

#include <optional>
#include <string>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "common/run_context.hpp"
#include "lookahead/params.hpp"

namespace lls {

/// Result of one level of lookahead decomposition on a single-output cone.
struct DecomposeOutcome {
    Aig aig;  ///< improved cone, same PI interface, one PO
    int old_depth = 0;
    int new_depth = 0;
    int num_windows = 0;         ///< nodes whose agreement window feeds Sigma_1
    std::string reconstruction;  ///< implication rule used to rebuild y
};

/// Performs one level of the paper's timing-driven decomposition
/// y = Sigma_1*y0 + !Sigma_1*y1 on a single-output AIG:
///
///  1. computes the SPCF by floating-mode timing simulation,
///  2. clusters the cone into a technology-independent network,
///  3. primary simplification (`Reduce`/`Simplify`) on a duplicated cone
///     -> y0 and the window function Sigma_1,
///  4. secondary simplification of a second duplicate against !Sigma_1
///     (zero-weight cubes become don't-cares; with sampled patterns each
///     drop is additionally proven safe by SAT) -> y1,
///  5. reconstruction with the implication-rule library, picking the
///     lowest-depth correct form,
///  6. verification (CEC) of the result against the input cone.
///
/// Returns nullopt when no depth improvement is found.
///
/// `ctx` is the engine's per-rung RunContext (common/run_context.hpp) and
/// the only plumbing path into the pipeline: its `cost` sink accumulates
/// the deterministic work spent on this cone (one decomposition attempt
/// for the cone itself, one per node-simplification attempt inside
/// `reduce_cone`, and every SAT conflict of the don't-care, implication,
/// and verification queries — a pure function of (cone, params, rng seed),
/// which budgeted determinism rests on); `faults` carries the injection
/// context of the current retry rung.
///
/// Work spent before an exception is still merged into `ctx.cost`, so a
/// faulted rung charges the budget exactly like a completed one.
std::optional<DecomposeOutcome> decompose_output(const Aig& cone, const LookaheadParams& params,
                                                 Rng& rng,
                                                 const RunContext& ctx = RunContext{});

}  // namespace lls
