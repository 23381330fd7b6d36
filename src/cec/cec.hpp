#pragma once

#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "common/run_context.hpp"
#include "sat/solver.hpp"

namespace lls {

/// Tseitin-encodes every node of `aig` into `solver`, using `pi_vars[i]` as
/// the variable of PI i (they must already exist). Returns one SAT literal
/// per PO.
std::vector<sat::Lit> encode_aig(const Aig& aig, sat::Solver& solver,
                                 const std::vector<int>& pi_vars);

/// Lazy Tseitin encoding of one AIG into one solver, in the manner of ABC's
/// fraig/cec packages: a node's variable and its three AND clauses are
/// loaded the first time a query reaches its fan-in cone, so a solve only
/// propagates and decides over the cones asked about so far. The constant
/// node is loaded up front. The AIG may grow between queries (node ids are
/// stable); it must outlive the encoder, and so must the solver.
class AigCnf {
public:
    AigCnf(const Aig& aig, sat::Solver& solver);

    /// SAT literal equal to `lit`, loading its fan-in cone first if needed.
    sat::Lit lit(AigLit lit);

    /// PI i's value in the solver's last model. A PI outside every loaded
    /// cone reads 0: no loaded node depends on it, so the assignment still
    /// reproduces every loaded node's model value under simulation.
    bool pi_value(std::size_t i) const;

    /// Nodes loaded so far, the constant included.
    std::size_t num_loaded() const { return num_loaded_; }

private:
    const Aig& aig_;
    sat::Solver& solver_;
    std::vector<sat::Lit> node_lit_;  // per node id; value -1 until loaded
    std::vector<std::uint32_t> stack_;
    std::size_t num_loaded_ = 0;
};

struct CecResult {
    bool equivalent = false;
    bool resolved = true;                     ///< false when a conflict limit was hit
    std::vector<bool> counterexample;         ///< PI assignment when not equivalent
};

/// SAT-based combinational equivalence check of two AIGs with identical
/// PI/PO interfaces (the paper's post-optimization verification step).
/// A bit-parallel random-simulation pre-pass catches most inequivalences
/// without touching the solver. `ctx` (common/run_context.hpp) is the
/// caller's run context: its `cost` sink (when attached) accumulates the
/// SAT conflicts spent by the internal sweep and the final miter
/// (deterministic work metering for budgeted runs, common/budget.hpp),
/// and its cancellation sources are bound into every solver so a fired
/// cone deadline or shutdown token reaches the miter mid-solve.
CecResult check_equivalence(const Aig& a, const Aig& b, std::int64_t conflict_limit = -1,
                            const RunContext& ctx = RunContext{});

/// SAT sweeping (fraiging): merges functionally equivalent internal nodes,
/// up to complement. Candidates are proposed by random-simulation
/// signatures (refined with counterexamples from failed proofs) and proven
/// by SAT; unresolved candidates are left unmerged, so the result is always
/// equivalent to the input. Used as the "standard redundancy elimination"
/// area-recovery step of the paper.
///
/// With `depth_aware` set (the default, for area recovery inside the
/// synthesis flow) a node is never merged into a *deeper* representative;
/// the CEC path disables this so structurally different implementations can
/// collapse onto each other.
///
/// `ctx.cost` (when attached) accumulates the solver's conflicts; the
/// sweep additionally polls cancellation between individual SAT queries —
/// not just inside the solve loop — so `--cone-deadline` and shutdown
/// tokens fire at query granularity during area recovery.
Aig sat_sweep(const Aig& aig, Rng& rng, std::int64_t conflict_limit = 2000,
              std::size_t num_patterns = 1024, bool depth_aware = true,
              const RunContext& ctx = RunContext{});

}  // namespace lls
