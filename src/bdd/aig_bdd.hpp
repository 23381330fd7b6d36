#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"

namespace lls {

/// Builds the global BDD of every AIG node (PI i = BDD variable i).
/// Throws LlsError{ResourceExhausted} if the manager's node limit is
/// exceeded — callers treat that as "circuit too large for exact analysis".
std::vector<BddManager::Ref> build_node_bdds(const Aig& aig, BddManager& manager);

/// Exact combinational equivalence via canonical BDDs: builds both
/// networks in one manager (shared variable order, PI i = variable i) and
/// compares the per-output refs. This is the engine's last-resort
/// verification rung when SAT-based CEC hits its effort limit. Throws
/// LlsError{ResourceExhausted} when `node_limit` is exceeded.
bool bdd_equivalent(const Aig& a, const Aig& b, std::size_t node_limit = 1u << 21);

/// The same check in a caller-provided manager (e.g. one whose node limit
/// the caller derived from a memory quota). Requires
/// `manager.num_vars() >= a.num_pis()`; throws LlsError{ResourceExhausted}
/// when the manager's node limit is exceeded.
bool bdd_equivalent(const Aig& a, const Aig& b, BddManager& manager);

/// BDD of an AIG literal given the per-node refs.
inline BddManager::Ref bdd_of_lit(BddManager& manager,
                                  const std::vector<BddManager::Ref>& refs, AigLit lit) {
    const BddManager::Ref r = refs[lit.node()];
    return lit.complemented() ? manager.bnot(r) : r;
}

}  // namespace lls
