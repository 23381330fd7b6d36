#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "sim/simulation.hpp"

namespace lls {

/// Exact speed-path characteristic functions, represented as BDDs.
///
/// This is the exact-computation counterpart of the simulation-based
/// `compute_spcf` (the paper cites exact SPCF algorithms [7,19] alongside
/// the over-approximations it actually recommends): for every PO, the BDD
/// of the set of input minterms whose floating-mode sensitized arrival is
/// >= delta. Exact analysis is exponential in the worst case, so the entry
/// point takes a node budget and declines (nullopt) when exceeded.
struct ExactSpcf {
    /// The manager the refs below live in, private to this result.
    std::shared_ptr<BddManager> manager;
    std::vector<BddManager::Ref> po_spcf;  ///< [po] set of critical minterms
    std::vector<std::int32_t> po_max_arrival;
    std::int32_t max_arrival = 0;
    std::int32_t delta = 0;

    double fraction(std::size_t po) const {
        // count_minterms scales by 2^num_vars and this divides by the same
        // power.
        double scale = 1.0;
        for (int i = 0; i < manager->num_vars(); ++i) scale *= 0.5;
        return manager->count_minterms(po_spcf[po]) * scale;
    }
};

/// Computes the exact SPCF of every PO at threshold `delta` (<= 0 selects
/// the circuit's maximal sensitized arrival). Returns nullopt when the BDD
/// node budget is exhausted.
std::optional<ExactSpcf> compute_spcf_exact(const Aig& aig, std::int32_t delta = 0,
                                            std::size_t bdd_node_limit = 1u << 21);

/// Renders a BDD-represented minterm set as a signature over a pattern set,
/// so exact SPCFs plug into the same simulation-based machinery.
Signature bdd_to_signature(const BddManager& manager, BddManager::Ref f,
                           const SimPatterns& patterns);

}  // namespace lls
