#include "baseline/permissible.hpp"

#include <algorithm>

#include "aig/aig_build.hpp"
#include "cec/cec.hpp"
#include "network/network.hpp"
#include "sop/sop.hpp"

namespace lls {

namespace {

/// Per-pattern "some PO differs" bits between two signature sets.
Signature po_difference(const Network& net, const std::vector<Signature>& a,
                        const std::vector<Signature>& b, std::size_t words) {
    Signature diff(words, 0);
    for (std::size_t o = 0; o < net.num_pos(); ++o) {
        const auto node = net.po(o).node;
        for (std::size_t w = 0; w < words; ++w) diff[w] |= a[node][w] ^ b[node][w];
        // PO complement flags cancel in the XOR.
    }
    return diff;
}

}  // namespace

Aig permissible_function_simplify(const Aig& aig, const PermissibleOptions& options) {
    Network net = Network::from_aig(aig, options.cut_size, options.max_cuts);
    Rng rng(options.seed);
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), options.num_patterns, rng);
    const std::size_t words = patterns.num_words();
    std::vector<Signature> sigs = net.simulate(patterns);

    for (std::uint32_t j = 1; j < net.num_nodes(); ++j) {
        if (!net.is_internal(j)) continue;
        const TruthTable f = net.function(j);
        const int k = f.num_vars();
        const auto& fanins = net.fanins(j);

        // Flip simulation: complement node j and re-evaluate its fanout cone
        // (everything with a larger id, since ids are topological).
        std::vector<Signature> flipped = sigs;
        for (std::size_t w = 0; w < words; ++w) flipped[j][w] = ~flipped[j][w];
        for (std::uint32_t id = j + 1; id < net.num_nodes(); ++id)
            if (net.is_internal(id))
                flipped[id] = net.eval_node_signature(id, flipped, patterns.num_patterns());
        const Signature observable = po_difference(net, sigs, flipped, words);

        // Candidate don't-care minterms of j's local space: no observed
        // pattern maps there with an observable flip.
        TruthTable care(k);
        for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
            if (!((observable[p >> 6] >> (p & 63)) & 1)) continue;
            std::uint32_t minterm = 0;
            for (std::size_t fi = 0; fi < fanins.size(); ++fi)
                if ((sigs[fanins[fi]][p >> 6] >> (p & 63)) & 1) minterm |= 1u << fi;
            care.set_bit(minterm, true);
        }
        TruthTable dc_candidates = ~care;
        if (dc_candidates.is_const0()) continue;

        TruthTable dc(k);
        if (patterns.is_exhaustive()) {
            // Exhaustive flip simulation is itself the proof.
            dc = dc_candidates;
        } else {
            // Flip miter: original network vs. network with node j
            // complemented; a don't-care minterm must make the miter UNSAT.
            Network flipped_net = net;
            flipped_net.set_function(j, ~f);
            std::vector<AigLit> map_a, map_b;
            const Aig full_a = net.to_aig_with_map(&map_a);
            const Aig full_b = flipped_net.to_aig_with_map(&map_b);

            Aig joint;
            std::vector<AigLit> pi_map;
            for (std::size_t i = 0; i < aig.num_pis(); ++i) joint.add_pi(aig.pi_name(i));
            for (std::size_t i = 0; i < aig.num_pis(); ++i) pi_map.push_back(joint.pi_lit(i));
            std::vector<AigLit> node_map_a, node_map_b;
            const auto pos_a = append_aig(joint, full_a, pi_map, &node_map_a);
            const auto pos_b = append_aig(joint, full_b, pi_map, &node_map_b);
            std::vector<AigLit> diffs;
            for (std::size_t o = 0; o < pos_a.size(); ++o)
                diffs.push_back(joint.lxor(pos_a[o], pos_b[o]));
            const AigLit miter = joint.lor_many(std::move(diffs));
            joint.add_po(miter, "miter");

            sat::Solver solver;
            AigCnf cnf(joint, solver);
            auto net_lit = [&](std::uint32_t node) {
                const AigLit in_full = map_a[node];
                return cnf.lit(in_full.complemented() ? !node_map_a[in_full.node()]
                                                      : node_map_a[in_full.node()]);
            };
            const sat::Lit miter_lit = cnf.lit(joint.po(joint.num_pos() - 1));

            for (std::uint32_t m = 0; m < (1u << k); ++m) {
                if (!dc_candidates.get_bit(m)) continue;
                std::vector<sat::Lit> assumptions{miter_lit};
                for (std::size_t fi = 0; fi < fanins.size(); ++fi) {
                    const sat::Lit l = net_lit(fanins[fi]);
                    assumptions.push_back(((m >> fi) & 1) ? l : !l);
                }
                if (solver.solve(assumptions, options.sat_conflict_limit) == sat::Status::Unsat)
                    dc.set_bit(m, true);
            }
        }
        if (dc.is_const0()) continue;

        // Area objective: adopt the don't-care-minimized cover only when it
        // actually simplifies the node.
        const Sop current_cover = minimum_sop(f);
        const Sop better = minimum_sop(f & ~dc, dc);
        if (better.num_literals() >= current_cover.num_literals()) continue;
        net.set_function(j, better.to_truth_table());
        for (std::uint32_t id = j; id < net.num_nodes(); ++id)
            if (net.is_internal(id))
                sigs[id] = net.eval_node_signature(id, sigs, patterns.num_patterns());
    }

    Rng sweep_rng(options.seed ^ 0x7777);
    Aig result = sat_sweep(net.to_aig_area(), sweep_rng);
    // Area objective: never return something larger than the input.
    if (result.count_reachable_ands() >= aig.cleanup().count_reachable_ands()) return aig.cleanup();
    return result;
}

}  // namespace lls
