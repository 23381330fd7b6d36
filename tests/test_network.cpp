#include "network/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <queue>

#include "aig/aig_build.hpp"
#include "cec/cec.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "sop/factor.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

/// f = (x0 & x1) as a 2-var table.
TruthTable and2() {
    TruthTable tt(2);
    tt.set_bit(3, true);
    return tt;
}

TruthTable xor2() {
    TruthTable tt(2);
    tt.set_bit(1, true);
    tt.set_bit(2, true);
    return tt;
}

TEST(Network, BasicConstruction) {
    Network net;
    const auto a = net.add_pi("a");
    const auto b = net.add_pi("b");
    const auto n1 = net.add_node({a, b}, and2());
    net.add_po(n1, false, "y");
    EXPECT_EQ(net.num_pis(), 2u);
    EXPECT_EQ(net.num_pos(), 1u);
    EXPECT_TRUE(net.is_internal(n1));
    EXPECT_EQ(net.fanins(n1).size(), 2u);
    EXPECT_EQ(net.pi_index(a), 0u);
}

TEST(Network, SopLevelMetricBalancedTrees) {
    Network net;
    std::vector<std::uint32_t> pis;
    for (int i = 0; i < 8; ++i) pis.push_back(net.add_pi());
    // 8-input AND as one node: optimal AND tree has level 3.
    TruthTable tt = TruthTable::constant(8, true);
    for (int i = 0; i < 8; ++i) tt &= TruthTable::variable(8, i);
    const auto n = net.add_node(pis, tt);
    net.add_po(n, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[n], 3);
    EXPECT_EQ(net.sop_depth(), 3);
}

TEST(Network, SopLevelUsesCheaperPhase) {
    // f = x0 + x1 + ... + x7 : on-set SOP has 8 cubes (level 3 OR tree) and
    // the off-set is a single 8-literal cube (level 3) -- both give 3; but
    // a function whose off-set is a single literal must get level 0+.
    Network net;
    std::vector<std::uint32_t> pis;
    for (int i = 0; i < 4; ++i) pis.push_back(net.add_pi());
    // f = !(x0) -> off-set SOP = {x0}: single-literal cube, level = fanin level.
    TruthTable tt = ~TruthTable::variable(4, 0);
    const auto n = net.add_node(pis, tt);
    net.add_po(n, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[n], 0);  // inversion is free in the level metric
}

TEST(Network, SopLevelRespectsArrivalSkew) {
    // Node g = AND(a, b); node h = AND(g, c, d) -- the balanced combine must
    // hide the late g behind the early c*d pairing: level(h) = 2, not 3.
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto c = net.add_pi();
    const auto d = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    TruthTable and3 = TruthTable::constant(3, true);
    for (int i = 0; i < 3; ++i) and3 &= TruthTable::variable(3, i);
    const auto h = net.add_node({g, c, d}, and3);
    net.add_po(h, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[g], 1);
    EXPECT_EQ(levels[h], 2);
}

// Reference SOP tree level: Huffman-style joins of the two earliest
// operands on a priority queue, per cube and then over the cubes.
int reference_tree_level(const std::vector<int>& levels) {
    if (levels.empty()) return 0;
    std::priority_queue<int, std::vector<int>, std::greater<>> heap(levels.begin(), levels.end());
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        heap.push(std::max(a, b) + 1);
    }
    return heap.top();
}

int reference_sop_tree_level(const Sop& sop, const std::vector<int>& fanin_levels) {
    if (sop.empty()) return 0;
    std::vector<int> cube_levels;
    for (const auto& cube : sop.cubes()) {
        std::vector<int> lit_levels;
        for (int v = 0; v < sop.num_vars(); ++v)
            if (cube.has_literal(v))
                lit_levels.push_back(fanin_levels[static_cast<std::size_t>(v)]);
        cube_levels.push_back(reference_tree_level(lit_levels));
    }
    return reference_tree_level(cube_levels);
}

std::vector<int> random_levels(int n, int max_level, Rng& rng) {
    std::vector<int> levels(static_cast<std::size_t>(n));
    for (auto& l : levels)
        l = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_level) + 1));
    return levels;
}

Cube random_cube(int num_vars, int percent_literals, Rng& rng) {
    Cube c;
    for (int v = 0; v < num_vars; ++v)
        if (static_cast<int>(rng.next_below(100)) < percent_literals)
            c = c.with_literal(v, rng.next_bool());
    return c;
}

TEST(SopLevelDiff, EdgeCasesMatchReference) {
    const std::vector<int> levels{3, 0, 7, 2};
    EXPECT_EQ(Network::sop_tree_level(Sop(4), levels), 0);  // constant 0
    const Sop taut(4, {Cube::tautology()});
    EXPECT_EQ(Network::sop_tree_level(taut, levels), reference_sop_tree_level(taut, levels));
    EXPECT_EQ(Network::sop_tree_level(taut, levels), 0);
    const Sop mixed(4, {Cube::tautology(), Cube{0b0100, 0b0001}});
    EXPECT_EQ(Network::sop_tree_level(mixed, levels), reference_sop_tree_level(mixed, levels));

    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const auto fanin = random_levels(32, trial % 2 ? 40 : 3, rng);
        // 32-literal cubes: every variable appears, in random phases.
        Sop wide(32);
        for (int i = 0; i < 1 + trial % 3; ++i) {
            const auto pos = static_cast<std::uint32_t>(rng.next_u64());
            wide.add_cube(Cube{pos, ~pos});
        }
        EXPECT_EQ(Network::sop_tree_level(wide, fanin), reference_sop_tree_level(wide, fanin));
    }
}

TEST(SopLevelDiff, LevelVectorsMatchReference) {
    // One single-literal cube per entry: the SOP level is the balanced OR
    // tree over the entries' fanin levels, including repeated entries.
    Rng rng(5);
    for (int trial = 0; trial < 2000; ++trial) {
        const int num_vars = 1 + static_cast<int>(rng.next_below(32));
        const int max_level = std::array{0, 1, 2, 5, 30, 1000}[trial % 6];
        const auto fanin = random_levels(num_vars, max_level, rng);
        const int n = 1 + static_cast<int>(rng.next_below(trial % 10 == 0 ? 600 : 40));
        Sop sop(num_vars);
        std::vector<int> entries;
        for (int i = 0; i < n; ++i) {
            const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars)));
            sop.add_cube(Cube::tautology().with_literal(v, rng.next_bool()));
            entries.push_back(fanin[static_cast<std::size_t>(v)]);
        }
        ASSERT_EQ(Network::sop_tree_level(sop, fanin), reference_tree_level(entries))
            << "trial " << trial;
    }
}

TEST(SopLevelDiff, RandomSopsMatchReference) {
    Rng rng(9);
    for (int trial = 0; trial < 3000; ++trial) {
        const int num_vars = static_cast<int>(rng.next_below(33));
        const int max_level = std::array{0, 1, 4, 12, 100}[trial % 5];
        const auto fanin = random_levels(num_vars, max_level, rng);
        // Every 20th SOP has more than 256 cubes.
        const int num_cubes = trial % 20 == 0 ? 257 + static_cast<int>(rng.next_below(200))
                                              : static_cast<int>(rng.next_below(12));
        const int density = std::array{10, 40, 80, 100}[trial % 4];
        Sop on(num_vars);
        Sop off(num_vars);
        for (int i = 0; i < num_cubes; ++i) on.add_cube(random_cube(num_vars, density, rng));
        for (int i = 0; i < num_cubes / 2; ++i) off.add_cube(random_cube(num_vars, density, rng));
        const int ref_on = reference_sop_tree_level(on, fanin);
        const int ref_off = reference_sop_tree_level(off, fanin);
        ASSERT_EQ(Network::sop_tree_level(on, fanin), ref_on) << "trial " << trial;
        ASSERT_EQ(Network::sop_level_of(on, off, fanin), std::min(ref_on, ref_off))
            << "trial " << trial;
    }
}

TEST(Network, CriticalFanins) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto c = net.add_pi();
    const auto deep = net.add_node({a, b}, xor2());  // level 1 (xor is 2-cube SOP)
    // h = deep & c: the deep fanin is critical, c is not.
    const auto h = net.add_node({deep, c}, and2());
    net.add_po(h, false, "y");
    const auto levels = net.compute_sop_levels();
    const auto crit = net.critical_fanins(h, levels);
    ASSERT_EQ(crit.size(), 1u);
    EXPECT_EQ(crit[0], deep);
}

TEST(Network, FromAigToAigRoundTrip) {
    for (int bits : {2, 3, 4}) {
        const Aig adder = ripple_carry_adder(bits);
        const Network net = Network::from_aig(adder, 4, 6);
        EXPECT_EQ(net.num_pis(), adder.num_pis());
        EXPECT_EQ(net.num_pos(), adder.num_pos());
        const Aig back = net.to_aig();
        EXPECT_TRUE(check_equivalence(adder, back).equivalent) << bits << " bits";
    }
}

TEST(Network, ClusteringReducesNodeCount) {
    const Aig adder = ripple_carry_adder(8);
    const Network net = Network::from_aig(adder, 5, 8);
    // Clusters swallow multiple AND nodes each.
    std::size_t internal = 0;
    for (std::uint32_t id = 0; id < net.num_nodes(); ++id)
        if (net.is_internal(id)) ++internal;
    EXPECT_LT(internal, adder.num_ands());
}

TEST(Network, AreaRebuildIsEquivalentAndSmaller) {
    const Aig adder = ripple_carry_adder(5);
    const Network net = Network::from_aig(adder, 5, 8);
    const Aig timed = net.to_aig();
    const Aig area = net.to_aig_area();
    EXPECT_TRUE(check_equivalence(adder, timed).equivalent);
    EXPECT_TRUE(check_equivalence(adder, area).equivalent);
    // The factored rebuild never uses more nodes than the timed one.
    EXPECT_LE(area.count_reachable_ands(), timed.count_reachable_ands());
    EXPECT_LE(timed.depth(), area.depth());
}

TEST(Network, SimulateMatchesAig) {
    const Aig adder = ripple_carry_adder(4);
    const Network net = Network::from_aig(adder, 4, 6);
    const SimPatterns patterns = SimPatterns::exhaustive(adder.num_pis());
    const auto aig_sigs = simulate(adder, patterns);
    const auto net_sigs = net.simulate(patterns);
    for (std::size_t o = 0; o < adder.num_pos(); ++o) {
        Signature aig_out = literal_signature(adder, adder.po(o), aig_sigs, patterns.num_patterns());
        Signature net_out = net_sigs[net.po(o).node];
        if (net.po(o).complemented)
            for (std::size_t w = 0; w < net_out.size(); ++w) net_out[w] = ~net_out[w];
        // Mask tail bits before comparing.
        const std::uint64_t tail =
            patterns.num_patterns() % 64 ? (1ULL << (patterns.num_patterns() % 64)) - 1 : ~0ULL;
        aig_out.back() &= tail;
        net_out.back() &= tail;
        EXPECT_EQ(aig_out, net_out) << "po " << o;
    }
}

TEST(Network, SetFunctionInvalidatesSops) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto n = net.add_node({a, b}, and2());
    net.add_po(n, false, "y");
    EXPECT_EQ(net.on_sop(n).num_cubes(), 1u);
    net.set_function(n, xor2());
    EXPECT_EQ(net.on_sop(n).num_cubes(), 2u);
}

TEST(Network, DuplicateConeIsIndependent) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    const auto h = net.add_node({g, a}, xor2());
    net.add_po(h, false, "y");

    std::vector<std::uint32_t> mapping;
    const auto h2 = net.duplicate_cone(h, &mapping);
    EXPECT_NE(h2, h);
    EXPECT_EQ(mapping[h], h2);
    EXPECT_NE(mapping[g], g);
    EXPECT_EQ(mapping[a], a);  // PIs are shared

    // Modifying the copy leaves the original untouched.
    net.set_function(mapping[g], xor2());
    EXPECT_EQ(net.function(g), and2());
    EXPECT_EQ(net.function(mapping[g]), xor2());
}

TEST(Network, EvalNodeSignatureIncremental) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto n = net.add_node({a, b}, xor2());
    net.add_po(n, false, "y");
    const SimPatterns patterns = SimPatterns::exhaustive(2);
    auto sigs = net.simulate(patterns);
    const Signature fresh = net.eval_node_signature(n, sigs, patterns.num_patterns());
    EXPECT_EQ(fresh, sigs[n]);
    EXPECT_EQ(fresh[0] & 0xf, 0x6u);  // xor pattern over minterms 0..3
}

TEST(Network, ToAigWithMapExposesInternalSignals) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    net.add_po(g, true, "y");  // complemented PO
    std::vector<AigLit> map;
    const Aig aig = net.to_aig_with_map(&map);
    EXPECT_EQ(aig.num_pos(), 1u);
    // PO must be the complement of node g's literal.
    EXPECT_EQ(aig.po(0), !map[g]);
}

// --- differential tests: word-parallel node evaluation and the forms memo ---

/// The bit-serial kernel `eval_node_signature` replaced: assembles each
/// pattern's minterm index bit by bit. Kept as the reference.
Signature reference_eval_node_signature(const Network& net, std::uint32_t node,
                                        const std::vector<Signature>& sigs,
                                        std::size_t num_patterns) {
    const auto& fanins = net.fanins(node);
    const TruthTable& tt = net.function(node);
    const std::size_t words = words_for_bits(num_patterns);
    Signature out(words, 0);
    for (std::size_t w = 0; w < words; ++w) {
        const std::size_t limit = std::min<std::size_t>(64, num_patterns - w * 64);
        for (std::size_t b = 0; b < limit; ++b) {
            std::uint32_t minterm = 0;
            for (std::size_t f = 0; f < fanins.size(); ++f)
                minterm |= static_cast<std::uint32_t>((sigs[fanins[f]][w] >> b) & 1) << f;
            if (tt.get_bit(minterm)) out[w] |= 1ULL << b;
        }
    }
    return out;
}

/// The per-node instantiation `to_aig_with_map` used before the forms
/// memo: both ISOPs and both factorings recomputed for every node.
AigLit reference_build_truth_table_timed(Aig& aig, const TruthTable& tt,
                                         const std::vector<AigLit>& fanins,
                                         AigLevelTracker& levels) {
    if (tt.is_const0()) return AigLit::constant(false);
    if (tt.is_const1()) return AigLit::constant(true);
    const Sop on = isop(tt);
    const Sop off = isop(~tt);
    const AigLit timed_on = build_sop_timed(aig, on, fanins, levels);
    const AigLit timed_off = !build_sop_timed(aig, off, fanins, levels);
    const AigLit timed =
        levels.level(timed_off) < levels.level(timed_on) ? timed_off : timed_on;
    const FactorExpr on_expr = factor(on);
    const FactorExpr off_expr = factor(off);
    const AigLit factored = off_expr.num_literals() < on_expr.num_literals()
                                ? !build_factored(aig, off_expr, fanins)
                                : build_factored(aig, on_expr, fanins);
    return levels.level(factored) < levels.level(timed) ? factored : timed;
}

/// `to_aig_with_map` before the forms memo: every node instantiated from
/// its truth table by the reference above.
Aig reference_to_aig_with_map(const Network& net, std::vector<AigLit>* node_map) {
    Aig aig;
    AigLevelTracker levels(aig);
    std::vector<AigLit> map(net.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < net.num_pis(); ++i) map[net.pi(i)] = aig.add_pi(net.pi_name(i));
    for (std::uint32_t id = 1; id < net.num_nodes(); ++id) {
        if (!net.is_internal(id)) continue;
        std::vector<AigLit> fanin_lits;
        for (const auto f : net.fanins(id)) fanin_lits.push_back(map[f]);
        map[id] = reference_build_truth_table_timed(aig, net.function(id), fanin_lits, levels);
    }
    for (std::size_t o = 0; o < net.num_pos(); ++o) {
        const auto& po = net.po(o);
        aig.add_po(po.complemented ? !map[po.node] : map[po.node], po.name);
    }
    *node_map = map;
    return aig;
}

TruthTable random_function(int num_vars, Rng& rng) {
    switch (rng.next_below(8)) {
        case 0: return TruthTable::constant(num_vars, false);
        case 1: return TruthTable::constant(num_vars, true);
        default: break;
    }
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

/// A random network: nodes of 0 up to `cut_size` fanins with random
/// functions (constants included), some functions repeated, and
/// complemented POs.
Network random_network(std::size_t num_pis, std::size_t num_nodes, int cut_size, Rng& rng) {
    Network net;
    std::vector<std::uint32_t> signals;
    for (std::size_t i = 0; i < num_pis; ++i) signals.push_back(net.add_pi());
    signals.push_back(0);  // the constant node is a legal fanin too
    std::vector<TruthTable> seen;
    for (std::size_t n = 0; n < num_nodes; ++n) {
        const int k = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cut_size) + 1));
        std::vector<std::uint32_t> fanins;
        for (int f = 0; f < k; ++f) fanins.push_back(signals[rng.next_below(signals.size())]);
        TruthTable tt = random_function(k, rng);
        for (const auto& prev : seen)  // reuse an earlier function of this arity
            if (prev.num_vars() == k && rng.next_below(3) == 0) {
                tt = prev;
                break;
            }
        seen.push_back(tt);
        signals.push_back(net.add_node(std::move(fanins), std::move(tt)));
    }
    for (int o = 0; o < 4; ++o)
        net.add_po(signals[num_pis + 1 + rng.next_below(signals.size() - num_pis - 1)],
                   rng.next_bool());
    return net;
}

void expect_signatures_match_reference(const Network& net, const SimPatterns& patterns,
                                       const std::string& label) {
    const std::size_t num_patterns = patterns.num_patterns();
    const auto sigs = net.simulate(patterns);
    const std::uint64_t tail = tail_mask(num_patterns);
    for (std::uint32_t id = 1; id < net.num_nodes(); ++id) {
        if (!net.is_internal(id)) continue;
        const Signature ref = reference_eval_node_signature(net, id, sigs, num_patterns);
        ASSERT_EQ(sigs[id], ref) << label << " node " << id;
        ASSERT_EQ(net.eval_node_signature(id, sigs, num_patterns), ref) << label << " node " << id;
        ASSERT_EQ(sigs[id].back() & ~tail, 0u) << label << ": bits past the pattern count";
    }
}

TEST(EvalSignatureDiff, RandomNetworksMatchReference) {
    Rng rng(31);
    for (int trial = 0; trial < 150; ++trial) {
        const int cut_size = 1 + trial % 8;
        const std::size_t num_pis = 1 + rng.next_below(10);
        const Network net = random_network(num_pis, 1 + rng.next_below(40), cut_size, rng);
        const std::string label = "trial " + std::to_string(trial);
        expect_signatures_match_reference(net, SimPatterns::exhaustive(num_pis), label);
        const std::size_t counts[] = {64, 65, 70, 127, 128, 129, 1000};
        expect_signatures_match_reference(
            net, SimPatterns::random(num_pis, counts[trial % 7], rng), label);
    }
}

TEST(EvalSignatureDiff, ClusteredAddersMatchReference) {
    Rng rng(8);
    for (const int cut_size : {2, 4, 5, 6, 8}) {
        const Network net = Network::from_aig(ripple_carry_adder(6), cut_size, 8);
        expect_signatures_match_reference(net, SimPatterns::exhaustive(net.num_pis()),
                                          "cut " + std::to_string(cut_size));
        expect_signatures_match_reference(net, SimPatterns::random(net.num_pis(), 333, rng),
                                          "cut " + std::to_string(cut_size));
    }
}

void expect_to_aig_matches_reference(const Network& net, const std::string& label) {
    std::vector<AigLit> map, ref_map;
    const Aig aig = net.to_aig_with_map(&map);
    const Aig ref = reference_to_aig_with_map(net, &ref_map);
    ASSERT_EQ(aig.num_nodes(), ref.num_nodes()) << label;
    ASSERT_EQ(aig.hash(), ref.hash()) << label;
    ASSERT_EQ(map, ref_map) << label;

    // The truth-table overload of build_truth_table_timed builds the same.
    Aig per_node;
    AigLevelTracker levels(per_node);
    std::vector<AigLit> per_node_map(net.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < net.num_pis(); ++i)
        per_node_map[net.pi(i)] = per_node.add_pi(net.pi_name(i));
    for (std::uint32_t id = 1; id < net.num_nodes(); ++id) {
        if (!net.is_internal(id)) continue;
        std::vector<AigLit> fanin_lits;
        for (const auto f : net.fanins(id)) fanin_lits.push_back(per_node_map[f]);
        per_node_map[id] = build_truth_table_timed(per_node, net.function(id), fanin_lits, levels);
    }
    for (std::size_t o = 0; o < net.num_pos(); ++o) {
        const auto& po = net.po(o);
        per_node.add_po(po.complemented ? !per_node_map[po.node] : per_node_map[po.node],
                        po.name);
    }
    ASSERT_EQ(per_node.hash(), ref.hash()) << label;
}

TEST(ToAigFormsDiff, RandomNetworksMatchPerNodeInstantiation) {
    Rng rng(47);
    for (int trial = 0; trial < 120; ++trial) {
        const int cut_size = 1 + trial % 6;
        Network net = random_network(1 + rng.next_below(8), 1 + rng.next_below(30), cut_size, rng);
        // A duplicated cone repeats every function of the original.
        net.duplicate_cone(net.po(0).node);
        expect_to_aig_matches_reference(net, "trial " + std::to_string(trial));
    }
}

TEST(ToAigFormsDiff, ClusteredAddersMatchPerNodeInstantiation) {
    for (const int bits : {4, 8, 16}) {
        Network net = Network::from_aig(ripple_carry_adder(bits), 5, 8);
        net.duplicate_cone(net.po(net.num_pos() - 1).node);
        expect_to_aig_matches_reference(net, "rca" + std::to_string(bits));
    }
}

}  // namespace
}  // namespace lls
