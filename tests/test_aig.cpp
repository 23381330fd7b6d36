#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Aig, ConstantRules) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    EXPECT_EQ(aig.land(a, AigLit::constant(false)), AigLit::constant(false));
    EXPECT_EQ(aig.land(a, AigLit::constant(true)), a);
    EXPECT_EQ(aig.land(a, a), a);
    EXPECT_EQ(aig.land(a, !a), AigLit::constant(false));
    EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(Aig, StructuralHashing) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit x = aig.land(a, b);
    const AigLit y = aig.land(b, a);  // commuted
    EXPECT_EQ(x, y);
    EXPECT_EQ(aig.num_ands(), 1u);
    const AigLit z = aig.land(!a, b);
    EXPECT_NE(x, z);
    EXPECT_EQ(aig.num_ands(), 2u);
}

TEST(Aig, DerivedOperators) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit s = aig.add_pi("s");
    aig.add_po(aig.lor(a, b), "or");
    aig.add_po(aig.lxor(a, b), "xor");
    aig.add_po(aig.lmux(s, a, b), "mux");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sigs = simulate(aig, patterns);
    for (std::size_t p = 0; p < 8; ++p) {
        const bool va = patterns.pi_value(0, p);
        const bool vb = patterns.pi_value(1, p);
        const bool vs = patterns.pi_value(2, p);
        const auto po_val = [&](std::size_t o) {
            const Signature sig = literal_signature(aig, aig.po(o), sigs, 8);
            return ((sig[0] >> p) & 1) != 0;
        };
        EXPECT_EQ(po_val(0), va || vb);
        EXPECT_EQ(po_val(1), va != vb);
        EXPECT_EQ(po_val(2), vs ? va : vb);
    }
}

TEST(Aig, LevelsAndDepth) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit c = aig.add_pi("c");
    const AigLit ab = aig.land(a, b);
    const AigLit abc = aig.land(ab, c);
    aig.add_po(abc, "y");
    const auto levels = aig.compute_levels();
    EXPECT_EQ(levels[ab.node()], 1);
    EXPECT_EQ(levels[abc.node()], 2);
    EXPECT_EQ(aig.depth(), 2);
}

TEST(Aig, BalancedManyInputAnd) {
    Aig aig;
    std::vector<AigLit> lits;
    for (int i = 0; i < 16; ++i) lits.push_back(aig.add_pi());
    aig.add_po(aig.land_many(lits), "y");
    EXPECT_EQ(aig.depth(), 4);  // ceil(log2(16))
}

TEST(Aig, CleanupRemovesDanglingKeepsInterface) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit unused_pi = aig.add_pi("c");
    (void)unused_pi;
    const AigLit keep = aig.land(a, b);
    (void)aig.land(!a, !b);  // dangling
    aig.add_po(!keep, "y");

    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_pis(), 3u);  // interface preserved
    EXPECT_EQ(clean.num_ands(), 1u);
    EXPECT_EQ(clean.pi_name(2), "c");
    EXPECT_TRUE(clean.po(0).complemented());
}

TEST(Aig, CountReachableAnds) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit x = aig.land(a, b);
    (void)aig.land(!a, b);  // unreachable from POs
    aig.add_po(x);
    EXPECT_EQ(aig.num_ands(), 2u);
    EXPECT_EQ(aig.count_reachable_ands(), 1u);
}

TEST(AigBuild, TruthTableConstruction) {
    Rng rng(31);
    for (int n = 1; n <= 6; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            TruthTable tt(n);
            for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());

            Aig aig;
            std::vector<AigLit> pis;
            for (int i = 0; i < n; ++i) pis.push_back(aig.add_pi());
            aig.add_po(build_truth_table(aig, tt, pis), "y");

            const SimPatterns patterns = SimPatterns::exhaustive(static_cast<std::size_t>(n));
            const auto sigs = simulate(aig, patterns);
            const Signature out = literal_signature(aig, aig.po(0), sigs, patterns.num_patterns());
            for (std::uint64_t m = 0; m < tt.num_minterms(); ++m)
                EXPECT_EQ(((out[m >> 6] >> (m & 63)) & 1) != 0, tt.get_bit(m));
        }
    }
}

TEST(AigBuild, ExtractConeMatchesOutput) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit c = aig.add_pi("c");
    aig.add_po(aig.land(a, b), "y0");
    aig.add_po(aig.lxor(b, c), "y1");

    const Aig cone = extract_cone(aig, 1);
    EXPECT_EQ(cone.num_pos(), 1u);
    EXPECT_EQ(cone.num_pis(), 3u);
    EXPECT_EQ(cone.po_name(0), "y1");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sig_full = simulate(aig, patterns);
    const auto sig_cone = simulate(cone, patterns);
    EXPECT_EQ(literal_signature(aig, aig.po(1), sig_full, 8),
              literal_signature(cone, cone.po(0), sig_cone, 8));
}

TEST(AigBuild, AppendPreservesFunction) {
    Aig src;
    const AigLit a = src.add_pi("a");
    const AigLit b = src.add_pi("b");
    src.add_po(src.lxor(a, b), "x");

    Aig dst;
    const AigLit p = dst.add_pi("p");
    const AigLit q = dst.add_pi("q");
    const auto outs = append_aig(dst, src, {p, !q});  // note complemented mapping
    dst.add_po(outs[0], "y");

    const SimPatterns patterns = SimPatterns::exhaustive(2);
    const auto sigs = simulate(dst, patterns);
    const Signature out = literal_signature(dst, dst.po(0), sigs, 4);
    for (std::uint64_t m = 0; m < 4; ++m) {
        const bool vp = (m >> 0) & 1, vq = (m >> 1) & 1;
        EXPECT_EQ(((out[0] >> m) & 1) != 0, vp != !vq);
    }
}

TEST(Cuts, TruthTablesMatchSimulation) {
    Rng rng(32);
    // Random small circuit; every enumerated cut's function must agree with
    // simulation of the root in terms of the cut leaves.
    Aig aig;
    std::vector<AigLit> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(aig.add_pi());
    for (int i = 0; i < 30; ++i) {
        AigLit x = pool[rng.next_below(pool.size())];
        AigLit y = pool[rng.next_below(pool.size())];
        if (rng.next_bool()) x = !x;
        if (rng.next_bool()) y = !y;
        pool.push_back(aig.land(x, y));
    }
    aig.add_po(pool.back(), "y");

    const SimPatterns patterns = SimPatterns::exhaustive(6);
    const auto sigs = simulate(aig, patterns);
    const CutEnumerator cuts(aig, 4, 6);
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        for (const auto& cut : cuts.cuts(id)) {
            for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
                std::uint32_t minterm = 0;
                for (std::size_t li = 0; li < cut.leaves.size(); ++li)
                    if ((sigs[cut.leaves[li]][p >> 6] >> (p & 63)) & 1)
                        minterm |= 1u << li;
                const bool expected = ((sigs[id][p >> 6] >> (p & 63)) & 1) != 0;
                EXPECT_EQ(cut.tt.get_bit(minterm), expected)
                    << "node " << id << " cut size " << cut.leaves.size();
            }
        }
    }
}

TEST(Cuts, RespectsSizeLimit) {
    Aig aig;
    std::vector<AigLit> lits;
    for (int i = 0; i < 8; ++i) lits.push_back(aig.add_pi());
    aig.add_po(aig.land_many(lits), "y");
    const CutEnumerator cuts(aig, 4, 10);
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id)
        for (const auto& cut : cuts.cuts(id)) EXPECT_LE(cut.leaves.size(), 4u);
}

// Reference cut enumeration: derives every candidate's truth table, then
// ranks by (leaf count, leaf-level sum) and drops dominated cuts.
// CutEnumerator ranks on leaves first and derives functions only for the
// cuts it keeps; the two must produce the same lists.
std::vector<std::vector<AigCut>> reference_cuts(const Aig& aig, int cut_size, int max_cuts) {
    std::vector<std::vector<AigCut>> cuts(aig.num_nodes());
    const auto level = aig.compute_levels();
    auto trivial = [](std::uint32_t id) {
        AigCut c;
        c.leaves = {id};
        c.tt = TruthTable::variable(1, 0);
        return c;
    };
    auto subset = [](const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
        std::size_t i = 0;
        for (auto leaf : a) {
            while (i < b.size() && b[i] < leaf) ++i;
            if (i == b.size() || b[i] != leaf) return false;
        }
        return true;
    };
    auto cut_cost = [&](const AigCut& c) {
        long lvl = 0;
        for (auto l : c.leaves) lvl += level[l];
        return std::make_pair(static_cast<long>(c.leaves.size()), lvl);
    };
    cuts[0].push_back(AigCut{{}, TruthTable(0)});
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (aig.is_pi(id)) {
            cuts[id].push_back(trivial(id));
            continue;
        }
        const auto& n = aig.node(id);
        std::vector<AigCut> cand;
        for (const auto& c0 : cuts[n.fanin0.node()]) {
            for (const auto& c1 : cuts[n.fanin1.node()]) {
                std::vector<std::uint32_t> merged;
                std::set_union(c0.leaves.begin(), c0.leaves.end(), c1.leaves.begin(),
                               c1.leaves.end(), std::back_inserter(merged));
                if (static_cast<int>(merged.size()) > cut_size) continue;
                TruthTable t0 = expand_truth_table(c0.tt, c0.leaves, merged);
                TruthTable t1 = expand_truth_table(c1.tt, c1.leaves, merged);
                if (n.fanin0.complemented()) t0 = ~t0;
                if (n.fanin1.complemented()) t1 = ~t1;
                cand.push_back(AigCut{merged, t0 & t1});
            }
        }
        std::sort(cand.begin(), cand.end(),
                  [&](const AigCut& a, const AigCut& b) { return cut_cost(a) < cut_cost(b); });
        std::vector<AigCut> kept;
        for (auto& c : cand) {
            bool dominated = false;
            for (const auto& k : kept)
                if (subset(k.leaves, c.leaves) || k.leaves == c.leaves) {
                    dominated = true;
                    break;
                }
            if (!dominated) kept.push_back(std::move(c));
            if (static_cast<int>(kept.size()) == max_cuts) break;
        }
        kept.push_back(trivial(id));
        cuts[id] = std::move(kept);
    }
    return cuts;
}

/// Every (cut_size, max_cuts) shape the library enumerates with:
/// delay/area restructure, SIS-style restructure, network clustering,
/// technology mapping and exact rewriting.
constexpr std::pair<int, int> kCutShapes[] = {{8, 6}, {6, 6}, {5, 8}, {4, 8}, {4, 6}};

void expect_cuts_match_reference(const Aig& aig, const std::string& name) {
    for (const auto& [cut_size, max_cuts] : kCutShapes) {
        const CutEnumerator cuts(aig, cut_size, max_cuts);
        const auto ref = reference_cuts(aig, cut_size, max_cuts);
        for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
            const auto& got = cuts.cuts(id);
            ASSERT_EQ(got.size(), ref[id].size())
                << name << " node " << id << " shape " << cut_size << "/" << max_cuts;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].leaves, ref[id][i].leaves)
                    << name << " node " << id << " cut " << i << " shape " << cut_size << "/"
                    << max_cuts;
                ASSERT_TRUE(got[i].tt == ref[id][i].tt)
                    << name << " node " << id << " cut " << i << " shape " << cut_size << "/"
                    << max_cuts;
            }
        }
    }
}

TEST(CutsDiff, RegressionCircuitsMatchReference) {
    expect_cuts_match_reference(ripple_carry_adder(16), "rca16");
    expect_cuts_match_reference(synthetic_control_circuit({"control24", 24, 8, 8, 8, 24}),
                                "control24");
    for (const auto& p : table2_profiles())
        if (p.name == "C880") expect_cuts_match_reference(synthetic_control_circuit(p), "C880");
}

TEST(CutsDiff, RandomAigsMatchReference) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        Aig aig;
        std::vector<AigLit> pool;
        const int num_pis = 4 + static_cast<int>(rng.next_below(10));
        for (int i = 0; i < num_pis; ++i) pool.push_back(aig.add_pi());
        for (int i = 0; i < 150; ++i) {
            // Bias towards recent nodes so the graph grows deep, with
            // reconvergence and complemented edges.
            const auto recent = std::min<std::size_t>(pool.size(), 12);
            AigLit x = pool[pool.size() - 1 - rng.next_below(recent)];
            AigLit y = pool[rng.next_below(pool.size())];
            if (rng.next_bool()) x = !x;
            if (rng.next_bool()) y = !y;
            pool.push_back(aig.land(x, y));
        }
        for (int o = 0; o < 4; ++o) aig.add_po(pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
        expect_cuts_match_reference(aig, "random seed " + std::to_string(seed));
    }
}

TEST(Aig, HashChangesWithStructure) {
    Aig a;
    const AigLit x = a.add_pi();
    const AigLit y = a.add_pi();
    a.add_po(a.land(x, y));
    Aig b;
    const AigLit p = b.add_pi();
    const AigLit q = b.add_pi();
    b.add_po(b.lor(p, q));
    EXPECT_NE(a.hash(), b.hash());
}

}  // namespace
}  // namespace lls
