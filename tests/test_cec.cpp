#include "cec/cec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "aig/aig_build.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Cec, IdenticalCircuitsAreEquivalent) {
    const Aig a = ripple_carry_adder(4);
    const CecResult r = check_equivalence(a, a);
    EXPECT_TRUE(r.resolved);
    EXPECT_TRUE(r.equivalent);
}

TEST(Cec, AddersOfDifferentArchitecturesAreEquivalent) {
    // The strongest functional test available: three structurally different
    // adders computing the same arithmetic.
    const Aig rca = ripple_carry_adder(6);
    const Aig cla = carry_lookahead_adder(6);
    const Aig csa = carry_select_adder(6, 2);
    EXPECT_TRUE(check_equivalence(rca, cla).equivalent);
    EXPECT_TRUE(check_equivalence(rca, csa).equivalent);
    EXPECT_TRUE(check_equivalence(cla, csa).equivalent);
}

TEST(Cec, DetectsSingleOutputDifference) {
    Aig a, b;
    for (int i = 0; i < 3; ++i) {
        a.add_pi();
        b.add_pi();
    }
    a.add_po(a.land(a.pi_lit(0), a.pi_lit(1)), "y");
    b.add_po(b.lor(b.pi_lit(0), b.pi_lit(1)), "y");
    const CecResult r = check_equivalence(a, b);
    ASSERT_TRUE(r.resolved);
    EXPECT_FALSE(r.equivalent);
    // The counterexample must actually distinguish the two circuits.
    ASSERT_EQ(r.counterexample.size(), 3u);
    const bool va = r.counterexample[0], vb = r.counterexample[1];
    EXPECT_NE(va && vb, va || vb);
}

TEST(Cec, SatPathOnWideCircuits) {
    // > 14 PIs forces the SAT path (no exhaustive shortcut).
    const Aig rca = ripple_carry_adder(8);  // 17 PIs
    const Aig cla = carry_lookahead_adder(8);
    const CecResult r = check_equivalence(rca, cla);
    EXPECT_TRUE(r.resolved);
    EXPECT_TRUE(r.equivalent);

    // And a deliberately broken copy must be caught.
    Aig broken = ripple_carry_adder(8);
    broken.set_po(0, !broken.po(0));
    const CecResult r2 = check_equivalence(rca, broken);
    EXPECT_TRUE(r2.resolved);
    EXPECT_FALSE(r2.equivalent);
}

/// Random multi-output AIG: each node ANDs two earlier literals with random
/// polarities, so some nodes end up unobservable or redundant.
Aig random_aig(Rng& rng, std::size_t num_pis, std::size_t num_ands, std::size_t num_pos) {
    Aig aig;
    std::vector<AigLit> lits;
    for (std::size_t i = 0; i < num_pis; ++i) lits.push_back(aig.add_pi());
    for (std::size_t i = 0; i < num_ands; ++i) {
        const AigLit x = lits[rng.next_below(lits.size())];
        const AigLit y = lits[rng.next_below(lits.size())];
        lits.push_back(aig.land(rng.next_bool() ? !x : x, rng.next_bool() ? !y : y));
    }
    for (std::size_t o = 0; o < num_pos; ++o) {
        const AigLit l = lits[lits.size() - 1 - rng.next_below(std::min(lits.size(), num_ands + 1))];
        aig.add_po(rng.next_bool() ? !l : l);
    }
    return aig;
}

/// Copy of `aig` with `extra_pis` unused inputs appended and, when `flip`
/// names an AND node, the first fanin of that node complemented.
Aig rebuild(const Aig& aig, std::size_t extra_pis, std::uint32_t flip = 0) {
    Aig out;
    std::vector<AigLit> map(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) map[aig.pi(i)] = out.add_pi();
    for (std::size_t i = 0; i < extra_pis; ++i) out.add_pi();
    const auto lit_of = [&](AigLit l) { return l.complemented() ? !map[l.node()] : map[l.node()]; };
    for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const AigLit f0 = lit_of(aig.node(id).fanin0);
        map[id] = out.land(id == flip ? !f0 : f0, lit_of(aig.node(id).fanin1));
    }
    for (std::size_t o = 0; o < aig.num_pos(); ++o) out.add_po(lit_of(aig.po(o)));
    return out;
}

/// Reference verdict: every PO agrees on all 2^n input patterns.
bool exhaustively_equal(const Aig& a, const Aig& b) {
    const SimPatterns patterns = SimPatterns::exhaustive(a.num_pis());
    const auto sigs_a = simulate(a, patterns);
    const auto sigs_b = simulate(b, patterns);
    for (std::size_t o = 0; o < a.num_pos(); ++o)
        if (literal_signature(a, a.po(o), sigs_a, patterns.num_patterns()) !=
            literal_signature(b, b.po(o), sigs_b, patterns.num_patterns()))
            return false;
    return true;
}

/// Evaluates every PO of `aig` under one input assignment.
std::vector<bool> evaluate_pos(const Aig& aig, const std::vector<bool>& inputs) {
    std::vector<bool> value(aig.num_nodes(), false);
    for (std::size_t i = 0; i < aig.num_pis(); ++i) value[aig.pi(i)] = inputs[i];
    const auto lit_value = [&](AigLit l) { return value[l.node()] != l.complemented(); };
    for (std::uint32_t id = 0; id < aig.num_nodes(); ++id)
        if (aig.is_and(id))
            value[id] = lit_value(aig.node(id).fanin0) && lit_value(aig.node(id).fanin1);
    std::vector<bool> pos;
    for (std::size_t o = 0; o < aig.num_pos(); ++o) pos.push_back(lit_value(aig.po(o)));
    return pos;
}

/// check_equivalence(a, b) must resolve to `want`, and a non-equivalent
/// verdict must carry a counterexample that distinguishes the circuits.
void expect_verdict(const Aig& a, const Aig& b, bool want, const std::string& where) {
    const CecResult r = check_equivalence(a, b);
    ASSERT_TRUE(r.resolved) << where;
    ASSERT_EQ(r.equivalent, want) << where;
    if (want) return;
    ASSERT_EQ(r.counterexample.size(), a.num_pis()) << where;
    EXPECT_NE(evaluate_pos(a, r.counterexample), evaluate_pos(b, r.counterexample)) << where;
}

TEST(CecDiff, AgreesWithExhaustiveSimulation) {
    // Differential test of the checker against exhaustive simulation on
    // outputs of at most 14 PIs. Each random circuit is compared with itself
    // and with every copy that has one flipped gate (some flips are
    // unobservable, so both verdicts occur). Each pair is checked as is,
    // which takes the checker's exhaustive path, and again with unused PIs
    // padding the interface past 14, which forces its SAT path.
    Rng rng(20091);
    int equivalent = 0, different = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t num_pis = 1 + rng.next_below(SimPatterns::kMaxExhaustivePis);
        const std::size_t pad = SimPatterns::kMaxExhaustivePis + 1 - num_pis + rng.next_below(4);
        const Aig aig = random_aig(rng, num_pis, 4 + rng.next_below(40), 1 + rng.next_below(4));
        const Aig padded = rebuild(aig, pad);
        expect_verdict(aig, aig, true, "trial " + std::to_string(trial));
        expect_verdict(padded, padded, true, "padded trial " + std::to_string(trial));
        for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const Aig flipped = rebuild(aig, 0, id);
            const bool want = exhaustively_equal(aig, flipped);
            const std::string where = "trial " + std::to_string(trial) + " gate " +
                                      std::to_string(id);
            expect_verdict(aig, flipped, want, where);
            expect_verdict(padded, rebuild(aig, pad, id), want, "padded " + where);
            ++(want ? equivalent : different);
        }
    }
    EXPECT_GT(equivalent, 0);
    EXPECT_GT(different, 0);
}

TEST(EncodeAig, MiterSemantics) {
    Aig a;
    const AigLit x = a.add_pi();
    const AigLit y = a.add_pi();
    a.add_po(a.lxor(x, y), "x^y");

    sat::Solver solver;
    std::vector<int> pi_vars{solver.new_var(), solver.new_var()};
    const auto pos = encode_aig(a, solver, pi_vars);
    ASSERT_EQ(pos.size(), 1u);
    // Force output 1 with x = y: UNSAT.
    EXPECT_EQ(solver.solve({pos[0], sat::Lit(pi_vars[0], false), sat::Lit(pi_vars[1], false)}),
              sat::Status::Unsat);
    // Force output 1 with x != y: SAT.
    EXPECT_EQ(solver.solve({pos[0], sat::Lit(pi_vars[0], false), sat::Lit(pi_vars[1], true)}),
              sat::Status::Sat);
}

/// Joint circuit of `a` and `b` over shared PIs; its PO o is
/// a.po(o) XOR b.po(o), so a PO is satisfiable iff the pair differs.
Aig xor_miter(const Aig& a, const Aig& b) {
    Aig joint;
    std::vector<AigLit> pi_map;
    for (std::size_t i = 0; i < a.num_pis(); ++i) pi_map.push_back(joint.add_pi());
    const auto pos_a = append_aig(joint, a, pi_map);
    const auto pos_b = append_aig(joint, b, pi_map);
    for (std::size_t o = 0; o < a.num_pos(); ++o) joint.add_po(joint.lxor(pos_a[o], pos_b[o]));
    return joint;
}

/// Node ids in the transitive fan-in of `lit` (PIs included, the constant
/// excluded), by a recursive reference walk.
void fanin_cone(const Aig& aig, AigLit lit, std::vector<char>* in_cone) {
    const std::uint32_t id = lit.node();
    if (id == 0 || (*in_cone)[id]) return;
    (*in_cone)[id] = 1;
    if (!aig.is_and(id)) return;
    fanin_cone(aig, aig.node(id).fanin0, in_cone);
    fanin_cone(aig, aig.node(id).fanin1, in_cone);
}

TEST(AigCnfDiff, LazyAndEagerEncodingsAgree) {
    // The lazy encoder must answer every miter query as the eager whole-AIG
    // encoding does, with one solver each asked PO by PO. Every Sat model of
    // the lazy encoder, with PIs outside the loaded cones read as 0, must be
    // a real counterexample under simulation. Unused padding PIs and random
    // cones that miss some PIs exercise that fill.
    Rng rng(18);
    int sat = 0, unsat = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t num_pis = 2 + rng.next_below(20);
        const Aig a = rebuild(random_aig(rng, num_pis, 4 + rng.next_below(60),
                                         1 + rng.next_below(4)),
                              rng.next_below(3));
        Aig b;
        if (trial % 3 == 0) {
            b = sat_sweep(a, rng);  // equivalent, structurally different
        } else {
            std::uint32_t flip = static_cast<std::uint32_t>(rng.next_below(a.num_nodes()));
            while (!a.is_and(flip)) flip = static_cast<std::uint32_t>(rng.next_below(a.num_nodes()));
            b = rebuild(a, 0, flip);
        }
        const Aig miter = xor_miter(a, b);

        sat::Solver eager;
        std::vector<int> pi_vars(miter.num_pis());
        for (auto& v : pi_vars) v = eager.new_var();
        const auto eager_pos = encode_aig(miter, eager, pi_vars);
        sat::Solver lazy;
        AigCnf cnf(miter, lazy);
        for (std::size_t o = 0; o < miter.num_pos(); ++o) {
            const std::string where = "trial " + std::to_string(trial) + " po " + std::to_string(o);
            const sat::Status want = eager.solve({eager_pos[o]});
            ASSERT_EQ(lazy.solve({cnf.lit(miter.po(o))}), want) << where;
            if (want == sat::Status::Unsat) {
                ++unsat;
                continue;
            }
            ++sat;
            std::vector<bool> cex(miter.num_pis());
            for (std::size_t i = 0; i < cex.size(); ++i) cex[i] = cnf.pi_value(i);
            EXPECT_TRUE(evaluate_pos(miter, cex)[o]) << where;
            for (std::size_t i = 0; i < cex.size(); ++i) cex[i] = eager.model_value(pi_vars[i]);
            EXPECT_TRUE(evaluate_pos(miter, cex)[o]) << where;
        }
    }
    EXPECT_GT(sat, 0);
    EXPECT_GT(unsat, 0);
}

TEST(AigCnf, OneQueryLoadsExactlyItsFaninConePlusTheConstant) {
    Aig aig = ripple_carry_adder(8);
    sat::Solver solver;
    AigCnf cnf(aig, solver);
    EXPECT_EQ(cnf.num_loaded(), 1u);  // the constant

    const AigLit po = aig.po(2);
    std::vector<char> in_cone(aig.num_nodes(), 0);
    fanin_cone(aig, po, &in_cone);
    const std::size_t cone = static_cast<std::size_t>(std::count(in_cone.begin(), in_cone.end(), 1));
    ASSERT_LT(cone + 1, aig.num_nodes());  // a proper sub-cone
    const sat::Lit x = cnf.lit(po);
    EXPECT_EQ(cnf.num_loaded(), cone + 1);
    EXPECT_EQ(solver.num_vars(), static_cast<int>(cone + 1));
    ASSERT_EQ(solver.solve({x}), sat::Status::Sat);
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
        if (in_cone[aig.pi(i)]) continue;
        EXPECT_FALSE(cnf.pi_value(i)) << "PI " << i;
    }

    // Asking again loads nothing; a node added after construction loads
    // only itself on top of the loaded cone.
    EXPECT_EQ(cnf.lit(!po), !x);
    EXPECT_EQ(cnf.num_loaded(), cone + 1);
    const AigLit grown = aig.land(po, aig.pi_lit(0));
    in_cone.resize(aig.num_nodes(), 0);
    fanin_cone(aig, grown, &in_cone);
    const std::size_t grown_cone =
        static_cast<std::size_t>(std::count(in_cone.begin(), in_cone.end(), 1));
    ASSERT_EQ(solver.solve({cnf.lit(grown)}), sat::Status::Sat);
    EXPECT_EQ(cnf.num_loaded(), grown_cone + 1);
}

TEST(SatSweep, MergesDuplicatedLogic) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit c = aig.add_pi();
    // Build XOR twice with different structures; the sweep must share them.
    const AigLit x1 = aig.lor(aig.land(a, !b), aig.land(!a, b));
    const AigLit x2 = !aig.lor(aig.land(a, b), aig.land(!a, !b));  // xnor complemented
    aig.add_po(aig.land(x1, c), "y0");
    aig.add_po(aig.land(x2, c), "y1");

    Rng rng(1);
    const Aig swept = sat_sweep(aig, rng);
    EXPECT_TRUE(check_equivalence(aig, swept).equivalent);
    EXPECT_LT(swept.count_reachable_ands(), aig.count_reachable_ands());
    // After merging x1 == x2 the two POs share a single driver.
    EXPECT_EQ(swept.po(0), swept.po(1));
}

TEST(SatSweep, DetectsConstantNodes) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    // (a & b) & (a & !b) == 0, hidden behind two levels.
    const AigLit z = aig.land(aig.land(a, b), aig.land(a, !b));
    aig.add_po(aig.lor(z, b), "y");
    Rng rng(2);
    const Aig swept = sat_sweep(aig, rng);
    EXPECT_TRUE(check_equivalence(aig, swept).equivalent);
    EXPECT_EQ(swept.count_reachable_ands(), 0u);  // y collapses to just b
}

TEST(SatSweep, PreservesEquivalenceOnAdders) {
    Rng rng(3);
    for (int bits : {3, 5, 8}) {
        const Aig adder = ripple_carry_adder(bits);
        const Aig swept = sat_sweep(adder, rng);
        EXPECT_TRUE(check_equivalence(adder, swept).equivalent) << bits;
        EXPECT_LE(swept.count_reachable_ands(), adder.count_reachable_ands());
    }
}

}  // namespace
}  // namespace lls
