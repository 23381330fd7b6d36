#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitops.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

TEST(SimPatterns, ExhaustiveEnumeratesAllMinterm) {
    const SimPatterns p = SimPatterns::exhaustive(4);
    EXPECT_EQ(p.num_patterns(), 16u);
    EXPECT_TRUE(p.is_exhaustive());
    for (std::size_t m = 0; m < 16; ++m)
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_EQ(p.pi_value(i, m), ((m >> i) & 1) != 0);
}

TEST(SimPatterns, RandomIsDeterministicPerSeed) {
    Rng rng1(42), rng2(42), rng3(43);
    const SimPatterns a = SimPatterns::random(5, 256, rng1);
    const SimPatterns b = SimPatterns::random(5, 256, rng2);
    const SimPatterns c = SimPatterns::random(5, 256, rng3);
    EXPECT_EQ(a.pi_bits(3), b.pi_bits(3));
    EXPECT_NE(a.pi_bits(3), c.pi_bits(3));
    EXPECT_FALSE(a.is_exhaustive());
}

TEST(SimPatterns, TailBitsAreMasked) {
    Rng rng(7);
    const SimPatterns p = SimPatterns::random(3, 100, rng);
    EXPECT_EQ(p.num_words(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(p.pi_bits(i)[1] >> (100 - 64), 0u) << "pattern bits beyond count must be zero";
}

TEST(Simulate, MatchesSemanticsExhaustively) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit c = aig.add_pi();
    const AigLit f = aig.lor(aig.land(a, !b), aig.lxor(b, c));
    aig.add_po(f, "y");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sigs = simulate(aig, patterns);
    const Signature out = literal_signature(aig, aig.po(0), sigs, 8);
    for (std::uint64_t m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        EXPECT_EQ(((out[0] >> m) & 1) != 0, (va && !vb) || (vb != vc));
    }
}

TEST(TimingSim, ConstantInputsGiveZeroArrival) {
    // A chain of buffers-of-ANDs: with both fanins non-controlling the
    // arrival accumulates; a controlling zero resets it to the zero's arrival.
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    AigLit chain = aig.land(a, b);
    for (int i = 0; i < 5; ++i) chain = aig.land(chain, b);
    aig.add_po(chain, "y");

    const SimPatterns patterns = SimPatterns::exhaustive(2);
    const auto sigs = simulate(aig, patterns);
    const auto timing = timing_simulate(aig, patterns, sigs);
    // Pattern a=1,b=1 (minterm 3): all non-controlling -> full chain length 6.
    EXPECT_EQ(timing.po_arrival[0][3], 6);
    // Pattern a=0,b=0 (minterm 0): every AND has an immediately-arriving
    // controlling 0 -> the whole chain settles at arrival 1.
    EXPECT_EQ(timing.po_arrival[0][0], 1);
    // Pattern a=1,b=0 (minterm 1): b kills the first AND at arrival 0 and
    // every later AND too -> arrival stays 1.
    EXPECT_EQ(timing.po_arrival[0][1], 1);
    // Pattern a=0,b=1 (minterm 2): only the first AND is controlled; its 0
    // then *ripples* down the chain (a late controlling value still delays).
    EXPECT_EQ(timing.po_arrival[0][2], 6);
    EXPECT_EQ(timing.max_arrival, 6);
}

TEST(TimingSim, RippleCarryWorstCaseIsCarryPropagation) {
    // 8-bit RCA: the all-propagate pattern (a=0xFF, b=0x00 or 0x01, cin=1)
    // must sensitize a much longer path than a=0,b=0.
    const Aig adder = ripple_carry_adder(8);
    // PIs: a0..a7, b0..b7, cin => 17 PIs; use targeted patterns via random
    // set replaced by a tiny custom exhaustive check over chosen vectors:
    // build patterns manually through Rng-free construction is not exposed,
    // so probe with exhaustive simulation of a 4-bit adder instead.
    const Aig small = ripple_carry_adder(4);
    const SimPatterns patterns = SimPatterns::exhaustive(9);
    const auto sigs = simulate(small, patterns);
    const auto timing = timing_simulate(small, patterns, sigs);

    // cout is the last PO.
    const auto& cout_arrival = timing.po_arrival[4];
    // Pattern: a=1111 (PIs 0..3 set), b=0000, cin=1 (PI 8) -> full ripple.
    const std::size_t ripple = 0b1'0000'1111;
    // Pattern: a=0, b=0, cin=0 -> carry chain killed at every stage.
    const std::size_t quiet = 0;
    EXPECT_GT(cout_arrival[ripple], cout_arrival[quiet]);
    // Floating-mode arrival is bounded by the topological depth and the
    // ripple pattern must sensitize a substantial fraction of it.
    EXPECT_LE(timing.max_arrival, small.depth());
    EXPECT_GE(timing.max_arrival, small.depth() / 2);
    (void)adder;
}

TEST(TimingSim, ArrivalNeverExceedsTopologicalLevel) {
    const Aig adder = ripple_carry_adder(5);
    const SimPatterns patterns = SimPatterns::exhaustive(11);
    const auto sigs = simulate(adder, patterns);
    const auto timing = timing_simulate(adder, patterns, sigs);
    const auto levels = adder.compute_levels();
    for (std::size_t o = 0; o < adder.num_pos(); ++o) {
        const int topo = levels[adder.po(o).node()];
        for (const auto a : timing.po_arrival[o]) EXPECT_LE(a, topo);
    }
}

TEST(LiteralSignature, ComplementIsMasked) {
    Aig aig;
    const AigLit a = aig.add_pi();
    aig.add_po(!a, "y");
    Rng rng(5);
    const SimPatterns patterns = SimPatterns::random(1, 70, rng);
    const auto sigs = simulate(aig, patterns);
    const Signature out = literal_signature(aig, aig.po(0), sigs, 70);
    EXPECT_EQ(out[1] >> (70 - 64), 0u);  // no stray bits beyond the pattern count
}

// --- differential tests: bit-sliced timing simulation vs the scalar kernel ---

/// The scalar pattern-by-pattern kernel `timing_simulate` replaced; kept
/// here as the reference the bit-sliced kernel must match exactly.
TimingSimResult reference_timing_simulate(const Aig& aig, const SimPatterns& patterns,
                                          const std::vector<Signature>& node_sigs) {
    TimingSimResult result;
    result.po_arrival.assign(aig.num_pos(),
                             std::vector<std::int32_t>(patterns.num_patterns(), 0));
    std::vector<std::int32_t> arrival(aig.num_nodes(), 0);
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        const std::size_t word = p >> 6;
        const std::uint64_t bit = 1ULL << (p & 63);
        for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            const bool v0 =
                ((node_sigs[n.fanin0.node()][word] & bit) != 0) != n.fanin0.complemented();
            const bool v1 =
                ((node_sigs[n.fanin1.node()][word] & bit) != 0) != n.fanin1.complemented();
            const std::int32_t a0 = arrival[n.fanin0.node()];
            const std::int32_t a1 = arrival[n.fanin1.node()];
            std::int32_t a;
            if (v0 && v1)
                a = std::max(a0, a1);
            else if (!v0 && !v1)
                a = std::min(a0, a1);
            else
                a = v0 ? a1 : a0;
            arrival[id] = a + 1;
        }
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const std::int32_t a = arrival[aig.po(o).node()];
            result.po_arrival[o][p] = a;
            result.max_arrival = std::max(result.max_arrival, a);
        }
    }
    return result;
}

AigLit random_lit(const std::vector<AigLit>& pool, Rng& rng) {
    const AigLit l = pool[rng.next_below(pool.size())];
    return rng.next_bool() ? !l : l;
}

/// A random AIG over `num_pis` PIs: `num_ands` ANDs of random, randomly
/// complemented earlier signals, with complemented POs, PI POs and a
/// constant PO among the outputs.
Aig random_aig(std::size_t num_pis, std::size_t num_ands, Rng& rng) {
    Aig aig;
    std::vector<AigLit> pool;
    for (std::size_t i = 0; i < num_pis; ++i) pool.push_back(aig.add_pi());
    for (std::size_t i = 0; i < num_ands; ++i)
        pool.push_back(aig.land(random_lit(pool, rng), random_lit(pool, rng)));
    for (int o = 0; o < 6; ++o) aig.add_po(random_lit(pool, rng));
    aig.add_po(pool.back());
    aig.add_po(rng.next_bool() ? pool.front() : !pool.front());
    aig.add_po(AigLit::constant(rng.next_bool()));
    return aig;
}

/// An AIG of depth exactly `depth`: a chain of ANDs, each joining the chain
/// (in a random phase) with a randomly complemented PI, plus a shallow
/// random side network.
Aig chain_aig(int depth, Rng& rng) {
    Aig aig;
    std::vector<AigLit> pis;
    for (int i = 0; i < 6; ++i) pis.push_back(aig.add_pi());
    AigLit chain = pis[0];
    for (int d = 0; d < depth; ++d) {
        AigLit side = random_lit(pis, rng);
        if (side.node() == chain.node()) side = chain.node() == pis[1].node() ? pis[2] : pis[1];
        chain = aig.land(rng.next_bool() ? !chain : chain, side);
    }
    aig.add_po(rng.next_bool() ? !chain : chain);
    aig.add_po(aig.land(random_lit(pis, rng), aig.lor(random_lit(pis, rng), random_lit(pis, rng))));
    return aig;
}

void expect_timing_matches_reference(const Aig& aig, const SimPatterns& patterns,
                                     const std::string& label) {
    const auto sigs = simulate(aig, patterns);
    const TimingSimResult fast = timing_simulate(aig, patterns, sigs);
    const TimingSimResult ref = reference_timing_simulate(aig, patterns, sigs);
    ASSERT_EQ(fast.max_arrival, ref.max_arrival) << label;
    ASSERT_EQ(fast.po_arrival.size(), ref.po_arrival.size()) << label;
    for (std::size_t o = 0; o < ref.po_arrival.size(); ++o)
        ASSERT_EQ(fast.po_arrival[o], ref.po_arrival[o]) << label << " po " << o;
}

TEST(TimingSimDiff, RandomAigsMatchReference) {
    Rng rng(2024);
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t num_pis = 1 + rng.next_below(12);
        const std::size_t num_ands = rng.next_below(trial % 10 == 0 ? 600 : 80);
        const Aig aig = random_aig(num_pis, num_ands, rng);
        const std::string label = "trial " + std::to_string(trial);
        expect_timing_matches_reference(aig, SimPatterns::exhaustive(num_pis), label);
        // Pattern counts on and off word boundaries.
        const std::size_t counts[] = {64, 65, 100, 127, 128, 200};
        expect_timing_matches_reference(
            aig, SimPatterns::random(num_pis, counts[trial % 6], rng), label);
    }
}

TEST(TimingSimDiff, DepthsOnPlaneBoundariesMatchReference) {
    // Depths 0, 1, 63, 64, 127 and 128 need 0, 1, 6, 7, 7 and 8 bit-planes.
    Rng rng(77);
    for (const int depth : {0, 1, 2, 3, 63, 64, 127, 128}) {
        for (int trial = 0; trial < 4; ++trial) {
            const Aig aig = chain_aig(depth, rng);
            ASSERT_EQ(aig.depth(), std::max(depth, 2));
            const std::string label = "depth " + std::to_string(depth);
            expect_timing_matches_reference(aig, SimPatterns::exhaustive(6), label);
            expect_timing_matches_reference(aig, SimPatterns::random(6, 64 + 37 * trial, rng),
                                            label);
        }
    }
    // A chain whose only output is the deep one: max_arrival reaches the
    // top plane value exactly under the all-sensitizing pattern.
    for (const int depth : {1, 63, 64, 127, 128}) {
        Aig aig;
        const AigLit a = aig.add_pi();
        const AigLit b = aig.add_pi();
        AigLit chain = a;
        for (int d = 0; d < depth; ++d) chain = aig.land(chain, b);
        aig.add_po(chain);
        const SimPatterns patterns = SimPatterns::exhaustive(2);
        const auto sigs = simulate(aig, patterns);
        const TimingSimResult fast = timing_simulate(aig, patterns, sigs);
        EXPECT_EQ(fast.max_arrival, depth);
        expect_timing_matches_reference(aig, patterns, "chain " + std::to_string(depth));
    }
}

TEST(TimingSimDiff, OutputsWithoutGatesHaveZeroArrival) {
    Aig aig;
    const AigLit a = aig.add_pi();
    aig.add_po(a);
    aig.add_po(!a);
    aig.add_po(AigLit::constant(true));
    Rng rng(3);
    const SimPatterns patterns = SimPatterns::random(1, 100, rng);
    const auto sigs = simulate(aig, patterns);
    const TimingSimResult fast = timing_simulate(aig, patterns, sigs);
    EXPECT_EQ(fast.max_arrival, 0);
    for (const auto& row : fast.po_arrival) {
        ASSERT_EQ(row.size(), 100u);
        EXPECT_TRUE(std::all_of(row.begin(), row.end(), [](std::int32_t v) { return v == 0; }));
    }
    expect_timing_matches_reference(aig, patterns, "no gates");
}

TEST(TimingSimDiff, AddersMatchReference) {
    Rng rng(5);
    for (const int bits : {4, 6, 16, 32}) {
        const Aig adder = ripple_carry_adder(bits);
        const std::string label = "rca" + std::to_string(bits);
        if (adder.num_pis() <= SimPatterns::kMaxExhaustivePis)
            expect_timing_matches_reference(adder, SimPatterns::exhaustive(adder.num_pis()),
                                            label);
        expect_timing_matches_reference(adder, SimPatterns::random(adder.num_pis(), 300, rng),
                                        label);
    }
}

}  // namespace
}  // namespace lls
