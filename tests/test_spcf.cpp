#include "spcf/spcf.hpp"

#include <gtest/gtest.h>

#include "io/generators.hpp"

namespace lls {
namespace {

struct SpcfFixture : ::testing::Test {
    void build(int bits) {
        adder = ripple_carry_adder(bits);
        patterns = SimPatterns::exhaustive(adder.num_pis());
        sigs = simulate(adder, patterns);
    }
    Aig adder;
    SimPatterns patterns;
    std::vector<Signature> sigs;
};

TEST_F(SpcfFixture, DefaultDeltaIsMaxArrival) {
    build(4);
    const Spcf spcf = compute_spcf(adder, patterns, sigs);
    EXPECT_EQ(spcf.delta, spcf.max_arrival);
    EXPECT_GT(spcf.max_arrival, 0);
    // At the max-arrival threshold, at least one output has a nonempty SPCF.
    bool any = false;
    for (std::size_t o = 0; o < adder.num_pos(); ++o) any = any || !spcf.empty(o);
    EXPECT_TRUE(any);
}

TEST_F(SpcfFixture, MonotonicInDelta) {
    build(4);
    const Spcf strict = compute_spcf(adder, patterns, sigs);
    const Spcf loose = compute_spcf(adder, patterns, sigs, strict.max_arrival - 2);
    for (std::size_t o = 0; o < adder.num_pos(); ++o) {
        EXPECT_GE(loose.count(o), strict.count(o));
        // Every strictly-critical pattern is also loosely critical.
        for (std::size_t w = 0; w < strict.po_spcf[o].size(); ++w)
            EXPECT_EQ(strict.po_spcf[o][w] & ~loose.po_spcf[o][w], 0u);
    }
}

TEST_F(SpcfFixture, CriticalOutputIsTheDeepOne) {
    build(5);
    const Spcf spcf = compute_spcf(adder, patterns, sigs);
    // The most-significant sum and cout carry the longest sensitized paths;
    // sum0 = a0 ^ b0 ^ cin is shallow and must have an empty SPCF at delta.
    EXPECT_TRUE(spcf.empty(0));
    const std::size_t last_sum = adder.num_pos() - 2;
    const std::size_t cout = adder.num_pos() - 1;
    EXPECT_TRUE(!spcf.empty(last_sum) || !spcf.empty(cout));
    EXPECT_EQ(spcf.po_max_arrival[cout],
              *std::max_element(spcf.po_max_arrival.begin(), spcf.po_max_arrival.end()));
}

TEST_F(SpcfFixture, SpcfPatternsSensitizeLongPaths) {
    build(3);
    const Spcf spcf = compute_spcf(adder, patterns, sigs);
    const std::size_t cout = adder.num_pos() - 1;
    if (spcf.empty(cout)) GTEST_SKIP() << "cout not critical in this structure";
    // Cross-check the signature against a recomputation of arrivals.
    const TimingSimResult timing = timing_simulate(adder, patterns, sigs);
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        const bool in_spcf = (spcf.po_spcf[cout][p >> 6] >> (p & 63)) & 1;
        EXPECT_EQ(in_spcf, timing.po_arrival[cout][p] >= spcf.delta);
    }
}

TEST(Spcf, CountAndEmptyAgree) {
    const Aig adder = ripple_carry_adder(3);
    const SimPatterns patterns = SimPatterns::exhaustive(adder.num_pis());
    const auto sigs = simulate(adder, patterns);
    const Spcf spcf = compute_spcf(adder, patterns, sigs, 1);
    for (std::size_t o = 0; o < adder.num_pos(); ++o)
        EXPECT_EQ(spcf.empty(o), spcf.count(o) == 0u);
}

TEST(Spcf, RandomPatternsOverapproximateShape) {
    // With random patterns on a wide adder, the SPCF must still identify the
    // carry chain outputs as the critical ones.
    const Aig adder = ripple_carry_adder(16);  // 33 PIs -> random sampling
    Rng rng(9);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 4096, rng);
    const auto sigs = simulate(adder, patterns);
    const Spcf spcf = compute_spcf(adder, patterns, sigs, 0);
    EXPECT_GT(spcf.max_arrival, 8);
    EXPECT_TRUE(spcf.empty(0));  // sum0 is never critical
}

TEST(Spcf, OneSimulationServesEveryThreshold) {
    // Thresholding one timing simulation gives, at every delta, exactly
    // what a fresh compute_spcf gives; 100 patterns leave a partial word.
    const Aig adder = ripple_carry_adder(8);
    Rng rng(12);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 100, rng);
    const auto sigs = simulate(adder, patterns);
    const TimingSimResult timing = spcf_timing(adder, patterns, sigs);
    for (std::int32_t delta = 0; delta <= timing.max_arrival + 1; ++delta) {
        const Spcf once = threshold_spcf(timing, delta);
        const Spcf fresh = compute_spcf(adder, patterns, sigs, delta);
        EXPECT_EQ(once.delta, fresh.delta);
        EXPECT_EQ(once.max_arrival, fresh.max_arrival);
        EXPECT_EQ(once.po_max_arrival, fresh.po_max_arrival);
        EXPECT_EQ(once.po_spcf, fresh.po_spcf) << "delta " << delta;
        for (const auto& sig : once.po_spcf) EXPECT_EQ(sig.back() >> (100 - 64), 0u);
    }
}

}  // namespace
}  // namespace lls
