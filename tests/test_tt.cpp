#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "aig/cuts.hpp"
#include "common/rng.hpp"
#include "tt/npn.hpp"

namespace lls {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

// Reference kernels for the differential tests: the straightforward
// per-minterm definitions the word-parallel kernels must agree with.

/// New variable i reads old variable perm[i].
TruthTable reference_permute(const TruthTable& f, const std::vector<int>& perm) {
    TruthTable r(f.num_vars());
    for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
        if (!f.get_bit(m)) continue;
        std::uint64_t nm = 0;
        for (int i = 0; i < f.num_vars(); ++i)
            if ((m >> perm[static_cast<std::size_t>(i)]) & 1) nm |= std::uint64_t{1} << i;
        r.set_bit(nm, true);
    }
    return r;
}

TruthTable reference_swap(const TruthTable& f, int a, int b) {
    std::vector<int> perm(static_cast<std::size_t>(f.num_vars()));
    for (int i = 0; i < f.num_vars(); ++i) perm[static_cast<std::size_t>(i)] = i;
    std::swap(perm[static_cast<std::size_t>(a)], perm[static_cast<std::size_t>(b)]);
    return reference_permute(f, perm);
}

/// Old leaf i lands at the position of old_leaves[i] in new_leaves; the
/// vacuous extended variables fill the other slots in order.
TruthTable reference_expand(const TruthTable& f, const std::vector<std::uint32_t>& old_leaves,
                            const std::vector<std::uint32_t>& new_leaves) {
    const std::size_t n_new = new_leaves.size();
    std::vector<int> perm(n_new, -1);
    std::vector<char> used(n_new, 0);
    for (std::size_t i = 0; i < old_leaves.size(); ++i) {
        const auto it = std::find(new_leaves.begin(), new_leaves.end(), old_leaves[i]);
        perm[static_cast<std::size_t>(it - new_leaves.begin())] = static_cast<int>(i);
        used[i] = 1;
    }
    std::size_t next_free = 0;
    for (auto& p : perm) {
        if (p >= 0) continue;
        while (used[next_free]) ++next_free;
        p = static_cast<int>(next_free);
        used[next_free] = 1;
    }
    return reference_permute(f.extend(static_cast<int>(n_new)), perm);
}

std::vector<int> random_perm(int n, Rng& rng) {
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    return perm;
}

TEST(TruthTable, ConstantsAndVariables) {
    const TruthTable zero = TruthTable::constant(3, false);
    const TruthTable one = TruthTable::constant(3, true);
    EXPECT_TRUE(zero.is_const0());
    EXPECT_TRUE(one.is_const1());
    EXPECT_EQ(zero.count_ones(), 0u);
    EXPECT_EQ(one.count_ones(), 8u);

    for (int v = 0; v < 3; ++v) {
        const TruthTable x = TruthTable::variable(3, v);
        EXPECT_EQ(x.count_ones(), 4u);
        for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(x.get_bit(m), ((m >> v) & 1) != 0);
    }
}

TEST(TruthTable, VariableAboveWordBoundary) {
    // 8 variables: variable 7 spans whole words.
    const TruthTable x7 = TruthTable::variable(8, 7);
    for (std::uint64_t m = 0; m < 256; ++m) EXPECT_EQ(x7.get_bit(m), ((m >> 7) & 1) != 0);
    EXPECT_TRUE(x7.has_var(7));
    EXPECT_FALSE(x7.has_var(3));
}

TEST(TruthTable, BooleanOperators) {
    const TruthTable a = TruthTable::variable(2, 0);
    const TruthTable b = TruthTable::variable(2, 1);
    EXPECT_EQ((a & b).to_binary(), "1000");
    EXPECT_EQ((a | b).to_binary(), "1110");
    EXPECT_EQ((a ^ b).to_binary(), "0110");
    EXPECT_EQ((~a).to_binary(), "0101");
}

TEST(TruthTable, ImpliesIsPartialOrder) {
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const TruthTable f = random_tt(5, rng);
        const TruthTable g = random_tt(5, rng);
        EXPECT_TRUE(f.implies(f));
        EXPECT_TRUE((f & g).implies(f));
        EXPECT_TRUE(f.implies(f | g));
        EXPECT_EQ(f.implies(g), (f & ~g).is_const0());
    }
}

TEST(TruthTable, CofactorShannonExpansion) {
    Rng rng(12);
    for (int n = 1; n <= 8; ++n) {
        const TruthTable f = random_tt(n, rng);
        for (int v = 0; v < n; ++v) {
            const TruthTable c0 = f.cofactor(v, false);
            const TruthTable c1 = f.cofactor(v, true);
            EXPECT_FALSE(c0.has_var(v));
            EXPECT_FALSE(c1.has_var(v));
            const TruthTable x = TruthTable::variable(n, v);
            EXPECT_EQ(f, (x & c1) | (~x & c0)) << "n=" << n << " v=" << v;
        }
    }
}

TEST(TruthTable, SwapAndPermute) {
    Rng rng(13);
    const TruthTable f = random_tt(4, rng);
    const TruthTable swapped = f.swap_vars(1, 3);
    for (std::uint64_t m = 0; m < 16; ++m) {
        std::uint64_t sm = m & ~0xaULL;  // clear bits 1 and 3
        if ((m >> 1) & 1) sm |= 8;
        if ((m >> 3) & 1) sm |= 2;
        EXPECT_EQ(swapped.get_bit(m), f.get_bit(sm));
    }
    EXPECT_EQ(swapped.swap_vars(1, 3), f);

    // Identity permutation is a no-op; a rotation applied num_vars times is
    // the identity.
    EXPECT_EQ(f.permute({0, 1, 2, 3}), f);
    TruthTable rotated = f;
    for (int i = 0; i < 4; ++i) rotated = rotated.permute({1, 2, 3, 0});
    EXPECT_EQ(rotated, f);
}

TEST(TruthTableDiff, PermuteMatchesReference) {
    Rng rng(30);
    for (int n = 0; n <= 12; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            const TruthTable f = random_tt(n, rng);
            const std::vector<int> perm = random_perm(n, rng);
            EXPECT_EQ(f.permute(perm), reference_permute(f, perm)) << "n=" << n;
        }
    }
}

TEST(TruthTableDiff, SwapMatchesReferenceForEveryPair) {
    // n = 12 spans every case of the in-place swap: both variables inside a
    // word (a < b < 6), one inside and one across words (a < 6 <= b), and
    // both across words (6 <= a < b); smaller n cover the masked tails.
    Rng rng(31);
    for (int n = 1; n <= 12; ++n) {
        const TruthTable f = random_tt(n, rng);
        for (int a = 0; a < n; ++a)
            for (int b = 0; b < n; ++b) {
                const TruthTable want = reference_swap(f, a, b);
                EXPECT_EQ(f.swap_vars(a, b), want) << "n=" << n << " a=" << a << " b=" << b;
                TruthTable g = f;
                g.swap_in_place(a, b);
                EXPECT_EQ(g, want) << "n=" << n << " a=" << a << " b=" << b;
            }
    }
}

TEST(TruthTableDiff, SwapCoversInWordCrossWordAndWordWordCases) {
    Rng rng(32);
    const TruthTable f = random_tt(10, rng);
    const std::pair<int, int> cases[] = {{1, 4}, {0, 5}, {3, 8}, {5, 6}, {6, 9}, {7, 8}};
    for (const auto& [a, b] : cases) {
        const TruthTable g = f.swap_vars(a, b);
        for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
            std::uint64_t sm = m & ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b));
            if ((m >> a) & 1) sm |= std::uint64_t{1} << b;
            if ((m >> b) & 1) sm |= std::uint64_t{1} << a;
            ASSERT_EQ(g.get_bit(m), f.get_bit(sm)) << "a=" << a << " b=" << b << " m=" << m;
        }
        EXPECT_EQ(g.swap_vars(b, a), f);
    }
}

TEST(TruthTableDiff, PermuteRejectsNonPermutation) {
    const TruthTable f = TruthTable::variable(3, 0);
    EXPECT_THROW((void)f.permute({0, 0, 1}), ContractViolation);
    EXPECT_THROW((void)f.permute({0, 1, 3}), ContractViolation);
}

TEST(TruthTableDiff, ExpandTruthTableMatchesReference) {
    Rng rng(33);
    for (int n_new = 0; n_new <= 12; ++n_new) {
        for (int n_old = 0; n_old <= n_new; ++n_old) {
            for (int trial = 0; trial < 3; ++trial) {
                std::vector<std::uint32_t> new_leaves;
                std::uint32_t leaf = 0;
                for (int i = 0; i < n_new; ++i) {
                    leaf += 1 + static_cast<std::uint32_t>(rng.next_below(5));
                    new_leaves.push_back(leaf);
                }
                std::vector<std::uint32_t> pool = new_leaves;
                for (int i = 0; i < n_old; ++i)
                    std::swap(pool[static_cast<std::size_t>(i)],
                              pool[static_cast<std::size_t>(i) +
                                   rng.next_below(static_cast<std::uint64_t>(n_new - i))]);
                std::vector<std::uint32_t> old_leaves(pool.begin(), pool.begin() + n_old);
                std::sort(old_leaves.begin(), old_leaves.end());
                const TruthTable f = random_tt(n_old, rng);
                EXPECT_EQ(expand_truth_table(f, old_leaves, new_leaves),
                          reference_expand(f, old_leaves, new_leaves))
                    << "n_old=" << n_old << " n_new=" << n_new;
            }
        }
    }
}

TEST(TruthTableDiff, ExpandRejectsLeavesOutsideTheNewCut) {
    const TruthTable f = TruthTable::variable(2, 1);
    EXPECT_THROW((void)expand_truth_table(f, {3, 7}, {1, 3, 5}), ContractViolation);
}

TEST(TruthTableStorage, CopyAndMoveOfInlineAndHeapTables) {
    // 8 variables is the largest inline table, 9 the smallest heap one.
    Rng rng(34);
    for (int n : {0, 3, 6, 8, 9, 12}) {
        const TruthTable f = random_tt(n, rng);
        TruthTable copy(f);
        EXPECT_EQ(copy, f) << "n=" << n;
        copy.set_bit(0, !copy.get_bit(0));
        EXPECT_NE(copy, f) << "copies must not share words, n=" << n;

        TruthTable source(f);
        const TruthTable moved(std::move(source));
        EXPECT_EQ(moved, f) << "n=" << n;
        source = f;  // a moved-from table is assignable again
        EXPECT_EQ(source, f) << "n=" << n;

        // Assignment across the inline/heap boundary, both directions.
        for (int m : {2, 8, 9, 11}) {
            TruthTable other = random_tt(m, rng);
            other = f;
            EXPECT_EQ(other, f) << "n=" << n << " m=" << m;
            TruthTable target = random_tt(m, rng);
            TruthTable tmp(f);
            target = std::move(tmp);
            EXPECT_EQ(target, f) << "n=" << n << " m=" << m;
        }

        TruthTable self(f);
        const TruthTable& alias = self;
        self = alias;
        EXPECT_EQ(self, f) << "n=" << n;
    }
}

TEST(TruthTableStorage, VariableMatchesBitLevelDefinition) {
    for (int n = 1; n <= 12; ++n)
        for (int v = 0; v < n; ++v) {
            const TruthTable x = TruthTable::variable(n, v);
            for (std::uint64_t m = 0; m < x.num_minterms(); ++m)
                ASSERT_EQ(x.get_bit(m), ((m >> v) & 1) != 0) << "n=" << n << " v=" << v;
            EXPECT_EQ(x.count_ones(), x.num_minterms() / 2);
        }
}

TEST(TruthTableStorage, ConstantOneIsDetectedAtEverySize) {
    for (int n = 0; n <= 10; ++n) {
        TruthTable one = TruthTable::constant(n, true);
        EXPECT_TRUE(one.is_const1()) << "n=" << n;
        EXPECT_EQ(one.count_ones(), one.num_minterms());
        EXPECT_TRUE((~TruthTable::constant(n, false)).is_const1()) << "n=" << n;
        one.set_bit(one.num_minterms() - 1, false);
        EXPECT_FALSE(one.is_const1()) << "n=" << n;
        EXPECT_FALSE(TruthTable::constant(n, false).is_const1()) << "n=" << n;
    }
}

TEST(TruthTable, ExtendAndShrink) {
    Rng rng(14);
    const TruthTable f = random_tt(3, rng);
    const TruthTable g = f.extend(7);
    EXPECT_EQ(g.num_vars(), 7);
    for (int v = 3; v < 7; ++v) EXPECT_FALSE(g.has_var(v));
    for (std::uint64_t m = 0; m < 128; ++m) EXPECT_EQ(g.get_bit(m), f.get_bit(m & 7));
    EXPECT_EQ(g.shrink(3), f);
}

TEST(TruthTable, ShrinkRejectsSupportVariable) {
    const TruthTable x2 = TruthTable::variable(3, 2);
    EXPECT_THROW((void)x2.shrink(2), ContractViolation);
}

TEST(TruthTable, HexRoundTrip) {
    Rng rng(15);
    for (int n = 0; n <= 9; ++n) {
        const TruthTable f = random_tt(n, rng);
        EXPECT_EQ(TruthTable::from_hex(n, f.to_hex()), f) << "n=" << n;
    }
}

TEST(TruthTable, HashDiscriminates) {
    Rng rng(16);
    const TruthTable f = random_tt(6, rng);
    TruthTable g = f;
    g.set_bit(17, !g.get_bit(17));
    EXPECT_NE(f.hash(), g.hash());
    EXPECT_EQ(f.hash(), TruthTable(f).hash());
}

TEST(Npn, ApplyInvertsConsistently) {
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const TruthTable f = random_tt(3, rng);
        const NpnResult r = npn_canonize(f);
        // Re-applying the recorded transform to f must give the canonical form.
        EXPECT_EQ(npn_apply(f, r.perm, r.input_negation, r.output_negation), r.canonical);
    }
}

TEST(Npn, EquivalentFunctionsShareCanonicalForm) {
    Rng rng(18);
    for (int trial = 0; trial < 20; ++trial) {
        const TruthTable f = random_tt(4, rng);
        // Scramble f by a random NPN transform; canonical forms must agree.
        const std::vector<int> perm = random_perm(4, rng);
        const unsigned neg = static_cast<unsigned>(rng.next_below(16));
        const bool oneg = rng.next_bool();
        const TruthTable g = npn_apply(f, perm, neg, oneg);
        EXPECT_EQ(npn_canonize(f).canonical, npn_canonize(g).canonical);
    }
}

TEST(Npn, DistinguishesInequivalentClasses) {
    const TruthTable and2 = TruthTable::variable(2, 0) & TruthTable::variable(2, 1);
    const TruthTable xor2 = TruthTable::variable(2, 0) ^ TruthTable::variable(2, 1);
    EXPECT_NE(npn_canonize(and2).canonical, npn_canonize(xor2).canonical);
}

// Parameterized sweep: cofactor/smooth algebra over many variable counts.
class TruthTableSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableSweep, SmoothRemovesVariable) {
    Rng rng(100 + GetParam());
    const int n = GetParam();
    const TruthTable f = random_tt(n, rng);
    for (int v = 0; v < n; ++v) {
        const TruthTable s = f.smooth(v);
        EXPECT_FALSE(s.has_var(v));
        EXPECT_TRUE(f.implies(s));  // existential abstraction is an upper bound
    }
}

TEST_P(TruthTableSweep, DeMorgan) {
    Rng rng(200 + GetParam());
    const int n = GetParam();
    const TruthTable f = random_tt(n, rng);
    const TruthTable g = random_tt(n, rng);
    EXPECT_EQ(~(f & g), ~f | ~g);
    EXPECT_EQ(~(f | g), ~f & ~g);
    EXPECT_EQ(f ^ g, (f & ~g) | (~f & g));
}

INSTANTIATE_TEST_SUITE_P(VarCounts, TruthTableSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10));

}  // namespace
}  // namespace lls
