#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"

namespace lls {

SimPatterns SimPatterns::exhaustive(std::size_t num_pis) {
    LLS_REQUIRE(num_pis <= kMaxExhaustivePis);
    SimPatterns p;
    p.num_patterns_ = std::size_t{1} << num_pis;
    p.words_ = words_for_bits(p.num_patterns_);
    p.exhaustive_ = true;
    p.pi_bits_.resize(num_pis);
    for (std::size_t i = 0; i < num_pis; ++i) {
        auto& bits = p.pi_bits_[i];
        bits.assign(p.words_, 0);
        for (std::size_t m = 0; m < p.num_patterns_; ++m)
            if ((m >> i) & 1) bits[m >> 6] |= 1ULL << (m & 63);
    }
    return p;
}

SimPatterns SimPatterns::random(std::size_t num_pis, std::size_t num_patterns, Rng& rng) {
    LLS_REQUIRE(num_patterns >= 64);
    SimPatterns p;
    p.num_patterns_ = num_patterns;
    p.words_ = words_for_bits(num_patterns);
    p.exhaustive_ = false;
    p.pi_bits_.resize(num_pis);
    const std::uint64_t tail = tail_mask(num_patterns);
    for (std::size_t i = 0; i < num_pis; ++i) {
        auto& bits = p.pi_bits_[i];
        bits.resize(p.words_);
        for (auto& w : bits) w = rng.next_u64();
        bits.back() &= tail;
    }
    return p;
}

std::vector<Signature> simulate(const Aig& aig, const SimPatterns& patterns) {
    LLS_REQUIRE(patterns.num_pis() == aig.num_pis());
    const std::size_t words = patterns.num_words();
    std::vector<Signature> sigs(aig.num_nodes(), Signature(words, 0));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) sigs[aig.pi(i)] = patterns.pi_bits(i);
    const std::uint64_t tail = tail_mask(patterns.num_patterns());
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const auto& s0 = sigs[n.fanin0.node()];
        const auto& s1 = sigs[n.fanin1.node()];
        auto& out = sigs[id];
        const std::uint64_t c0 = n.fanin0.complemented() ? ~0ULL : 0ULL;
        const std::uint64_t c1 = n.fanin1.complemented() ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < words; ++w) out[w] = (s0[w] ^ c0) & (s1[w] ^ c1);
        out.back() &= tail;
    }
    return sigs;
}

Signature literal_signature(const Aig& aig, AigLit lit, const std::vector<Signature>& node_sigs,
                            std::size_t num_patterns) {
    (void)aig;
    Signature s = node_sigs[lit.node()];
    if (lit.complemented()) {
        for (auto& w : s) w = ~w;
        s.back() &= tail_mask(num_patterns);
    }
    return s;
}

TimingSimResult timing_simulate(const Aig& aig, const SimPatterns& patterns,
                                const std::vector<Signature>& node_sigs) {
    const std::size_t num_patterns = patterns.num_patterns();
    TimingSimResult result;
    result.po_arrival.assign(aig.num_pos(), std::vector<std::int32_t>(num_patterns, 0));

    // A node's arrival never exceeds its topological level, so `planes`
    // bit-planes hold the arrival of every node in a PO's fanin cone (a
    // node outside every cone may wrap; no PO reads it). Plane k of node id
    // (one word per 64 patterns) is arrival[id * planes + k]; PIs and the
    // constant stay 0.
    const auto depth = static_cast<unsigned>(aig.depth());
    const auto planes = static_cast<std::size_t>(std::bit_width(depth));
    if (planes == 0) return result;  // every PO is a PI or a constant: arrival 0
    std::vector<std::uint64_t> arrival(aig.num_nodes() * planes, 0);

    for (std::size_t w = 0; w < patterns.num_words(); ++w) {
        for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            const std::uint64_t v0 =
                node_sigs[n.fanin0.node()][w] ^ (n.fanin0.complemented() ? ~0ULL : 0ULL);
            const std::uint64_t v1 =
                node_sigs[n.fanin1.node()][w] ^ (n.fanin1.complemented() ? ~0ULL : 0ULL);
            const std::uint64_t* a0 = &arrival[n.fanin0.node() * planes];
            const std::uint64_t* a1 = &arrival[n.fanin1.node() * planes];
            std::uint64_t* out = &arrival[id * planes];
            // gt: patterns where a0 > a1, compared MSB-first.
            std::uint64_t gt = 0, eq = ~0ULL;
            for (std::size_t k = planes; k-- > 0;) {
                gt |= eq & a0[k] & ~a1[k];
                eq &= ~(a0[k] ^ a1[k]);
            }
            // Both fanins 1: the later one; both 0: the earlier one; one 0:
            // the controlling (0-valued) fanin decides.
            const std::uint64_t take0 = (v0 & v1 & gt) | (~v0 & ~v1 & ~gt) | (~v0 & v1);
            std::uint64_t carry = ~0ULL;  // + 1, rippled through the planes
            for (std::size_t k = 0; k < planes; ++k) {
                const std::uint64_t a = a1[k] ^ ((a0[k] ^ a1[k]) & take0);
                out[k] = a ^ carry;
                carry &= a;
            }
        }
        // Decode the PO planes: set bits only (rows start at 0), and the
        // word's maximum bit-sliced, MSB-first.
        const std::uint64_t valid = w + 1 == patterns.num_words() ? tail_mask(num_patterns) : ~0ULL;
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const std::uint64_t* a = &arrival[aig.po(o).node() * planes];
            std::int32_t* row = result.po_arrival[o].data() + w * 64;
            std::uint64_t top = valid;
            std::int32_t word_max = 0;
            for (std::size_t k = planes; k-- > 0;) {
                for (std::uint64_t bits = a[k] & valid; bits != 0; bits &= bits - 1)
                    row[std::countr_zero(bits)] |= std::int32_t{1} << k;
                if (top & a[k]) {
                    top &= a[k];
                    word_max |= std::int32_t{1} << k;
                }
            }
            result.max_arrival = std::max(result.max_arrival, word_max);
        }
    }
    return result;
}

}  // namespace lls
