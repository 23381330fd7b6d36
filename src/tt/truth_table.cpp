#include "tt/truth_table.hpp"

#include <algorithm>

#include "common/bitops.hpp"

namespace lls {

namespace {

int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    LLS_REQUIRE(false && "invalid hex digit");
    return 0;
}

}  // namespace

TruthTable TruthTable::from_hex(int num_vars, const std::string& hex) {
    TruthTable tt(num_vars);
    const std::size_t digits =
        std::max<std::size_t>(1, (std::size_t{1} << num_vars) / 4);
    LLS_REQUIRE(hex.size() == digits);
    // hex[0] is the most significant nibble.
    for (std::size_t i = 0; i < digits; ++i) {
        const std::uint64_t nibble = static_cast<std::uint64_t>(hex_digit(hex[digits - 1 - i]));
        tt.data()[i / 16] |= nibble << (4 * (i % 16));
    }
    tt.mask_tail();
    return tt;
}

bool TruthTable::is_const0() const {
    const auto words = span();
    return std::all_of(words.begin(), words.end(), [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_const1() const {
    if (num_vars_ < 6) return data()[0] == (1ULL << (1 << num_vars_)) - 1;
    const auto words = span();
    return std::all_of(words.begin(), words.end(), [](std::uint64_t w) { return w == ~0ULL; });
}

std::uint64_t TruthTable::count_ones() const {
    std::uint64_t n = 0;
    for (auto w : span()) n += static_cast<std::uint64_t>(popcount64(w));
    return n;
}

bool TruthTable::has_var(int var) const {
    LLS_REQUIRE(var >= 0 && var < std::max(num_vars_, 1));
    if (var >= num_vars_) return false;
    if (var < 6) {
        const int shift = 1 << var;
        for (auto w : span())
            if (((w >> shift) ^ w) & ~kVarMask[var]) return true;
        return false;
    }
    const auto words = span();
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t base = 0; base < words.size(); base += 2 * stride)
        for (std::size_t i = 0; i < stride; ++i)
            if (words[base + i] != words[base + stride + i]) return true;
    return false;
}

TruthTable TruthTable::operator~() const {
    TruthTable r(*this);
    for (auto& w : r.span()) w = ~w;
    r.mask_tail();
    return r;
}

TruthTable TruthTable::operator&(const TruthTable& other) const {
    check_compatible(other);
    TruthTable r(*this);
    const auto rw = r.span();
    const auto ow = other.span();
    for (std::size_t i = 0; i < rw.size(); ++i) rw[i] &= ow[i];
    return r;
}

TruthTable TruthTable::operator|(const TruthTable& other) const {
    check_compatible(other);
    TruthTable r(*this);
    const auto rw = r.span();
    const auto ow = other.span();
    for (std::size_t i = 0; i < rw.size(); ++i) rw[i] |= ow[i];
    return r;
}

TruthTable TruthTable::operator^(const TruthTable& other) const {
    check_compatible(other);
    TruthTable r(*this);
    const auto rw = r.span();
    const auto ow = other.span();
    for (std::size_t i = 0; i < rw.size(); ++i) rw[i] ^= ow[i];
    return r;
}

bool TruthTable::implies(const TruthTable& other) const {
    check_compatible(other);
    const auto a = span(), b = other.span();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] & ~b[i]) return false;
    return true;
}

TruthTable TruthTable::cofactor(int var, bool polarity) const {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    TruthTable r(*this);
    const auto words = r.span();
    if (var < 6) {
        const int shift = 1 << var;
        for (auto& w : words) {
            if (polarity) {
                const std::uint64_t hi = w & kVarMask[var];
                w = hi | (hi >> shift);
            } else {
                const std::uint64_t lo = w & ~kVarMask[var];
                w = lo | (lo << shift);
            }
        }
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t base = 0; base < words.size(); base += 2 * stride)
            for (std::size_t i = 0; i < stride; ++i) {
                const std::uint64_t v = polarity ? words[base + stride + i] : words[base + i];
                words[base + i] = v;
                words[base + stride + i] = v;
            }
    }
    return r;
}

TruthTable TruthTable::swap_vars(int a, int b) const {
    TruthTable r(*this);
    r.swap_in_place(a, b);
    return r;
}

void TruthTable::swap_in_place(int a, int b) {
    LLS_REQUIRE(a >= 0 && a < num_vars_ && b >= 0 && b < num_vars_);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    const auto words = span();
    if (b < 6) {
        // Both inside a word: exchange the bits where (x_a, x_b) = (1, 0)
        // with their partners (0, 1), which sit 2^b - 2^a positions higher.
        const int shift = (1 << b) - (1 << a);
        const std::uint64_t low = kVarMask[a] & ~kVarMask[b];
        for (auto& w : words) {
            const std::uint64_t t = ((w >> shift) ^ w) & low;
            w ^= t | (t << shift);
        }
    } else if (a < 6) {
        // x_a inside a word, x_b across words: the x_b = 0 word of each pair
        // trades its x_a = 1 bits for the x_a = 0 bits of the x_b = 1 word.
        const int shift = 1 << a;
        const std::size_t stride = std::size_t{1} << (b - 6);
        for (std::size_t base = 0; base < words.size(); base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i) {
                const std::uint64_t t = ((words[i] >> shift) ^ words[i + stride]) & ~kVarMask[a];
                words[i] ^= t << shift;
                words[i + stride] ^= t;
            }
    } else {
        // Both across words: swap whole words.
        const std::size_t sa = std::size_t{1} << (a - 6);
        const std::size_t sb = std::size_t{1} << (b - 6);
        for (std::size_t i = 0; i < words.size(); ++i)
            if ((i & sa) && !(i & sb)) std::swap(words[i], words[i - sa + sb]);
    }
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
    LLS_REQUIRE(static_cast<int>(perm.size()) == num_vars_);
    TruthTable r(*this);
    // Selection by swaps: at[j] is the old variable now at position j and
    // where[v] the position of old variable v. Position i is final once it
    // holds perm[i], so at most num_vars - 1 swaps are needed.
    int at[kMaxVars];
    int where[kMaxVars];
    for (int j = 0; j < num_vars_; ++j) at[j] = where[j] = j;
    for (int i = 0; i < num_vars_; ++i) {
        const int v = perm[static_cast<std::size_t>(i)];
        LLS_REQUIRE(v >= 0 && v < num_vars_ && where[v] >= i && "perm must be a permutation");
        const int j = where[v];
        if (j == i) continue;
        r.swap_in_place(i, j);
        at[j] = at[i];
        where[at[j]] = j;
        at[i] = v;
        where[v] = i;
    }
    return r;
}

TruthTable TruthTable::extend(int new_num_vars) const {
    LLS_REQUIRE(new_num_vars >= num_vars_ && new_num_vars <= kMaxVars);
    if (new_num_vars == num_vars_) return *this;
    TruthTable r(new_num_vars);
    if (num_vars_ < 6) {
        // Replicate the low 2^num_vars_ bits across the first word, then all
        // words.
        std::uint64_t w = data()[0];
        for (int width = 1 << num_vars_; width < 64; width *= 2) w |= w << width;
        for (auto& rw : r.span()) rw = w;
    } else {
        const auto words = span();
        const auto rw = r.span();
        for (std::size_t i = 0; i < rw.size(); ++i) rw[i] = words[i % words.size()];
    }
    r.mask_tail();
    return r;
}

TruthTable TruthTable::shrink(int new_num_vars) const {
    LLS_REQUIRE(new_num_vars >= 0 && new_num_vars <= num_vars_);
    for (int v = new_num_vars; v < num_vars_; ++v)
        LLS_REQUIRE(!has_var(v) && "cannot shrink away a support variable");
    TruthTable r(new_num_vars);
    std::copy_n(data(), r.word_count(), r.data());
    r.mask_tail();
    return r;
}

std::string TruthTable::to_hex() const {
    const std::size_t digits =
        std::max<std::size_t>(1, (std::size_t{1} << num_vars_) / 4);
    std::string s(digits, '0');
    static const char* kHex = "0123456789abcdef";
    for (std::size_t i = 0; i < digits; ++i) {
        const int nibble = static_cast<int>((data()[i / 16] >> (4 * (i % 16))) & 0xf);
        s[digits - 1 - i] = kHex[nibble];
    }
    return s;
}

std::string TruthTable::to_binary() const {
    const std::uint64_t n = num_minterms();
    std::string s(n, '0');
    for (std::uint64_t m = 0; m < n; ++m)
        if (get_bit(m)) s[n - 1 - m] = '1';
    return s;
}

std::uint64_t TruthTable::hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(num_vars_);
    for (auto w : span()) {
        h ^= w;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    }
    return h;
}

}  // namespace lls
