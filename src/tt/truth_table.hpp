#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// Bit-packed truth table over `num_vars` Boolean variables.
///
/// Bit `m` holds f(x) for the minterm whose binary encoding is `m`
/// (variable 0 is the least significant bit of the minterm index).
/// Supports up to 20 variables (1 Mi bits = 16 Ki words); the synthesis
/// algorithms only ever build local functions of at most ~12 variables.
/// Tables of at most kInlineVars variables (the cut size) keep their words
/// inline, so cut and ISOP tables never touch the heap; larger tables
/// own a heap array.
class TruthTable {
public:
    static constexpr int kMaxVars = 20;
    static constexpr int kInlineVars = 8;

    TruthTable() : num_vars_(0) {}

    explicit TruthTable(int num_vars) : num_vars_(num_vars) {
        LLS_REQUIRE(num_vars >= 0 && num_vars <= kMaxVars);
        if (!is_inline()) heap_ = new std::uint64_t[word_count()]();
    }

    TruthTable(const TruthTable& other) : num_vars_(other.num_vars_) {
        if (is_inline()) {
            std::copy(other.inline_, other.inline_ + kInlineWords, inline_);
        } else {
            heap_ = new std::uint64_t[word_count()];
            std::copy(other.heap_, other.heap_ + word_count(), heap_);
        }
    }

    TruthTable(TruthTable&& other) noexcept { take(other); }

    TruthTable& operator=(const TruthTable& other) {
        if (this != &other) *this = TruthTable(other);
        return *this;
    }

    TruthTable& operator=(TruthTable&& other) noexcept {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }

    ~TruthTable() { release(); }

    /// Truth table of constant `value` over `num_vars` variables.
    static TruthTable constant(int num_vars, bool value) {
        TruthTable tt(num_vars);
        if (value) {
            for (auto& w : tt.span()) w = ~0ULL;
            tt.mask_tail();
        }
        return tt;
    }

    /// Truth table of the projection x_var over `num_vars` variables.
    static TruthTable variable(int num_vars, int var) {
        LLS_REQUIRE(var >= 0 && var < num_vars);
        TruthTable tt(num_vars);
        if (var < 6) {
            for (auto& w : tt.span()) w = kVarMask[var];
        } else {
            const std::size_t stride = std::size_t{1} << (var - 6);
            const auto words = tt.span();
            for (std::size_t i = 0; i < words.size(); ++i)
                if ((i / stride) & 1) words[i] = ~0ULL;
        }
        tt.mask_tail();
        return tt;
    }

    /// Parses a hex string (most significant minterms first, as printed by
    /// to_hex). The string must have exactly the right number of digits.
    static TruthTable from_hex(int num_vars, const std::string& hex);

    int num_vars() const { return num_vars_; }
    std::uint64_t num_minterms() const { return std::uint64_t{1} << num_vars_; }
    std::size_t word_count() const { return word_count(num_vars_); }

    bool get_bit(std::uint64_t minterm) const {
        LLS_DCHECK(minterm < num_minterms());
        return (data()[minterm >> 6] >> (minterm & 63)) & 1;
    }

    void set_bit(std::uint64_t minterm, bool value) {
        LLS_DCHECK(minterm < num_minterms());
        if (value)
            data()[minterm >> 6] |= 1ULL << (minterm & 63);
        else
            data()[minterm >> 6] &= ~(1ULL << (minterm & 63));
    }

    /// Word `i` of the packed table (bits past 2^num_vars are zero).
    std::uint64_t word(std::size_t i) const {
        LLS_DCHECK(i < word_count());
        return data()[i];
    }

    bool is_const0() const;
    bool is_const1() const;
    std::uint64_t count_ones() const;

    /// True if the function depends on variable `var`.
    bool has_var(int var) const;

    TruthTable operator~() const;
    TruthTable operator&(const TruthTable& other) const;
    TruthTable operator|(const TruthTable& other) const;
    TruthTable operator^(const TruthTable& other) const;
    bool operator==(const TruthTable& other) const {
        const auto a = span(), b = other.span();
        return num_vars_ == other.num_vars_ && std::equal(a.begin(), a.end(), b.begin());
    }

    TruthTable& operator&=(const TruthTable& o) { return *this = *this & o; }
    TruthTable& operator|=(const TruthTable& o) { return *this = *this | o; }
    TruthTable& operator^=(const TruthTable& o) { return *this = *this ^ o; }

    /// True if this function implies `other` (this <= other pointwise).
    bool implies(const TruthTable& other) const;

    /// Positive/negative Shannon cofactor with respect to `var`; the result
    /// keeps the same variable count (the cofactored variable becomes
    /// vacuous).
    TruthTable cofactor(int var, bool polarity) const;

    /// Existential quantification: cofactor0 | cofactor1.
    TruthTable smooth(int var) const { return cofactor(var, false) | cofactor(var, true); }

    /// Swaps two variables.
    TruthTable swap_vars(int a, int b) const;

    /// Swaps two variables in place with word-parallel delta swaps.
    void swap_in_place(int a, int b);

    /// Reorders variables: new variable i is old variable perm[i].
    TruthTable permute(const std::vector<int>& perm) const;

    /// Extends to `new_num_vars` variables (added variables are vacuous).
    TruthTable extend(int new_num_vars) const;

    /// Removes vacuous trailing variables down to `new_num_vars`
    /// (all removed variables must be vacuous).
    TruthTable shrink(int new_num_vars) const;

    /// Hex dump, most significant minterm first.
    std::string to_hex() const;

    /// Binary dump, minterm 2^n-1 first (matches common textbook layout).
    std::string to_binary() const;

    std::uint64_t hash() const;

private:
    static constexpr std::size_t kInlineWords = std::size_t{1} << (kInlineVars - 6);

    // kVarMask[v] has bit b set iff bit v of b is 1, i.e. the truth table of
    // variable v within one word.
    static constexpr std::uint64_t kVarMask[6] = {
        0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
        0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
    };

    static std::size_t word_count(int num_vars) {
        return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
    }

    bool is_inline() const { return num_vars_ <= kInlineVars; }
    std::uint64_t* data() { return is_inline() ? inline_ : heap_; }
    const std::uint64_t* data() const { return is_inline() ? inline_ : heap_; }
    std::span<std::uint64_t> span() { return {data(), word_count()}; }
    std::span<const std::uint64_t> span() const { return {data(), word_count()}; }

    void release() {
        if (!is_inline()) delete[] heap_;
    }

    /// Moves `other`'s words here (this must hold no heap array) and leaves
    /// `other` the empty 0-variable table. Element-wise assignment makes
    /// `inline_` the active union member again where `heap_` was.
    void take(TruthTable& other) noexcept {
        num_vars_ = other.num_vars_;
        if (is_inline()) {
            for (std::size_t i = 0; i < kInlineWords; ++i) inline_[i] = other.inline_[i];
        } else {
            heap_ = other.heap_;
            other.num_vars_ = 0;
            for (std::size_t i = 0; i < kInlineWords; ++i) other.inline_[i] = 0;
        }
    }

    void mask_tail() {
        if (num_vars_ < 6) data()[0] &= (1ULL << (1 << num_vars_)) - 1;
    }

    void check_compatible(const TruthTable& other) const {
        LLS_REQUIRE(num_vars_ == other.num_vars_);
    }

    int num_vars_;
    // Inline words beyond word_count() stay zero, so copies may move all of
    // them unconditionally.
    union {
        std::uint64_t inline_[kInlineWords] = {};
        std::uint64_t* heap_;
    };
};

/// Hasher for unordered containers keyed by truth table.
struct TruthTableHash {
    std::size_t operator()(const TruthTable& tt) const { return tt.hash(); }
};

}  // namespace lls
