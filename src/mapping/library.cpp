#include "mapping/library.hpp"

#include <algorithm>

namespace lls {

namespace {

TruthTable tt_of(int num_vars, const std::string& hex) {
    return TruthTable::from_hex(num_vars, hex);
}

std::uint32_t match_key(int num_vars, std::uint32_t bits) {
    return (static_cast<std::uint32_t>(num_vars) << 16) | bits;
}

}  // namespace

int CellLibrary::add_cell(Cell cell) {
    cells_.push_back(std::move(cell));
    return static_cast<int>(cells_.size()) - 1;
}

CellLibrary CellLibrary::generic_70nm() {
    CellLibrary lib;
    // Single-input cells. INV: f = !a -> truth table "1" over bit pattern 01.
    lib.inverter_ = lib.add_cell({"INV", 1, tt_of(1, "1"), 1.0, 35.0, 0.40});
    lib.add_cell({"BUF", 1, tt_of(1, "2"), 1.3, 60.0, 0.55});

    // Two-input cells (minterm order x1 x0 = 11,10,01,00 -> hex nibble).
    lib.add_cell({"NAND2", 2, tt_of(2, "7"), 1.3, 50.0, 0.70});
    lib.add_cell({"NOR2", 2, tt_of(2, "1"), 1.3, 55.0, 0.80});
    lib.add_cell({"AND2", 2, tt_of(2, "8"), 1.7, 80.0, 0.90});
    lib.add_cell({"OR2", 2, tt_of(2, "e"), 1.7, 85.0, 1.00});
    lib.add_cell({"XOR2", 2, tt_of(2, "6"), 3.0, 120.0, 1.80});
    lib.add_cell({"XNOR2", 2, tt_of(2, "9"), 3.0, 120.0, 1.80});

    // Three-input cells.
    lib.add_cell({"NAND3", 3, tt_of(3, "7f"), 1.8, 70.0, 1.00});
    lib.add_cell({"NOR3", 3, tt_of(3, "01"), 1.8, 80.0, 1.20});
    lib.add_cell({"AND3", 3, tt_of(3, "80"), 2.2, 95.0, 1.10});
    lib.add_cell({"OR3", 3, tt_of(3, "fe"), 2.2, 100.0, 1.30});
    // AOI21: !(a*b + c)  (a=var0, b=var1, c=var2)
    lib.add_cell({"AOI21", 3, tt_of(3, "07"), 2.0, 75.0, 1.00});
    // OAI21: !((a+b) * c)
    lib.add_cell({"OAI21", 3, tt_of(3, "1f"), 2.0, 75.0, 1.00});
    // MUX2: s ? b : a  (a=var0, b=var1, s=var2)
    lib.add_cell({"MUX2", 3, tt_of(3, "ca"), 3.3, 110.0, 1.60});

    // Four-input cells.
    lib.add_cell({"NAND4", 4, tt_of(4, "7fff"), 2.3, 90.0, 1.30});
    lib.add_cell({"NOR4", 4, tt_of(4, "0001"), 2.3, 100.0, 1.50});
    // AOI22: !(a*b + c*d)
    lib.add_cell({"AOI22", 4, tt_of(4, "0777"), 2.7, 95.0, 1.30});
    // OAI22: !((a+b) * (c+d))
    lib.add_cell({"OAI22", 4, tt_of(4, "111f"), 2.7, 95.0, 1.30});
    return lib;
}

void CellLibrary::build_matches(int num_vars) const {
    // Every transform of every cell of this arity, in the order an
    // exhaustive search would try them: cells by index, then output
    // negation, then whether any input is negated, then pin permutations in
    // lexicographic order, then input negation masks ascending. A function
    // keeps the first transform with the lowest score. An output negation
    // and any input negation each charge one inverter delay.
    const int k = num_vars;
    const double inv_delay = inverter_delay_ps();
    std::unordered_map<std::uint32_t, double> best_score;
    for (int ci = 0; ci < static_cast<int>(cells_.size()); ++ci) {
        const Cell& cell = cells_[static_cast<std::size_t>(ci)];
        if (cell.num_inputs != k) continue;
        const std::uint64_t cell_bits = cell.function.word(0);
        for (unsigned oneg = 0; oneg < 2; ++oneg) {
            for (int with_input_neg = 0; with_input_neg < 2; ++with_input_neg) {
                const double score = cell.delay_ps + (oneg ? inv_delay : 0.0) +
                                     (with_input_neg ? inv_delay : 0.0);
                CellMatch m{ci, {}, 0, oneg != 0};
                for (int j = 0; j < k; ++j) m.leaf_of_pin[static_cast<std::size_t>(j)] = j;
                const unsigned neg_begin = with_input_neg ? 1 : 0;
                const unsigned neg_end = with_input_neg ? (1u << k) : 1;
                do {
                    for (unsigned neg = neg_begin; neg < neg_end; ++neg) {
                        // out = oneg ^ cell(pins), pin j = leaf leaf_of_pin[j] ^ (neg >> j).
                        std::uint32_t bits = 0;
                        for (unsigned minterm = 0; minterm < (1u << k); ++minterm) {
                            unsigned cell_minterm = neg;
                            for (int j = 0; j < k; ++j)
                                cell_minterm ^=
                                    ((minterm >> m.leaf_of_pin[static_cast<std::size_t>(j)]) & 1u)
                                    << j;
                            bits |= static_cast<std::uint32_t>(((cell_bits >> cell_minterm) & 1u) ^
                                                               oneg)
                                    << minterm;
                        }
                        const std::uint32_t key = match_key(k, bits);
                        const auto [it, fresh] = best_score.try_emplace(key, score);
                        if (fresh || score < it->second) {
                            it->second = score;
                            m.input_neg = neg;
                            matches_[key] = m;
                        }
                    }
                } while (std::next_permutation(m.leaf_of_pin.begin(), m.leaf_of_pin.begin() + k));
            }
        }
    }
    built_arities_ |= 1u << k;
}

std::optional<CellMatch> CellLibrary::match(const TruthTable& tt) const {
    const int k = tt.num_vars();
    LLS_REQUIRE(k <= 4);
    if (!((built_arities_ >> k) & 1u)) build_matches(k);
    const auto it = matches_.find(match_key(k, static_cast<std::uint32_t>(tt.word(0))));
    if (it == matches_.end()) return std::nullopt;
    return it->second;
}

}  // namespace lls
