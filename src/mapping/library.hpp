#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tt/truth_table.hpp"

namespace lls {

/// A combinational standard cell. Delays are pin-to-pin and load-independent
/// (a deliberate simplification: the paper's comparisons are relative, and a
/// load-independent model preserves ordering between flows).
struct Cell {
    std::string name;
    int num_inputs = 0;
    TruthTable function;    ///< over inputs (var i = pin i)
    double area = 0.0;      ///< normalized area units
    double delay_ps = 0.0;  ///< pin-to-pin delay
    double energy_fj = 0.0; ///< switching energy per output transition
};

/// A match of a cut function onto a cell: pin j of the cell is driven by
/// cut leaf `leaf_of_pin[j]`, complemented when bit j of `input_neg` is set;
/// the cell output is complemented when `output_neg` is set. Entries of
/// `leaf_of_pin` past the cell's arity are 0.
struct CellMatch {
    int cell = -1;
    std::array<int, 4> leaf_of_pin{};
    unsigned input_neg = 0;
    bool output_neg = false;

    bool operator==(const CellMatch&) const = default;
};

/// A small technology library ("generic 70 nm"), with permutation/negation
/// matching of cut functions.
class CellLibrary {
public:
    /// The library used by all experiments: INV/BUF, NAND/NOR/AND/OR 2-4,
    /// XOR/XNOR, MUX, AOI/OAI 21 and 22.
    static CellLibrary generic_70nm();

    const std::vector<Cell>& cells() const { return cells_; }
    const Cell& cell(int index) const { return cells_[static_cast<std::size_t>(index)]; }

    int inverter_index() const { return inverter_; }
    double inverter_delay_ps() const { return cells_[static_cast<std::size_t>(inverter_)].delay_ps; }

    /// Finds the cheapest-delay cell realizing `tt` (up to input
    /// permutation/negation and output negation). Returns nullopt when no
    /// cell matches. The first query of each arity k fills a table of every
    /// function the k-input cells realize under some transform, so later
    /// queries are one lookup. That table is a mutable cache: match() is
    /// not safe to call concurrently on one CellLibrary (give each thread
    /// its own copy).
    std::optional<CellMatch> match(const TruthTable& tt) const;

private:
    int add_cell(Cell cell);
    void build_matches(int num_vars) const;

    std::vector<Cell> cells_;
    int inverter_ = -1;
    /// Best match per function, keyed by (num_vars << 16) | truth-table
    /// bits; holds the functions of arity k once bit k of built_arities_
    /// is set.
    mutable std::unordered_map<std::uint32_t, CellMatch> matches_;
    mutable unsigned built_arities_ = 0;
};

}  // namespace lls
