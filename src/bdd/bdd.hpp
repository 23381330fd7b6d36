#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// Point-in-time counters of one BddManager (tests). The same numbers are
/// flushed into the global metrics registry (`bdd.unique.*`,
/// `bdd.ite_cache.*`) when the manager is destroyed, so `lls_opt --metrics`
/// aggregates them across every manager the process created.
struct BddStats {
    std::uint64_t unique_hits = 0;     ///< make_node found an existing node
    std::uint64_t nodes_created = 0;   ///< make_node allocated a fresh node
    std::uint64_t ite_hits = 0;        ///< computed-table hits
    std::uint64_t ite_misses = 0;      ///< computed-table misses
    std::uint64_t ite_evictions = 0;   ///< lossy overwrites of a live entry
};

/// Reduced ordered binary decision diagrams with a fixed variable order.
///
/// Node 0 is the terminal FALSE, node 1 the terminal TRUE. Internal nodes
/// are canonical (unique table) so equality of functions is pointer
/// equality. Operations go through ITE with a computed table. No dynamic
/// reordering — the package exists as an exact-function substrate (exact
/// SPCF computation, cross-checks of the simulation-based machinery), not
/// as a general-purpose verification engine.
///
/// A manager is single-threaded: each exact check builds in its own. The
/// computed table (ITE cache) is a fixed-size, direct-mapped, *lossy*
/// array: an insert simply overwrites the slot, so the table is
/// capacity-bounded for the life of the manager (the cap is tied to the
/// node limit). Losing an entry only costs recomputation — results are
/// canonical, so a recomputation returns the identical ref. Callers must
/// never persist or compare ref values across managers.
class BddManager {
public:
    using Ref = std::uint32_t;
    static constexpr Ref kFalse = 0;
    static constexpr Ref kTrue = 1;

    explicit BddManager(int num_vars, std::size_t node_limit = 1u << 22);
    ~BddManager();

    BddManager(const BddManager&) = delete;
    BddManager& operator=(const BddManager&) = delete;

    int num_vars() const { return num_vars_; }
    std::size_t num_nodes() const { return nodes_.size(); }

    Ref bdd_false() const { return kFalse; }
    Ref bdd_true() const { return kTrue; }
    /// The projection function of variable `var`.
    Ref variable(int var);

    Ref ite(Ref f, Ref g, Ref h);
    Ref band(Ref f, Ref g) { return ite(f, g, kFalse); }
    Ref bor(Ref f, Ref g) { return ite(f, kTrue, g); }
    Ref bnot(Ref f) { return ite(f, kFalse, kTrue); }
    Ref bxor(Ref f, Ref g) { return ite(f, bnot(g), g); }

    /// Cofactor with respect to a variable.
    Ref cofactor(Ref f, int var, bool value);
    /// Existential quantification of a single variable.
    Ref exists(Ref f, int var);
    /// Universal quantification of a single variable.
    Ref forall(Ref f, int var);

    bool is_false(Ref f) const { return f == kFalse; }
    bool is_true(Ref f) const { return f == kTrue; }

    /// Evaluates f under a complete assignment (bit v of `assignment` is
    /// the value of variable v).
    bool evaluate(Ref f, std::uint64_t assignment) const;

    /// Number of satisfying assignments over all num_vars() variables.
    double count_minterms(Ref f) const;

    /// Number of DAG nodes reachable from f (excluding terminals).
    std::size_t size(Ref f) const;

    /// Total nodes allocated (terminals included); exceeding the limit
    /// throws LlsError{ResourceExhausted} (callers treat it as "circuit too
    /// large for exact analysis" and degrade rather than abort).
    std::size_t node_limit() const { return node_limit_; }

    BddStats stats() const { return stats_; }

private:
    // Packing: a node is one 64-bit word (var << 44 | low << 22 | high).
    // var < 2^20 and refs < 2^22 (enforced by the node-limit cap), so the
    // packing is injective and doubles as the unique-table key.
    static constexpr int kRefBits = 22;
    static constexpr std::uint64_t kRefMask = (std::uint64_t{1} << kRefBits) - 1;

    static constexpr std::uint64_t pack(int var, Ref low, Ref high) {
        return (static_cast<std::uint64_t>(var) << (2 * kRefBits)) |
               (static_cast<std::uint64_t>(low) << kRefBits) | static_cast<std::uint64_t>(high);
    }
    static constexpr int word_var(std::uint64_t w) { return static_cast<int>(w >> (2 * kRefBits)); }
    static constexpr Ref word_low(std::uint64_t w) {
        return static_cast<Ref>((w >> kRefBits) & kRefMask);
    }
    static constexpr Ref word_high(std::uint64_t w) { return static_cast<Ref>(w & kRefMask); }

    struct U64Hash {
        std::size_t operator()(const std::uint64_t& k) const {
            std::uint64_t h = k * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 29;
            return static_cast<std::size_t>(h);
        }
    };

    /// One lossy, direct-mapped computed-table slot. `f` is never a
    /// terminal for a cached call (terminal cases short-circuit in ite), so
    /// f == kFalse doubles as the empty marker.
    struct IteEntry {
        Ref f = kFalse, g = kFalse, h = kFalse;
        Ref result = kFalse;
    };

    Ref make_node(int var, Ref low, Ref high);
    IteEntry& ite_slot(Ref f, Ref g, Ref h);

    int num_vars_;
    std::size_t node_limit_;
    /// Packed node words, indexed by ref.
    std::vector<std::uint64_t> nodes_;
    /// Unique table: packed word -> ref.
    std::unordered_map<std::uint64_t, Ref, U64Hash> unique_;
    /// Lossy ITE cache: power-of-two slot array.
    std::vector<IteEntry> ite_cache_;
    /// Projection-function cache; kFalse marks "not created yet" (a
    /// variable node is never the FALSE terminal).
    std::vector<Ref> var_refs_;
    BddStats stats_;
};

}  // namespace lls
