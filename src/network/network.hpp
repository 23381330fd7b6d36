#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "sim/simulation.hpp"
#include "sop/sop.hpp"
#include "tt/truth_table.hpp"

namespace lls {

/// Technology-independent network: a DAG whose internal nodes carry
/// arbitrary (small) Boolean functions of their fanins, the representation
/// `T` on which the paper's primary/secondary simplifications operate.
///
/// Node 0 is the constant-0 node. POs reference a node with an optional
/// complement flag. Node functions are mutable (that is the whole point of
/// the simplification algorithms); fanin lists are fixed per node, but a
/// function is allowed to be vacuous in some of its fanins.
class Network {
public:
    struct Po {
        std::uint32_t node = 0;
        bool complemented = false;
        std::string name;
    };

    Network() {
        Node constant;
        constant.tt = TruthTable(0);
        nodes_.push_back(std::move(constant));
    }

    // --- construction -----------------------------------------------------

    std::uint32_t add_pi(std::string name = {});

    /// Adds an internal node computing `tt` over `fanins` (var i = fanin i).
    std::uint32_t add_node(std::vector<std::uint32_t> fanins, TruthTable tt);

    void add_po(std::uint32_t node, bool complemented, std::string name = {});

    /// Replaces the function of an internal node. The new table must range
    /// over the same number of variables (the node's fanins).
    void set_function(std::uint32_t node, TruthTable tt);

    // --- structure ---------------------------------------------------------

    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t num_pis() const { return pis_.size(); }
    std::size_t num_pos() const { return pos_.size(); }

    bool is_pi(std::uint32_t id) const { return nodes_[id].is_pi; }
    bool is_const(std::uint32_t id) const { return id == 0; }
    bool is_internal(std::uint32_t id) const { return id != 0 && !nodes_[id].is_pi; }

    const std::vector<std::uint32_t>& fanins(std::uint32_t id) const { return nodes_[id].fanins; }
    const TruthTable& function(std::uint32_t id) const { return nodes_[id].tt; }
    const std::string& pi_name(std::size_t index) const;
    std::uint32_t pi(std::size_t index) const { return pis_[index]; }
    std::size_t pi_index(std::uint32_t id) const;
    const Po& po(std::size_t index) const { return pos_[index]; }
    Po& po(std::size_t index) { return pos_[index]; }

    /// Cached minimum SOPs of the node's on-set and off-set (recomputed
    /// lazily after set_function).
    const Sop& on_sop(std::uint32_t id) const;
    const Sop& off_sop(std::uint32_t id) const;

    /// Nodes in a topological order (fanins before fanouts).
    std::vector<std::uint32_t> topo_order() const;

    /// Internal nodes in the transitive fanin cone of `node` (including it).
    std::vector<std::uint32_t> cone_of(std::uint32_t node) const;

    // --- the paper's SOP-aware level metric ---------------------------------

    /// Levels for all nodes: PIs/constants are 0; an internal node's level is
    /// min over its on-set/off-set minimum SOP of the optimal OR-tree level
    /// over optimal AND-tree levels of its cubes (Sec. 3.1, "Quantifying
    /// logic levels in T").
    std::vector<int> compute_sop_levels() const;

    /// Level of a single node's function given fanin levels (used for
    /// what-if evaluation of candidate simplified functions).
    static int sop_level_of(const TruthTable& tt, const std::vector<int>& fanin_levels);
    static int sop_level_of(const Sop& on, const Sop& off, const std::vector<int>& fanin_levels);

    /// Optimal OR-of-AND-trees level of a single SOP (one phase only).
    static int sop_tree_level(const Sop& sop, const std::vector<int>& fanin_levels);

    /// Network depth under the SOP level metric (max over PO nodes).
    int sop_depth() const;

    /// Critical fanins of `node`: fanins whose level must decrease for the
    /// node's level to decrease (evaluated by what-if level reduction).
    std::vector<std::uint32_t> critical_fanins(std::uint32_t node,
                                               const std::vector<int>& levels) const;

    // --- conversion ---------------------------------------------------------

    /// Clusters an AIG into a network whose nodes are `cut_size`-input
    /// functions, chosen depth-first over priority cuts (the "renode" step).
    static Network from_aig(const Aig& aig, int cut_size = 5, int max_cuts = 8);

    /// Rebuilds an AIG with arrival-aware (delay-oriented) node
    /// instantiation.
    Aig to_aig() const;

    /// Rebuilds an AIG with factored (area-oriented) node instantiation.
    Aig to_aig_area() const;

    /// Like to_aig(), but builds *all* nodes (no cleanup) and reports the
    /// AIG literal of every network node in `node_map`; used when callers
    /// need handles on internal signals (e.g. window functions) for further
    /// AIG-level construction.
    Aig to_aig_with_map(std::vector<AigLit>* node_map) const;

    /// Simulates all nodes over the given PI patterns.
    std::vector<Signature> simulate(const SimPatterns& patterns) const;

    /// Evaluates the signature of a single node from its fanins' signatures
    /// (used to extend a simulation incrementally after adding nodes), 64
    /// patterns per word operation. Bits past `num_patterns` are 0. Safe to
    /// call concurrently on a network no one modifies.
    Signature eval_node_signature(std::uint32_t node, const std::vector<Signature>& sigs,
                                  std::size_t num_patterns) const;

    /// Duplicates the cone of `node` as fresh nodes (PIs and constants are
    /// shared, not copied). Returns the id of the copy of `node`; if
    /// `mapping` is non-null it receives old-id -> new-id for the whole cone.
    std::uint32_t duplicate_cone(std::uint32_t node,
                                 std::vector<std::uint32_t>* mapping = nullptr);

private:
    struct Node {
        std::vector<std::uint32_t> fanins;
        TruthTable tt;
        bool is_pi = false;
        // Lazy min-SOP caches; valid when sop_valid.
        mutable Sop on;
        mutable Sop off;
        mutable bool sop_valid = false;
    };

    void ensure_sops(std::uint32_t id) const;

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> pis_;
    std::vector<Po> pos_;
    std::vector<std::string> pi_names_;
};

}  // namespace lls
