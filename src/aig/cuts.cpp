#include "aig/cuts.hpp"

#include <algorithm>

namespace lls {

TruthTable expand_truth_table(const TruthTable& tt, const std::vector<std::uint32_t>& old_leaves,
                              const std::vector<std::uint32_t>& new_leaves) {
    LLS_REQUIRE(static_cast<int>(old_leaves.size()) == tt.num_vars());
    TruthTable expanded = tt.extend(static_cast<int>(new_leaves.size()));
    // Stretch: old variable i moves up to the slot of old_leaves[i] within
    // new_leaves, which is at least i because the old leaves are a sorted
    // subset. Placing the top variable first, each target slot still holds
    // a vacuous extended variable when it is reached.
    int slot = static_cast<int>(new_leaves.size());
    for (int i = tt.num_vars() - 1; i >= 0; --i) {
        const std::uint32_t leaf = old_leaves[static_cast<std::size_t>(i)];
        do {
            LLS_REQUIRE(slot > i && "old leaves must be a subset of the new leaves");
            --slot;
        } while (new_leaves[static_cast<std::size_t>(slot)] > leaf);
        LLS_REQUIRE(new_leaves[static_cast<std::size_t>(slot)] == leaf);
        expanded.swap_in_place(i, slot);
    }
    return expanded;
}

namespace {

/// Appends the sorted union of `a` and `b` to `out`; false (and `out` as it
/// was) if the union has more than `limit` leaves.
bool merge_leaves(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
                  int limit, std::vector<std::uint32_t>* out) {
    const std::size_t start = out->size();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        std::uint32_t v;
        if (j == b.size() || (i < a.size() && a[i] < b[j]))
            v = a[i++];
        else if (i == a.size() || b[j] < a[i])
            v = b[j++];
        else {
            v = a[i];
            ++i;
            ++j;
        }
        if (static_cast<int>(out->size() - start) == limit) {
            out->resize(start);
            return false;
        }
        out->push_back(v);
    }
    return true;
}

/// A merged candidate cut before ranking: its leaves live in a shared pool,
/// and its function is derived from the fanin cuts only if the cut is kept.
struct Candidate {
    std::pair<long, long> rank;  ///< (leaf count, leaf-level sum)
    std::uint32_t begin;         ///< first leaf in the pool
    std::uint32_t size;
    const AigCut* c0;
    const AigCut* c1;
};

}  // namespace

CutEnumerator::CutEnumerator(const Aig& aig, int cut_size, int max_cuts)
    : cut_size_(cut_size), max_cuts_(max_cuts) {
    LLS_REQUIRE(cut_size >= 2 && cut_size <= 12);
    LLS_REQUIRE(max_cuts >= 1);
    cuts_.resize(aig.num_nodes());
    const auto level = aig.compute_levels();

    auto trivial = [&](std::uint32_t id) {
        AigCut c;
        c.leaves = {id};
        c.tt = TruthTable::variable(1, 0);
        return c;
    };

    // Constant node: single empty-leaf cut with constant function.
    {
        AigCut c;
        c.tt = TruthTable(0);
        cuts_[0].push_back(std::move(c));
    }

    std::vector<Candidate> cand;
    std::vector<std::uint32_t> pool;
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (aig.is_pi(id)) {
            cuts_[id].push_back(trivial(id));
            continue;
        }
        const auto& n = aig.node(id);
        cand.clear();
        pool.clear();
        for (const auto& c0 : cuts_[n.fanin0.node()]) {
            for (const auto& c1 : cuts_[n.fanin1.node()]) {
                const auto begin = static_cast<std::uint32_t>(pool.size());
                if (!merge_leaves(c0.leaves, c1.leaves, cut_size_, &pool)) continue;
                const auto size = static_cast<std::uint32_t>(pool.size()) - begin;
                long lvl = 0;
                for (std::uint32_t k = begin; k < begin + size; ++k) lvl += level[pool[k]];
                cand.push_back({{static_cast<long>(size), lvl}, begin, size, &c0, &c1});
            }
        }
        // Rank on leaves alone (std::sort sees the same comparisons as it
        // would on whole cuts), drop duplicates and dominated cuts, and
        // derive functions only for the cuts that stay.
        std::sort(cand.begin(), cand.end(),
                  [](const Candidate& a, const Candidate& b) { return a.rank < b.rank; });
        std::vector<AigCut> kept;
        for (const auto& c : cand) {
            const auto* leaves = pool.data() + c.begin;
            const bool dominated = std::any_of(kept.begin(), kept.end(), [&](const AigCut& k) {
                return std::includes(leaves, leaves + c.size, k.leaves.begin(), k.leaves.end());
            });
            if (dominated) continue;
            AigCut cut;
            cut.leaves.assign(leaves, leaves + c.size);
            TruthTable t0 = expand_truth_table(c.c0->tt, c.c0->leaves, cut.leaves);
            TruthTable t1 = expand_truth_table(c.c1->tt, c.c1->leaves, cut.leaves);
            if (n.fanin0.complemented()) t0 = ~t0;
            if (n.fanin1.complemented()) t1 = ~t1;
            cut.tt = t0 & t1;
            kept.push_back(std::move(cut));
            if (static_cast<int>(kept.size()) == max_cuts_) break;
        }
        kept.push_back(trivial(id));
        cuts_[id] = std::move(kept);
    }
}

}  // namespace lls
