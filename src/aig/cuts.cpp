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

bool merge_leaves(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
                  int limit, std::vector<std::uint32_t>* out) {
    out->clear();
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
        if (static_cast<int>(out->size()) == limit) return false;
        out->push_back(v);
    }
    return true;
}

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

    auto cut_cost = [&](const AigCut& c) {
        long lvl = 0;
        for (auto l : c.leaves) lvl += level[l];
        return std::make_pair(static_cast<long>(c.leaves.size()), lvl);
    };

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (aig.is_pi(id)) {
            cuts_[id].push_back(trivial(id));
            continue;
        }
        const auto& n = aig.node(id);
        std::vector<AigCut> cand;
        std::vector<std::uint32_t> merged;
        for (const auto& c0 : cuts_[n.fanin0.node()]) {
            for (const auto& c1 : cuts_[n.fanin1.node()]) {
                if (!merge_leaves(c0.leaves, c1.leaves, cut_size_, &merged)) continue;
                AigCut c;
                c.leaves = merged;
                TruthTable t0 = expand_truth_table(c0.tt, c0.leaves, merged);
                TruthTable t1 = expand_truth_table(c1.tt, c1.leaves, merged);
                if (n.fanin0.complemented()) t0 = ~t0;
                if (n.fanin1.complemented()) t1 = ~t1;
                c.tt = t0 & t1;
                cand.push_back(std::move(c));
            }
        }
        // Deduplicate and drop dominated cuts.
        std::sort(cand.begin(), cand.end(),
                  [&](const AigCut& a, const AigCut& b) { return cut_cost(a) < cut_cost(b); });
        std::vector<AigCut> kept;
        for (auto& c : cand) {
            bool dominated = false;
            for (const auto& k : kept)
                if (k.dominates(c) || (k.leaves == c.leaves)) {
                    dominated = true;
                    break;
                }
            if (!dominated) kept.push_back(std::move(c));
            if (static_cast<int>(kept.size()) == max_cuts_) break;
        }
        kept.push_back(trivial(id));
        cuts_[id] = std::move(kept);
    }
}

}  // namespace lls
