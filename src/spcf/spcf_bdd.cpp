#include "spcf/spcf_bdd.hpp"

#include <algorithm>

#include "bdd/aig_bdd.hpp"
#include "common/error.hpp"
#include "engine/metrics.hpp"

namespace lls {

std::optional<ExactSpcf> compute_spcf_exact(const Aig& aig, std::int32_t delta,
                                            std::size_t bdd_node_limit) {
    static MetricTimer& exact_timer = Metrics::global().timer("spcf.exact");
    const ScopedTimer timer_scope(exact_timer);
    auto manager = std::make_shared<BddManager>(static_cast<int>(aig.num_pis()), bdd_node_limit);
    try {
        const auto values = build_node_bdds(aig, *manager);

        // Arrival-threshold sets: arrive[n] holds A_t(n) = {x : floating
        // arrival of node n under x is >= t}. A_0 is the universe; for an
        // AND gate, the settling rule picks which fanins must still be late:
        //   both fanins 1  -> max rule   -> A(a) | A(b)
        //   both fanins 0  -> min rule   -> A(a) & A(b)
        //   exactly one 0  -> that (controlling) fanin's A.
        std::vector<BddManager::Ref> arrive_prev(aig.num_nodes(), manager->bdd_true());
        std::vector<BddManager::Ref> arrive_cur(aig.num_nodes(), manager->bdd_false());

        const int depth = aig.depth();
        // Per-PO history of A_t(po) so the threshold can be chosen after the
        // maximum sensitized arrival is known.
        std::vector<std::vector<BddManager::Ref>> po_history(
            aig.num_pos(), std::vector<BddManager::Ref>{manager->bdd_true()});

        for (int t = 1; t <= depth; ++t) {
            bool any_nonempty = false;
            for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
                if (!aig.is_and(id)) {
                    arrive_cur[id] = manager->bdd_false();  // PIs settle at 0
                    continue;
                }
                const auto& n = aig.node(id);
                const BddManager::Ref va = bdd_of_lit(*manager, values, n.fanin0);
                const BddManager::Ref vb = bdd_of_lit(*manager, values, n.fanin1);
                const BddManager::Ref aa = arrive_prev[n.fanin0.node()];
                const BddManager::Ref ab = arrive_prev[n.fanin1.node()];
                const BddManager::Ref when_a1 =
                    manager->ite(vb, manager->bor(aa, ab), ab);  // a=1: b controls or max
                const BddManager::Ref when_a0 =
                    manager->ite(vb, aa, manager->band(aa, ab));  // a=0: a controls or min
                arrive_cur[id] = manager->ite(va, when_a1, when_a0);
                if (arrive_cur[id] != manager->bdd_false()) any_nonempty = true;
            }
            for (std::size_t o = 0; o < aig.num_pos(); ++o)
                po_history[o].push_back(arrive_cur[aig.po(o).node()]);
            std::swap(arrive_prev, arrive_cur);
            if (!any_nonempty) break;  // nothing arrives later than t anywhere
        }

        ExactSpcf result;
        result.po_max_arrival.assign(aig.num_pos(), 0);
        std::int32_t max_arrival = 0;
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const auto& hist = po_history[o];
            std::int32_t arr = 0;
            for (std::int32_t t = static_cast<std::int32_t>(hist.size()) - 1; t >= 1; --t)
                if (hist[static_cast<std::size_t>(t)] != manager->bdd_false()) {
                    arr = t;
                    break;
                }
            result.po_max_arrival[o] = arr;
            max_arrival = std::max(max_arrival, arr);
        }
        result.max_arrival = max_arrival;
        result.delta = delta > 0 ? delta : max_arrival;
        result.po_spcf.assign(aig.num_pos(), manager->bdd_false());
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const auto& hist = po_history[o];
            const auto t = static_cast<std::size_t>(result.delta);
            // Arrivals beyond the recorded history are empty sets.
            result.po_spcf[o] = t < hist.size() ? hist[t] : manager->bdd_false();
        }
        result.manager = std::move(manager);
        return result;
    } catch (const LlsError& e) {
        if (e.kind() != ErrorKind::ResourceExhausted) throw;
        return std::nullopt;  // node budget exceeded
    }
}

Signature bdd_to_signature(const BddManager& manager, BddManager::Ref f,
                           const SimPatterns& patterns) {
    Signature sig(patterns.num_words(), 0);
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        std::uint64_t assignment = 0;
        for (std::size_t i = 0; i < patterns.num_pis() && i < 64; ++i)
            if (patterns.pi_value(i, p)) assignment |= std::uint64_t{1} << i;
        if (manager.evaluate(f, assignment)) sig[p >> 6] |= 1ULL << (p & 63);
    }
    return sig;
}

}  // namespace lls
