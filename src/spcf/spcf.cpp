#include "spcf/spcf.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "engine/metrics.hpp"

namespace lls {

TimingSimResult spcf_timing(const Aig& aig, const SimPatterns& patterns,
                            const std::vector<Signature>& node_sigs) {
    static MetricTimer& spcf_timer = Metrics::global().timer("spcf.compute");
    const ScopedTimer timer_scope(spcf_timer);
    return timing_simulate(aig, patterns, node_sigs);
}

Spcf threshold_spcf(const TimingSimResult& timing, std::int32_t delta) {
    Spcf spcf;
    spcf.max_arrival = timing.max_arrival;
    spcf.delta = delta > 0 ? delta : timing.max_arrival;
    spcf.po_spcf.resize(timing.po_arrival.size());
    spcf.po_max_arrival.assign(timing.po_arrival.size(), 0);

    for (std::size_t o = 0; o < timing.po_arrival.size(); ++o) {
        const auto& arrivals = timing.po_arrival[o];  // one entry per pattern
        auto& sig = spcf.po_spcf[o];
        sig.assign(words_for_bits(arrivals.size()), 0);
        std::int32_t po_max = 0;
        for (std::size_t p = 0; p < arrivals.size(); ++p) {
            po_max = std::max(po_max, arrivals[p]);
            if (arrivals[p] >= spcf.delta) sig[p >> 6] |= 1ULL << (p & 63);
        }
        spcf.po_max_arrival[o] = po_max;
    }
    return spcf;
}

Spcf compute_spcf(const Aig& aig, const SimPatterns& patterns,
                  const std::vector<Signature>& node_sigs, std::int32_t delta) {
    return threshold_spcf(spcf_timing(aig, patterns, node_sigs), delta);
}

}  // namespace lls
