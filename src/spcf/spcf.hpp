#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "sim/simulation.hpp"

namespace lls {

/// Speed-path characteristic functions for every PO of a circuit.
///
/// SPCF(y, delta) is the set of input minterms that sensitize a path of
/// length >= delta terminating at output y (Sec. 3.1 of the paper). Here the
/// set is represented as a signature over a pattern set: with an exhaustive
/// pattern set this is the exact floating-mode SPCF; with random patterns it
/// is a Monte-Carlo sample, which the paper explicitly allows since the SPCF
/// only *guides* the synthesis (correctness never depends on it).
struct Spcf {
    std::vector<Signature> po_spcf;        ///< [po] -> pattern membership bits
    std::vector<std::int32_t> po_max_arrival;  ///< longest sensitized delay per PO
    std::int32_t max_arrival = 0;          ///< circuit's longest sensitized delay
    std::int32_t delta = 0;                ///< threshold used

    bool empty(std::size_t po) const {
        for (const auto w : po_spcf[po])
            if (w) return false;
        return true;
    }

    std::uint64_t count(std::size_t po) const {
        std::uint64_t n = 0;
        for (const auto w : po_spcf[po]) n += static_cast<std::uint64_t>(__builtin_popcountll(w));
        return n;
    }
};

/// The timing simulation an SPCF is thresholded from (`timing_simulate`,
/// accounted to the `spcf.compute` timer).
TimingSimResult spcf_timing(const Aig& aig, const SimPatterns& patterns,
                            const std::vector<Signature>& node_sigs);

/// Thresholds one timing simulation at `delta` (delta <= 0 selects its
/// maximal sensitized arrival). Callers that need several thresholds
/// simulate once and threshold as often as they like.
Spcf threshold_spcf(const TimingSimResult& timing, std::int32_t delta = 0);

/// Computes the SPCF of every PO at threshold `delta` (delta <= 0 selects
/// the circuit's maximal sensitized arrival, i.e. the true critical paths).
Spcf compute_spcf(const Aig& aig, const SimPatterns& patterns,
                  const std::vector<Signature>& node_sigs, std::int32_t delta = 0);

}  // namespace lls
