#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "aig/aig_build.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"

namespace perfbench {

namespace {

/// Profile-seed distance between two instances of one profile.
constexpr std::uint64_t kInstanceStride = 1000003;

/// The tiny control circuit of the quick mode (same PI/PO shape as
/// tests/data/control24.blif).
const lls::BenchmarkProfile kControl24{"control24", 24, 8, 8, 8, 24};

lls::BenchmarkProfile table2_profile(const std::string& name) {
    for (const auto& p : lls::table2_profiles())
        if (p.name == name) return p;
    throw std::runtime_error("no table2 profile named " + name);
}

std::vector<std::size_t> shuffled(std::size_t n, lls::Rng& rng) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    return order;
}

/// The same circuit with its POs in a seeded order (names kept). Seed 0
/// returns the circuit unchanged.
lls::Aig with_shuffled_outputs(const lls::Aig& aig, std::uint64_t seed) {
    if (seed == 0) return aig;
    lls::Aig out;
    std::vector<lls::AigLit> pis;
    for (std::size_t i = 0; i < aig.num_pis(); ++i) pis.push_back(out.add_pi(aig.pi_name(i)));
    const std::vector<lls::AigLit> pos = lls::append_aig(out, aig, pis);
    lls::Rng rng(seed);
    for (std::size_t o : shuffled(aig.num_pos(), rng)) out.add_po(pos[o], aig.po_name(o));
    return out;
}

/// Instance k of a profile is generated with profile seed + k * stride; its
/// PO order is drawn from a stream derived from the workload seed and k.
void add_instances(std::vector<GeneratedCircuit>& out, lls::BenchmarkProfile profile,
                   std::uint64_t seed, int instances) {
    const std::uint64_t base = profile.seed;
    const std::string name = profile.name;
    for (int k = 0; k < instances; ++k) {
        const auto instance = static_cast<std::uint64_t>(k);
        profile.seed = base + instance * kInstanceStride;
        profile.name = instances == 1 ? name : name + "_" + std::to_string(k);
        const std::uint64_t order_seed = seed == 0 ? 0 : seed * kInstanceStride + instance;
        out.push_back({profile.name, with_shuffled_outputs(lls::synthetic_control_circuit(profile),
                                                           order_seed)});
    }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
    static const WorkloadSpec specs[] = {
        {"adders_j1", 1, false},
        {"control_j4", 4, false},
        {"table2_batch", 4, true},
    };
    for (const auto& spec : specs)
        if (name == spec.name) return &spec;
    return nullptr;
}

std::vector<GeneratedCircuit> generate_workload(const WorkloadSpec& spec, std::uint64_t seed,
                                                bool quick) {
    std::vector<GeneratedCircuit> out;
    const std::string name = spec.name;
    if (name == "adders_j1") {
        for (int bits : quick ? std::vector<int>{8} : std::vector<int>{16, 32, 64})
            out.push_back({"rca" + std::to_string(bits), lls::ripple_carry_adder(bits)});
    } else if (name == "control_j4") {
        if (quick) {
            add_instances(out, kControl24, seed, 1);
        } else {
            add_instances(out, table2_profile("C5315"), seed, 1);
            add_instances(out, table2_profile("sparc_ifu_dcl_flat"), seed, 1);
        }
    } else if (name == "table2_batch") {
        if (quick) {
            add_instances(out, kControl24, seed, 2);
        } else {
            for (const char* profile : {"dalu", "C432", "C880", "C3540", "sparc_tlu_intctl_flat",
                                        "lsu_stb_ctl_flat", "sparc_ifu_dec_flat"})
                add_instances(out, table2_profile(profile), seed, 2);
        }
    } else {
        throw std::runtime_error("unknown workload " + name);
    }
    return out;
}

}  // namespace perfbench
