#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace perfbench {

/// One benchmark workload: which circuits, how many worker threads, and
/// whether the circuits go through one `optimize_timing_batch` call or one
/// `optimize_timing_engine` call each.
struct WorkloadSpec {
    const char* name;
    int jobs;
    bool batch;
};

/// Looks one of the three workloads (adders_j1, control_j4, table2_batch)
/// up by name; nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);

struct GeneratedCircuit {
    std::string name;
    lls::Aig aig;
};

/// Builds the seeded inputs of a workload. Control stand-ins are generated
/// from their `table2_profiles()` profile (a second instance adds a fixed
/// stride to the profile seed); `seed` then draws the order of their POs.
/// The logic, and so the work, stays the same for every seed: seeds that
/// change the logic itself spread run times by 2x (see README.md, "Seeds").
/// Seed 0 keeps the generated order, which reproduces the Table 2 profiles
/// exactly. Adders do not depend on the seed. `quick` swaps in tiny inputs
/// (rca8, control24) for the self-test.
std::vector<GeneratedCircuit> generate_workload(const WorkloadSpec& spec, std::uint64_t seed,
                                                bool quick);

}  // namespace perfbench
