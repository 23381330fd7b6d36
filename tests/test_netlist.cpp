#include "mapping/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "io/generators.hpp"
#include "mapping/mapper.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

/// The central mapping property: the gate-level netlist computes exactly
/// the same function as the AIG it was mapped from.
void expect_netlist_matches_aig(const Aig& aig, const Netlist& netlist,
                                std::size_t max_patterns = 4096) {
    Rng rng(99);
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), max_patterns, rng);
    const auto sigs = simulate(aig, patterns);
    std::vector<bool> inputs(aig.num_pis());
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        for (std::size_t i = 0; i < aig.num_pis(); ++i) inputs[i] = patterns.pi_value(i, p);
        const std::vector<bool> outs = netlist.evaluate(inputs);
        ASSERT_EQ(outs.size(), aig.num_pos());
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const Signature sig = literal_signature(aig, aig.po(o), sigs, patterns.num_patterns());
            ASSERT_EQ(outs[o], ((sig[p >> 6] >> (p & 63)) & 1) != 0)
                << "pattern " << p << " po " << o;
        }
    }
}

// Switching-activity one-counts taken the slow way, one evaluate_nets call
// per pattern: the reference for the word-parallel net_one_counts.
std::vector<std::uint64_t> reference_one_counts(const Netlist& netlist,
                                                const SimPatterns& patterns) {
    std::vector<std::uint64_t> ones(netlist.num_nets(), 0);
    std::vector<bool> inputs(netlist.num_inputs());
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = patterns.pi_value(i, p);
        const std::vector<bool> values = netlist.evaluate_nets(inputs);
        for (std::size_t n = 0; n < values.size(); ++n)
            if (values[n]) ++ones[n];
    }
    return ones;
}

void expect_one_counts_match_reference(const Aig& aig, const SimPatterns& patterns,
                                       const std::string& what) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Netlist netlist = map_to_netlist(aig, lib);
    const std::vector<std::uint64_t> ones = netlist.net_one_counts(patterns);
    EXPECT_EQ(ones, reference_one_counts(netlist, patterns)) << what;
    // Constant nets count exactly the patterns, never padding bits.
    EXPECT_EQ(ones[Netlist::kConst0], 0u) << what;
    EXPECT_EQ(ones[Netlist::kConst1], patterns.num_patterns()) << what;
}

Aig c880_stand_in() {
    for (const auto& p : table2_profiles())
        if (p.name == "C880") return synthetic_control_circuit(p);
    return Aig{};
}

TEST(OneCountsDiff, RegressionCircuitsUnderRandomPatterns) {
    // 2,048 patterns fill 32 words; 1,000 leave a 40-bit tail word.
    const std::vector<std::pair<std::string, Aig>> circuits = {
        {"rca16", ripple_carry_adder(16)},
        {"control24", synthetic_control_circuit({"control24", 24, 8, 8, 8, 24})},
        {"C880", c880_stand_in()}};
    for (const auto& [name, aig] : circuits) {
        ASSERT_GT(aig.num_pis(), 0u) << name;
        for (const std::size_t count : {std::size_t{2048}, std::size_t{1000}}) {
            Rng rng(count);
            const SimPatterns patterns = SimPatterns::random(aig.num_pis(), count, rng);
            expect_one_counts_match_reference(aig, patterns,
                                              name + " random " + std::to_string(count));
        }
    }
}

TEST(OneCountsDiff, ExhaustiveSetsBelowOneWord) {
    // Up to 5 PIs the exhaustive set has fewer than 64 patterns, so the one
    // word simulated is mostly padding (and a 0-PI circuit has 1 pattern).
    Aig constant;
    constant.add_po(AigLit::constant(true), "one");
    constant.add_po(AigLit::constant(false), "zero");
    expect_one_counts_match_reference(constant, SimPatterns::exhaustive(0), "constants");
    expect_one_counts_match_reference(ripple_carry_adder(1), SimPatterns::exhaustive(3), "rca1");
    expect_one_counts_match_reference(ripple_carry_adder(2), SimPatterns::exhaustive(5), "rca2");
    expect_one_counts_match_reference(synthetic_control_circuit({"control4", 4, 3, 4, 2, 4}),
                                      SimPatterns::exhaustive(4), "control4");
}

TEST(OneCountsDiff, ExhaustiveSetsUpToFourteenInputs) {
    // The largest sets the mapper simulates exhaustively: 2^13 and 2^14
    // patterns (128 and 256 words).
    expect_one_counts_match_reference(ripple_carry_adder(6), SimPatterns::exhaustive(13), "rca6");
    expect_one_counts_match_reference(synthetic_control_circuit({"control14", 14, 6, 8, 6, 14}),
                                      SimPatterns::exhaustive(14), "control14");
}

TEST(Netlist, MappedAdderComputesAddition) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(5);
    const Netlist netlist = map_to_netlist(rca, lib);
    expect_netlist_matches_aig(rca, netlist);
}

TEST(Netlist, MappedClaAndWideCircuits) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig cla = carry_lookahead_adder(12);  // 25 PIs -> sampled check
    expect_netlist_matches_aig(cla, map_to_netlist(cla, lib), 2048);
}

TEST(Netlist, MappedControlLogic) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig circuit = synthetic_control_circuit({"nl", 12, 6, 10, 8, 77});
    expect_netlist_matches_aig(circuit, map_to_netlist(circuit, lib));
}

TEST(Netlist, DegenerateOutputs) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    aig.add_po(AigLit::constant(false), "zero");
    aig.add_po(AigLit::constant(true), "one");
    aig.add_po(a, "pass");
    aig.add_po(!a, "npass");
    const Netlist netlist = map_to_netlist(aig, lib);
    EXPECT_EQ(netlist.evaluate({false}), (std::vector<bool>{false, true, false, true}));
    EXPECT_EQ(netlist.evaluate({true}), (std::vector<bool>{false, true, true, false}));
}

TEST(Netlist, StaMatchesMapperDelay) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(8);
    const Netlist netlist = map_to_netlist(rca, lib);
    const MappedCircuit mapped = map_circuit(rca, lib);
    EXPECT_DOUBLE_EQ(netlist.critical_delay_ps(), mapped.delay_ps);
    EXPECT_DOUBLE_EQ(netlist.total_area(), mapped.area);
    EXPECT_EQ(netlist.num_gates(), mapped.num_gates);
}

TEST(Netlist, ArrivalTimesAreMonotone) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(6);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto arrival = netlist.arrival_times();
    for (const auto& g : netlist.gates())
        for (const auto in : g.inputs)
            EXPECT_GT(arrival[g.output], arrival[in]);
}

TEST(Netlist, SlacksAreNonNegativeAtCriticalTarget) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(8);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto slack = netlist.slacks();
    for (const auto& g : netlist.gates())
        EXPECT_GE(slack[g.output], -1e-9);
    // At the critical target the worst slack is exactly zero.
    double worst = 1e18;
    for (std::size_t o = 0; o < netlist.num_outputs(); ++o)
        worst = std::min(worst, slack[netlist.output_net(o)]);
    EXPECT_NEAR(worst, 0.0, 1e-9);
}

TEST(Netlist, CriticalPathIsConnectedAndZeroSlack) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(10);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto path = netlist.critical_path();
    ASSERT_FALSE(path.empty());
    const auto slack = netlist.slacks();
    const auto arrival = netlist.arrival_times();
    double sum = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) {
        const auto& g = netlist.gates()[path[i]];
        sum += lib.cell(g.cell).delay_ps;
        EXPECT_NEAR(slack[g.output], 0.0, 1e-9) << "gate " << i << " off the critical path";
        if (i + 1 < path.size()) {
            // Consecutive path gates must be connected output -> input.
            const auto& next = netlist.gates()[path[i + 1]];
            EXPECT_NE(std::find(next.inputs.begin(), next.inputs.end(), g.output),
                      next.inputs.end());
        }
    }
    EXPECT_NEAR(sum, netlist.critical_delay_ps(), 1e-9);
    EXPECT_NEAR(arrival[netlist.gates()[path.back()].output], netlist.critical_delay_ps(), 1e-9);
}

TEST(Netlist, RelaxedTargetGivesUniformExtraSlack) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(4);
    const Netlist netlist = map_to_netlist(rca, lib);
    const double target = netlist.critical_delay_ps() + 100.0;
    const auto tight = netlist.slacks();
    const auto relaxed = netlist.slacks(target);
    for (const auto& g : netlist.gates())
        EXPECT_NEAR(relaxed[g.output] - tight[g.output], 100.0, 1e-9);
}

TEST(Netlist, InvertersAreShared) {
    // Two POs needing the complement of the same signal must share one INV.
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit x = aig.land(a, b);
    aig.add_po(!x, "y0");
    aig.add_po(!x, "y1");
    const Netlist netlist = map_to_netlist(aig, lib);
    int inverters = 0;
    for (const auto& g : netlist.gates())
        if (lib.cell(g.cell).name == "INV") ++inverters;
    EXPECT_LE(inverters, 1);  // NAND2 mapping may even avoid it entirely
}

TEST(Netlist, VerilogDumpIsWellFormed) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(3);
    const Netlist netlist = map_to_netlist(rca, lib);
    std::stringstream ss;
    netlist.write_verilog(ss, "adder3");
    const std::string text = ss.str();
    EXPECT_NE(text.find("module adder3"), std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
    EXPECT_NE(text.find("input a0;"), std::string::npos);
    EXPECT_NE(text.find("output cout;"), std::string::npos);
    // One instance line per gate.
    std::size_t instances = 0, pos = 0;
    while ((pos = text.find(" g", pos)) != std::string::npos) {
        ++instances;
        ++pos;
    }
    EXPECT_GE(instances, netlist.num_gates());
}

}  // namespace
}  // namespace lls
