// Degenerate-circuit edge cases: constant outputs, pass-through outputs,
// unused inputs, empty logic. Every public entry point must handle these
// without violating interfaces or functions.

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/flows.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "lookahead/decompose.hpp"
#include "lookahead/optimize.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"

namespace lls {
namespace {

/// A deliberately degenerate circuit: constant-0 PO, constant-1 PO,
/// pass-through PO, inverted pass-through PO, one real gate, unused PI.
Aig degenerate_circuit() {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    (void)aig.add_pi("unused");
    aig.add_po(AigLit::constant(false), "zero");
    aig.add_po(AigLit::constant(true), "one");
    aig.add_po(a, "pass");
    aig.add_po(!a, "npass");
    aig.add_po(aig.land(a, !b), "gate");
    return aig;
}

TEST(EdgeCases, CleanupKeepsDegenerateInterface) {
    const Aig aig = degenerate_circuit();
    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_pis(), 3u);
    EXPECT_EQ(clean.num_pos(), 5u);
    EXPECT_TRUE(check_equivalence(aig, clean).equivalent);
}

TEST(EdgeCases, OptimizeTimingHandlesDegenerates) {
    const Aig aig = degenerate_circuit();
    OptimizeStats stats;
    const Aig out = optimize_timing(aig, {}, &stats);
    EXPECT_TRUE(check_equivalence(aig, out).equivalent);
    EXPECT_EQ(out.num_pos(), aig.num_pos());
    EXPECT_LE(out.depth(), aig.depth());
}

TEST(EdgeCases, DecomposeRejectsConstantAndPassThroughCones) {
    LookaheadParams params;
    Rng rng(1);
    Aig pass;
    const AigLit a = pass.add_pi("a");
    pass.add_po(a, "y");
    EXPECT_FALSE(decompose_output(pass, params, rng).has_value());

    Aig constant;
    (void)constant.add_pi("a");
    constant.add_po(AigLit::constant(true), "y");
    EXPECT_FALSE(decompose_output(constant, params, rng).has_value());
}

TEST(EdgeCases, BaselineFlowsHandleDegenerates) {
    const Aig aig = degenerate_circuit();
    Rng rng(2);
    EXPECT_TRUE(check_equivalence(aig, flow_sis(aig, rng)).equivalent);
    EXPECT_TRUE(check_equivalence(aig, flow_abc(aig, rng)).equivalent);
    EXPECT_TRUE(check_equivalence(aig, flow_dc(aig, rng)).equivalent);
    EXPECT_TRUE(check_equivalence(aig, balance(aig)).equivalent);
}

TEST(EdgeCases, MapperHandlesDegenerates) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const MappedCircuit mapped = map_circuit(degenerate_circuit(), lib);
    // One real gate plus the inverter for "npass".
    EXPECT_GE(mapped.num_gates, 2u);
    EXPECT_GE(mapped.delay_ps, lib.inverter_delay_ps());
}

TEST(EdgeCases, NetworkRoundTripOnDegenerates) {
    const Aig aig = degenerate_circuit();
    const Network net = Network::from_aig(aig, 4, 4);
    EXPECT_TRUE(check_equivalence(aig, net.to_aig()).equivalent);
}

TEST(EdgeCases, BlifRoundTripOnDegenerates) {
    const Aig aig = degenerate_circuit();
    std::stringstream ss;
    write_blif(ss, aig, "degenerate");
    const Aig back = read_blif(ss);
    EXPECT_TRUE(check_equivalence(aig, back).equivalent);
}

TEST(EdgeCases, SatSweepOnDegenerates) {
    const Aig aig = degenerate_circuit();
    Rng rng(3);
    EXPECT_TRUE(check_equivalence(aig, sat_sweep(aig, rng)).equivalent);
}

TEST(EdgeCases, SingleInputCircuits) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    aig.add_po(!a, "na");
    const Aig out = optimize_timing(aig);
    EXPECT_TRUE(check_equivalence(aig, out).equivalent);
    EXPECT_EQ(out.depth(), 0);
}

TEST(EdgeCases, ZeroPoCircuit) {
    Aig aig;
    (void)aig.add_pi("a");
    EXPECT_EQ(aig.depth(), 0);
    EXPECT_EQ(aig.count_reachable_ands(), 0u);
    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_pis(), 1u);
}

}  // namespace
}  // namespace lls
