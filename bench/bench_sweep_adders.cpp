// Figure-style series: AIG depth and mapped delay as a function of adder
// width, for all four flows plus the CLA reference. The paper's evaluation
// is all tables; this sweep makes the Table 1 trend visible as a curve and
// doubles as a scalability check (every point is CEC-verified).
//
// Output: one CSV-like row per (width, flow).

#include <cstdio>

#include "baseline/flows.hpp"
#include "cec/cec.hpp"
#include "common/stopwatch.hpp"
#include "io/generators.hpp"
#include "lookahead/optimize.hpp"
#include "mapping/mapper.hpp"

using namespace lls;

int main() {
    const CellLibrary lib = CellLibrary::generic_70nm();
    std::printf("width,flow,aig_depth,aig_gates,mapped_delay_ps,mapped_area\n");

    Stopwatch total;
    for (const int n : {2, 4, 6, 8, 12, 16, 24, 32}) {
        const Aig rca = ripple_carry_adder(n);
        const Aig cla = carry_lookahead_adder(n);

        auto report = [&](const char* flow, const Aig& circuit) {
            const CecResult cec = check_equivalence(rca, circuit, 4000000);
            if (!cec.resolved || !cec.equivalent) {
                std::fprintf(stderr, "EQUIVALENCE FAILURE: %s on %d-bit adder\n", flow, n);
                std::exit(1);
            }
            const MappedCircuit mapped = map_circuit(circuit, lib);
            std::printf("%d,%s,%d,%zu,%.0f,%.1f\n", n, flow, circuit.depth(),
                        circuit.count_reachable_ands(), mapped.delay_ps, mapped.area);
            std::fflush(stdout);
        };

        Rng rng(1);
        report("ripple", rca);
        report("cla_reference", cla);
        report("sis", flow_sis(rca, rng));
        report("abc", flow_abc(rca, rng));
        report("dc", flow_dc(rca, rng));

        LookaheadParams params;
        params.max_iterations = 48;  // wide adders peel a few levels per round
        report("lookahead", optimize_timing(rca, params));
    }
    std::fprintf(stderr, "(sweep complete, all points verified; %.1fs)\n",
                 total.elapsed_seconds());
    return 0;
}
