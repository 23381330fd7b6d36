#include "mapping/mapper.hpp"

#include "engine/metrics.hpp"
#include "sim/simulation.hpp"

namespace lls {

MappedCircuit map_circuit(const Netlist& netlist, const MapperOptions& options) {
    const CellLibrary& library = netlist.library();
    MappedCircuit result;
    result.num_gates = netlist.num_gates();
    result.area = netlist.total_area();
    result.delay_ps = netlist.critical_delay_ps();
    for (const auto& gate : netlist.gates()) ++result.cell_histogram[library.cell(gate.cell).name];

    // Switching activity by gate-level simulation of the mapped netlist.
    Rng rng(options.seed);
    const SimPatterns patterns =
        netlist.num_inputs() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(netlist.num_inputs())
            : SimPatterns::random(netlist.num_inputs(), options.activity_patterns, rng);
    const std::vector<std::uint64_t> ones = netlist.net_one_counts(patterns);

    const double freq_hz = options.clock_ghz * 1e9;
    const double v2 = options.supply_voltage * options.supply_voltage;
    for (const auto& gate : netlist.gates()) {
        const double p =
            static_cast<double>(ones[gate.output]) / static_cast<double>(patterns.num_patterns());
        const double activity = 2.0 * p * (1.0 - p);  // transitions per cycle, random data
        result.power_mw +=
            activity * library.cell(gate.cell).energy_fj * 1e-15 * v2 * freq_hz * 1e3;
    }
    return result;
}

MappedCircuit map_circuit(const Aig& aig, const CellLibrary& library,
                          const MapperOptions& options) {
    static MetricTimer& mapping_timer = Metrics::global().timer("mapping.map");
    const ScopedTimer timer_scope(mapping_timer);
    return map_circuit(map_to_netlist(aig, library, options.cut_size, options.max_cuts), options);
}

}  // namespace lls
