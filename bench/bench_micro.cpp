// Micro-benchmarks for the substrate libraries (google-benchmark): truth
// tables (operators, permutation, cut-function expansion), ISOP/minimum-SOP,
// AIG construction, cut enumeration, SOP tree levels, simulation,
// floating-mode timing simulation, SAT, CEC, the baseline passes, and
// technology mapping (cell matching, switching activity).
//
//   bench_micro --benchmark_out=BENCH_micro.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "lookahead/decompose.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"
#include "sat/solver.hpp"
#include "sim/simulation.hpp"
#include "sop/sop.hpp"

using namespace lls;

namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

void BM_TruthTableOps(benchmark::State& state) {
    Rng rng(1);
    const int n = static_cast<int>(state.range(0));
    const TruthTable a = random_tt(n, rng);
    const TruthTable b = random_tt(n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize((a & b) | (~a ^ b));
    }
}
BENCHMARK(BM_TruthTableOps)->Arg(6)->Arg(10)->Arg(14);

void BM_Isop(benchmark::State& state) {
    Rng rng(2);
    const int n = static_cast<int>(state.range(0));
    std::vector<TruthTable> tts;
    for (int i = 0; i < 32; ++i) tts.push_back(random_tt(n, rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(isop(tts[i++ % tts.size()]));
    }
}
BENCHMARK(BM_Isop)->Arg(4)->Arg(6)->Arg(8);

void BM_MinimumSop(benchmark::State& state) {
    Rng rng(3);
    const int n = static_cast<int>(state.range(0));
    std::vector<TruthTable> tts;
    for (int i = 0; i < 32; ++i) tts.push_back(random_tt(n, rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(minimum_sop(tts[i++ % tts.size()]));
    }
}
BENCHMARK(BM_MinimumSop)->Arg(4)->Arg(6);

void BM_AigConstruction(benchmark::State& state) {
    const int bits = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ripple_carry_adder(bits));
    }
}
BENCHMARK(BM_AigConstruction)->Arg(16)->Arg(64);

void BM_Permute(benchmark::State& state) {
    Rng rng(8);
    const int n = static_cast<int>(state.range(0));
    std::vector<TruthTable> tts;
    std::vector<std::vector<int>> perms;
    for (int i = 0; i < 32; ++i) {
        tts.push_back(random_tt(n, rng));
        std::vector<int> perm(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
        for (int v = n - 1; v > 0; --v)
            std::swap(perm[static_cast<std::size_t>(v)],
                      perm[rng.next_below(static_cast<std::uint64_t>(v) + 1)]);
        perms.push_back(std::move(perm));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const std::size_t k = i++ % tts.size();
        benchmark::DoNotOptimize(tts[k].permute(perms[k]));
    }
}
BENCHMARK(BM_Permute)->Arg(4)->Arg(8)->Arg(12);

// The cut-merge shape of restructuring: a fanin cut function over
// `range(0)` leaves re-expressed over a merged cut of `range(1)` leaves.
void BM_ExpandTruthTable(benchmark::State& state) {
    Rng rng(9);
    const int n_old = static_cast<int>(state.range(0));
    const int n_new = static_cast<int>(state.range(1));
    struct Shape {
        TruthTable tt;
        std::vector<std::uint32_t> old_leaves, new_leaves;
    };
    std::vector<Shape> shapes;
    for (int i = 0; i < 32; ++i) {
        Shape s;
        s.tt = random_tt(n_old, rng);
        for (int v = 0; v < n_new; ++v) s.new_leaves.push_back(static_cast<std::uint32_t>(10 * v));
        // A random sorted n_old-subset of the new leaves.
        std::vector<std::uint32_t> pool = s.new_leaves;
        for (int v = 0; v < n_old; ++v) {
            const auto j = v + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_new - v)));
            std::swap(pool[static_cast<std::size_t>(v)], pool[static_cast<std::size_t>(j)]);
        }
        s.old_leaves.assign(pool.begin(), pool.begin() + n_old);
        std::sort(s.old_leaves.begin(), s.old_leaves.end());
        shapes.push_back(std::move(s));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const Shape& s = shapes[i++ % shapes.size()];
        benchmark::DoNotOptimize(expand_truth_table(s.tt, s.old_leaves, s.new_leaves));
    }
}
BENCHMARK(BM_ExpandTruthTable)->Args({4, 8})->Args({6, 8})->Args({7, 8});

void BM_CutEnumeration(benchmark::State& state, const Aig& aig, int cut_size, int max_cuts) {
    for (auto _ : state) {
        CutEnumerator cuts(aig, cut_size, max_cuts);
        benchmark::DoNotOptimize(cuts.cuts(static_cast<std::uint32_t>(aig.num_nodes()) - 1));
    }
}

Aig table2_control(const std::string& name) {
    for (const auto& p : table2_profiles())
        if (p.name == name) return synthetic_control_circuit(p);
    return Aig{};
}

// Lookahead network extraction (5-cuts) on adders; baseline restructuring
// (8-cuts, 6 per node) on a Table 2 control stand-in.
BENCHMARK_CAPTURE(BM_CutEnumeration, rca16_k5, ripple_carry_adder(16), 5, 8);
BENCHMARK_CAPTURE(BM_CutEnumeration, rca64_k5, ripple_carry_adder(64), 5, 8);
BENCHMARK_CAPTURE(BM_CutEnumeration, C880_k8, table2_control("C880"), 8, 6);

// Technology mapping plus its switching-activity simulation, as a
// benchmark pass runs it: with a fresh (cold) cell library every iteration.
void BM_MapCircuit(benchmark::State& state, const Aig& aig) {
    for (auto _ : state) {
        const CellLibrary lib = CellLibrary::generic_70nm();
        benchmark::DoNotOptimize(map_circuit(aig, lib));
    }
}
BENCHMARK_CAPTURE(BM_MapCircuit, C880, table2_control("C880"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapCircuit, rca64, ripple_carry_adder(64))->Unit(benchmark::kMillisecond);

// Cell matching on a cold library: 256 seeded 4-input functions (nearly all
// match no cell) and the 16 functions of 2 inputs.
void BM_CellMatchCold(benchmark::State& state) {
    Rng rng(11);
    std::vector<TruthTable> functions;
    for (int i = 0; i < 256; ++i) functions.push_back(random_tt(4, rng));
    for (std::uint64_t bits = 0; bits < 16; ++bits) {
        TruthTable f(2);
        for (std::uint64_t m = 0; m < 4; ++m) f.set_bit(m, (bits >> m) & 1);
        functions.push_back(f);
    }
    for (auto _ : state) {
        const CellLibrary lib = CellLibrary::generic_70nm();
        for (const TruthTable& f : functions) benchmark::DoNotOptimize(lib.match(f));
    }
}
BENCHMARK(BM_CellMatchCold)->Unit(benchmark::kMillisecond);

void BM_Simulation(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(32);
    Rng rng(4);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 2048, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulate(adder, patterns));
    }
}
BENCHMARK(BM_Simulation);

void BM_TimingSimulation(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(32);
    Rng rng(5);
    const SimPatterns patterns = SimPatterns::random(adder.num_pis(), 1024, rng);
    const auto sigs = simulate(adder, patterns);
    for (auto _ : state) {
        benchmark::DoNotOptimize(timing_simulate(adder, patterns, sigs));
    }
}
BENCHMARK(BM_TimingSimulation);

void BM_SatAdderMiter(benchmark::State& state) {
    const Aig rca = ripple_carry_adder(static_cast<int>(state.range(0)));
    const Aig cla = carry_lookahead_adder(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(check_equivalence(rca, cla));
    }
}
BENCHMARK(BM_SatAdderMiter)->Arg(8)->Arg(16)->Arg(32);

void BM_SatPigeonhole(benchmark::State& state) {
    // php(holes + 1, holes): UNSAT, and hard enough that decisions,
    // propagation and conflict analysis all dominate in turn.
    const int holes = static_cast<int>(state.range(0));
    const int pigeons = holes + 1;
    for (auto _ : state) {
        sat::Solver s;
        std::vector<std::vector<int>> v(static_cast<std::size_t>(pigeons),
                                        std::vector<int>(static_cast<std::size_t>(holes)));
        for (auto& row : v)
            for (auto& x : row) x = s.new_var();
        for (const auto& row : v) {
            std::vector<sat::Lit> clause;
            for (const int x : row) clause.push_back(sat::Lit(x, false));
            s.add_clause(clause);
        }
        for (int h = 0; h < holes; ++h)
            for (int p1 = 0; p1 < pigeons; ++p1)
                for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                    s.add_clause(sat::Lit(v[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)], true),
                                 sat::Lit(v[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)], true));
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SatPigeonhole)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SatSweep(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(16);
    for (auto _ : state) {
        Rng rng(6);
        benchmark::DoNotOptimize(sat_sweep(adder, rng));
    }
}
BENCHMARK(BM_SatSweep);

void BM_SatConeProofs(benchmark::State& state) {
    // One cone's SAT proofs in context: decomposing an adder's carry-out
    // cone from sampled patterns proves every don't-care candidate of
    // secondary simplification and every implication rule by SAT, then
    // verifies the result by CEC. The rest of the decomposition (SPCF,
    // clustering, reduction) is the same work on every commit.
    const Aig rca = ripple_carry_adder(static_cast<int>(state.range(0)));
    const Aig cone = extract_cone(rca, rca.num_pos() - 1);
    LookaheadParams params;
    params.force_random_patterns = true;
    for (auto _ : state) {
        Rng rng(7);
        benchmark::DoNotOptimize(decompose_output(cone, params, rng));
    }
}
BENCHMARK(BM_SatConeProofs)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Balance(benchmark::State& state) {
    const Aig adder = ripple_carry_adder(64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(balance(adder));
    }
}
BENCHMARK(BM_Balance);

void BM_RestructureDelay(benchmark::State& state, const Aig& aig) {
    RestructureOptions opt;
    opt.delay_oriented = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(restructure(aig, opt));
    }
}
// The engine's restructure round (8-cuts, 6 per node) on an adder and on a
// Table 2 control stand-in, where many cuts share a function.
BENCHMARK_CAPTURE(BM_RestructureDelay, rca32, ripple_carry_adder(32));
BENCHMARK_CAPTURE(BM_RestructureDelay, C880, table2_control("C880"));

// Delay scoring of one cut: the SOP tree level of an ISOP of a random
// 6-input function over random leaf levels.
void BM_SopTreeLevel(benchmark::State& state) {
    Rng rng(12);
    std::vector<Sop> sops;
    std::vector<std::vector<int>> levels;
    for (int i = 0; i < 64; ++i) {
        sops.push_back(isop(random_tt(6, rng)));
        std::vector<int> l(6);
        for (auto& x : l) x = static_cast<int>(rng.next_below(24));
        levels.push_back(std::move(l));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const std::size_t k = i++ % sops.size();
        benchmark::DoNotOptimize(Network::sop_tree_level(sops[k], levels[k]));
    }
}
BENCHMARK(BM_SopTreeLevel);

void BM_DecomposeCoutCone(benchmark::State& state) {
    const Aig rca = ripple_carry_adder(8);
    const Aig cone = extract_cone(rca, rca.num_pos() - 1);
    LookaheadParams params;
    for (auto _ : state) {
        Rng rng(7);
        benchmark::DoNotOptimize(decompose_output(cone, params, rng));
    }
}
BENCHMARK(BM_DecomposeCoutCone);

}  // namespace

BENCHMARK_MAIN();
