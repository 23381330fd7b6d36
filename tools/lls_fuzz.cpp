// lls_fuzz: randomized end-to-end robustness harness.
//
//   lls_fuzz [iterations] [base_seed] [--fault-inject SPEC]
//   lls_fuzz --mutate-store [iterations] [base_seed]
//   lls_fuzz --deadline [iterations] [base_seed]
//   lls_fuzz --cone-mem [iterations] [base_seed]
//
// Each iteration generates a random circuit (random shape, PI/PO counts and
// operator mix), pushes it through every optimization flow plus mapping and
// the BLIF/AIGER round-trips, and verifies every step by CEC. Any failure —
// a mismatch, an unresolved check, or an exception escaping a flow — writes
// the offending generated circuit to fuzz_corpus/ as a BLIF reproducer and
// prints the exact replay command before exiting nonzero. Used before
// releases; the unit-test suites run fixed subsets of the same checks.
//
// --fault-inject forwards a deterministic fault plan (common/fault.hpp
// grammar) into the lookahead flow, exercising the engine's containment
// ladder under fuzz workloads: injected faults must degrade cones, never
// break equivalence or crash the harness.
//
// --deadline exercises the runaway-cone watchdog (common/cancel.hpp): each
// iteration runs the lookahead flow under a tight random per-cone
// wall-clock deadline, so evaluations are cancelled at arbitrary poll
// points. Whatever the watchdog interrupts must be contained: the run
// completes (no crash, no hang), the result is equivalent to the input
// (cancelled cones degrade to original with a Cancelled FaultRecord), and
// it round-trips through the writers as a well-formed AIG.
//
// --cone-mem exercises the per-cone memory quota (common/memgov.hpp): each
// iteration runs the lookahead flow under a tight random per-cone byte
// quota, at a random job count. Whatever
// the quota trips must be contained deterministically: the run completes,
// the result is equivalent to the input, a quota-degraded cone is *never*
// reported as recovered (the memgov fault ends the retry ladder), the
// quota'd result is byte-identical across job counts, and it round-trips
// through the writers as a well-formed AIG.
//
// --mutate-store exercises the persistent memo store (src/persist/): each
// iteration populates a cache directory from a cold run, proves an intact
// warm replay is byte-identical with warm hits registered, then mutates
// every shard file (truncation, bit flips, zeroed header, appended
// garbage) and requires the mutated warm run to degrade to a cold start —
// same bytes, exit without any escaping exception.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "common/memgov.hpp"
#include "common/parse.hpp"

#include "baseline/flows.hpp"
#include "baseline/select_transform.hpp"
#include "cec/cec.hpp"
#include "cec/redundancy.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "lookahead/optimize.hpp"
#include "mapping/netlist.hpp"
#include "persist/store.hpp"

#include <fstream>

namespace {

lls::Aig random_circuit(std::uint64_t seed) {
    lls::Rng rng(seed);
    const std::size_t num_pis = 4 + rng.next_below(20);
    const std::size_t num_nodes = 10 + rng.next_below(120);
    const std::size_t num_pos = 1 + rng.next_below(8);

    lls::Aig aig;
    std::vector<lls::AigLit> pool;
    for (std::size_t i = 0; i < num_pis; ++i) pool.push_back(aig.add_pi());
    for (std::size_t i = 0; i < num_nodes; ++i) {
        auto pick = [&]() {
            lls::AigLit l = pool[rng.next_below(pool.size())];
            return rng.next_bool() ? !l : l;
        };
        const lls::AigLit x = pick(), y = pick(), z = pick();
        switch (rng.next_below(5)) {
            case 0: pool.push_back(aig.land(x, y)); break;
            case 1: pool.push_back(aig.lor(x, y)); break;
            case 2: pool.push_back(aig.lxor(x, y)); break;
            case 3: pool.push_back(aig.lmux(x, y, z)); break;
            default: pool.push_back(aig.land(x, aig.lor(y, z))); break;
        }
    }
    for (std::size_t o = 0; o < num_pos; ++o)
        aig.add_po(pool[pool.size() - 1 - (o % pool.size())]);
    return aig.cleanup();
}

std::string g_argv0 = "lls_fuzz";
std::string g_fault_spec;

/// Writes the generated circuit that triggered a failure to fuzz_corpus/
/// and prints the replay command. The generator is a pure function of the
/// seed, so the replay command regenerates the identical circuit; the BLIF
/// file is for inspection and bug reports.
void dump_reproducer(std::uint64_t seed, const lls::Aig& circuit) {
    const std::string dir = "fuzz_corpus";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/seed_" + std::to_string(seed) + ".blif";
    try {
        lls::write_blif_file(path, circuit, "fuzz_seed_" + std::to_string(seed));
        std::fprintf(stderr, "reproducer written: %s\n", path.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "could not write reproducer %s: %s\n", path.c_str(), e.what());
    }
    std::fprintf(stderr, "replay: %s 1 %llu%s%s\n", g_argv0.c_str(),
                 static_cast<unsigned long long>(seed),
                 g_fault_spec.empty() ? "" : " --fault-inject ", g_fault_spec.c_str());
}

bool verify(const char* what, std::uint64_t seed, const lls::Aig& a, const lls::Aig& b) {
    const lls::CecResult cec = lls::check_equivalence(a, b, 2000000);
    if (cec.resolved && cec.equivalent) return true;
    std::fprintf(stderr, "FUZZ FAILURE: %s at seed %llu (%s)\n", what,
                 static_cast<unsigned long long>(seed),
                 cec.resolved ? "inequivalent" : "unresolved");
    return false;
}

/// One fuzz iteration; returns false after dumping a reproducer on any
/// failure, including an exception escaping one of the flows.
bool run_iteration(std::uint64_t seed, const std::string& fault_plan) {
    const lls::Aig circuit = random_circuit(seed);
    // Every failure path funnels through here so the reproducer dump cannot
    // be forgotten when new checks are added.
    auto check = [&](bool ok) {
        if (!ok) dump_reproducer(seed, circuit);
        return ok;
    };
    try {
        lls::Rng rng(seed ^ 0xf00d);

        if (!check(verify("flow_sis", seed, circuit, lls::flow_sis(circuit, rng)))) return false;
        if (!check(verify("flow_abc", seed, circuit, lls::flow_abc(circuit, rng)))) return false;
        if (!check(verify("flow_dc", seed, circuit, lls::flow_dc(circuit, rng)))) return false;
        if (!check(verify("select_transform", seed, circuit,
                          lls::generalized_select_transform(circuit))))
            return false;
        if (!check(verify("redundancy", seed, circuit,
                          lls::remove_redundancies(circuit, rng, /*max_removals=*/20))))
            return false;

        lls::LookaheadParams params;
        params.max_iterations = 4;
        params.seed = seed;
        params.fault_plan = fault_plan;
        const lls::Aig optimized = lls::optimize_timing(circuit, params);
        if (!check(verify("lookahead", seed, circuit, optimized))) return false;

        std::stringstream blif;
        lls::write_blif(blif, optimized, "fuzz");
        if (!check(verify("blif roundtrip", seed, optimized, lls::read_blif(blif)))) return false;

        std::stringstream aag;
        lls::write_aiger(aag, optimized);
        if (!check(verify("aiger roundtrip", seed, optimized, lls::read_aiger(aag)))) return false;

        // Mapped netlist vs AIG on a handful of random vectors.
        const lls::CellLibrary lib = lls::CellLibrary::generic_70nm();
        const lls::Netlist netlist = lls::map_to_netlist(optimized, lib);
        lls::Rng vec_rng(seed ^ 0xbeef);
        for (int v = 0; v < 64; ++v) {
            std::uint64_t assignment = vec_rng.next_u64();
            std::vector<bool> inputs(optimized.num_pis());
            for (std::size_t k = 0; k < inputs.size(); ++k)
                inputs[k] = (assignment >> (k % 64)) & 1;
            const auto outs = netlist.evaluate(inputs);
            // Reference: evaluate the AIG by direct traversal.
            std::vector<char> value(optimized.num_nodes(), 0);
            for (std::size_t k = 0; k < optimized.num_pis(); ++k)
                value[optimized.pi(k)] = inputs[k] ? 1 : 0;
            for (std::uint32_t id = 1; id < optimized.num_nodes(); ++id) {
                if (!optimized.is_and(id)) continue;
                const auto& n = optimized.node(id);
                const bool f0 = (value[n.fanin0.node()] != 0) != n.fanin0.complemented();
                const bool f1 = (value[n.fanin1.node()] != 0) != n.fanin1.complemented();
                value[id] = (f0 && f1) ? 1 : 0;
            }
            for (std::size_t o = 0; o < optimized.num_pos(); ++o) {
                const lls::AigLit po = optimized.po(o);
                const bool expect = (value[po.node()] != 0) != po.complemented();
                if (outs[o] != expect) {
                    std::fprintf(stderr, "FUZZ FAILURE: mapped netlist at seed %llu\n",
                                 static_cast<unsigned long long>(seed));
                    dump_reproducer(seed, circuit);
                    return false;
                }
            }
        }
        std::printf("seed %llu ok (pis=%zu ands=%zu depth=%d -> %d)\n",
                    static_cast<unsigned long long>(seed), circuit.num_pis(),
                    circuit.count_reachable_ands(), circuit.depth(), optimized.depth());
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

/// One watchdog iteration: the lookahead flow under a tight random
/// per-cone deadline (microseconds to a few milliseconds, so many cones
/// are cancelled mid-evaluation at whatever poll site the clock catches).
/// The run must complete, stay equivalent (degrade-to-original), report
/// every cancellation as an unrecovered Cancelled fault, and produce a
/// circuit the writers accept.
bool run_deadline_iteration(std::uint64_t seed) {
    const lls::Aig circuit = random_circuit(seed);
    auto check = [&](bool ok) {
        if (!ok) dump_reproducer(seed, circuit);
        return ok;
    };
    try {
        lls::Rng rng(seed ^ 0xdead11e5);
        lls::LookaheadParams params;
        params.max_iterations = 4;
        params.seed = seed;
        // 1us .. ~2ms: tight enough that cones regularly outlive it.
        params.cone_deadline_seconds = static_cast<double>(1 + rng.next_below(2000)) * 1e-6;
        // Randomize the job count: extra jobs let the watchdog fire
        // concurrently in several cones, which may not change what
        // containment guarantees hold.
        lls::EngineOptions engine;
        engine.jobs = 1 + static_cast<int>(rng.next_below(4));
        lls::OptimizeStats stats;
        const lls::Aig optimized = lls::optimize_timing_engine(circuit, params, engine, &stats);

        if (!check(verify("deadline lookahead", seed, circuit, optimized))) return false;
        for (const auto& f : stats.faults) {
            if (f.kind == lls::ErrorKind::Cancelled && f.recovered) {
                std::fprintf(stderr,
                             "FUZZ FAILURE: cancelled cone reported as recovered at seed %llu\n",
                             static_cast<unsigned long long>(seed));
                dump_reproducer(seed, circuit);
                return false;
            }
        }
        // A cancelled run must still hand the writers a well-formed AIG.
        std::stringstream blif;
        lls::write_blif(blif, optimized, "fuzz");
        if (!check(verify("deadline blif roundtrip", seed, optimized, lls::read_blif(blif))))
            return false;
        std::printf("seed %llu ok (deadline %.0fus, %d cone(s) cancelled, depth %d -> %d)\n",
                    static_cast<unsigned long long>(seed),
                    params.cone_deadline_seconds * 1e6, stats.deadline_cancelled,
                    circuit.depth(), optimized.depth());
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: deadline exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

/// One memory-quota iteration: the lookahead flow under a tight random
/// per-cone quota (a few KB to a few hundred KB, so cones regularly trip
/// it at some charge site), at a random job count. Containment must be deterministic: the run completes, stays
/// equivalent (degrade-to-original), never reports a memgov fault as
/// recovered, produces byte-identical output across job counts, and the
/// result round-trips.
bool run_memgov_iteration(std::uint64_t seed) {
    const lls::Aig circuit = random_circuit(seed);
    auto check = [&](bool ok) {
        if (!ok) dump_reproducer(seed, circuit);
        return ok;
    };
    try {
        lls::Rng rng(seed ^ 0x4e4f4d);
        lls::LookaheadParams params;
        params.max_iterations = 4;
        params.seed = seed;
        // 1KB .. ~128KB: tight enough that many cones exhaust it, wide
        // enough that some complete (both the degrade path and the success
        // path run under accounting).
        params.cone_mem_bytes = (std::uint64_t{1} << 10) + rng.next_below(std::uint64_t{1} << 17);

        auto run = [&](int jobs, lls::OptimizeStats* stats) {
            lls::EngineOptions engine;
            engine.jobs = jobs;
            const lls::Aig optimized =
                lls::optimize_timing_engine(circuit, params, engine, stats);
            std::stringstream aag;
            lls::write_aiger(aag, optimized);
            return std::make_pair(optimized, aag.str());
        };

        lls::OptimizeStats stats;
        const auto [optimized, bytes] =
            run(1 + static_cast<int>(rng.next_below(4)), &stats);

        if (!check(verify("memgov lookahead", seed, circuit, optimized))) return false;
        int memgov_faults = 0;
        for (const auto& f : stats.faults) {
            if (f.stage != lls::kMemgovStage) continue;
            ++memgov_faults;
            if (f.recovered) {
                std::fprintf(stderr,
                             "FUZZ FAILURE: quota-degraded cone reported as recovered at seed "
                             "%llu\n",
                             static_cast<unsigned long long>(seed));
                dump_reproducer(seed, circuit);
                return false;
            }
        }
        if (memgov_faults != stats.quota_degraded) {
            std::fprintf(stderr,
                         "FUZZ FAILURE: quota_degraded=%d disagrees with %d memgov fault(s) at "
                         "seed %llu\n",
                         stats.quota_degraded, memgov_faults,
                         static_cast<unsigned long long>(seed));
            dump_reproducer(seed, circuit);
            return false;
        }
        // The quota is deterministic: a serial re-run must reproduce the
        // same bytes whatever schedule the first run used.
        lls::OptimizeStats serial_stats;
        const auto [serial_aig, serial_bytes] = run(1, &serial_stats);
        (void)serial_aig;
        if (bytes != serial_bytes || serial_stats.quota_degraded != stats.quota_degraded) {
            std::fprintf(stderr, "FUZZ FAILURE: quota'd run diverged across job counts at seed "
                                 "%llu\n",
                         static_cast<unsigned long long>(seed));
            dump_reproducer(seed, circuit);
            return false;
        }
        // A quota-degraded run must still hand the writers a well-formed AIG.
        std::stringstream blif;
        lls::write_blif(blif, optimized, "fuzz");
        if (!check(verify("memgov blif roundtrip", seed, optimized, lls::read_blif(blif))))
            return false;
        std::printf("seed %llu ok (quota %llu B, %d cone(s) degraded, depth %d -> %d)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(params.cone_mem_bytes),
                    stats.quota_degraded, circuit.depth(), optimized.depth());
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: memgov exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

/// AIGER bytes of one lookahead run of `circuit` through the engine, with
/// an optional warm-start bridge — the byte-level QoR probe of the store
/// mutation mode.
std::string optimize_bytes(const lls::Aig& circuit, std::uint64_t seed, lls::WarmStart* warm) {
    lls::LookaheadParams params;
    params.max_iterations = 4;
    params.seed = seed;
    lls::EngineOptions engine;
    engine.warm_start = warm;
    const lls::Aig optimized = lls::optimize_timing_engine(circuit, params, engine);
    std::stringstream aag;
    lls::write_aiger(aag, optimized);
    return aag.str();
}

/// Applies one random corruption to a shard file: truncation, bit flips,
/// a zeroed header, or appended garbage.
void mutate_file(const std::string& path, lls::Rng& rng) {
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    switch (rng.next_below(4)) {
        case 0:  // truncate somewhere, header included
            bytes.resize(rng.next_below(bytes.size() + 1));
            break;
        case 1:  // flip a handful of random bits
            for (std::size_t flips = 1 + rng.next_below(8); flips && !bytes.empty(); --flips) {
                const std::size_t at = rng.next_below(bytes.size());
                bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.next_below(8)));
            }
            break;
        case 2:  // zero the header
            for (std::size_t i = 0; i < bytes.size() && i < 16; ++i) bytes[i] = 0;
            break;
        default:  // append garbage (a torn concurrent append)
            for (std::size_t n = 1 + rng.next_below(64); n; --n)
                bytes.push_back(static_cast<char>(rng.next_below(256)));
            break;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One store-mutation iteration: cold populate -> intact warm replay
/// (byte-identical, warm hits registered) -> mutate every shard -> the
/// mutated warm run must degrade to a cold start with identical bytes.
bool run_store_iteration(std::uint64_t seed) {
    const lls::Aig circuit = random_circuit(seed);
    const std::string dir = "fuzz_store/seed_" + std::to_string(seed);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto fail = [&](const char* what) {
        std::fprintf(stderr, "FUZZ FAILURE: %s at seed %llu\n", what,
                     static_cast<unsigned long long>(seed));
        dump_reproducer(seed, circuit);
        return false;
    };
    try {
        lls::clear_engine_caches();
        std::string cold;
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::ReadWrite);
            cold = optimize_bytes(circuit, seed, &warm);
            warm.finalize();
        }

        lls::clear_engine_caches();
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::Read);
            const std::uint64_t hits_before =
                lls::Metrics::global().counter("persist.warm_hits").value();
            if (optimize_bytes(circuit, seed, &warm) != cold)
                return fail("warm replay diverged from cold run");
            const std::uint64_t hits_after =
                lls::Metrics::global().counter("persist.warm_hits").value();
            if (circuit.depth() >= 2 && warm.imported_records() > 0 && hits_after == hits_before)
                return fail("warm replay registered no warm hits");
        }

        lls::Rng rng(seed ^ 0x57a7e);
        std::size_t mutated = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            mutate_file(entry.path().string(), rng);
            ++mutated;
        }
        lls::clear_engine_caches();
        {
            lls::WarmStart warm(dir, lls::persist::StoreMode::Read);
            if (optimize_bytes(circuit, seed, &warm) != cold)
                return fail("mutated store changed the result");
        }
        std::printf("seed %llu ok (store mutation contained, %zu shard(s) mutated)\n",
                    static_cast<unsigned long long>(seed), mutated);
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAILURE: store exception at seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), e.what());
        dump_reproducer(seed, circuit);
        return false;
    }
}

}  // namespace

int main(int argc, char** argv) {
    // Strict parsing: "lls_fuzz xyz" must be a usage error, not a 0-iteration
    // run that "passes".
    g_argv0 = argv[0];
    const auto usage = [&]() {
        std::fprintf(stderr,
                     "usage: %s [iterations] [base_seed] [--fault-inject SPEC]\n"
                     "       %s --mutate-store [iterations] [base_seed]\n"
                     "       %s --deadline [iterations] [base_seed]\n"
                     "       %s --cone-mem [iterations] [base_seed]\n",
                     argv[0], argv[0], argv[0], argv[0]);
        return 2;
    };
    int iterations = 25;
    std::uint64_t base_seed = 1000;
    std::string fault_plan;
    bool mutate_store = false, deadline_mode = false, memgov_mode = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fault-inject") {
            if (i + 1 >= argc) return usage();
            g_fault_spec = argv[++i];
        } else if (arg == "--mutate-store") {
            mutate_store = true;
        } else if (arg == "--deadline") {
            deadline_mode = true;
        } else if (arg == "--cone-mem") {
            memgov_mode = true;
        } else if (positional == 0) {
            if (!lls::parse_int_option("iterations", arg.c_str(), 1, 1000000000, &iterations))
                return usage();
            ++positional;
        } else if (positional == 1) {
            if (!lls::parse_u64_option("base_seed", arg.c_str(), UINT64_MAX, &base_seed))
                return usage();
            ++positional;
        } else {
            return usage();
        }
    }
    if (!g_fault_spec.empty()) {
        try {
            // Canonical engine-facing form; fatal@batch specs are meaningless
            // here (no checkpoint journal to crash against) and are stripped.
            fault_plan = lls::FaultPlan::parse(g_fault_spec).engine_spec();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    if ((mutate_store || deadline_mode || memgov_mode) && !g_fault_spec.empty()) {
        std::fprintf(stderr,
                     "error: --mutate-store/--deadline/--cone-mem and --fault-inject are "
                     "mutually exclusive\n");
        return 2;
    }
    if (static_cast<int>(mutate_store) + static_cast<int>(deadline_mode) +
            static_cast<int>(memgov_mode) >
        1) {
        std::fprintf(stderr, "error: --mutate-store, --deadline, and --cone-mem are mutually "
                             "exclusive\n");
        return 2;
    }

    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
        const bool ok = mutate_store    ? run_store_iteration(seed)
                        : deadline_mode ? run_deadline_iteration(seed)
                        : memgov_mode   ? run_memgov_iteration(seed)
                                        : run_iteration(seed, fault_plan);
        if (!ok) return 1;
    }
    std::printf("fuzz: %d iterations passed\n", iterations);
    return 0;
}
