// lls_opt: command-line timing optimization driver.
//
//   lls_opt [options] <input.blif> [output.blif]
//   lls_opt --batch [options] <input.blif> [input2.blif ...]
//
// Options:
//   --flow sis|abc|dc|lookahead   optimization flow (default: lookahead)
//   --iterations N                lookahead decomposition rounds (default 10)
//   --jobs N|auto                 worker threads (cone fan-out; batch circuits);
//                                 auto (or 0) = every hardware thread
//   --work-budget N               deterministic work budget in units (0 = none);
//                                 budgeted runs are bit-identical across --jobs
//   --batch                       optimize every input concurrently (--jobs)
//   --out-dir DIR                 batch mode: write DIR/<input> per circuit
//   --checkpoint FILE             batch mode: journal each completed circuit to
//                                 FILE (flush-and-throw); with --resume, skip
//                                 circuits already journaled under the same
//                                 input hash + params fingerprint
//   --resume                      resume an interrupted --checkpoint batch
//   --fault-inject SPEC           deterministic fault injection, SPEC =
//                                 kind@site[:count][,...]; kinds parse|resource|
//                                 solver|verify|invariant|io|cancel fire
//                                 synthetic LlsErrors at engine sites
//                                 (decompose|spcf|sat|cec); fatal@batch:N kills
//                                 the process after N journaled circuits
//                                 (crash simulation)
//   --no-verify                   skip the final equivalence check
//   --map                         print a technology-mapping report
//   --aiger PATH                  also dump the result as ASCII AIGER
//   --verilog PATH                dump the mapped gate-level netlist as Verilog
//   --stats                       print per-round decomposition log
//   --metrics                     print engine stage timers + cache stats
//   --metrics-json FILE           dump the metrics registry as JSON to FILE
//   --cache-dir DIR               persistent memo store: load intact shards
//                                 from DIR before optimizing and publish new
//                                 memo entries back (see docs/ENGINE.md,
//                                 "Persistent memo store"); corrupt or
//                                 version-mismatched shards degrade to a
//                                 cold start, never a failure
//   --cache-mode read|write|rw|off
//                                 what --cache-dir may do (default rw)
//   --cone-deadline DUR           per-cone wall-clock watchdog (500ms/30s/5m;
//                                 default off): a cone evaluation that outlives
//                                 it is cancelled and kept original with a
//                                 FaultRecord — nondeterministic (use
//                                 --work-budget for reproducible budgeted
//                                 runs)
//   --cone-mem SIZE               deterministic per-cone memory quota (64M,
//                                 1G, plain bytes; default off): a cone whose
//                                 evaluation would exceed it keeps its
//                                 original logic with a FaultRecord — at the
//                                 same program point whatever --jobs or
//                                 cache state, so quota'd runs stay
//                                 byte-identical
//
// Exit codes are documented in --help: 0 success; 1 not equivalent / item
// failed; 2 usage; 10..16 per ErrorKind; 30 terminated by SIGTERM/SIGINT
// with the checkpoint journal and persist-store shards flushed (--resume
// continues byte-identically); 42 simulated crash (fatal@batch:N). A second
// signal hard-exits with the conventional 128+signo.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <atomic>

#include <sstream>

#include "baseline/flows.hpp"
#include "cec/cec.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parse.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "lookahead/optimize.hpp"
#include <fstream>

#include "mapping/mapper.hpp"
#include "mapping/netlist.hpp"

namespace {

// Graceful signal-driven shutdown: the first SIGTERM/SIGINT requests
// cooperative cancellation (the engine stops dispatching, in-flight cones
// cancel at their next poll, the checkpoint journal and persist-store
// shards are flushed, and the process exits with kExitSignalShutdown so
// scripts know --resume will continue byte-identically). A second signal
// hard-exits with the conventional 128+signo. Everything the handler does
// is async-signal-safe: one atomic exchange, one relaxed store, _exit.
lls::CancelToken g_shutdown;
std::atomic<int> g_signal{0};

extern "C" void handle_shutdown_signal(int sig) {
    if (g_signal.exchange(sig) != 0) _exit(128 + sig);
    g_shutdown.request();
}

void install_signal_handlers() {
    struct sigaction action = {};
    action.sa_handler = handle_shutdown_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
}

void print_usage(std::FILE* out, const char* argv0) {
    std::fprintf(out,
                 "usage: %s [--flow sis|abc|dc|lookahead] [--iterations N] [--jobs N|auto]\n"
                 "          [--work-budget N]\n"
                 "          [--cone-deadline DUR]\n"
                 "          [--cone-mem SIZE]\n"
                 "          [--fault-inject SPEC]\n"
                 "          [--cache-dir DIR] [--cache-mode read|write|rw|off]\n"
                 "          [--no-verify] [--map]\n"
                 "          [--aiger PATH] [--verilog PATH] [--stats] [--metrics]\n"
                 "          [--metrics-json FILE]\n"
                 "          <input.blif> [output.blif]\n"
                 "       %s --batch [options] [--out-dir DIR] [--checkpoint FILE] [--resume]\n"
                 "          <input.blif> [input2.blif ...]\n"
                 "       %s --help\n",
                 argv0, argv0, argv0);
}

int usage(const char* argv0) {
    print_usage(stderr, argv0);
    return lls::kExitUsage;
}

int help(const char* argv0) {
    print_usage(stdout, argv0);
    std::printf(
        "\nDurations (DUR) are a number with a unit: 500ms, 30s, 5m.\n"
        "Sizes (SIZE) are plain bytes or a binary suffix: 4194304, 64M, 1G.\n"
        "\nexit codes:\n"
        "   0  success\n"
        "  %2d  result not equivalent / unresolved, or a batch item failed\n"
        "  %2d  usage error (bad flags or arguments)\n"
        "  %2d  parse error (malformed BLIF/AIGER/spec input)\n"
        "  %2d  resource exhausted (BDD node limit, SAT literal limit, memory)\n"
        "  %2d  solver limit (a solver gave up within its effort bound)\n"
        "  %2d  verification failed or could not be resolved\n"
        "  %2d  internal invariant violation\n"
        "  %2d  I/O error (filesystem open/read/write)\n"
        "  %2d  cancelled (cooperative cancellation surfaced as an error)\n"
        "  %2d  terminated by SIGTERM/SIGINT: checkpoint journal and persist\n"
        "      store flushed; rerun with --resume to continue byte-identically\n"
        "  %2d  simulated fatal crash (--fault-inject fatal@batch:N)\n"
        " 128+signo  hard exit on a second SIGTERM/SIGINT\n",
        lls::kExitNotEquivalent, lls::kExitUsage, lls::exit_code_for(lls::ErrorKind::ParseError),
        lls::exit_code_for(lls::ErrorKind::ResourceExhausted),
        lls::exit_code_for(lls::ErrorKind::SolverLimit),
        lls::exit_code_for(lls::ErrorKind::VerificationFailed),
        lls::exit_code_for(lls::ErrorKind::InvariantViolation),
        lls::exit_code_for(lls::ErrorKind::IoError), lls::exit_code_for(lls::ErrorKind::Cancelled),
        lls::kExitSignalShutdown, lls::kExitSimulatedCrash);
    return 0;
}

std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// One-line report of every contained fault of a finished run.
void print_fault_summary(const char* name, const lls::OptimizeStats& stats) {
    if (stats.faults.empty()) return;
    std::size_t recovered = 0;
    for (const auto& f : stats.faults) recovered += f.recovered ? 1 : 0;
    std::printf("%s: %zu fault(s) contained (%zu recovered, %zu cones kept original)\n", name,
                stats.faults.size(), recovered, stats.faults.size() - recovered);
    for (const auto& f : stats.faults)
        std::printf("  fault [%s/%s] cone %d (%s): %s%s\n", lls::error_kind_name(f.kind),
                    f.stage.c_str(), f.cone, f.cone_name.c_str(),
                    f.recovered ? "recovered" : "degraded",
                    f.retries.empty() ? "" : (" after " + std::to_string(f.retries.size()) +
                                              " retry rung(s)")
                                                 .c_str());
}

}  // namespace

int main(int argc, char** argv) {
    std::string flow = "lookahead";
    std::vector<std::string> inputs;
    std::string output_path, aiger_path, verilog_path, out_dir;
    std::string fault_spec, checkpoint_path;
    std::string cache_dir, cache_mode = "rw", metrics_json_path;
    int iterations = 10;
    int jobs = 1;
    std::uint64_t work_budget = 0;
    std::uint64_t cone_mem_bytes = 0;
    double cone_deadline = 0.0;
    bool verify = true, map_report = false, print_stats = false, print_metrics = false;
    bool batch = false, resume = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return help(argv[0]);
        } else if (arg == "--flow" && i + 1 < argc) {
            flow = argv[++i];
        } else if (arg == "--iterations" && i + 1 < argc) {
            if (!lls::parse_int_option("--iterations", argv[++i], 0, 1000000, &iterations))
                return usage(argv[0]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            if (!lls::parse_jobs_option("--jobs", argv[++i], 1024, &jobs)) return usage(argv[0]);
        } else if (arg == "--work-budget" && i + 1 < argc) {
            if (!lls::parse_u64_option("--work-budget", argv[++i], UINT64_MAX, &work_budget))
                return usage(argv[0]);
        } else if (arg == "--cone-deadline" && i + 1 < argc) {
            if (!lls::parse_duration_option("--cone-deadline", argv[++i], &cone_deadline))
                return usage(argv[0]);
        } else if (arg == "--cone-mem" && i + 1 < argc) {
            if (!lls::parse_size_option("--cone-mem", argv[++i], &cone_mem_bytes))
                return usage(argv[0]);
        } else if (arg == "--batch") {
            batch = true;
        } else if (arg == "--out-dir" && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            checkpoint_path = argv[++i];
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--fault-inject" && i + 1 < argc) {
            fault_spec = argv[++i];
        } else if (arg == "--no-verify") {
            verify = false;
        } else if (arg == "--map") {
            map_report = true;
        } else if (arg == "--aiger" && i + 1 < argc) {
            aiger_path = argv[++i];
        } else if (arg == "--verilog" && i + 1 < argc) {
            verilog_path = argv[++i];
        } else if (arg == "--stats") {
            print_stats = true;
        } else if (arg == "--metrics") {
            print_metrics = true;
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_json_path = argv[++i];
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (arg == "--cache-mode" && i + 1 < argc) {
            cache_mode = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (batch) {
            inputs.push_back(arg);
        } else if (inputs.empty()) {
            inputs.push_back(arg);
        } else if (output_path.empty()) {
            output_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (inputs.empty()) return usage(argv[0]);

    // --jobs auto (or 0) resolves to the whole machine here, once, so every
    // later report prints the actual thread count in use.
    if (jobs == 0) jobs = static_cast<int>(lls::ThreadPool::hardware_jobs());

    lls::LookaheadParams params;
    params.max_iterations = iterations;
    params.work_budget = work_budget;
    params.cone_deadline_seconds = cone_deadline;
    params.cone_mem_bytes = cone_mem_bytes;
    lls::EngineOptions engine;
    engine.jobs = jobs;

    // From here on a SIGTERM/SIGINT requests graceful shutdown through the
    // engine's cancellation token instead of killing the process mid-write.
    install_signal_handlers();
    engine.cancel = &g_shutdown;

    // Fault injection: engine-site specs are forwarded through the params
    // (they are part of what the evaluations compute); `fatal@batch:N` is a
    // CLI-level crash simulation and is stripped here — it must not perturb
    // the params fingerprint, or a resumed run could never match an
    // uninterrupted one.
    int fatal_after = 0;
    if (!fault_spec.empty()) {
        try {
            const lls::FaultPlan plan = lls::FaultPlan::parse(fault_spec);
            params.fault_plan = plan.engine_spec();
            fatal_after = plan.fatal_count_for("batch");
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: bad --fault-inject spec: %s\n", e.what());
            return lls::kExitUsage;
        }
    }
    if (resume && checkpoint_path.empty()) {
        std::fprintf(stderr, "error: --resume requires --checkpoint FILE\n");
        return lls::kExitUsage;
    }

    // Persistent memo store: open + load before any optimization so every
    // run (single or batch) starts with warm caches. A store that cannot be
    // *read* degrades to a cold start inside load(); only an unusable write
    // setup throws, and even that merely disables persistence for the run —
    // the optimization itself must never be blocked by cache trouble.
    std::unique_ptr<lls::WarmStart> warm;
    {
        const auto mode = lls::persist::parse_store_mode(cache_mode);
        if (!mode) {
            std::fprintf(stderr, "error: --cache-mode expects read|write|rw|off, got '%s'\n",
                         cache_mode.c_str());
            return 2;
        }
        if (!cache_dir.empty() && *mode != lls::persist::StoreMode::Off) {
            try {
                warm = std::make_unique<lls::WarmStart>(cache_dir, *mode);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "warning: persistent cache disabled: %s\n", e.what());
            }
        }
        if (warm) {
            const lls::persist::LoadReport& rep = warm->report();
            for (const auto& note : rep.notes)
                std::fprintf(stderr, "persist: rejected shard: %s\n", note.c_str());
            if (warm->imported_records() > 0)
                std::printf("persist: warm start, %zu record(s) from %zu shard(s)\n",
                            warm->imported_records(), rep.files_loaded);
            else
                std::printf("persist: cold start\n");
            engine.warm_start = warm.get();
        }
    }

    // Metrics dumps. Returns false (-> exit 1) only when --metrics-json
    // cannot be written.
    auto dump_metrics = [&]() -> bool {
        if (print_metrics) lls::Metrics::global().report(stdout);
        if (!metrics_json_path.empty()) {
            std::ofstream out(metrics_json_path);
            out << lls::Metrics::global().to_json() << '\n';
            out.flush();
            if (!out.good()) {
                std::fprintf(stderr, "error writing %s\n", metrics_json_path.c_str());
                return false;
            }
            std::printf("wrote %s\n", metrics_json_path.c_str());
        }
        return true;
    };
    // Final store flush, then the metrics dumps.
    auto epilogue = [&]() -> bool {
        if (warm) warm->finalize();
        return dump_metrics();
    };

    // ---- batch mode: many circuits, one pool -------------------------------
    if (batch) {
        if (flow != "lookahead") {
            std::fprintf(stderr, "error: --batch supports only --flow lookahead\n");
            return lls::kExitUsage;
        }
        if (!out_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(out_dir, ec);
            if (ec) {
                std::fprintf(stderr, "error: cannot create --out-dir %s: %s\n", out_dir.c_str(),
                             ec.message().c_str());
                return lls::exit_code_for(lls::ErrorKind::IoError);
            }
        }
        std::vector<lls::BatchItem> items;
        for (const auto& path : inputs) {
            try {
                items.push_back({path, lls::read_blif_file(path)});
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), e.what());
                return lls::exit_code_for(lls::error_kind_of(e));
            }
        }

        // Checkpoint journal: a fresh --checkpoint run starts a new journal
        // (any stale one is discarded); --resume keeps it and skips every
        // item already journaled under the same input hash and params
        // fingerprint — those outputs are already on disk, byte-identical
        // to what re-running would produce.
        std::unique_ptr<lls::BatchCheckpoint> checkpoint;
        std::uint64_t params_fp = 0;
        std::size_t skipped = 0;
        if (!checkpoint_path.empty()) {
            try {
                params_fp = lls::lookahead_params_fingerprint(params);
                if (!resume) std::remove(checkpoint_path.c_str());
                checkpoint = std::make_unique<lls::BatchCheckpoint>(checkpoint_path);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: checkpoint %s: %s\n", checkpoint_path.c_str(),
                             e.what());
                return lls::exit_code_for(lls::error_kind_of(e));
            }
            if (resume) {
                std::vector<lls::BatchItem> pending;
                for (auto& item : items) {
                    if (checkpoint->find(item.name, item.input.cleanup().hash(), params_fp)) {
                        std::printf("%s: skipped (already journaled)\n", item.name.c_str());
                        ++skipped;
                    } else {
                        pending.push_back(std::move(item));
                    }
                }
                items = std::move(pending);
            }
        }

        lls::Stopwatch sw;
        int exit_code = 0;
        std::size_t journaled = 0;
        // Runs under the batch's completion mutex: per-item verification,
        // output writing, journaling, and (last) the simulated crash of
        // `fatal@batch:N` — the journal line is durable before the process
        // dies, exactly like a real mid-batch crash after a flush.
        auto on_complete = [&](const lls::BatchOutcome& r, std::size_t i) {
            if (r.cancelled) {
                // Shutdown interrupted this item: nothing is verified,
                // written, or journaled — --resume re-runs it from scratch
                // and reproduces the uninterrupted bytes.
                std::printf("%s: cancelled by shutdown request (not journaled; re-run with "
                            "--resume)\n",
                            r.name.c_str());
                return;
            }
            std::printf("%s: depth %d -> %d, %zu -> %zu AND nodes (%.2fs)\n", r.name.c_str(),
                        r.stats.initial_depth, r.stats.final_depth, r.stats.initial_ands,
                        r.stats.final_ands, r.seconds);
            if (r.failed) {
                std::fprintf(stderr, "%s: optimization failed, output kept original: %s\n",
                             r.name.c_str(), r.error.c_str());
                exit_code = 1;
            }
            print_fault_summary(r.name.c_str(), r.stats);
            if (r.stats.quota_degraded > 0)
                std::printf("%s: %d cone(s) exceeded --cone-mem and kept their original "
                            "logic\n",
                            r.name.c_str(), r.stats.quota_degraded);
            if (work_budget > 0)
                std::printf("%s: work budget spent %llu of %llu units%s\n", r.name.c_str(),
                            static_cast<unsigned long long>(r.stats.work_units),
                            static_cast<unsigned long long>(work_budget),
                            r.stats.budget_exhausted ? " (exhausted)" : "");
            if (verify && !r.failed) {
                const lls::CecResult cec =
                    lls::check_equivalence(items[i].input, r.output, 4000000);
                if (!cec.resolved || !cec.equivalent) {
                    std::fprintf(stderr, "%s: equivalence check %s\n", r.name.c_str(),
                                 cec.resolved ? "FAILED" : "UNRESOLVED");
                    exit_code = 1;
                    return;
                }
            }
            std::ostringstream bytes;
            lls::write_blif(bytes, r.output, "lls_opt");
            if (!out_dir.empty()) {
                const std::string out_path = out_dir + "/" + basename_of(r.name);
                try {
                    lls::write_blif_file(out_path, r.output, "lls_opt");
                    std::printf("wrote %s\n", out_path.c_str());
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "error writing %s: %s\n", out_path.c_str(), e.what());
                    exit_code = 1;
                    return;  // an unwritten output must not be journaled as done
                }
            }
            if (checkpoint) {
                lls::CheckpointEntry entry;
                entry.name = r.name;
                entry.input_hash = items[i].input.cleanup().hash();
                entry.params_fingerprint = params_fp;
                entry.output_hash = lls::checkpoint_bytes_hash(bytes.str());
                entry.final_depth = r.stats.final_depth;
                entry.final_ands = r.stats.final_ands;
                entry.failed = r.failed;
                checkpoint->append(entry);  // flush-and-throw
                ++journaled;
                if (fatal_after > 0 && journaled >= static_cast<std::size_t>(fatal_after)) {
                    std::fprintf(stderr, "fault-inject: simulated crash after %zu journaled "
                                         "circuit(s)\n",
                                 journaled);
                    std::fflush(nullptr);
                    std::_Exit(lls::kExitSimulatedCrash);
                }
            }
        };

        const auto outcomes = lls::optimize_timing_batch(items, params, engine, on_complete);
        std::printf("batch: %zu circuits (%zu skipped via checkpoint), %d jobs, %.2fs wall "
                    "clock\n",
                    outcomes.size() + skipped, skipped, jobs, sw.elapsed_seconds());
        // Graceful signal shutdown: the journal holds every finished item
        // (appended flush-and-throw as it completed), and epilogue() flushes
        // the persist-store shards. The distinct exit code tells scripts
        // this run is resumable, not failed.
        if (g_signal.load() != 0) {
            const bool flushed = epilogue();
            std::size_t cancelled = 0;
            for (const auto& r : outcomes) cancelled += r.cancelled ? 1 : 0;
            std::fprintf(stderr,
                         "terminated by signal %d: %zu circuit(s) journaled, %zu cancelled; "
                         "checkpoint %s; rerun with --resume to continue\n",
                         g_signal.load(), journaled, cancelled,
                         flushed ? "flushed" : "flushed (metrics dump failed)");
            return lls::kExitSignalShutdown;
        }
        if (!epilogue()) exit_code = 1;
        return exit_code;
    }

    // ---- single-circuit mode ----------------------------------------------
    const std::string& input_path = inputs[0];
    lls::Aig circuit;
    try {
        circuit = lls::read_blif_file(input_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error reading %s: %s\n", input_path.c_str(), e.what());
        return lls::exit_code_for(lls::error_kind_of(e));
    }
    std::printf("%s: %zu PIs, %zu POs, %zu AND nodes, depth %d\n", input_path.c_str(),
                circuit.num_pis(), circuit.num_pos(), circuit.count_reachable_ands(),
                circuit.depth());

    lls::Stopwatch sw;
    lls::Aig optimized;
    lls::OptimizeStats stats;
    lls::Rng rng(1);
    if (flow == "sis") {
        optimized = lls::flow_sis(circuit, rng);
    } else if (flow == "abc") {
        optimized = lls::flow_abc(circuit, rng);
    } else if (flow == "dc") {
        optimized = lls::flow_dc(circuit, rng);
    } else if (flow == "lookahead") {
        try {
            optimized = lls::optimize_timing_engine(circuit, params, engine, &stats);
        } catch (const std::exception& e) {
            // Per-cone faults are contained inside the engine; anything
            // reaching here is an entry error (e.g. a malformed fault plan)
            // or an unrecoverable failure — report, never abort().
            std::fprintf(stderr, "error: optimization failed: %s\n", e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
    } else {
        return usage(argv[0]);
    }
    std::printf("%s flow: depth %d -> %d, %zu -> %zu AND nodes (%.2fs, %d jobs)\n", flow.c_str(),
                circuit.depth(), optimized.depth(), circuit.count_reachable_ands(),
                optimized.count_reachable_ands(), sw.elapsed_seconds(), jobs);
    if (work_budget > 0)
        std::printf("work budget: spent %llu of %llu units%s\n",
                    static_cast<unsigned long long>(stats.work_units),
                    static_cast<unsigned long long>(work_budget),
                    stats.budget_exhausted ? " (exhausted)" : "");
    if (stats.deadline_cancelled > 0)
        std::fprintf(stderr,
                     "warning: %d cone(s) hit --cone-deadline and kept their original "
                     "logic; this result is timing-dependent\n",
                     stats.deadline_cancelled);
    if (stats.quota_degraded > 0)
        std::printf("%d cone(s) exceeded --cone-mem and kept their original logic "
                    "(deterministic; byte-identical across --jobs)\n",
                    stats.quota_degraded);
    print_fault_summary(input_path.c_str(), stats);
    if (print_stats)
        for (const auto& line : stats.log) std::printf("  %s\n", line.c_str());
    // Graceful signal shutdown: the engine returned its best verified
    // circuit so far, but the optimization is incomplete — flush the
    // persist store and exit with the resumable-shutdown code instead of
    // writing partial outputs.
    if (stats.cancelled || g_signal.load() != 0) {
        epilogue();
        std::fprintf(stderr, "terminated by signal %d: optimization incomplete, outputs not "
                             "written\n",
                     g_signal.load());
        return lls::kExitSignalShutdown;
    }
    if (warm) warm->finalize();

    if (verify) {
        const lls::CecResult cec = lls::check_equivalence(circuit, optimized, 4000000);
        if (!cec.resolved || !cec.equivalent) {
            dump_metrics();
            std::fprintf(stderr, cec.resolved ? "equivalence check FAILED\n"
                                              : "equivalence check UNRESOLVED (conflict limit)\n");
            return lls::kExitNotEquivalent;
        }
        std::printf("equivalence check: PASS\n");
    }

    // --map and --verilog report on one mapped netlist, timed under
    // mapping.map like map_circuit(const Aig&), which this path bypasses.
    const lls::CellLibrary lib = lls::CellLibrary::generic_70nm();
    std::optional<lls::Netlist> netlist;
    std::optional<lls::MappedCircuit> mapped;
    if (map_report || !verilog_path.empty()) {
        const lls::ScopedTimer map_scope(lls::Metrics::global().timer("mapping.map"));
        netlist.emplace(lls::map_to_netlist(optimized, lib));
        if (map_report) mapped = lls::map_circuit(*netlist);
    }
    if (mapped) {
        std::printf("mapped: %zu gates, delay %.0f ps, area %.1f, power %.3f mW @1GHz\n",
                    mapped->num_gates, mapped->delay_ps, mapped->area, mapped->power_mw);
        for (const auto& [cell, count] : mapped->cell_histogram)
            std::printf("  %-8s %d\n", cell.c_str(), count);
    }
    if (!dump_metrics()) return 1;

    if (!output_path.empty()) {
        try {
            lls::write_blif_file(output_path, optimized, "lls_opt");
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error writing %s: %s\n", output_path.c_str(), e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
        std::printf("wrote %s\n", output_path.c_str());
    }
    if (!aiger_path.empty()) {
        try {
            lls::write_aiger_file(aiger_path, optimized);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error writing %s: %s\n", aiger_path.c_str(), e.what());
            return lls::exit_code_for(lls::error_kind_of(e));
        }
        std::printf("wrote %s\n", aiger_path.c_str());
    }
    if (!verilog_path.empty()) {
        std::ofstream vout(verilog_path);
        if (!vout) {
            std::fprintf(stderr, "cannot open %s\n", verilog_path.c_str());
            return 1;
        }
        netlist->write_verilog(vout, "lls_mapped");
        std::printf("wrote %s (%zu gates, %.0f ps critical path)\n", verilog_path.c_str(),
                    netlist->num_gates(), netlist->critical_delay_ps());
    }
    return 0;
}
