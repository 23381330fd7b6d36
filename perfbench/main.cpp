// Repository benchmark program: runs the lookahead flow the way `lls_opt`
// does (read BLIF -> optimize -> final CEC -> map -> write BLIF) on seeded
// generated circuits, in-process, and reports end-to-end time, CPU, memory
// and QoR. With --trace 1 it adds one traced pass that times every call
// into a layer from outside, reads the engine's Metrics registry after each
// call, and runs timed probes into single layers; those give the per-layer
// metrics. Nothing under src/ is changed for any of this.
//
//   lls_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--quick]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any circuit run failed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "common/memgov.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "io/blif.hpp"
#include "lookahead/decompose.hpp"
#include "mapping/library.hpp"
#include "mapping/mapper.hpp"
#include "sat/solver.hpp"
#include "sim/simulation.hpp"
#include "sop/sop.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Setup is repeated this many times per run and setup_s is the median:
/// one set-up takes milliseconds, so a few samples spread by 20-25 %.
constexpr int kSetupRepeats = 25;
/// Random patterns of the independent simulation check (>= 64k).
constexpr std::size_t kSimPatterns = 65536;
constexpr std::size_t kSimChunk = 4096;
/// Conflict limit of the final CEC, as in `lls_opt`.
constexpr std::int64_t kFinalCecConflicts = 4000000;
/// Per-PO conflict limit of the SAT miter probe.
constexpr std::int64_t kMiterConflicts = 2000;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string work_dir;
};

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) { return double(t.tv_sec) + double(t.tv_usec) * 1e-6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t file_hash(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (unsigned char c : bytes.str()) h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

double timed(const std::function<void()>& body) {
    const auto start = Clock::now();
    body();
    return seconds_since(start);
}

// ---- set-up -----------------------------------------------------------------

struct Circuit {
    std::string name;
    lls::Aig input;
    std::string in_path;
    std::string out_path;
};

struct Bench {
    const WorkloadSpec* spec = nullptr;
    std::vector<Circuit> circuits;
    lls::CellLibrary library;  // pristine: each pass maps with a cold copy
    lls::LookaheadParams params;
    lls::EngineOptions engine;
};

/// Generates the seeded circuits, writes their BLIFs, builds the library.
Bench set_up(const WorkloadSpec& spec, const Options& opt) {
    Bench b{&spec, {}, lls::CellLibrary::generic_70nm(), {}, {}};
    for (auto& g : generate_workload(spec, opt.seed, opt.quick)) {
        const std::string base = opt.work_dir + "/" + g.name;
        lls::write_blif_file(base + ".blif", g.aig, g.name);
        b.circuits.push_back({g.name, std::move(g.aig), base + ".blif", base + ".out.blif"});
    }
    b.params.max_iterations = 8;
    b.engine.jobs = spec.jobs;
    return b;
}

// ---- per-layer collection (traced pass only) --------------------------------

/// Sums of per-layer values over one traced pass. Registry values are read
/// after each optimize call; the registry is reset before it.
class LayerRecorder {
public:
    explicit LayerRecorder(lls::MemoryGovernor& governor) : governor_(governor) {}

    void before_optimize() {
        lls::Metrics::global().reset();
        caches_before_ = lls::all_cache_stats();
        charged_before_ = governor_.charged_total();
        cpu_before_ = cpu_seconds();
        wall_start_ = Clock::now();
    }

    /// Returns the sum of the engine's stage timers for this call.
    double after_optimize(std::uint64_t work_units) {
        const double wall = seconds_since(wall_start_);
        sums["engine.optimize_cpu_s"] += cpu_seconds() - cpu_before_;
        sums["engine.optimize_wall_s"] += wall;
        sums["engine.work_units"] += double(work_units);
        sums["engine.mem.charged_bytes"] += double(governor_.charged_total() - charged_before_);

        std::map<std::string, double> timers;
        for (const auto& row : lls::Metrics::global().timers()) timers[row.name] = row.total_seconds;
        for (const char* t : kTimers) sums[std::string(t) + "_s"] += timers[t];
        std::map<std::string, double> counters;
        for (const auto& row : lls::Metrics::global().counters())
            counters[row.name] = double(row.value);
        for (const char* c : kCounters) sums[c] += counters[c];

        const auto caches = lls::all_cache_stats();
        for (std::size_t i = 0; i < caches.size() && i < caches_before_.size(); ++i) {
            const std::string prefix = "cache." + caches[i].name;
            sums[prefix + ".hits"] += double(caches[i].hits - caches_before_[i].hits);
            sums[prefix + ".misses"] += double(caches[i].misses - caches_before_[i].misses);
        }
        double staged = 0.0;
        for (const char* t : kStageTimers) staged += timers[t];
        sums["engine.unstaged_s"] += std::max(0.0, timers["engine.total"] - staged);
        return staged;
    }

    std::map<std::string, double> sums;

    static constexpr const char* kTimers[] = {
        "engine.total",       "engine.evaluate",       "engine.commit",
        "engine.restructure", "engine.sat_sweep",      "engine.cec",
        "spcf.compute",       "network.clustering",    "engine.intracone.idle_wait",
        "engine.steal.idle_wait"};
    static constexpr const char* kStageTimers[] = {"engine.evaluate", "engine.commit",
                                                   "engine.restructure", "engine.sat_sweep",
                                                   "engine.cec"};
    static constexpr const char* kCounters[] = {"engine.rounds",
                                                "engine.cones_evaluated",
                                                "engine.cones_improved",
                                                "engine.work.evaluate.decompositions",
                                                "engine.work.evaluate.sat_conflicts",
                                                "engine.work.sat_sweep.sat_conflicts",
                                                "engine.work.cec.sat_conflicts",
                                                "engine.intracone.queries",
                                                "engine.steal.stolen_indices",
                                                "engine.fault.records"};

private:
    lls::MemoryGovernor& governor_;
    std::vector<lls::CacheStatsSnapshot> caches_before_;
    std::uint64_t charged_before_ = 0;
    double cpu_before_ = 0.0;
    Clock::time_point wall_start_;
};

// ---- one pass over the workload ---------------------------------------------

struct CircuitRun {
    bool ok = true;
    std::string error;
    int depth = 0;
    std::size_t ands = 0;
    double delay_ps = 0.0;
    double seconds = 0.0;  ///< pipeline wall time; the engine's own for batch items
    std::uint64_t output_hash = 0;
};

struct PassResult {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<CircuitRun> runs;
    /// Traced pass: the lowest share of a circuit's pipeline wall time that
    /// its spans and the engine's stage timers account for.
    double coverage_min = 1.0;
};

void fail(CircuitRun& run, const std::string& why) {
    if (run.ok) run.error = why;
    run.ok = false;
}

/// Final CEC -> map -> write of one optimized circuit; returns the wall time
/// of the three calls (span-covered).
double finish_circuit(const Circuit& c, const lls::Aig& input, const lls::Aig& output,
                      const lls::CellLibrary& library, Tracer& tracer, int parent,
                      CircuitRun& run) {
    const auto start = Clock::now();
    {
        const SpanScope span(tracer, "cec.final", c.name, parent);
        const lls::CecResult cec = lls::check_equivalence(input, output, kFinalCecConflicts);
        if (!cec.resolved) fail(run, "final CEC unresolved");
        else if (!cec.equivalent) fail(run, "final CEC not equivalent");
    }
    {
        const SpanScope span(tracer, "mapping.map", c.name, parent);
        run.delay_ps = lls::map_circuit(output, library).delay_ps;
    }
    {
        const SpanScope span(tracer, "io.write", c.name, parent);
        lls::write_blif_file(c.out_path, output, "perfbench");
    }
    run.depth = output.depth();
    run.ands = output.count_reachable_ands();
    return seconds_since(start);
}

void run_single(const Bench& b, const lls::CellLibrary& library, Tracer& tracer, int parent,
                LayerRecorder* layers, PassResult& result) {
    for (std::size_t i = 0; i < b.circuits.size(); ++i) {
        const Circuit& c = b.circuits[i];
        CircuitRun& run = result.runs[i];
        const SpanScope circuit_span(tracer, "circuit", c.name, parent);
        const auto start = Clock::now();
        try {
            double covered = 0.0;
            lls::Aig input;
            covered += timed([&] {
                const SpanScope span(tracer, "io.read", c.name, circuit_span.id());
                input = lls::read_blif_file(c.in_path);
            });
            lls::OptimizeStats stats;
            lls::Aig output;
            if (layers) layers->before_optimize();
            {
                const SpanScope span(tracer, "engine.optimize", c.name, circuit_span.id());
                output = lls::optimize_timing_engine(input, b.params, b.engine, &stats);
            }
            if (layers) covered += layers->after_optimize(stats.work_units);
            if (!stats.verified) fail(run, "engine reported an unverified step");
            covered += finish_circuit(c, input, output, library, tracer, circuit_span.id(), run);
            run.seconds = seconds_since(start);
            if (layers) result.coverage_min = std::min(result.coverage_min, covered / run.seconds);
        } catch (const std::exception& e) {
            fail(run, e.what());
        }
    }
}

void run_batch(const Bench& b, const lls::CellLibrary& library, Tracer& tracer, int parent,
               LayerRecorder* layers, PassResult& result) {
    try {
        std::vector<lls::BatchItem> items;
        for (const Circuit& c : b.circuits) {
            const SpanScope span(tracer, "io.read", c.name, parent);
            items.push_back({c.name, lls::read_blif_file(c.in_path)});
        }
        std::vector<lls::BatchOutcome> outcomes;
        if (layers) layers->before_optimize();
        {
            const SpanScope span(tracer, "engine.optimize", "batch", parent);
            // Each item reports on its worker thread as it completes, which
            // puts the per-item spans on the worker that ran them.
            const int batch_span = span.id();
            const auto on_complete = [&](const lls::BatchOutcome& out, std::size_t) {
                const auto end = Clock::now();
                tracer.add("engine.item", out.name, batch_span,
                           end - std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(out.seconds)),
                           end);
            };
            outcomes = lls::optimize_timing_batch(items, b.params, b.engine, on_complete);
        }
        std::uint64_t work_units = 0;
        for (const auto& out : outcomes) work_units += out.stats.work_units;
        if (layers) layers->after_optimize(work_units);
        for (std::size_t i = 0; i < b.circuits.size(); ++i) {
            CircuitRun& run = result.runs[i];
            const lls::BatchOutcome& out = outcomes[i];
            if (out.failed) fail(run, "batch item failed: " + out.error);
            if (out.cancelled) fail(run, "batch item cancelled");
            if (!out.stats.verified) fail(run, "engine reported an unverified step");
            run.seconds = out.seconds;
            try {
                finish_circuit(b.circuits[i], items[i].input, out.output, library, tracer, parent,
                               run);
            } catch (const std::exception& e) {
                fail(run, e.what());
            }
        }
    } catch (const std::exception& e) {
        for (auto& run : result.runs) fail(run, e.what());
    }
}

/// One cold pass: fresh engine caches and a fresh library match cache, as
/// in a new `lls_opt` process. Only the pipeline itself is timed.
PassResult run_pass(const Bench& b, Tracer& tracer, LayerRecorder* layers) {
    lls::clear_engine_caches();
    const lls::CellLibrary library = b.library;
    PassResult result;
    result.runs.resize(b.circuits.size());

    const double cpu_start = cpu_seconds();
    const auto start = Clock::now();
    {
        const SpanScope pass(tracer, "pass", b.spec->name, -1);
        if (b.spec->batch) run_batch(b, library, tracer, pass.id(), layers, result);
        else run_single(b, library, tracer, pass.id(), layers, result);
    }
    result.wall_s = seconds_since(start);
    result.cpu_s = cpu_seconds() - cpu_start;
    // Batch circuits share one optimize call, so their coverage is taken
    // over the whole pass: the spans directly under it.
    if (layers && b.spec->batch) {
        double covered = 0.0;
        for (const Span& s : tracer.spans())
            if (s.parent >= 0 && tracer.spans()[std::size_t(s.parent)].name == "pass")
                covered += std::chrono::duration<double>(s.end - s.start).count();
        result.coverage_min = covered / result.wall_s;
    }

    for (std::size_t i = 0; i < b.circuits.size(); ++i)
        if (result.runs[i].ok) result.runs[i].output_hash = file_hash(b.circuits[i].out_path);
    return result;
}

// ---- correctness outside the timed region -----------------------------------

/// Independent check: the written output against the generated input on
/// kSimPatterns random patterns through the sim module.
bool simulation_agrees(const lls::Aig& a, const lls::Aig& b, std::uint64_t seed) {
    if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
    lls::Rng rng(seed);
    for (std::size_t done = 0; done < kSimPatterns; done += kSimChunk) {
        const auto patterns = lls::SimPatterns::random(a.num_pis(), kSimChunk, rng);
        const auto sa = lls::simulate(a, patterns);
        const auto sb = lls::simulate(b, patterns);
        for (std::size_t po = 0; po < a.num_pos(); ++po)
            if (lls::literal_signature(a, a.po(po), sa, kSimChunk) !=
                lls::literal_signature(b, b.po(po), sb, kSimChunk))
                return false;
    }
    return true;
}

// ---- probes (traced run only) -----------------------------------------------

/// Most critical PO: the one fed by the deepest node.
std::size_t most_critical_po(const lls::Aig& aig) {
    const std::vector<int> levels = aig.compute_levels();
    std::size_t best = 0;
    for (std::size_t i = 1; i < aig.num_pos(); ++i)
        if (levels[aig.po(i).node()] > levels[aig.po(best).node()]) best = i;
    return best;
}

/// Input-vs-output miter, one SAT query per PO on one incremental solver.
/// Returns false when a query proves the two circuits differ.
bool sat_miter(const lls::Aig& in, const lls::Aig& out, std::map<std::string, double>& m) {
    using lls::sat::Lit;
    lls::sat::Solver solver;
    std::vector<int> pi_vars;
    for (std::size_t i = 0; i < in.num_pis(); ++i) pi_vars.push_back(solver.new_var());
    const auto a = lls::encode_aig(in, solver, pi_vars);
    const auto b = lls::encode_aig(out, solver, pi_vars);
    // All clauses go in before the first solve (the solver only takes
    // clauses at decision level 0): diff[po] <-> a[po] xor b[po].
    std::vector<Lit> diff;
    for (std::size_t po = 0; po < a.size(); ++po) {
        const Lit d(solver.new_var(), false);
        solver.add_clause(!d, a[po], b[po]);
        solver.add_clause(!d, !a[po], !b[po]);
        solver.add_clause(d, !a[po], b[po]);
        solver.add_clause(d, a[po], !b[po]);
        diff.push_back(d);
    }
    bool equal = true;
    for (const Lit d : diff) {
        if (solver.solve({d}, kMiterConflicts) == lls::sat::Status::Sat) equal = false;
    }
    m["sat.decisions"] += double(solver.num_decisions());
    m["sat.propagations"] += double(solver.num_propagations());
    m["sat.conflicts"] += double(solver.num_conflicts());
    return equal;
}

/// Timed calls into single layers on each workload input. Returns the
/// number of circuits whose miter probe found a difference.
int run_probes(const Bench& b, Tracer& tracer, std::map<std::string, double>& m) {
    int differing = 0;
    const SpanScope root(tracer, "probes", b.spec->name, -1);
    for (const Circuit& c : b.circuits) {
        const auto probe = [&](const char* name, const std::function<void()>& body) {
            const SpanScope span(tracer, name, c.name, root.id());
            m[std::string(name) + "_s"] += timed(body);
        };
        const lls::Aig cone = lls::extract_cone(c.input, most_critical_po(c.input));
        probe("lookahead.decompose", [&] {
            lls::Rng rng(b.params.seed);
            const auto outcome = lls::decompose_output(cone, b.params, rng);
            m["lookahead.decompose_attempts"] += 1;
            if (outcome && outcome->new_depth < outcome->old_depth) m["lookahead.decompose_ok"] += 1;
        });
        const lls::RestructureOptions restructure;  // delay-oriented defaults
        probe("baseline.restructure_round",
              [&] { (void)lls::balance(lls::restructure(c.input, restructure)); });
        std::optional<lls::CutEnumerator> cuts;
        probe("aig.cuts", [&] {
            cuts.emplace(c.input, restructure.cut_size, restructure.max_cuts);
        });
        probe("sop.isop", [&] {
            for (std::uint32_t node = 0; node < c.input.num_nodes(); ++node)
                for (const auto& cut : cuts->cuts(node)) {
                    m["aig.cuts_count"] += 1;
                    if (cut.leaves.size() > 1) (void)lls::isop(cut.tt);
                }
        });
        const lls::Aig output = lls::read_blif_file(c.out_path);
        probe("sat.miter", [&] { differing += sat_miter(c.input, output, m) ? 0 : 1; });
    }
    return differing;
}

// ---- report -----------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    for (const auto& m : metrics)
        std::printf("metric %-40s %20s %s\n", m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str());
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(std::map<std::string, double> m, const Tracer& tracer,
                                      double untraced_wall, const PassResult& traced) {
    std::map<std::string, double> span_s;
    for (const Span& s : tracer.spans())
        span_s[s.name] += std::chrono::duration<double>(s.end - s.start).count();
    const auto hit_rate = [&](const std::string& cache) {
        const double hits = m["cache." + cache + ".hits"];
        return ratio(hits, hits + m["cache." + cache + ".misses"]);
    };
    const double pipeline = span_s["pass"];

    std::vector<Metric> out = {
        {"io.read_s", span_s["io.read"], "s"},
        {"io.write_s", span_s["io.write"], "s"},
        {"engine.optimize_s", span_s["engine.optimize"], "s"},
        {"engine.parallelism",
         ratio(m["engine.optimize_cpu_s"], m["engine.optimize_wall_s"]), "ratio"},
        {"engine.cone_yield", ratio(m["engine.cones_improved"], m["engine.cones_evaluated"]),
         "ratio"},
        {"engine.unstaged_s", m["engine.unstaged_s"], "s"},
        {"engine.work_units", m["engine.work_units"], "count"},
        {"engine.mem.charged_bytes", m["engine.mem.charged_bytes"], "bytes"},
        {"cache.decompose_memo.hit_rate", hit_rate("decompose_memo"), "ratio"},
        {"cache.cec_memo.hit_rate", hit_rate("cec_memo"), "ratio"},
        {"cec.final_s", span_s["cec.final"], "s"},
        {"mapping.map_s", span_s["mapping.map"], "s"},
        {"lookahead.decompose_s", m["lookahead.decompose_s"], "s"},
        {"lookahead.decompose_ok_frac",
         ratio(m["lookahead.decompose_ok"], m["lookahead.decompose_attempts"]), "ratio"},
        {"baseline.restructure_round_s", m["baseline.restructure_round_s"], "s"},
        {"aig.cuts_s", m["aig.cuts_s"], "s"},
        {"aig.cuts_count", m["aig.cuts_count"], "count"},
        {"sop.isop_s", m["sop.isop_s"], "s"},
        {"sat.miter_s", m["sat.miter_s"], "s"},
        {"sat.decisions", m["sat.decisions"], "count"},
        {"sat.propagations", m["sat.propagations"], "count"},
        {"sat.conflicts", m["sat.conflicts"], "count"},
        {"sat.propagations_per_s", ratio(m["sat.propagations"], m["sat.miter_s"]), "1/s"},
        {"bench.trace_overhead_frac", ratio(pipeline, untraced_wall) - 1.0, "ratio"},
        {"bench.coverage_min_frac", traced.coverage_min, "ratio"},
    };
    for (const char* t : LayerRecorder::kTimers)
        out.push_back({std::string(t) + "_s", m[std::string(t) + "_s"], "s"});
    for (const char* c : LayerRecorder::kCounters) out.push_back({c, m[c], "count"});
    std::sort(out.begin(), out.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    return out;
}

// ---- main -------------------------------------------------------------------

int usage() {
    std::fprintf(stderr,
                 "usage: lls_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--quick]\n");
    return 2;
}

std::optional<Options> parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--quick") opt.quick = true;
        else if (arg == "--workload" && has_value) opt.workload = argv[++i];
        else if (arg == "--seed" && has_value) opt.seed = std::stoull(argv[++i]);
        else if (arg == "--seconds" && has_value) opt.seconds = std::stod(argv[++i]);
        else if (arg == "--trace" && has_value) opt.trace = std::string(argv[++i]) == "1";
        else if (arg == "--work-dir" && has_value) opt.work_dir = argv[++i];
        else return std::nullopt;
    }
    if (opt.workload.empty() || opt.work_dir.empty()) return std::nullopt;
    return opt;
}

int run(const Options& opt) {
    const WorkloadSpec* spec = find_workload(opt.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.work_dir);

    std::vector<double> setup_times;
    Bench bench;
    for (int i = 0; i < kSetupRepeats; ++i)
        setup_times.push_back(timed([&] { bench = set_up(*spec, opt); }));
    std::printf("setup x%d min %.6f median %.6f max %.6f s\n", kSetupRepeats,
                *std::min_element(setup_times.begin(), setup_times.end()), median(setup_times),
                *std::max_element(setup_times.begin(), setup_times.end()));
    for (const Circuit& c : bench.circuits)
        std::printf("circuit %-24s pis %4zu pos %4zu ands %6zu depth %4d\n", c.name.c_str(),
                    c.input.num_pis(), c.input.num_pos(), c.input.count_reachable_ands(),
                    c.input.depth());

    // Untraced passes: the end-to-end numbers.
    Tracer untraced(false);
    std::vector<PassResult> passes;
    const auto measure_start = Clock::now();
    do {
        passes.push_back(run_pass(bench, untraced, nullptr));
        std::printf("pass %zu wall %.4f s cpu %.4f s\n", passes.size(), passes.back().wall_s,
                    passes.back().cpu_s);
    } while (seconds_since(measure_start) < opt.seconds);
    const double peak_rss = peak_rss_mib();

    std::vector<PassResult> all = passes;
    std::map<std::string, double> layer_sums;
    int probe_differences = 0;
    Tracer tracer(opt.trace);
    if (opt.trace) {
        // Accounting-only governor (budget 0: no relief rail), so the
        // engine reports the bytes it charges; it never changes results.
        lls::MemoryGovernor governor(0);
        lls::register_memo_governance(governor);
        bench.engine.governor = &governor;
        LayerRecorder layers(governor);
        all.push_back(run_pass(bench, tracer, &layers));
        bench.engine.governor = nullptr;
        layer_sums = layers.sums;
        probe_differences = run_probes(bench, tracer, layer_sums);
    }

    // Correctness: every run succeeded, every pass (traced or not) wrote the
    // same bytes, and the written output simulates like the input.
    const std::size_t n = bench.circuits.size();
    std::size_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Circuit& c = bench.circuits[i];
        const CircuitRun& first = all.front().runs[i];
        for (std::size_t p = 0; p < all.size(); ++p) {
            const CircuitRun& run = all[p].runs[i];
            std::string why = run.error;
            if (run.ok && run.output_hash != first.output_hash)
                why = "output bytes differ from the first pass";
            if (!run.ok || !why.empty()) {
                ++failed;
                std::printf("FAIL %s pass %zu: %s\n", c.name.c_str(), p, why.c_str());
            }
        }
        bool agrees = false;
        if (first.ok) {
            try {
                agrees = simulation_agrees(c.input, lls::read_blif_file(c.out_path),
                                           opt.seed ^ 0x5bd1e995ULL);
            } catch (const std::exception& e) {
                std::printf("FAIL %s: cannot read output back: %s\n", c.name.c_str(), e.what());
            }
        }
        if (!agrees) {
            ++failed;
            std::printf("FAIL %s: simulation check\n", c.name.c_str());
        }
        std::printf("result  %-24s depth %4d ands %6zu delay %8.1f ps %8.3f s\n", c.name.c_str(),
                    first.depth, first.ands, first.delay_ps, first.seconds);
    }
    failed += std::size_t(probe_differences);
    const std::size_t attempted = n * all.size();
    failed = std::min(failed, attempted);

    std::vector<Metric> metrics;
    if (opt.trace) {
        const std::string trace_path = opt.work_dir + "/trace.json";
        tracer.write_chrome_json(trace_path);
        std::printf("trace written to %s\n", trace_path.c_str());
        for (const auto& [name, self] : tracer.self_seconds())
            std::printf("self %-32s %10.4f s\n", name.c_str(), self);
        std::vector<double> walls;
        for (const auto& p : passes) walls.push_back(p.wall_s);
        metrics = per_layer_metrics(layer_sums, tracer, median(walls), all.back());
    } else {
        std::vector<double> walls, cpus;
        for (const auto& p : passes) {
            walls.push_back(p.wall_s);
            cpus.push_back(p.cpu_s);
        }
        double depth = 0, ands = 0, delay = 0;
        for (const auto& run : passes.front().runs) {
            depth += run.depth;
            ands += double(run.ands);
            delay += run.delay_ps;
        }
        metrics = {
            {"wall_s", median(walls), "s"},
            {"cpu_s", median(cpus), "s"},
            {"peak_rss_mb", peak_rss, "MiB"},
            {"setup_s", median(setup_times), "s"},
            {"ok_frac", 1.0 - double(failed) / double(attempted), "ratio"},
            {"depth", depth, "levels"},
            {"ands", ands, "nodes"},
            {"mapped_delay_ps", delay, "ps"},
        };
    }
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::optional<Options> opt;
    try {
        opt = parse_args(argc, argv);
    } catch (const std::exception&) {
        opt.reset();
    }
    if (!opt) return usage();
    try {
        return run(*opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
