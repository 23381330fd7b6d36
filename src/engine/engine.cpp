#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "aig/aig_build.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "common/budget.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/memgov.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/memo.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "exact/rewrite.hpp"
#include "lookahead/decompose.hpp"

namespace lls {

namespace {

/// One round of conventional delay-oriented restructuring (the "existing
/// logic optimization algorithms" the paper's technique complements).
Aig restructure_round(const Aig& aig) {
    RestructureOptions delay_opt;
    delay_opt.delay_oriented = true;
    delay_opt.cut_size = 8;
    return balance(restructure(aig, delay_opt));
}

bool better(const Aig& a, const Aig& b) {
    const int da = a.depth(), db = b.depth();
    return da < db || (da == db && a.count_reachable_ands() < b.count_reachable_ands());
}

/// Fingerprint of every LookaheadParams field `decompose_output` reads. A
/// memo entry is only valid for identical parameters, and the per-cone RNG
/// seed is derived from this fingerprint + the cone's structural hash so
/// that a cone's outcome depends on nothing but (cone, params) — the root
/// of the jobs-invariance guarantee.
std::uint64_t params_fingerprint(const LookaheadParams& p) {
    std::uint64_t h = 0x6c6f6f6b61686561ULL;  // "lookahea"
    h = hash_mix(h, static_cast<std::uint64_t>(p.cut_size));
    h = hash_mix(h, static_cast<std::uint64_t>(p.max_cuts));
    h = hash_mix(h, p.num_random_patterns);
    h = hash_mix(h, p.force_random_patterns);
    h = hash_mix(h, p.seed);
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.spcf_slack)));
    h = hash_mix(h, static_cast<std::uint64_t>(p.sat_conflict_limit));
    h = hash_mix(h, p.use_implication_rules);
    h = hash_mix(h, p.secondary_simplification);
    // A non-empty fault plan changes what the evaluations compute, so it
    // must change the memo key; an empty plan adds nothing, keeping every
    // fault-free fingerprint (and so every RNG stream) exactly as before.
    if (!p.fault_plan.empty()) h = hash_mix(h, FaultPlan::parse(p.fault_plan).fingerprint());
    // The per-cone memory quota is deterministic and result-changing (a
    // quota-degraded cone keeps its original structure), so it keys the
    // memo; zero adds nothing, like the empty fault plan. The wall rails
    // (time budget, cone deadline, --mem-budget) stay excluded.
    if (p.cone_mem_bytes != 0) h = hash_mix(h, p.cone_mem_bytes);
    return h;
}

/// Raises the engine.mem.* counters to the governor's cumulative totals.
/// Idempotent ("sync up to total"), serialized so concurrent batch items
/// cannot double-add one delta — safe however many runs share a governor.
void sync_governor_metrics(Metrics& metrics, const MemoryGovernor& governor) {
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);
    const auto sync = [&metrics](const char* name, std::uint64_t total) {
        MetricCounter& counter = metrics.counter(name);
        const std::uint64_t seen = counter.value();
        if (total > seen) counter.add(total - seen);
    };
    sync("engine.mem.charged_bytes", governor.charged_total());
    sync("engine.mem.shed_events", governor.shed_events());
    sync("engine.mem.admission_holds", governor.admission_holds());
}

/// RAII ticket on the governor's batch admission gate; a null governor
/// degrades to a no-op so the batch loop stays unconditional.
class AdmissionGuard {
public:
    explicit AdmissionGuard(MemoryGovernor* governor) : governor_(governor) {
        if (governor_ != nullptr) governor_->admission_acquire();
    }
    ~AdmissionGuard() {
        if (governor_ != nullptr) governor_->admission_release();
    }
    AdmissionGuard(const AdmissionGuard&) = delete;
    AdmissionGuard& operator=(const AdmissionGuard&) = delete;

private:
    MemoryGovernor* governor_;
};

/// Equivalence check with the structural-hash verdict memo in front. Only
/// resolved verdicts are stored; a memo hit returns no counterexample
/// (engine callers only branch on resolved/equivalent). `ctx.cost` meters
/// the SAT work actually performed — a memo hit honestly reports zero,
/// which is why serial-stage CEC work feeds --metrics but is never charged
/// against the deterministic budget (docs/ENGINE.md, "Budget semantics").
/// A hit on a verdict imported from the persistent store is noted against
/// `warm` for the `persist.warm_hits` split.
CecResult check_equivalence_memo(const Aig& a, const Aig& b, std::int64_t conflict_limit,
                                 bool use_cache, const RunContext& ctx = RunContext{},
                                 WarmStart* warm = nullptr) {
    if (!use_cache) return check_equivalence(a, b, conflict_limit, ctx);
    // Not std::minmax: it returns references into the hash() temporaries,
    // which dangle once this statement ends.
    const std::uint64_t ha = a.hash(), hb = b.hash();
    const std::pair<std::uint64_t, std::uint64_t> key{std::min(ha, hb), std::max(ha, hb)};
    if (const auto verdict = cec_memo().get(key)) {
        if (warm) warm->note_cec_hit(key.first, key.second);
        CecResult r;
        r.equivalent = *verdict;
        r.resolved = true;
        return r;
    }
    CecResult r = check_equivalence(a, b, conflict_limit, ctx);
    if (r.resolved) cec_memo().put(key, r.equivalent);
    return r;
}

}  // namespace

DecomposeMemo& decompose_memo() {
    static DecomposeMemo instance(
        "decompose_memo", /*max_entries_per_shard=*/2048,
        [](const std::pair<std::uint64_t, std::uint64_t>&, const ConeEvaluation& e) {
            std::size_t bytes = sizeof(ConeEvaluation) + DecomposeMemo::kEntryOverheadBytes;
            if (e.outcome)
                bytes += sizeof(DecomposeOutcome) +
                         e.outcome->aig.num_nodes() * memcost::kAigNodeBytes +
                         e.outcome->reconstruction.capacity();
            for (const auto& f : e.faults)
                bytes += sizeof(FaultRecord) + f.stage.capacity() + f.detail.capacity() +
                         f.cone_name.capacity();
            return bytes;
        });
    return instance;
}

void register_memo_governance(MemoryGovernor& governor) {
    governor.add_gauge([] { return decompose_memo().bytes(); });
    governor.add_gauge([] { return cec_memo().bytes(); });
    governor.add_gauge([] { return npn_memo().bytes(); });
    governor.add_gauge([] { return exact_structure_memo().bytes(); });
    governor.add_shed_hook([] { return decompose_memo().shed_half(); });
    governor.add_shed_hook([] { return cec_memo().shed_half(); });
    governor.add_shed_hook([] { return npn_memo().shed_half(); });
    governor.add_shed_hook([] { return exact_structure_memo().shed_half(); });
}

Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats) {
    Metrics& metrics = Metrics::global();
    MetricCounter& cones_evaluated = metrics.counter("engine.cones_evaluated");
    MetricCounter& cones_improved = metrics.counter("engine.cones_improved");
    MetricCounter& rounds_run = metrics.counter("engine.rounds");
    MetricTimer& evaluate_timer = metrics.timer("engine.evaluate");
    MetricTimer& commit_timer = metrics.timer("engine.commit");
    MetricTimer& restructure_timer = metrics.timer("engine.restructure");
    MetricTimer& sweep_timer = metrics.timer("engine.sat_sweep");
    MetricTimer& cec_timer = metrics.timer("engine.cec");
    MetricTimer& total_timer = metrics.timer("engine.total");
    // Work-unit meters: `work.evaluate.*` is what the deterministic budget
    // charges (memo hits replay the stored cost, so the charge stream is
    // cache-invariant); the serial-stage meters report work actually
    // performed and are observability-only.
    MetricCounter& work_decompositions = metrics.counter("engine.work.evaluate.decompositions");
    MetricCounter& work_eval_conflicts = metrics.counter("engine.work.evaluate.sat_conflicts");
    MetricCounter& work_sweep_conflicts = metrics.counter("engine.work.sat_sweep.sat_conflicts");
    MetricCounter& work_cec_conflicts = metrics.counter("engine.work.cec.sat_conflicts");
    MetricCounter& budget_stops = metrics.counter("engine.budget_exhausted");
    MetricCounter& wall_clock_stops = metrics.counter("engine.wall_clock_interrupts");
    MetricCounter& fault_records = metrics.counter("engine.fault.records");
    MetricCounter& fault_recovered = metrics.counter("engine.fault.recovered");
    MetricCounter& fault_degraded = metrics.counter("engine.fault.degraded");
    MetricCounter& quota_degrades = metrics.counter("engine.mem.quota_degrades");
    MetricCounter& deadline_cancels = metrics.counter("engine.cancel.deadline_cancelled");
    MetricCounter& shutdown_stops = metrics.counter("engine.cancel.shutdowns");
    const ScopedTimer total_scope(total_timer);
    metrics.counter("engine.runs").add();

    // The calling thread participates in parallel_for, so a run-private
    // pool of jobs - 1 workers applies exactly `jobs` threads to the cone
    // fan-out.
    ThreadPool pool(static_cast<std::size_t>(std::max(1, engine.jobs) - 1));
    // A malformed plan is an entry error, raised before any work starts.
    const FaultPlan fault_plan = FaultPlan::parse(params.fault_plan);
    // Run-entry fault site: `oom@run` (or any kind at site "run") fires
    // here, before any per-cone work — in batch mode the exception crosses
    // the item boundary, proving a run-level allocation failure degrades
    // that item to `failed` without tearing down its siblings.
    FaultContext(&fault_plan, /*rung=*/0).check("run", "engine");
    const std::uint64_t fingerprint = params_fingerprint(params);

    // Master RNG for the *serial* stages (SAT sweeping). Candidate
    // evaluation never draws from it: each cone gets its own generator
    // seeded from (params fingerprint, cone hash), so the fan-out order —
    // and therefore the job count — cannot influence any outcome.
    Rng rng(params.seed);
    const Aig original = input.cleanup();

    // Deterministic work budget: charged only at serial points with the
    // per-cone costs of each round's evaluations, so `budget.exhausted()`
    // is a pure function of work performed — identical on every thread
    // schedule. The wall-clock rail stays as a nondeterministic emergency
    // stop; once it fires the in-flight round is discarded (partially
    // evaluated rounds are never committed) and the run is flagged.
    WorkBudget budget(params.work_budget);
    Stopwatch wall_clock;
    std::atomic<bool> wall_clock_fired{false};
    // Process/batch-level cooperative cancellation. The serial stages run
    // under this scope (token only — the per-cone watchdog is armed inside
    // each evaluation), so a SIGTERM reaches the polls in SAT sweeping and
    // CEC too; the Cancelled error it raises is caught around the passes
    // below and the best verified circuit so far is returned.
    auto shutdown_requested = [&]() {
        return engine.cancel != nullptr && engine.cancel->requested();
    };
    const CancelScope serial_cancel_scope(engine.cancel, nullptr);
    // Context of the *serial* stages (SAT sweeping, CEC): observability
    // cost sink plus the shutdown token, never a deadline — serial-stage
    // work is uncharged and single-threaded by design.
    auto serial_context = [&](WorkCost& cost) {
        RunContext ctx;
        ctx.cost = &cost;
        ctx.cancel = engine.cancel;
        ctx.metrics = &metrics;
        // Serial-stage solvers report arena bytes to the Tier-2 rail but
        // never carry a Tier-1 quota — serial work is uncharged by design.
        ctx.governor = engine.governor;
        return ctx;
    };
    auto wall_clock_expired = [&]() {
        if (wall_clock_fired.load(std::memory_order_relaxed)) return true;
        if (params.time_budget_seconds > 0.0 &&
            wall_clock.elapsed_seconds() > params.time_budget_seconds) {
            wall_clock_fired.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    };

    OptimizeStats local;
    local.initial_depth = original.depth();
    local.initial_ands = original.count_reachable_ands();
    const std::size_t and_budget = 8 * std::max<std::size_t>(local.initial_ands, 64);

    Aig best = original;

    // Each iteration applies one level of lookahead decomposition to every
    // critical output, then (optionally) rounds of conventional
    // restructuring that flatten the freshly built window/mux logic — the
    // step that turns iterated single-level decompositions into the
    // prefix-style trees of the paper's Eqn. 2. An iteration that keeps the
    // depth flat is tolerated for a bounded number of rounds (the rewrite
    // into window form often pays off only once a later round flattens the
    // nested windows); the best circuit seen anywhere is what is returned.
    // Above this size, SAT sweeping and CEC run per *pass* instead of per
    // iteration (every per-cone decomposition is CEC-verified regardless,
    // and the returned circuit is always verified against the input).
    constexpr std::size_t kPerIterationCheckLimit = 1500;

    // Evaluation of one candidate: pure function of (current, po, params) —
    // including its work cost and fault history, which the memo stores
    // alongside the outcome.
    //
    // The retry ladder runs *inside* the memoized computation. When an
    // exception escapes a rung, the next rung retries the cone under
    // progressively more conservative settings:
    //   rung 0: the caller's params;
    //   rung 1: escalated SAT conflict cap (x16);
    //   rung 2: rung 1 + exact BDD verification instead of SAT CEC.
    // Every rung re-seeds the cone RNG identically and charges its work to
    // the evaluation's cost, so the ladder — like the fault injection that
    // exercises it — is a pure function of (cone, params): bit-identical
    // across job counts, and replayed verbatim on a memo hit. A cone whose
    // last rung still faults degrades to "no improvement" (the commit keeps
    // its original structure) with `recovered = false` in the record.
    auto evaluate_cone = [&](const Aig& current, std::size_t po) -> ConeEvaluation {
        const Aig cone = extract_cone(current, po);
        const std::uint64_t cone_hash = cone.hash();
        auto compute = [&]() -> ConeEvaluation {
            cones_evaluated.add();
            // Watchdog: arm the per-cone deadline (when configured) and
            // expose the shutdown token to every poll site this evaluation
            // reaches — the SAT solve loop, BDD node construction, and the
            // decomposition inner loops all poll this scope.
            const Deadline cone_deadline = params.cone_deadline_seconds > 0.0
                                               ? Deadline::after_seconds(
                                                     params.cone_deadline_seconds)
                                               : Deadline();
            const CancelScope cancel_scope(engine.cancel, &cone_deadline);
            ConeEvaluation evaluation;
            constexpr int kNumRungs = 3;
            static const char* const kRungLabel[kNumRungs] = {"base", "escalated-sat",
                                                              "bdd-exact"};
            FaultRecord record;
            bool faulted = false;
            for (int rung = 0; rung < kNumRungs; ++rung) {
                LookaheadParams rung_params = params;
                if (rung >= 1)
                    rung_params.sat_conflict_limit =
                        std::max<std::int64_t>(params.sat_conflict_limit, 1) * 16;
                const FaultContext fault_context(&fault_plan, rung);
                // Tier-1 quota, fresh per rung: every rung starts from zero
                // so the charge stream — and the exact point an exhaustion
                // fires — is a pure function of (cone, params, rung).
                MemoryQuota quota(params.cone_mem_bytes);
                // The one plumbing path down the decompose -> reduce ->
                // simplify -> cec -> sat stack: deterministic cost sink,
                // fault rung, cancellation sources (mirroring the
                // CancelScope above) and the rung-2 exact-verify switch.
                RunContext ctx = cone_run_context(evaluation);
                ctx.faults = &fault_context;
                ctx.cancel = engine.cancel;
                ctx.deadline = &cone_deadline;
                ctx.exact_verify = rung == 2;
                ctx.metrics = &metrics;
                if (params.cone_mem_bytes != 0) ctx.mem_quota = &quota;
                ctx.governor = engine.governor;
                Rng cone_rng(hash_mix(fingerprint, cone_hash));
                try {
                    if (auto outcome = decompose_output(cone, rung_params, cone_rng, ctx))
                        evaluation.outcome =
                            std::make_shared<const DecomposeOutcome>(std::move(*outcome));
                    if (faulted) {
                        record.retries.push_back(std::string(kRungLabel[rung]) + ": ok");
                        record.recovered = true;
                    }
                    break;
                } catch (const std::exception& e) {
                    const ErrorKind kind = error_kind_of(e);
                    // A shutdown cancellation propagates: the whole round is
                    // about to be discarded, so nothing is recorded or
                    // memoized for this cone — `--resume` re-evaluates it
                    // from scratch, byte-identically.
                    if (kind == ErrorKind::Cancelled && shutdown_requested()) throw;
                    const auto* lls_error = dynamic_cast<const LlsError*>(&e);
                    if (!faulted) {
                        faulted = true;
                        record.kind = kind;
                        record.stage = lls_error && !lls_error->stage().empty()
                                           ? lls_error->stage()
                                           : "evaluate";
                        record.detail = e.what();
                    } else {
                        record.retries.push_back(std::string(kRungLabel[rung]) + ": " +
                                                 error_kind_name(kind));
                    }
                    // A fired cone watchdog (or an injected `cancel` fault
                    // exercising its path) ends the ladder immediately:
                    // retrying under an already-expired deadline cannot
                    // complete, and the outcome depends on wall clock, so
                    // the evaluation is flagged to keep it out of the memo.
                    if (kind == ErrorKind::Cancelled) {
                        evaluation.timing_dependent = true;
                        break;
                    }
                    // Tier-1 quota exhaustion also ends the ladder — the
                    // escalated rungs only *grow* the footprint, so under
                    // the same per-rung quota they deterministically
                    // re-fail. Unlike a deadline this is a pure function of
                    // (cone, params): the evaluation memoizes, and the cone
                    // can never be reported as recovered.
                    if (lls_error != nullptr && lls_error->stage() == kMemgovStage) break;
                }
            }
            if (faulted) evaluation.faults.push_back(std::move(record));
            return evaluation;
        };
        if (!engine.use_result_cache) return compute();
        // Explicit get/put instead of get_or_compute so a hit on an entry
        // the persistent store imported can be metered as a warm hit.
        const std::pair<std::uint64_t, std::uint64_t> key{cone_hash, fingerprint};
        if (auto cached = decompose_memo().get(key)) {
            if (engine.warm_start) engine.warm_start->note_decompose_hit(cone_hash, fingerprint);
            return std::move(*cached);
        }
        ConeEvaluation value = compute();
        // Timing-dependent (deadline-cancelled) evaluations are a function
        // of wall clock, not of (cone, params): never memoize them.
        if (!value.timing_dependent) decompose_memo().put(key, value);
        return value;
    };

    auto run_decomposition_loop = [&](Aig current) {
        int plateau = 0;
        constexpr int kMaxPlateau = 2;
        bool touched = false;
        for (int iter = 0; iter < params.max_iterations && !budget.exhausted(); ++iter) {
            if (wall_clock_expired() || shutdown_requested()) break;
            const int depth = current.depth();
            if (depth < 2) break;
            const auto levels = current.compute_levels();

            // Gather the timing-critical POs: one evaluation task per
            // distinct driver node (a complemented sibling PO reuses the
            // result with an inverted output), keyed to the first PO that
            // references the driver.
            struct ConeTask {
                std::size_t po;
            };
            std::vector<ConeTask> tasks;
            std::unordered_map<std::uint32_t, std::size_t> driver_task;
            for (std::size_t o = 0; o < current.num_pos(); ++o) {
                const AigLit driver = current.po(o);
                if (levels[driver.node()] != depth) continue;
                if (driver_task.emplace(driver.node(), tasks.size()).second)
                    tasks.push_back({o});
            }

            // Fan the candidate evaluations across the workers. Workers
            // only read `current` (cone extraction copies what they need)
            // and build private cones, simulators, and SAT solvers. The
            // work budget is never consulted here — every admitted task
            // runs to completion, so the set of evaluated cones cannot
            // depend on the schedule. Only the wall-clock rail may abandon
            // a round, and then the whole round is discarded below.
            std::vector<ConeEvaluation> evaluations(tasks.size());
            {
                const ScopedTimer evaluate_scope(evaluate_timer);
                pool.parallel_for(0, tasks.size(), [&](std::size_t i) {
                    // Stop dispatching: tasks that have not started yet are
                    // skipped outright once a shutdown is requested (the
                    // round below is discarded anyway).
                    if (wall_clock_expired() || shutdown_requested()) return;
                    // Task-boundary backstop: the retry ladder contains
                    // faults inside the evaluation, so anything arriving
                    // here escaped outside it (cone extraction, the memo
                    // itself, allocation). The cone degrades to "keep
                    // original structure" and the round continues.
                    try {
                        evaluations[i] = evaluate_cone(current, tasks[i].po);
                    } catch (const std::exception& e) {
                        // In-flight shutdown cancellation: leave the slot
                        // empty, no fault record — the round is discarded.
                        if (error_kind_of(e) == ErrorKind::Cancelled && shutdown_requested())
                            return;
                        ConeEvaluation degraded;
                        FaultRecord record;
                        record.kind = error_kind_of(e);
                        const auto* lls_error = dynamic_cast<const LlsError*>(&e);
                        record.stage = lls_error && !lls_error->stage().empty()
                                           ? lls_error->stage()
                                           : "evaluate";
                        record.detail = e.what();
                        degraded.faults.push_back(std::move(record));
                        evaluations[i] = std::move(degraded);
                    }
                });
            }
            // Wall-clock interruption or shutdown: the partially evaluated
            // round is discarded — never charged, never committed — so a
            // resumed run retraces the uninterrupted trajectory exactly.
            if (wall_clock_fired.load(std::memory_order_relaxed) || shutdown_requested()) break;

            // Charge this round's deterministic cost, in task order, at a
            // serial point. The round is fully evaluated by now and will be
            // fully committed; exhaustion takes effect before the *next*
            // round starts.
            {
                WorkCost round_cost;
                for (const auto& evaluation : evaluations) round_cost += evaluation.cost;
                budget.charge(round_cost);
                work_decompositions.add(round_cost.decompositions);
                work_eval_conflicts.add(round_cost.sat_conflicts);
            }

            // Round boundary: push the memo entries this round created to
            // the persistent store. Serial point, after the charge — a
            // publication failure is contained in the store and cannot
            // perturb the budget stream or the round's results.
            if (engine.warm_start && engine.use_result_cache) engine.warm_start->flush_round();

            // Report contained faults at the same serial point, in task
            // order, stamping each record with its cone — deterministic for
            // every job count, memo hits included.
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                for (FaultRecord record : evaluations[i].faults) {
                    record.cone = static_cast<int>(tasks[i].po);
                    record.cone_name = current.po_name(tasks[i].po);
                    fault_records.add();
                    if (record.recovered) fault_recovered.add();
                    else fault_degraded.add();
                    if (record.kind == ErrorKind::Cancelled) {
                        ++local.deadline_cancelled;
                        deadline_cancels.add();
                    }
                    if (record.stage == kMemgovStage && !record.recovered) {
                        ++local.quota_degraded;
                        quota_degrades.add();
                    }
                    local.faults.push_back(std::move(record));
                }
            }

            // Serial commit in PO order: rebuild the circuit output by
            // output, splicing in the verified candidates. The order is
            // fixed, so the result is identical for every job count.
            Aig next;
            int improved_outputs = 0;
            {
                const ScopedTimer commit_scope(commit_timer);
                std::vector<AigLit> pi_map;
                pi_map.reserve(current.num_pis());
                for (std::size_t i = 0; i < current.num_pis(); ++i)
                    pi_map.push_back(next.add_pi(current.pi_name(i)));
                const auto original_pos = append_aig(next, current, pi_map);

                // Literal of the *uncomplemented* driver function per task,
                // valid once the task's outcome has been appended.
                std::vector<AigLit> task_base(tasks.size());
                std::vector<bool> task_appended(tasks.size(), false);
                for (std::size_t o = 0; o < current.num_pos(); ++o) {
                    AigLit po_lit = original_pos[o];
                    const AigLit driver = current.po(o);
                    const auto it = levels[driver.node()] == depth
                                        ? driver_task.find(driver.node())
                                        : driver_task.end();
                    if (it != driver_task.end() && evaluations[it->second].outcome) {
                        const std::size_t t = it->second;
                        const DecomposeOutcome& outcome = *evaluations[t].outcome;
                        if (!task_appended[t]) {
                            const auto new_outs = append_aig(next, outcome.aig, pi_map);
                            const bool first_complemented =
                                current.po(tasks[t].po).complemented();
                            task_base[t] = first_complemented ? !new_outs[0] : new_outs[0];
                            task_appended[t] = true;
                            local.log.push_back(
                                "iter " + std::to_string(iter) + " po " +
                                current.po_name(tasks[t].po) + ": depth " +
                                std::to_string(outcome.old_depth) + " -> " +
                                std::to_string(outcome.new_depth) + " (" +
                                std::to_string(outcome.num_windows) + " windows, " +
                                outcome.reconstruction + ")");
                        }
                        po_lit = driver.complemented() ? !task_base[t] : task_base[t];
                        ++improved_outputs;
                    }
                    next.add_po(po_lit, current.po_name(o));
                }
            }

            Aig candidate = next.cleanup();
            if (params.baseline_preoptimize) {
                const ScopedTimer restructure_scope(restructure_timer);
                for (int r = 0; r < 10; ++r) {
                    Aig restructured = restructure_round(candidate);
                    if (restructured.depth() >= candidate.depth()) break;
                    candidate = std::move(restructured);
                }
            }
            const bool small = candidate.count_reachable_ands() <= kPerIterationCheckLimit;
            if (params.area_recovery && small) {
                const ScopedTimer sweep_scope(sweep_timer);
                WorkCost sweep_cost;
                candidate = sat_sweep(candidate, rng, /*conflict_limit=*/2000,
                                      /*num_patterns=*/1024, /*depth_aware=*/true,
                                      serial_context(sweep_cost));
                work_sweep_conflicts.add(sweep_cost.sat_conflicts);
            }

            const int candidate_depth = candidate.depth();
            if (candidate_depth > depth) break;  // regression: keep the best seen
            if (candidate_depth == depth) {
                if (improved_outputs == 0 || ++plateau > kMaxPlateau) break;
            } else {
                plateau = 0;
            }
            if (candidate.count_reachable_ands() > and_budget) break;  // runaway duplication

            if (params.verify_each_iteration && small) {
                const ScopedTimer cec_scope(cec_timer);
                WorkCost cec_cost;
                const CecResult cec =
                    check_equivalence_memo(candidate, current, /*conflict_limit=*/1000000,
                                           engine.use_result_cache, serial_context(cec_cost),
                                           engine.warm_start);
                work_cec_conflicts.add(cec_cost.sat_conflicts);
                if (!cec.resolved || !cec.equivalent) {
                    // A failed or unresolved check means this round cannot
                    // be trusted; keep the last verified circuit.
                    local.verified = local.verified && cec.resolved;
                    break;
                }
            }

            local.outputs_decomposed += improved_outputs;
            ++local.iterations;
            touched = true;
            current = std::move(candidate);
            if (better(current, best)) best = current;
        }

        // Pass-level area recovery and verification for circuits that were
        // too large for per-iteration checks.
        if (touched && best.count_reachable_ands() > kPerIterationCheckLimit) {
            if (params.area_recovery) {
                const ScopedTimer sweep_scope(sweep_timer);
                WorkCost sweep_cost;
                Aig swept = sat_sweep(best, rng, /*conflict_limit=*/2000, /*num_patterns=*/1024,
                                      /*depth_aware=*/true, serial_context(sweep_cost));
                work_sweep_conflicts.add(sweep_cost.sat_conflicts);
                if (!better(best, swept)) best = std::move(swept);
            }
            if (params.verify_each_iteration) {
                const ScopedTimer cec_scope(cec_timer);
                WorkCost cec_cost;
                const CecResult cec =
                    check_equivalence_memo(best, original, /*conflict_limit=*/4000000,
                                           engine.use_result_cache, serial_context(cec_cost),
                                           engine.warm_start);
                work_cec_conflicts.add(cec_cost.sat_conflicts);
                if (!cec.resolved || !cec.equivalent) {
                    local.verified = local.verified && cec.resolved;
                    best = original;  // cannot trust anything from this pass
                }
            }
        }
    };

    // The passes run under a graceful-shutdown boundary: a Cancelled error
    // raised by a poll in the *serial* stages (SAT sweeping, CEC,
    // restructuring's solver work) unwinds to here and the run returns the
    // best verified circuit so far. Anything else propagates unchanged.
    try {
        // Pass 1: decomposition starting from the raw circuit (deep chains
        // are where the windows are easiest to find).
        run_decomposition_loop(original);

        // Pass 2: conventional restructuring alone, then decomposition on
        // top of it — the paper's deployment ("complements existing logic
        // optimization algorithms"). Whichever pass wins is returned.
        if (params.baseline_preoptimize && !shutdown_requested()) {
            Aig preopt = balance(original);
            if (better(preopt, best)) best = preopt;
            for (int r = 0; r < 10 && !shutdown_requested(); ++r) {
                Aig restructured;
                {
                    const ScopedTimer restructure_scope(restructure_timer);
                    restructured = restructure_round(preopt);
                }
                if (params.area_recovery) {
                    const ScopedTimer sweep_scope(sweep_timer);
                    WorkCost sweep_cost;
                    restructured =
                        sat_sweep(restructured, rng, /*conflict_limit=*/2000,
                                  /*num_patterns=*/1024, /*depth_aware=*/true,
                                  serial_context(sweep_cost));
                    work_sweep_conflicts.add(sweep_cost.sat_conflicts);
                }
                if (restructured.depth() >= preopt.depth()) break;
                preopt = std::move(restructured);
            }
            if (params.verify_each_iteration) {
                const ScopedTimer cec_scope(cec_timer);
                WorkCost cec_cost;
                const CecResult cec =
                    check_equivalence_memo(preopt, original, /*conflict_limit=*/1000000,
                                           engine.use_result_cache, serial_context(cec_cost),
                                           engine.warm_start);
                work_cec_conflicts.add(cec_cost.sat_conflicts);
                if (!cec.resolved || !cec.equivalent) {
                    local.verified = local.verified && cec.resolved;
                    preopt = original;
                }
            }
            if (better(preopt, best)) best = preopt;
            if (preopt.depth() < original.depth() && !shutdown_requested())
                run_decomposition_loop(preopt);
        }
    } catch (const std::exception& e) {
        if (error_kind_of(e) != ErrorKind::Cancelled || !shutdown_requested()) throw;
    }

    local.cancelled = shutdown_requested();
    if (local.cancelled) shutdown_stops.add();
    local.final_depth = best.depth();
    local.final_ands = best.count_reachable_ands();
    local.work_units = budget.spent();
    local.budget_exhausted = budget.exhausted();
    local.wall_clock_interrupted = wall_clock_fired.load(std::memory_order_relaxed);
    if (local.budget_exhausted) budget_stops.add();
    if (local.wall_clock_interrupted) wall_clock_stops.add();
    rounds_run.add(static_cast<std::uint64_t>(local.iterations));
    cones_improved.add(static_cast<std::uint64_t>(local.outputs_decomposed));
    // Indices an exception-aborted fan-out skipped.
    if (pool.aborted_indices() > 0)
        metrics.counter("engine.pool.aborted_indices").add(pool.aborted_indices());
    // Time the run-private pool's threads spent waiting idle across this
    // run's cone fan-outs. The timer keeps its historical name because the
    // benchmark's per-layer list reads it.
    if (pool.size() > 0)
        metrics.timer("engine.intracone.idle_wait").add_nanos(pool.idle_wait_nanos());
    if (engine.governor != nullptr) sync_governor_metrics(metrics, *engine.governor);
    if (stats) *stats = local;
    return best;
}

Aig optimize_timing(const Aig& input, const LookaheadParams& params, OptimizeStats* stats) {
    return optimize_timing_engine(input, params, EngineOptions{}, stats);
}

std::vector<BatchOutcome> optimize_timing_batch(
    const std::vector<BatchItem>& items, const LookaheadParams& params,
    const EngineOptions& engine,
    const std::function<void(const BatchOutcome&, std::size_t)>& on_complete) {
    std::vector<BatchOutcome> outcomes(items.size());
    const std::size_t jobs = static_cast<std::size_t>(std::max(1, engine.jobs));
    // Items run whole and serially (jobs = 1 each), so workers beyond
    // items - 1 (the calling thread takes a share) could never get work.
    ThreadPool pool(std::min(jobs - 1, items.empty() ? 0 : items.size() - 1));
    EngineOptions per_item = engine;
    per_item.jobs = 1;
    std::mutex complete_mutex;
    const auto batch_cancelled = [&engine]() {
        return engine.cancel != nullptr && engine.cancel->requested();
    };
    pool.parallel_for(0, items.size(), [&](std::size_t i) {
        Stopwatch item_clock;
        outcomes[i].name = items[i].name;
        // Graceful shutdown: once the token is requested, items that have
        // not started are never dispatched — they are marked cancelled with
        // their input unchanged so the CLI neither journals nor writes
        // them, and `--resume` re-runs them from scratch.
        if (batch_cancelled()) {
            outcomes[i].cancelled = true;
            outcomes[i].output = items[i].input.cleanup();
            outcomes[i].stats.verified = false;
            Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            if (on_complete) {
                const std::lock_guard<std::mutex> lock(complete_mutex);
                on_complete(outcomes[i], i);
            }
            return;
        }
        // Tier-2 admission control: while the governor's post-shedding
        // high-water hold is up and other items are in flight, this item
        // waits here instead of adding its footprint — the batch finishes
        // what it started and serializes new dispatch until usage falls
        // below the rail (or everything in flight has drained, which
        // guarantees progress). Purely a *when*, never a *what*: the item
        // computes the same bytes however long it waited.
        const AdmissionGuard admission(engine.governor);
        // Item-level fault boundary: one failing circuit must not abort the
        // other 99. The failed item degrades to its unmodified input — the
        // same keep-original rule the per-cone boundary applies — and is
        // reported through `failed`/`error` and the metrics registry.
        try {
            outcomes[i].output =
                optimize_timing_engine(items[i].input, params, per_item, &outcomes[i].stats);
            // An in-flight shutdown returns gracefully with stats.cancelled;
            // the item is demoted to cancelled (not finished, not failed).
            if (outcomes[i].stats.cancelled) {
                outcomes[i].cancelled = true;
                Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            }
        } catch (const std::exception& e) {
            if (error_kind_of(e) == ErrorKind::Cancelled && batch_cancelled()) {
                outcomes[i].cancelled = true;
                outcomes[i].output = items[i].input.cleanup();
                outcomes[i].stats = OptimizeStats{};
                outcomes[i].stats.verified = false;
                Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            } else {
                outcomes[i].failed = true;
                outcomes[i].error = e.what();
                outcomes[i].output = items[i].input.cleanup();
                outcomes[i].stats = OptimizeStats{};
                outcomes[i].stats.verified = false;
                Metrics::global().counter("engine.batch.item_failures").add();
            }
        }
        outcomes[i].seconds = item_clock.elapsed_seconds();
        if (on_complete) {
            const std::lock_guard<std::mutex> lock(complete_mutex);
            on_complete(outcomes[i], i);
        }
    });
    // Pool-lifetime observability: time threads spent waiting idle in
    // parallel_for and indices any aborted fan-out skipped. The idle timer
    // keeps its historical name because the benchmark's per-layer list
    // reads it.
    Metrics::global().timer("engine.steal.idle_wait").add_nanos(pool.idle_wait_nanos());
    if (pool.aborted_indices() > 0)
        Metrics::global().counter("engine.pool.aborted_indices").add(pool.aborted_indices());
    if (engine.governor != nullptr) sync_governor_metrics(Metrics::global(), *engine.governor);
    return outcomes;
}

std::uint64_t lookahead_params_fingerprint(const LookaheadParams& params) {
    return params_fingerprint(params);
}

CacheStatsSnapshot decomposition_cache_stats() { return decompose_memo().stats(); }

void clear_engine_caches() {
    decompose_memo().clear();
    cec_memo().clear();
    npn_memo().clear();
    exact_structure_memo().clear();
}

}  // namespace lls
