#include "engine/engine.hpp"

#include <algorithm>
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
    // memo; zero adds nothing, like the empty fault plan. The cone
    // deadline, a wall rail, stays excluded.
    if (p.cone_mem_bytes != 0) h = hash_mix(h, p.cone_mem_bytes);
    return h;
}

/// Raises engine.mem.charged_bytes to the governor's cumulative total.
/// Idempotent ("sync up to total"), serialized so concurrent batch items
/// cannot double-add one delta — safe however many runs share a governor.
void sync_governor_metrics(Metrics& metrics, const MemoryGovernor& governor) {
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);
    MetricCounter& counter = metrics.counter("engine.mem.charged_bytes");
    const std::uint64_t total = governor.charged_total(), seen = counter.value();
    if (total > seen) counter.add(total - seen);
}

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
    static DecomposeMemo instance("decompose_memo", /*max_entries_per_shard=*/2048);
    return instance;
}

void register_memo_governance(MemoryGovernor&) {}

namespace {

/// Rounds of conventional restructuring per stage call (both passes).
constexpr int kMaxRestructureRounds = 10;
/// Consecutive depth-flat rounds a decomposition pass tolerates.
constexpr int kMaxPlateau = 2;
/// Above this size, SAT sweeping and CEC run per *pass* instead of per
/// round (every per-cone decomposition is CEC-verified regardless, and the
/// returned circuit is always verified against the input).
constexpr std::size_t kPerIterationCheckLimit = 1500;

/// The retry ladder: rung 0 runs the caller's params, rung 1 escalates the
/// SAT conflict cap x16.
constexpr int kNumRungs = 2;
constexpr const char* kRungLabel[kNumRungs] = {"base", "escalated-sat"};

/// The run's metric handles, registered in report order. The names stay
/// fixed because the benchmark reads them.
struct EngineMeters {
    explicit EngineMeters(Metrics& m)
        : metrics(m),
          cones_evaluated(m.counter("engine.cones_evaluated")),
          cones_improved(m.counter("engine.cones_improved")),
          rounds(m.counter("engine.rounds")),
          evaluate(m.timer("engine.evaluate")),
          commit(m.timer("engine.commit")),
          restructure(m.timer("engine.restructure")),
          sweep(m.timer("engine.sat_sweep")),
          cec(m.timer("engine.cec")),
          total(m.timer("engine.total")),
          // `work.evaluate.*` is what the deterministic budget charges (memo
          // hits replay the stored cost, so the charge stream is
          // cache-invariant); the serial-stage meters report work actually
          // performed and are observability-only.
          work_decompositions(m.counter("engine.work.evaluate.decompositions")),
          work_eval_conflicts(m.counter("engine.work.evaluate.sat_conflicts")),
          work_sweep_conflicts(m.counter("engine.work.sat_sweep.sat_conflicts")),
          work_cec_conflicts(m.counter("engine.work.cec.sat_conflicts")),
          budget_stops(m.counter("engine.budget_exhausted")),
          fault_records(m.counter("engine.fault.records")),
          fault_recovered(m.counter("engine.fault.recovered")),
          fault_degraded(m.counter("engine.fault.degraded")),
          quota_degrades(m.counter("engine.mem.quota_degrades")),
          deadline_cancels(m.counter("engine.cancel.deadline_cancelled")),
          shutdown_stops(m.counter("engine.cancel.shutdowns")),
          runs(m.counter("engine.runs")) {}

    Metrics& metrics;
    MetricCounter &cones_evaluated, &cones_improved, &rounds;
    MetricTimer &evaluate, &commit, &restructure, &sweep, &cec, &total;
    MetricCounter &work_decompositions, &work_eval_conflicts, &work_sweep_conflicts,
        &work_cec_conflicts;
    MetricCounter &budget_stops, &fault_records, &fault_recovered, &fault_degraded;
    MetricCounter &quota_degrades, &deadline_cancels, &shutdown_stops, &runs;
};

/// Parses the run's fault plan — a malformed plan is an entry error,
/// raised before any work starts — and fires the run-entry site: `oom@run`
/// (or any kind at site "run") throws here, so in batch mode a run-level
/// allocation failure degrades that item to `failed` without tearing down
/// its siblings.
FaultPlan entry_fault_plan(const LookaheadParams& params) {
    FaultPlan plan = FaultPlan::parse(params.fault_plan);
    FaultContext(&plan, /*rung=*/0).check("run", "engine");
    return plan;
}

/// Everything one optimize_timing_engine run threads through its stages.
struct RunState {
    RunState(const Aig& input, const LookaheadParams& p, const EngineOptions& e,
             EngineMeters& m)
        : params(p),
          engine(e),
          meters(m),
          pool(static_cast<std::size_t>(std::max(1, e.jobs) - 1)),
          fault_plan(entry_fault_plan(p)),
          fingerprint(params_fingerprint(p)),
          rng(p.seed),
          original(input.cleanup()),
          budget(p.work_budget),
          serial_cancel_scope(e.cancel, nullptr),
          best(original) {
        stats.initial_depth = original.depth();
        stats.initial_ands = original.count_reachable_ands();
        and_budget = 8 * std::max<std::size_t>(stats.initial_ands, 64);
    }

    bool shutdown_requested() const {
        return engine.cancel != nullptr && engine.cancel->requested();
    }

    /// Context of the serial stages (SAT sweeping, CEC): observability cost
    /// sink plus the shutdown token, never a deadline or a per-cone quota —
    /// serial-stage work is uncharged and single-threaded by design. Their
    /// solvers still report arena bytes to the byte accountant, if any.
    RunContext serial_context(WorkCost& cost) const {
        RunContext ctx;
        ctx.cost = &cost;
        ctx.cancel = engine.cancel;
        ctx.metrics = &meters.metrics;
        ctx.governor = engine.governor;
        return ctx;
    }

    const LookaheadParams& params;
    const EngineOptions& engine;
    EngineMeters& meters;
    // The calling thread participates in parallel_for, so jobs - 1 workers
    // apply exactly `jobs` threads to the cone fan-out.
    ThreadPool pool;
    const FaultPlan fault_plan;
    const std::uint64_t fingerprint;
    // Master RNG of the *serial* stages (SAT sweeping). Cone evaluation
    // never draws from it: each cone seeds its own generator from (params
    // fingerprint, cone hash), so the fan-out order — and therefore the job
    // count — cannot influence any outcome.
    Rng rng;
    const Aig original;
    // Deterministic work budget, charged only at serial points with each
    // round's per-cone costs, so `exhausted()` is a pure function of the
    // work performed — identical on every thread schedule.
    WorkBudget budget;
    // Process/batch shutdown token for the serial stages, so a SIGTERM
    // reaches the polls in SAT sweeping and CEC too.
    const CancelScope serial_cancel_scope;
    OptimizeStats stats;
    std::size_t and_budget = 0;
    Aig best;
};

/// The timing-critical POs of one round: one evaluation task per distinct
/// critical driver node, keyed to the first PO that references it (a
/// complemented sibling PO reuses the result with an inverted output).
struct Round {
    int depth = 0;
    std::vector<int> levels;
    std::vector<std::size_t> task_po;
    std::unordered_map<std::uint32_t, std::size_t> driver_task;
};

Round gather(const Aig& current, int depth) {
    Round round;
    round.depth = depth;
    round.levels = current.compute_levels();
    for (std::size_t o = 0; o < current.num_pos(); ++o) {
        const AigLit driver = current.po(o);
        if (round.levels[driver.node()] != depth) continue;
        if (round.driver_task.emplace(driver.node(), round.task_po.size()).second)
            round.task_po.push_back(o);
    }
    return round;
}

/// The fault record of an exception that escaped a cone evaluation: its
/// kind, the LlsError stage ("evaluate" when it names none) and message.
FaultRecord fault_record_of(const std::exception& e) {
    FaultRecord record;
    record.kind = error_kind_of(e);
    const auto* lls_error = dynamic_cast<const LlsError*>(&e);
    record.stage = lls_error && !lls_error->stage().empty() ? lls_error->stage() : "evaluate";
    record.detail = e.what();
    return record;
}

/// Evaluates one cone through the retry ladder. When an exception escapes
/// a rung, the next rung retries the cone. Every rung re-seeds the cone RNG
/// identically and charges its work to the evaluation's cost, so the ladder
/// — like the fault injection that exercises it — is a pure function of
/// (cone, params): bit-identical across job counts, and replayed verbatim
/// on a memo hit. A cone whose last rung still faults degrades to "no
/// improvement" (the commit keeps its original structure) with
/// `recovered = false` in the record.
ConeEvaluation run_retry_ladder(const RunState& run, const Aig& cone, std::uint64_t cone_hash) {
    const LookaheadParams& params = run.params;
    run.meters.cones_evaluated.add();
    // Watchdog: arm the per-cone deadline (when configured) and expose the
    // shutdown token to every poll site this evaluation reaches.
    const Deadline cone_deadline = params.cone_deadline_seconds > 0.0
                                       ? Deadline::after_seconds(params.cone_deadline_seconds)
                                       : Deadline();
    const CancelScope cancel_scope(run.engine.cancel, &cone_deadline);
    ConeEvaluation evaluation;
    FaultRecord record;
    bool faulted = false;
    for (int rung = 0; rung < kNumRungs; ++rung) {
        LookaheadParams rung_params = params;
        if (rung == 1)
            rung_params.sat_conflict_limit =
                std::max<std::int64_t>(params.sat_conflict_limit, 1) * 16;
        const FaultContext fault_context(&run.fault_plan, rung);
        // Per-cone quota, fresh per rung, so the point an exhaustion fires is
        // a pure function of (cone, params, rung).
        MemoryQuota quota(params.cone_mem_bytes);
        // The one plumbing path down the decompose -> reduce -> simplify ->
        // cec -> sat stack.
        RunContext ctx;
        ctx.cost = &evaluation.cost;
        ctx.faults = &fault_context;
        ctx.cancel = run.engine.cancel;
        ctx.deadline = &cone_deadline;
        ctx.metrics = &run.meters.metrics;
        if (params.cone_mem_bytes != 0) ctx.mem_quota = &quota;
        ctx.governor = run.engine.governor;
        Rng cone_rng(hash_mix(run.fingerprint, cone_hash));
        try {
            if (auto outcome = decompose_output(cone, rung_params, cone_rng, ctx))
                evaluation.outcome = std::make_shared<const DecomposeOutcome>(std::move(*outcome));
            if (faulted) {
                record.retries.push_back(std::string(kRungLabel[rung]) + ": ok");
                record.recovered = true;
            }
            break;
        } catch (const std::exception& e) {
            const ErrorKind kind = error_kind_of(e);
            // A shutdown cancellation propagates: the round is about to be
            // discarded, so nothing is recorded or memoized for this cone.
            if (kind == ErrorKind::Cancelled && run.shutdown_requested()) throw;
            if (!faulted) {
                faulted = true;
                record = fault_record_of(e);
            } else {
                record.retries.push_back(std::string(kRungLabel[rung]) + ": " +
                                         error_kind_name(kind));
            }
            // A fired cone watchdog (or an injected `cancel` fault) ends the
            // ladder: retrying under an expired deadline cannot complete,
            // and the outcome depends on wall clock, so the evaluation is
            // kept out of the memo.
            if (kind == ErrorKind::Cancelled) {
                evaluation.timing_dependent = true;
                break;
            }
            // A quota exhaustion also ends the ladder: the escalated
            // rung only grows the footprint, so it would deterministically
            // re-fail. The evaluation memoizes and is never "recovered".
            const auto* lls_error = dynamic_cast<const LlsError*>(&e);
            if (lls_error != nullptr && lls_error->stage() == kMemgovStage) break;
        }
    }
    if (faulted) evaluation.faults.push_back(std::move(record));
    return evaluation;
}

/// Evaluation of one candidate with the decomposition memo in front: a pure
/// function of (current, po, params), including its work cost and fault
/// history, which the memo stores alongside the outcome.
ConeEvaluation evaluate_cone(const RunState& run, const Aig& current, std::size_t po) {
    const Aig cone = extract_cone(current, po);
    const std::uint64_t cone_hash = cone.hash();
    if (!run.engine.use_result_cache) return run_retry_ladder(run, cone, cone_hash);
    // Explicit get/put instead of get_or_compute so a hit on an entry the
    // persistent store imported can be metered as a warm hit.
    const std::pair<std::uint64_t, std::uint64_t> key{cone_hash, run.fingerprint};
    if (auto cached = decompose_memo().get(key)) {
        if (run.engine.warm_start)
            run.engine.warm_start->note_decompose_hit(cone_hash, run.fingerprint);
        return std::move(*cached);
    }
    ConeEvaluation value = run_retry_ladder(run, cone, cone_hash);
    if (!value.timing_dependent) decompose_memo().put(key, value);
    return value;
}

/// Fans the round's cone evaluations across the pool. Workers only read
/// `current` and build private cones, simulators and SAT solvers. The work
/// budget is never consulted here — every admitted task runs to
/// completion, so the set of evaluated cones cannot depend on the schedule.
std::vector<ConeEvaluation> evaluate(RunState& run, const Aig& current, const Round& round) {
    std::vector<ConeEvaluation> evaluations(round.task_po.size());
    const ScopedTimer scope(run.meters.evaluate);
    run.pool.parallel_for(0, evaluations.size(), [&](std::size_t i) {
        // Once a shutdown is requested, tasks not yet started are skipped
        // (the round is discarded anyway).
        if (run.shutdown_requested()) return;
        // Task-boundary backstop: the retry ladder contains faults inside
        // the evaluation, so anything arriving here escaped outside it
        // (cone extraction, the memo, allocation). The cone degrades to
        // "keep original structure" and the round continues.
        try {
            evaluations[i] = evaluate_cone(run, current, round.task_po[i]);
        } catch (const std::exception& e) {
            // In-flight shutdown: leave the slot empty, no fault record.
            if (error_kind_of(e) == ErrorKind::Cancelled && run.shutdown_requested()) return;
            evaluations[i].faults.push_back(fault_record_of(e));
        }
    });
    return evaluations;
}

/// The serial point after a fully evaluated round: charges its
/// deterministic cost in task order (exhaustion takes effect before the
/// *next* round), publishes new memo entries to the persistent store, and
/// reports contained faults in task order, stamped with their cone.
void account(RunState& run, const Aig& current, const Round& round,
             const std::vector<ConeEvaluation>& evaluations) {
    EngineMeters& m = run.meters;
    WorkCost round_cost;
    for (const auto& evaluation : evaluations) round_cost += evaluation.cost;
    run.budget.charge(round_cost);
    m.work_decompositions.add(round_cost.decompositions);
    m.work_eval_conflicts.add(round_cost.sat_conflicts);
    // After the charge: a publication failure is contained in the store
    // and cannot perturb the budget stream or the round's results.
    if (run.engine.warm_start && run.engine.use_result_cache) run.engine.warm_start->flush_round();
    for (std::size_t i = 0; i < evaluations.size(); ++i) {
        for (FaultRecord record : evaluations[i].faults) {
            record.cone = static_cast<int>(round.task_po[i]);
            record.cone_name = current.po_name(round.task_po[i]);
            m.fault_records.add();
            if (record.recovered) m.fault_recovered.add();
            else m.fault_degraded.add();
            if (record.kind == ErrorKind::Cancelled) {
                ++run.stats.deadline_cancelled;
                m.deadline_cancels.add();
            }
            if (record.stage == kMemgovStage && !record.recovered) {
                ++run.stats.quota_degraded;
                m.quota_degrades.add();
            }
            run.stats.faults.push_back(std::move(record));
        }
    }
}

/// Serial commit in PO order: rebuilds the circuit output by output,
/// splicing in the verified candidates. The order is fixed, so the result
/// is identical for every job count.
Aig commit(RunState& run, const Aig& current, const Round& round,
           const std::vector<ConeEvaluation>& evaluations, int iter, int* improved_outputs) {
    const ScopedTimer scope(run.meters.commit);
    Aig next;
    std::vector<AigLit> pi_map;
    pi_map.reserve(current.num_pis());
    for (std::size_t i = 0; i < current.num_pis(); ++i)
        pi_map.push_back(next.add_pi(current.pi_name(i)));
    const auto original_pos = append_aig(next, current, pi_map);

    // Literal of the *uncomplemented* driver function per task, valid once
    // the task's outcome has been appended.
    std::vector<AigLit> task_base(evaluations.size());
    std::vector<bool> task_appended(evaluations.size(), false);
    for (std::size_t o = 0; o < current.num_pos(); ++o) {
        AigLit po_lit = original_pos[o];
        const AigLit driver = current.po(o);
        const auto it = round.levels[driver.node()] == round.depth
                            ? round.driver_task.find(driver.node())
                            : round.driver_task.end();
        if (it != round.driver_task.end() && evaluations[it->second].outcome) {
            const std::size_t t = it->second;
            const DecomposeOutcome& outcome = *evaluations[t].outcome;
            if (!task_appended[t]) {
                const auto new_outs = append_aig(next, outcome.aig, pi_map);
                const bool first_complemented = current.po(round.task_po[t]).complemented();
                task_base[t] = first_complemented ? !new_outs[0] : new_outs[0];
                task_appended[t] = true;
                run.stats.log.push_back(
                    "iter " + std::to_string(iter) + " po " +
                    current.po_name(round.task_po[t]) + ": depth " +
                    std::to_string(outcome.old_depth) + " -> " +
                    std::to_string(outcome.new_depth) + " (" +
                    std::to_string(outcome.num_windows) + " windows, " +
                    outcome.reconstruction + ")");
            }
            po_lit = driver.complemented() ? !task_base[t] : task_base[t];
            ++*improved_outputs;
        }
        next.add_po(po_lit, current.po_name(o));
    }
    return next;
}

/// Conventional delay-oriented restructuring until the depth stops falling
/// — the step that flattens the freshly built window/mux logic into the
/// prefix-style trees of the paper's Eqn. 2.
Aig restructure_rounds(RunState& run, Aig candidate) {
    const ScopedTimer scope(run.meters.restructure);
    for (int r = 0; r < kMaxRestructureRounds; ++r) {
        Aig restructured = restructure_round(candidate);
        if (restructured.depth() >= candidate.depth()) break;
        candidate = std::move(restructured);
    }
    return candidate;
}

/// Depth-aware SAT sweeping (area recovery), drawing from the serial RNG.
Aig sweep(RunState& run, const Aig& aig) {
    const ScopedTimer scope(run.meters.sweep);
    WorkCost cost;
    Aig swept = sat_sweep(aig, run.rng, /*conflict_limit=*/2000, /*num_patterns=*/1024,
                          /*depth_aware=*/true, run.serial_context(cost));
    run.meters.work_sweep_conflicts.add(cost.sat_conflicts);
    return swept;
}

/// CEC of `a` against `b` through the verdict memo. A failed or unresolved
/// check returns false, and an unresolved one clears `stats.verified`.
bool verify(RunState& run, const Aig& a, const Aig& b, std::int64_t conflict_limit) {
    const ScopedTimer scope(run.meters.cec);
    WorkCost cost;
    const CecResult cec = check_equivalence_memo(a, b, conflict_limit, run.engine.use_result_cache,
                                                 run.serial_context(cost), run.engine.warm_start);
    run.meters.work_cec_conflicts.add(cost.sat_conflicts);
    if (cec.resolved && cec.equivalent) return true;
    run.stats.verified = run.stats.verified && cec.resolved;
    return false;
}

/// One decomposition pass from `current`. Each round applies one level of
/// lookahead decomposition to every critical output, then restructures and
/// sweeps. A depth-flat round is tolerated up to kMaxPlateau times (the
/// window form often pays off only once a later round flattens it); the
/// best circuit seen anywhere is kept in `run.best`.
void decomposition_pass(RunState& run, Aig current) {
    const LookaheadParams& params = run.params;
    int plateau = 0;
    bool touched = false;
    for (int iter = 0; iter < params.max_iterations && !run.budget.exhausted(); ++iter) {
        if (run.shutdown_requested()) break;
        const int depth = current.depth();
        if (depth < 2) break;
        const Round round = gather(current, depth);
        const std::vector<ConeEvaluation> evaluations = evaluate(run, current, round);
        // Shutdown: the partially evaluated round is discarded — never
        // charged, never committed — so a resumed run retraces the
        // uninterrupted trajectory exactly.
        if (run.shutdown_requested()) break;
        account(run, current, round, evaluations);
        int improved_outputs = 0;
        Aig candidate = commit(run, current, round, evaluations, iter, &improved_outputs).cleanup();
        if (params.baseline_preoptimize) candidate = restructure_rounds(run, std::move(candidate));
        const bool small = candidate.count_reachable_ands() <= kPerIterationCheckLimit;
        if (params.area_recovery && small) candidate = sweep(run, candidate);

        const int candidate_depth = candidate.depth();
        if (candidate_depth > depth) break;  // regression: keep the best seen
        if (candidate_depth == depth) {
            if (improved_outputs == 0 || ++plateau > kMaxPlateau) break;
        } else {
            plateau = 0;
        }
        if (candidate.count_reachable_ands() > run.and_budget) break;  // runaway duplication
        // A failed or unresolved check means this round cannot be trusted;
        // keep the last verified circuit.
        if (params.verify_each_iteration && small && !verify(run, candidate, current, 1000000))
            break;

        run.stats.outputs_decomposed += improved_outputs;
        ++run.stats.iterations;
        touched = true;
        current = std::move(candidate);
        if (better(current, run.best)) run.best = current;
    }

    // Pass-level area recovery and verification for circuits that were too
    // large for per-round checks.
    if (!touched || run.best.count_reachable_ands() <= kPerIterationCheckLimit) return;
    if (params.area_recovery) {
        Aig swept = sweep(run, run.best);
        if (!better(run.best, swept)) run.best = std::move(swept);
    }
    if (params.verify_each_iteration && !verify(run, run.best, run.original, 4000000))
        run.best = run.original;  // cannot trust anything from this pass
}

/// Conventional restructuring alone from the raw circuit, each round swept,
/// until the depth stops falling; returns the verified result (or the
/// original when its check fails).
Aig preoptimize(RunState& run) {
    Aig preopt = balance(run.original);
    if (better(preopt, run.best)) run.best = preopt;
    for (int r = 0; r < kMaxRestructureRounds && !run.shutdown_requested(); ++r) {
        Aig restructured;
        {
            const ScopedTimer scope(run.meters.restructure);
            restructured = restructure_round(preopt);
        }
        if (run.params.area_recovery) restructured = sweep(run, restructured);
        if (restructured.depth() >= preopt.depth()) break;
        preopt = std::move(restructured);
    }
    if (run.params.verify_each_iteration && !verify(run, preopt, run.original, 1000000))
        preopt = run.original;
    if (better(preopt, run.best)) run.best = preopt;
    return preopt;
}

/// Fills the caller's stats and the run-level metrics; returns the best
/// verified circuit.
Aig finalize(RunState& run, OptimizeStats* stats) {
    EngineMeters& m = run.meters;
    OptimizeStats& local = run.stats;
    local.cancelled = run.shutdown_requested();
    if (local.cancelled) m.shutdown_stops.add();
    local.final_depth = run.best.depth();
    local.final_ands = run.best.count_reachable_ands();
    local.work_units = run.budget.spent();
    local.budget_exhausted = run.budget.exhausted();
    if (local.budget_exhausted) m.budget_stops.add();
    m.rounds.add(static_cast<std::uint64_t>(local.iterations));
    m.cones_improved.add(static_cast<std::uint64_t>(local.outputs_decomposed));
    // Indices an exception-aborted fan-out skipped.
    if (run.pool.aborted_indices() > 0)
        m.metrics.counter("engine.pool.aborted_indices").add(run.pool.aborted_indices());
    // Time the run-private pool's threads spent waiting idle across this
    // run's cone fan-outs. The timer keeps its historical name because the
    // benchmark's per-layer list reads it.
    if (run.pool.size() > 0)
        m.metrics.timer("engine.intracone.idle_wait").add_nanos(run.pool.idle_wait_nanos());
    if (run.engine.governor != nullptr) sync_governor_metrics(m.metrics, *run.engine.governor);
    if (stats) *stats = local;
    return std::move(run.best);
}

}  // namespace

Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats) {
    EngineMeters meters(Metrics::global());
    const ScopedTimer total_scope(meters.total);
    meters.runs.add();
    RunState run(input, params, engine, meters);
    // The passes run under a graceful-shutdown boundary: a Cancelled error
    // raised by a poll in the serial stages unwinds to here and the run
    // returns the best verified circuit so far. Anything else propagates.
    try {
        // Pass 1: decomposition from the raw circuit (deep chains are where
        // the windows are easiest to find).
        decomposition_pass(run, run.original);
        // Pass 2: conventional restructuring alone, then decomposition on
        // top of it — the paper's deployment ("complements existing logic
        // optimization algorithms"). Whichever pass wins is returned.
        if (params.baseline_preoptimize && !run.shutdown_requested()) {
            const Aig preopt = preoptimize(run);
            if (preopt.depth() < run.original.depth() && !run.shutdown_requested())
                decomposition_pass(run, preopt);
        }
    } catch (const std::exception& e) {
        if (error_kind_of(e) != ErrorKind::Cancelled || !run.shutdown_requested()) throw;
    }
    return finalize(run, stats);
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
