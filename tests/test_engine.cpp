#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "cec/cec.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/memgov.hpp"
#include "engine/checkpoint.hpp"
#include "engine/metrics.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

/// QoR + structure fingerprint of an optimized circuit.
struct Result {
    int depth;
    std::size_t ands;
    std::uint64_t hash;
};

Result run(const Aig& input, int jobs, bool use_cache = true) {
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = jobs;
    engine.use_result_cache = use_cache;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    return {out.depth(), out.count_reachable_ands(), out.hash()};
}

TEST(Engine, JobsInvariantOnGeneratedAdders) {
    for (const int bits : {6, 10}) {
        const Aig rca = ripple_carry_adder(bits);
        const Result serial = run(rca, 1);
        const Result parallel4 = run(rca, 4);
        EXPECT_EQ(serial.depth, parallel4.depth) << bits;
        EXPECT_EQ(serial.ands, parallel4.ands) << bits;
        // Stronger than QoR equality: the committed structure is identical.
        EXPECT_EQ(serial.hash, parallel4.hash) << bits;
        EXPECT_LT(serial.depth, rca.depth()) << bits;
    }
}

TEST(Engine, JobsInvariantOnBlifRoundtrip) {
    BenchmarkProfile profile;
    profile.name = "engine_case";
    profile.num_pis = 12;
    profile.num_pos = 4;
    profile.chain_length = 9;
    profile.num_shared = 3;
    profile.seed = 11;
    const Aig circuit = synthetic_control_circuit(profile);

    // Through the BLIF reader, as a real input file would arrive.
    std::stringstream blif;
    write_blif(blif, circuit, "engine_case");
    const Aig parsed = read_blif(blif);

    const Result serial = run(parsed, 1);
    const Result parallel3 = run(parsed, 3);
    EXPECT_EQ(serial.depth, parallel3.depth);
    EXPECT_EQ(serial.ands, parallel3.ands);
    EXPECT_EQ(serial.hash, parallel3.hash);
}

TEST(Engine, ResultCacheDoesNotChangeQoR) {
    const Aig rca = ripple_carry_adder(7);
    const Result cached = run(rca, 2, /*use_cache=*/true);
    const Result uncached = run(rca, 2, /*use_cache=*/false);
    EXPECT_EQ(cached.depth, uncached.depth);
    EXPECT_EQ(cached.ands, uncached.ands);
    EXPECT_EQ(cached.hash, uncached.hash);
}

TEST(Engine, CacheHitCountersIncreaseOnRepeatedRuns) {
    const Aig rca = ripple_carry_adder(9);
    run(rca, 1);
    const CacheStatsSnapshot after_first = decomposition_cache_stats();
    run(rca, 1);
    const CacheStatsSnapshot after_second = decomposition_cache_stats();
    // The second run re-derives the same cones, so it must hit the memo.
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_GT(after_second.entries, 0u);
}

TEST(Engine, BatchMatchesIndividualRuns) {
    std::vector<BatchItem> items;
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca8", ripple_carry_adder(8)});

    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = 2;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(outcomes[i].name, items[i].name);
        EXPECT_TRUE(check_equivalence(items[i].input, outcomes[i].output, 2000000).equivalent);
        const Result individual = run(items[i].input, 1);
        EXPECT_EQ(outcomes[i].output.depth(), individual.depth) << items[i].name;
        EXPECT_EQ(outcomes[i].output.count_reachable_ands(), individual.ands) << items[i].name;
    }
}

/// A deliberately skewed batch: one circuit with many equally-critical
/// cones plus several small adders that finish quickly and free their
/// workers.
std::vector<BatchItem> skewed_batch() {
    BenchmarkProfile profile;
    profile.name = "skewed_big";
    profile.num_pis = 14;
    profile.num_pos = 8;
    profile.chain_length = 9;
    profile.num_shared = 3;
    profile.seed = 23;
    std::vector<BatchItem> items;
    items.push_back({"big", synthetic_control_circuit(profile)});
    items.push_back({"small0", ripple_carry_adder(4)});
    items.push_back({"small1", ripple_carry_adder(5)});
    items.push_back({"small2", ripple_carry_adder(6)});
    return items;
}

std::vector<std::string> batch_aigers(const std::vector<BatchItem>& items, int jobs) {
    // Cold caches every run: a warm memo would mask any schedule-dependence
    // this test exists to catch.
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 5;
    EngineOptions engine;
    engine.jobs = jobs;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    std::vector<std::string> aigers;
    for (const auto& outcome : outcomes) {
        EXPECT_FALSE(outcome.failed) << outcome.name;
        std::stringstream aag;
        write_aiger(aag, outcome.output);
        aigers.push_back(aag.str());
    }
    return aigers;
}

TEST(Engine, BatchIsByteIdenticalAcrossJobs) {
    // Full serialized bytes, not just QoR: the worker that runs an item
    // must never change what that item commits.
    const auto items = skewed_batch();
    const auto baseline = batch_aigers(items, 1);
    ASSERT_EQ(baseline.size(), items.size());
    for (const int jobs : {2, 4})
        EXPECT_EQ(batch_aigers(items, jobs), baseline) << "jobs=" << jobs;
}

TEST(Engine, OnCompleteNeverRunsConcurrently) {
    // Journal writers rely on the checkpoint hook never being entered
    // concurrently, even with every worker finishing items.
    const auto items = skewed_batch();
    LookaheadParams params;
    params.max_iterations = 5;
    EngineOptions engine;
    engine.jobs = 4;
    std::atomic<int> in_hook{0};
    std::vector<int> seen(items.size(), 0);
    const auto outcomes = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& outcome, std::size_t index) {
            EXPECT_EQ(in_hook.fetch_add(1), 0) << "on_complete entered concurrently";
            ASSERT_LT(index, seen.size());
            ++seen[index];
            EXPECT_EQ(outcome.name, items[index].name);
            in_hook.fetch_sub(1);
        });
    ASSERT_EQ(outcomes.size(), items.size());
    for (const int count : seen) EXPECT_EQ(count, 1);
}

/// Full byte-level fingerprint of a budgeted run: the serialized output AIG
/// plus the budget bookkeeping. "Bit-identical across --jobs" means exactly
/// this string being equal, not just depth/AND counts.
struct BudgetedResult {
    std::string aiger;
    std::uint64_t work_units;
    bool budget_exhausted;
};

BudgetedResult run_budgeted(const Aig& input, std::uint64_t work_budget, int jobs) {
    LookaheadParams params;
    params.max_iterations = 6;
    params.work_budget = work_budget;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    std::stringstream aag;
    write_aiger(aag, out);
    return {aag.str(), stats.work_units, stats.budget_exhausted};
}

TEST(Engine, BudgetedRunsAreJobsInvariant) {
    // Budgets chosen to exercise the interesting regimes: 1 (exhausted after
    // the very first round), a mid value (exhausted partway through the run),
    // and a huge value (never binds). Every jobs count must agree byte for
    // byte on the output AND on the work spent.
    const Aig rca = ripple_carry_adder(8);
    for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{100},
                                       std::uint64_t{1} << 62}) {
        const BudgetedResult serial = run_budgeted(rca, budget, 1);
        for (const int jobs : {2, 4}) {
            const BudgetedResult parallel = run_budgeted(rca, budget, jobs);
            EXPECT_EQ(serial.aiger, parallel.aiger) << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(serial.work_units, parallel.work_units)
                << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(serial.budget_exhausted, parallel.budget_exhausted)
                << "budget=" << budget << " jobs=" << jobs;
        }
    }
}

TEST(Engine, BudgetedRunsAreCacheStateInvariant) {
    // The memo must not alter a budgeted trajectory: a run that hits cached
    // cone evaluations has to charge exactly what a cold run would.
    const Aig circuit = ripple_carry_adder(7);
    clear_engine_caches();
    const BudgetedResult cold = run_budgeted(circuit, 60, 2);
    const BudgetedResult warm = run_budgeted(circuit, 60, 2);
    EXPECT_EQ(cold.aiger, warm.aiger);
    EXPECT_EQ(cold.work_units, warm.work_units);
    EXPECT_EQ(cold.budget_exhausted, warm.budget_exhausted);
}

TEST(Engine, BudgetSemantics) {
    const Aig rca = ripple_carry_adder(8);

    // budget=1 still commits one full round: rounds are atomic, exhaustion
    // gates the NEXT round. The run must report exhaustion and still improve
    // (or at least not worsen) the circuit.
    const BudgetedResult tiny = run_budgeted(rca, 1, 2);
    EXPECT_TRUE(tiny.budget_exhausted);
    EXPECT_GE(tiny.work_units, 1u);

    // A budget the run cannot spend is reported as not exhausted, and the
    // result matches the unbudgeted engine exactly.
    const BudgetedResult huge = run_budgeted(rca, std::uint64_t{1} << 62, 2);
    EXPECT_FALSE(huge.budget_exhausted);
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = 2;
    const Aig unbudgeted = optimize_timing_engine(rca, params, engine);
    std::stringstream aag;
    write_aiger(aag, unbudgeted);
    EXPECT_EQ(huge.aiger, aag.str());

    // A binding mid-size budget spends no more than allowed... plus at most
    // the final round's overshoot, and strictly less than the huge run.
    const BudgetedResult mid = run_budgeted(rca, 100, 2);
    EXPECT_TRUE(mid.budget_exhausted);
    EXPECT_LT(mid.work_units, huge.work_units);
}

// ---------------------------------------------------------------------------
// SAT don't-care proofs of secondary simplification

/// One engine run configured to exercise the SAT don't-care proofs of
/// secondary simplification: forcing random patterns makes every cone's
/// simulation non-exhaustive, so the unreached candidate minterms go to
/// per-cube SAT queries instead of being read off an exhaustive truth
/// table. Caches are cleared first — every run is cold unless the caller
/// re-runs itself.
BudgetedResult run_dc_proofs(const Aig& input, int jobs, std::uint64_t work_budget = 0) {
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 4;
    params.force_random_patterns = true;
    params.work_budget = work_budget;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    std::stringstream aag;
    write_aiger(aag, out);
    return {aag.str(), stats.work_units, stats.budget_exhausted};
}

TEST(Engine, DontCareProofRunsAreByteIdenticalAcrossJobs) {
    // Serialized output AND work spend must match the serial run byte for
    // byte at every jobs value, and the proofs must actually run.
    const Aig rca = ripple_carry_adder(8);
    Metrics& metrics = Metrics::global();
    const std::uint64_t queries_before = metrics.counter("engine.intracone.queries").value();
    const BudgetedResult baseline = run_dc_proofs(rca, 1);
    EXPECT_GT(metrics.counter("engine.intracone.queries").value(), queries_before);
    for (const int jobs : {2, 4}) {
        const BudgetedResult r = run_dc_proofs(rca, jobs);
        EXPECT_EQ(r.aiger, baseline.aiger) << "jobs=" << jobs;
        EXPECT_EQ(r.work_units, baseline.work_units) << "jobs=" << jobs;
    }
}

TEST(Engine, DontCareProofBudgetedRunsAreInvariantAcrossJobsAndCacheStates) {
    // The proof phase charges conflicts in task order, so exhaustion fires
    // after the same round regardless of jobs x cold/warm cache.
    const Aig rca = ripple_carry_adder(8);
    for (const std::uint64_t budget : {std::uint64_t{80}, std::uint64_t{1} << 62}) {
        const BudgetedResult baseline = run_dc_proofs(rca, 1, budget);
        for (const int jobs : {2, 4}) {
            const BudgetedResult r = run_dc_proofs(rca, jobs, budget);
            EXPECT_EQ(r.aiger, baseline.aiger) << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(r.work_units, baseline.work_units)
                << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(r.budget_exhausted, baseline.budget_exhausted)
                << "budget=" << budget << " jobs=" << jobs;
        }
        // Warm-cache replay: run_dc_proofs clears caches, so call the
        // engine again directly on the now-populated memo.
        LookaheadParams params;
        params.max_iterations = 4;
        params.force_random_patterns = true;
        params.work_budget = budget;
        EngineOptions engine;
        engine.jobs = 4;
        OptimizeStats stats;
        const Aig warm = optimize_timing_engine(rca, params, engine, &stats);
        std::stringstream aag;
        write_aiger(aag, warm);
        EXPECT_EQ(aag.str(), baseline.aiger) << "warm budget=" << budget;
        EXPECT_EQ(stats.work_units, baseline.work_units) << "warm budget=" << budget;
    }
}

// ---------------------------------------------------------------------------
// Fault containment & recovery (PR 3)

TEST(FaultPlan, GrammarRoundtrip) {
    const FaultPlan plan = FaultPlan::parse("resource@decompose:2,solver@sat,fatal@batch:1");
    EXPECT_EQ(plan.count_for("decompose"), 2);
    EXPECT_EQ(plan.count_for("sat"), 1);
    EXPECT_EQ(plan.count_for("cec"), 0);
    EXPECT_EQ(plan.fatal_count_for("batch"), 1);
    // engine_spec() strips fatal specs: they are CLI-level crash directives,
    // not engine faults, and must not perturb the params fingerprint.
    const std::string engine_spec = FaultPlan::parse(plan.engine_spec()).engine_spec();
    EXPECT_EQ(engine_spec, plan.engine_spec());
    EXPECT_EQ(engine_spec.find("fatal"), std::string::npos);
    EXPECT_EQ(FaultPlan::parse("fatal@batch:1").fingerprint(), FaultPlan().fingerprint());

    // "cancel" serializes as error_kind_name(Cancelled) = "cancelled"; the
    // canonical form must re-parse (the CLI round-trips every plan through
    // engine_spec()) and both spellings must fingerprint identically.
    const FaultPlan cancel_plan = FaultPlan::parse("cancel@decompose:1");
    EXPECT_EQ(FaultPlan::parse(cancel_plan.engine_spec()).engine_spec(),
              cancel_plan.engine_spec());
    EXPECT_EQ(FaultPlan::parse("cancelled@decompose:1").fingerprint(),
              cancel_plan.fingerprint());

    for (const char* bad : {"bogus@decompose", "resource", "resource@sat:x", "@sat"}) {
        try {
            FaultPlan::parse(bad);
            ADD_FAILURE() << "no throw for " << bad;
        } catch (const LlsError& e) {
            EXPECT_EQ(e.kind(), ErrorKind::ParseError) << bad;
        }
    }
}

OptimizeStats run_faulted(const Aig& input, const std::string& plan, int jobs, Aig* out_aig) {
    LookaheadParams params;
    params.max_iterations = 6;
    params.fault_plan = plan;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    *out_aig = optimize_timing_engine(input, params, engine, &stats);
    return stats;
}

TEST(Engine, FaultInjectionRecoversAtEverySiteClass) {
    // One plan per engine injection site, each with a distinct error kind.
    // Every run must complete, stay CEC-equivalent, and (for the sites the
    // small adder exercises on every cone) report contained fault records.
    const Aig rca = ripple_carry_adder(6);
    const struct {
        const char* plan;
        ErrorKind kind;
        bool always_hit;  // site reached for every cone on this input
    } cases[] = {
        {"resource@decompose:1", ErrorKind::ResourceExhausted, true},
        {"invariant@spcf:1", ErrorKind::InvariantViolation, true},
        {"solver@sat:1", ErrorKind::SolverLimit, false},
        {"verify@cec:1", ErrorKind::VerificationFailed, false},
    };
    for (const auto& c : cases) {
        Aig out;
        const OptimizeStats stats = run_faulted(rca, c.plan, 2, &out);
        EXPECT_TRUE(stats.verified) << c.plan;
        EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent) << c.plan;
        if (c.always_hit) {
            ASSERT_FALSE(stats.faults.empty()) << c.plan;
        }
        for (const FaultRecord& fault : stats.faults) {
            EXPECT_EQ(fault.kind, c.kind) << c.plan;
            EXPECT_TRUE(fault.recovered) << c.plan << " cone " << fault.cone;
            EXPECT_GE(fault.cone, 0) << c.plan;
            EXPECT_FALSE(fault.retries.empty()) << c.plan;
        }
    }
}

TEST(Engine, FaultInjectionIsJobsInvariant) {
    const Aig rca = ripple_carry_adder(7);
    const std::string plan = "resource@decompose:1,verify@cec:1";

    auto fingerprint = [&](int jobs) {
        Aig out;
        const OptimizeStats stats = run_faulted(rca, plan, jobs, &out);
        std::stringstream aag;
        write_aiger(aag, out);
        std::string fp = aag.str();
        // Fold the fault journal into the fingerprint: records must agree in
        // order, site, and outcome — not just in count.
        for (const FaultRecord& fault : stats.faults) {
            fp += "|" + std::string(error_kind_name(fault.kind)) + "@" + fault.stage + "#" +
                  std::to_string(fault.cone) + ":" + (fault.recovered ? "r" : "d");
        }
        return fp;
    };

    const std::string serial = fingerprint(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(4));
}

TEST(Engine, ExhaustedRetryLadderDegradesToOriginalCone) {
    // count=3 poisons every rung of the two-rung ladder: the cone must be
    // kept in its original form (degraded, recovered=false) and the overall
    // result must still verify — containment, not propagation.
    const Aig rca = ripple_carry_adder(6);
    Aig out;
    const OptimizeStats stats = run_faulted(rca, "resource@decompose:3", 2, &out);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    ASSERT_FALSE(stats.faults.empty());
    for (const FaultRecord& fault : stats.faults) {
        EXPECT_FALSE(fault.recovered);
        EXPECT_EQ(fault.retries.size(), 1u);  // the one escalation, poisoned too
    }
    // Nothing decomposed successfully; any depth gain came from the
    // conventional restructuring passes, not from lookahead commits.
    EXPECT_EQ(stats.outputs_decomposed, 0);
}

TEST(Engine, FaultedRunsAreCacheStateInvariant) {
    // Memo hits must replay fault records identically to cold evaluation.
    const Aig rca = ripple_carry_adder(6);
    clear_engine_caches();
    Aig cold_out, warm_out;
    const OptimizeStats cold = run_faulted(rca, "resource@decompose:1", 2, &cold_out);
    const OptimizeStats warm = run_faulted(rca, "resource@decompose:1", 2, &warm_out);
    EXPECT_EQ(cold_out.hash(), warm_out.hash());
    ASSERT_EQ(cold.faults.size(), warm.faults.size());
    for (std::size_t i = 0; i < cold.faults.size(); ++i) {
        EXPECT_EQ(cold.faults[i].cone, warm.faults[i].cone);
        EXPECT_EQ(cold.faults[i].stage, warm.faults[i].stage);
        EXPECT_EQ(cold.faults[i].recovered, warm.faults[i].recovered);
    }
}

TEST(Engine, FaultPlanDoesNotPerturbCleanRuns) {
    // An empty plan must leave the params fingerprint — and therefore the
    // RNG streams and memo keys — exactly as before PR 3.
    LookaheadParams params;
    params.max_iterations = 6;
    const std::uint64_t clean = lookahead_params_fingerprint(params);
    params.fault_plan = "";
    EXPECT_EQ(lookahead_params_fingerprint(params), clean);
    params.fault_plan = "resource@decompose:1";
    EXPECT_NE(lookahead_params_fingerprint(params), clean);
}

TEST(Engine, BatchItemFaultBoundary) {
    // A malformed fault plan makes every item's evaluation throw at parse
    // time; the batch must degrade each item to its (cleaned) input instead
    // of aborting, and report the failure on the outcome.
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    LookaheadParams params;
    params.max_iterations = 4;
    params.fault_plan = "not-a-plan";
    EngineOptions engine;
    engine.jobs = 2;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].failed) << outcomes[i].name;
        EXPECT_NE(outcomes[i].error.find("fault"), std::string::npos) << outcomes[i].error;
        EXPECT_FALSE(outcomes[i].stats.verified);
        EXPECT_EQ(outcomes[i].output.hash(), items[i].input.cleanup().hash());
    }
}

TEST(Engine, OnCompleteHookSeesEveryItemOnce) {
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca7", ripple_carry_adder(7)});
    LookaheadParams params;
    params.max_iterations = 4;
    EngineOptions engine;
    engine.jobs = 3;
    std::vector<int> seen(items.size(), 0);
    const auto outcomes = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& outcome, std::size_t index) {
            // The hook is mutex-serialized, so unsynchronized writes are safe.
            ASSERT_LT(index, seen.size());
            ++seen[index];
            EXPECT_EQ(outcome.name, items[index].name);
        });
    ASSERT_EQ(outcomes.size(), items.size());
    for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Checkpoint, JournalRoundtrip) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "lls_test_checkpoint.txt").string();
    std::remove(path.c_str());

    CheckpointEntry entry;
    entry.name = "rca8";
    entry.input_hash = 0xdeadbeefULL;
    entry.params_fingerprint = 0x1234ULL;
    entry.output_hash = checkpoint_bytes_hash("aag 1 2 3");
    entry.final_depth = 14;
    entry.final_ands = 493;
    entry.failed = false;
    {
        BatchCheckpoint journal(path);
        EXPECT_TRUE(journal.entries().empty());
        journal.append(entry);
    }
    {
        // Reload: the entry is found by its exact triple and nothing else.
        BatchCheckpoint journal(path);
        ASSERT_EQ(journal.entries().size(), 1u);
        const CheckpointEntry* found = journal.find("rca8", 0xdeadbeefULL, 0x1234ULL);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->output_hash, entry.output_hash);
        EXPECT_EQ(found->final_depth, 14);
        EXPECT_EQ(found->final_ands, 493u);
        // Stale entries (same name, different input or params) do not match.
        EXPECT_EQ(journal.find("rca8", 0xdeadbeefULL, 0x9999ULL), nullptr);
        EXPECT_EQ(journal.find("rca8", 0xbeefULL, 0x1234ULL), nullptr);
        EXPECT_EQ(journal.find("other", 0xdeadbeefULL, 0x1234ULL), nullptr);

        CheckpointEntry tabbed = entry;
        tabbed.name = "bad\tname";
        EXPECT_THROW(journal.append(tabbed), LlsError);
    }
    {
        // A non-journal file is rejected up front, not silently re-stamped.
        std::ofstream(path, std::ios::trunc) << "not a journal\n";
        try {
            BatchCheckpoint journal(path);
            ADD_FAILURE() << "no throw on bad magic";
        } catch (const LlsError& e) {
            EXPECT_EQ(e.kind(), ErrorKind::ParseError);
        }
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumedItemsMatchUninterruptedRun) {
    // The property that makes --resume byte-identical: each batch item's
    // output depends only on (input, params), never on which other items ran
    // alongside it. A "resumed" batch that re-runs only the tail must produce
    // the same bytes the full batch produced for those items.
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca7", ripple_carry_adder(7)});
    LookaheadParams params;
    params.max_iterations = 4;
    EngineOptions engine;
    engine.jobs = 4;  // more workers than the resumed batch has items

    auto aiger_of = [](const BatchOutcome& outcome) {
        std::stringstream aag;
        write_aiger(aag, outcome.output);
        return aag.str();
    };

    clear_engine_caches();
    const auto full = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(full.size(), 3u);

    // Simulate a crash after item 0 was journaled: the resumed run only
    // contains the remaining items, and recomputes them from cold caches.
    clear_engine_caches();
    std::vector<BatchItem> resumed_items = {items[1], items[2]};
    const auto resumed = optimize_timing_batch(resumed_items, params, engine);
    ASSERT_EQ(resumed.size(), 2u);
    EXPECT_EQ(aiger_of(resumed[0]), aiger_of(full[1]));
    EXPECT_EQ(aiger_of(resumed[1]), aiger_of(full[2]));
}

TEST(Engine, MetricsRecordRuns) {
    Metrics& metrics = Metrics::global();
    const std::uint64_t runs_before = metrics.counter("engine.runs").value();
    run(ripple_carry_adder(5), 2);
    EXPECT_GT(metrics.counter("engine.runs").value(), runs_before);
    EXPECT_GT(metrics.timer("engine.evaluate").samples(), 0u);
    const std::string json = metrics.to_json();
    EXPECT_NE(json.find("\"engine.runs\""), std::string::npos);
    EXPECT_NE(json.find("\"caches\""), std::string::npos);
}

// ---- cooperative cancellation ------------------------------------------

TEST(Engine, InjectedCancelDegradesConeWithFaultRecord) {
    // `cancel@decompose` exercises the cone-deadline path deterministically:
    // the cancelled cone must be kept original (recovered=false) with a
    // Cancelled fault record, the retry ladder must NOT escalate (retrying
    // a timed-out evaluation is how a runaway cone eats the whole budget),
    // and the run must stay equivalent.
    const Aig rca = ripple_carry_adder(6);
    clear_engine_caches();
    Aig out;
    const OptimizeStats stats = run_faulted(rca, "cancel@decompose:1", 2, &out);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    ASSERT_FALSE(stats.faults.empty());
    for (const FaultRecord& fault : stats.faults) {
        EXPECT_EQ(fault.kind, ErrorKind::Cancelled);
        EXPECT_FALSE(fault.recovered);
        EXPECT_TRUE(fault.retries.empty());  // ladder stops on cancellation
    }
    EXPECT_EQ(stats.deadline_cancelled, static_cast<int>(stats.faults.size()));
    EXPECT_FALSE(stats.cancelled);  // a cone cancellation is not a shutdown
    EXPECT_EQ(stats.outputs_decomposed, 0);
}

TEST(Engine, InjectedCancelIsJobsInvariant) {
    // Cancelled evaluations are never memoized (timing_dependent), so every
    // run recomputes them — and injection being a pure function of
    // (cone, params), the recompute replays identically across schedules.
    const Aig rca = ripple_carry_adder(7);
    auto fingerprint = [&](int jobs) {
        clear_engine_caches();
        Aig out;
        const OptimizeStats stats = run_faulted(rca, "cancel@decompose:1", jobs, &out);
        std::stringstream aag;
        write_aiger(aag, out);
        std::string fp = aag.str();
        for (const FaultRecord& fault : stats.faults)
            fp += "|" + std::string(error_kind_name(fault.kind)) + "@" + fault.stage + "#" +
                  std::to_string(fault.cone);
        return fp;
    };
    const std::string serial = fingerprint(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(4));
}

TEST(Engine, InjectedCancelIsCacheStateInvariant) {
    // Unlike plain faults (memoized and replayed from cache), cancelled
    // evaluations are recomputed on every run. Cold and warm runs must
    // still agree bit-for-bit, fault journal included.
    const Aig rca = ripple_carry_adder(6);
    clear_engine_caches();
    Aig cold_out, warm_out;
    const OptimizeStats cold = run_faulted(rca, "cancel@decompose:1", 2, &cold_out);
    const OptimizeStats warm = run_faulted(rca, "cancel@decompose:1", 2, &warm_out);
    EXPECT_EQ(cold_out.hash(), warm_out.hash());
    ASSERT_EQ(cold.faults.size(), warm.faults.size());
    EXPECT_EQ(cold.deadline_cancelled, warm.deadline_cancelled);
}

TEST(Engine, TinyConeDeadlineDegradesAndCounts) {
    // A deadline far below any real evaluation time cancels (essentially)
    // every cone: the run must complete, verify, count the cancellations in
    // stats and the engine.cancel.* metrics, and keep cancelled cones
    // original. This is the wall-clock path, so only the *containment* is
    // asserted, never which cones fired.
    const Aig rca = ripple_carry_adder(8);
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 4;
    params.cone_deadline_seconds = 1e-9;
    EngineOptions engine;
    engine.jobs = 2;
    const std::uint64_t cancels_before =
        Metrics::global().counter("engine.cancel.deadline_cancelled").value();
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(rca, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    EXPECT_GT(stats.deadline_cancelled, 0);
    ASSERT_FALSE(stats.faults.empty());
    for (const FaultRecord& fault : stats.faults) {
        EXPECT_EQ(fault.kind, ErrorKind::Cancelled);
        EXPECT_FALSE(fault.recovered);
    }
    EXPECT_GT(Metrics::global().counter("engine.cancel.deadline_cancelled").value(),
              cancels_before);
    clear_engine_caches();  // drop any entries computed alongside the cancellations
}

TEST(Engine, PreRequestedTokenReturnsInputWithCancelledFlag) {
    // A token requested before the run starts: the engine must dispatch
    // nothing and hand back the (cleaned) input with stats.cancelled set —
    // the single-circuit analogue of a batch item that never started.
    const Aig rca = ripple_carry_adder(6);
    CancelToken token;
    token.request();
    LookaheadParams params;
    params.max_iterations = 4;
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    const std::uint64_t stops_before =
        Metrics::global().counter("engine.cancel.shutdowns").value();
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(rca, params, engine, &stats);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.outputs_decomposed, 0);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    EXPECT_GT(Metrics::global().counter("engine.cancel.shutdowns").value(), stops_before);
}

TEST(Engine, BatchShutdownMarksItemsCancelledNotFailed) {
    // With the token already requested, every batch item must come back
    // cancelled (never failed), on_complete must still see each exactly
    // once, and outputs must be safe placeholders (the unmodified input).
    std::vector<BatchItem> items;
    items.push_back({"a", ripple_carry_adder(5)});
    items.push_back({"b", ripple_carry_adder(6)});
    items.push_back({"c", ripple_carry_adder(7)});
    CancelToken token;
    token.request();
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    LookaheadParams params;
    params.max_iterations = 4;
    std::atomic<int> completions{0};
    const auto outcomes = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& r, std::size_t) {
            ++completions;
            EXPECT_TRUE(r.cancelled);
        });
    ASSERT_EQ(outcomes.size(), items.size());
    EXPECT_EQ(completions.load(), static_cast<int>(items.size()));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].cancelled) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].failed) << outcomes[i].name;
        EXPECT_TRUE(check_equivalence(items[i].input, outcomes[i].output, 2000000).equivalent)
            << outcomes[i].name;
    }
}

TEST(Engine, MidBatchShutdownKeepsFinishedItemsByteIdentical) {
    // Request shutdown from on_complete after the first finished item: the
    // finished prefix must match an uninterrupted run byte-for-byte (what
    // --resume relies on), and the interrupted/never-started remainder must
    // be cancelled, not failed.
    const auto items = skewed_batch();
    LookaheadParams params;
    params.max_iterations = 6;

    auto aiger_of = [](const BatchOutcome& r) {
        std::stringstream aag;
        write_aiger(aag, r.output);
        return aag.str();
    };

    clear_engine_caches();
    EngineOptions full_engine;
    full_engine.jobs = 2;
    const auto full = optimize_timing_batch(items, params, full_engine);

    clear_engine_caches();
    CancelToken token;
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    std::atomic<int> finished{0};
    const auto interrupted = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& r, std::size_t) {
            if (!r.cancelled && ++finished == 1) token.request();
        });
    ASSERT_EQ(interrupted.size(), items.size());
    std::size_t completed = 0, cancelled = 0;
    for (std::size_t i = 0; i < interrupted.size(); ++i) {
        if (interrupted[i].cancelled) {
            ++cancelled;
            EXPECT_FALSE(interrupted[i].failed);
            continue;
        }
        ++completed;
        EXPECT_FALSE(interrupted[i].failed);
        // Finished-before-shutdown items are exactly the uninterrupted bytes.
        EXPECT_EQ(aiger_of(interrupted[i]), aiger_of(full[i])) << interrupted[i].name;
    }
    EXPECT_GE(completed, 1u);
    EXPECT_EQ(completed + cancelled, items.size());
}

// ---- memory governance (PR 10) -----------------------------------------

TEST(MemoryQuota, ChargesDeterministicallyAndThrowsAtTheLimit) {
    // Unlimited (limit 0): charges accumulate and nothing ever throws.
    MemoryQuota unlimited;
    unlimited.charge(std::uint64_t{8} << 30);
    EXPECT_EQ(unlimited.charged(), std::uint64_t{8} << 30);

    MemoryQuota quota(1000);
    quota.charge(600);
    EXPECT_EQ(quota.charged(), 600u);
    quota.charge(400);  // exactly at the limit: not over, no throw
    EXPECT_EQ(quota.charged(), 1000u);
    try {
        quota.charge(1);
        ADD_FAILURE() << "no throw past the limit";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::ResourceExhausted);
        EXPECT_EQ(e.stage(), kMemgovStage);
    }
    // The charge that tripped the quota is recorded before the throw, so
    // the total stays an exact function of the charge stream.
    EXPECT_EQ(quota.charged(), 1001u);
}

TEST(MemoryGovernor, ChargedTotalIsMonotonicAndBudgetIsRejected) {
    // Positive deltas accumulate; negative deltas (arena shrinkage) leave
    // the total where it is.
    MemoryGovernor accountant(0);
    accountant.charge(std::int64_t{8} << 20);
    EXPECT_EQ(accountant.charged_total(), std::uint64_t{8} << 20);
    accountant.charge(-(std::int64_t{8} << 20));
    EXPECT_EQ(accountant.charged_total(), std::uint64_t{8} << 20);
    accountant.charge(512);
    EXPECT_EQ(accountant.charged_total(), (std::uint64_t{8} << 20) + 512);
    // There is no process-wide budget: a nonzero one is a caller error.
    EXPECT_THROW(MemoryGovernor(std::uint64_t{64} << 20), ContractViolation);
}

TEST(Engine, ConeQuotaKeysTheMemoFingerprint) {
    // A nonzero quota changes results (degraded cones keep their original
    // structure), so it must key the memo; zero must add nothing, keeping
    // every pre-PR-10 fingerprint — and so every RNG stream — intact.
    LookaheadParams params;
    params.max_iterations = 6;
    const std::uint64_t clean = lookahead_params_fingerprint(params);
    params.cone_mem_bytes = 0;
    EXPECT_EQ(lookahead_params_fingerprint(params), clean);
    params.cone_mem_bytes = std::uint64_t{4} << 20;
    const std::uint64_t bounded = lookahead_params_fingerprint(params);
    EXPECT_NE(bounded, clean);
    params.cone_mem_bytes = std::uint64_t{8} << 20;
    EXPECT_NE(lookahead_params_fingerprint(params), bounded);
}

OptimizeStats run_quota(const Aig& input, int jobs, std::uint64_t cone_mem, Aig* out_aig) {
    LookaheadParams params;
    params.max_iterations = 6;
    params.cone_mem_bytes = cone_mem;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    *out_aig = optimize_timing_engine(input, params, engine, &stats);
    return stats;
}

/// A quota tight enough to trip on the deeper cones of a small ripple
/// adder but loose enough that the run still commits work elsewhere.
constexpr std::uint64_t kTestConeQuota = std::uint64_t{24} << 10;

TEST(Engine, ConeQuotaDegradesByteIdenticallyAcrossSchedules) {
    // The Tier-1 charge stream is a pure function of (cone, params): which
    // cones exhaust the quota — and the resulting output bytes and fault
    // journal — must be identical across jobs and cache state.
    const Aig rca = ripple_carry_adder(7);
    const std::uint64_t degrades_before =
        Metrics::global().counter("engine.mem.quota_degrades").value();

    auto fingerprint = [&](int jobs, bool cold) {
        if (cold) clear_engine_caches();
        Aig out;
        const OptimizeStats stats = run_quota(rca, jobs, kTestConeQuota, &out);
        EXPECT_TRUE(stats.verified);
        EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
        EXPECT_GT(stats.quota_degraded, 0);
        int memgov_records = 0;
        for (const FaultRecord& fault : stats.faults) {
            if (fault.stage != kMemgovStage) continue;
            ++memgov_records;
            EXPECT_EQ(fault.kind, ErrorKind::ResourceExhausted);
            // Exhaustion ends the retry ladder: escalated rungs only grow
            // the footprint, so the cone degrades at the first rung and can
            // never be reported recovered.
            EXPECT_FALSE(fault.recovered);
            EXPECT_TRUE(fault.retries.empty());
        }
        EXPECT_EQ(memgov_records, stats.quota_degraded);
        std::stringstream aag;
        write_aiger(aag, out);
        std::string fp = aag.str();
        for (const FaultRecord& fault : stats.faults)
            fp += "|" + std::string(error_kind_name(fault.kind)) + "@" + fault.stage + "#" +
                  std::to_string(fault.cone) + ":" + (fault.recovered ? "r" : "d");
        return fp;
    };

    const std::string baseline = fingerprint(1, /*cold=*/true);
    EXPECT_FALSE(baseline.empty());
    for (const int jobs : {2, 4})
        EXPECT_EQ(fingerprint(jobs, /*cold=*/true), baseline) << "jobs=" << jobs;
    // Warm: quota degradation memoizes like any deterministic fault, so a
    // cache hit must replay the same bytes and the same journal.
    EXPECT_EQ(fingerprint(2, /*cold=*/false), baseline);
    EXPECT_GT(Metrics::global().counter("engine.mem.quota_degrades").value(), degrades_before);
    clear_engine_caches();  // drop the quota-keyed entries
}

TEST(Engine, InjectedOomIsContainedAndMapsToResourceExhausted) {
    // `oom@...` throws a raw std::bad_alloc at the site — the containment
    // path must classify it ResourceExhausted, recover through the retry
    // ladder like any resource fault, and stay jobs-invariant.
    const FaultPlan plan = FaultPlan::parse("oom@decompose:1");
    EXPECT_EQ(FaultPlan::parse(plan.engine_spec()).engine_spec(), plan.engine_spec());
    // Same ErrorKind, different injection: the fingerprints must not
    // collide, or an oom plan could replay a resource plan's memo entries.
    EXPECT_NE(plan.fingerprint(), FaultPlan::parse("resource@decompose:1").fingerprint());

    const Aig rca = ripple_carry_adder(6);
    auto fingerprint = [&](int jobs) {
        Aig out;
        const OptimizeStats stats = run_faulted(rca, "oom@decompose:1", jobs, &out);
        EXPECT_TRUE(stats.verified);
        EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
        EXPECT_FALSE(stats.faults.empty());
        for (const FaultRecord& fault : stats.faults) {
            EXPECT_EQ(fault.kind, ErrorKind::ResourceExhausted);
            EXPECT_TRUE(fault.recovered);
        }
        std::stringstream aag;
        write_aiger(aag, out);
        return aag.str();
    };
    const std::string serial = fingerprint(1);
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(4));
}

TEST(Engine, BatchRunLevelOomFailsItemsWithoutTearingDownTheBatch) {
    // `oom@run` fires at run entry, before any per-cone boundary exists —
    // the batch item boundary must degrade each item to its (cleaned)
    // input, exactly like any other item-level failure.
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    LookaheadParams params;
    params.max_iterations = 4;
    params.fault_plan = "oom@run:1";
    EngineOptions engine;
    engine.jobs = 2;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].failed) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].cancelled) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].error.empty()) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].stats.verified);
        EXPECT_EQ(outcomes[i].output.hash(), items[i].input.cleanup().hash());
    }
}

TEST(Engine, SolverArenaBytesReachTheAccountantAndMetric) {
    // Solver arenas report in 256 KiB chunks (about 5,500 literals). SAT
    // queries load only the cones they reach, so rca16's solvers all stay
    // below one chunk; rca32's cross it. The total must reach both the
    // accountant and the `engine.mem.charged_bytes` metric, which the
    // benchmark reads.
    const Aig rca = ripple_carry_adder(32);
    clear_engine_caches();
    const std::uint64_t charged_before =
        Metrics::global().counter("engine.mem.charged_bytes").value();
    MemoryGovernor governor(0);
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = 2;
    engine.governor = &governor;
    OptimizeStats stats;
    optimize_timing_engine(rca, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_GT(governor.charged_total(), 0u);
    EXPECT_GT(Metrics::global().counter("engine.mem.charged_bytes").value(), charged_before);
}

}  // namespace
}  // namespace lls
