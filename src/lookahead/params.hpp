#pragma once

#include <cstdint>
#include <string>

namespace lls {

/// Knobs of the lookahead synthesis flow. The defaults reproduce the
/// paper's configuration; several switches exist purely for the ablation
/// benchmarks documented in DESIGN.md.
struct LookaheadParams {
    // Clustering (AIG -> technology-independent network, the "renode" step).
    int cut_size = 5;
    int max_cuts = 8;

    /// Run conventional delay-oriented restructuring (balance + cut-based
    /// resynthesis) before and between decomposition rounds. The paper's
    /// technique "complements existing logic optimization algorithms" and
    /// was implemented inside ABC on top of its scripts; this switch
    /// reproduces that setting (and is an ablation knob).
    bool baseline_preoptimize = true;

    // Simulation-based SPCF / cube weights.
    std::size_t num_random_patterns = 1024;
    /// Ablation: use random patterns even when the PI count permits
    /// exhaustive (exact) simulation, exercising the sampled-SPCF +
    /// SAT-verified-don't-care path on small circuits.
    bool force_random_patterns = false;
    std::uint64_t seed = 1;
    /// SPCF threshold slack: SPCF collects patterns with sensitized arrival
    /// >= (max_arrival - spcf_slack); 0 = strictly critical paths.
    std::int32_t spcf_slack = 0;

    // SAT budgets.
    std::int64_t sat_conflict_limit = 2000;

    /// Use the implication-rule library when reconstructing
    /// y = S*y0 + !S*y1 (ablation switch; the paper's Sec. 3.1
    /// "Reconstructing y").
    bool use_implication_rules = true;

    /// Run the secondary simplification (ablation switch; without it y1
    /// stays the original function).
    bool secondary_simplification = true;

    /// Run SAT sweeping as area recovery after each reconstruction.
    bool area_recovery = true;

    /// Outer loop bound: each iteration adds one level of lookahead
    /// decomposition (Sigma_1, Sigma_2, ... in the paper's notation).
    int max_iterations = 10;

    /// Verify every accepted iteration against the previous circuit by CEC.
    bool verify_each_iteration = true;

    /// Deterministic work budget for the whole optimization (0 = none),
    /// counted in work units (common/budget.hpp): decomposition attempts
    /// plus SAT conflicts. Exhaustion is a pure function of work performed
    /// — not of wall time — so budgeted runs stay bit-identical across
    /// `--jobs` values, machines, and cache states. Once the accumulated
    /// charge reaches the budget, no further decomposition rounds start;
    /// the best verified circuit found so far is returned.
    std::uint64_t work_budget = 0;

    /// Per-cone wall-clock watchdog in seconds (0 = off). Each cone
    /// evaluation arms a Deadline (common/cancel.hpp) when it starts; an
    /// evaluation that outlives it is cancelled at its next poll and the
    /// cone degrades to its original form with a FaultRecord{Cancelled} —
    /// the same containment as an injected fault. Unlike `work_budget`
    /// this is inherently nondeterministic: fired watchdogs flag the run
    /// timing-dependent (`OptimizeStats::deadline_cancelled` /
    /// `engine.cancel.deadline_cancelled` in --metrics), and
    /// deadline-cancelled evaluations are never memoized or persisted so
    /// they cannot poison byte-identity of later runs. Deliberately NOT
    /// part of the params fingerprint: a cone that completes under a
    /// deadline computes exactly what it computes without one.
    double cone_deadline_seconds = 0.0;

    /// Deterministic per-cone memory quota in bytes (0 = none). Each
    /// retry-ladder rung of a cone evaluation charges its SAT clause/watch
    /// arenas and decomposition scratch against a fresh quota at fixed
    /// program points, with allocation-count-derived byte costs
    /// (common/memgov.hpp) — never malloc-observed sizes — so exceeding the
    /// quota raises LlsError{ResourceExhausted, "memgov"} at identical
    /// points whatever the job count or cache state. A memgov fault ends
    /// the ladder immediately (escalated rungs only grow the footprint)
    /// and the cone degrades to its original structure with a FaultRecord,
    /// which memoizes and persists like any other deterministic fault.
    /// Unlike `cone_deadline_seconds`, a nonzero quota IS part of the
    /// params fingerprint: it changes what evaluations compute.
    std::uint64_t cone_mem_bytes = 0;

    /// Deterministic fault-injection plan, `kind@site[:count]` specs
    /// separated by commas (common/fault.hpp; empty = inject nothing).
    /// Each spec fires a synthetic LlsError of `kind` whenever a cone
    /// evaluation reaches `site` ("decompose", "spcf", "sat", "cec") on
    /// retry-ladder rungs 0..count-1, so every recovery path is
    /// exercisable with a reproducible schedule. A non-empty plan is mixed
    /// into the params fingerprint (memo keys + per-cone RNG seeds);
    /// injected runs therefore stay bit-identical across `--jobs` values
    /// and cache states, and a run with an empty plan is untouched.
    std::string fault_plan;
};

}  // namespace lls
