#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace lls {
struct RunContext;
}

namespace lls::sat {

/// A SAT literal: variable index with sign. Encoded as 2*var + (negated).
struct Lit {
    int value = -1;

    Lit() = default;
    Lit(int var, bool negated) : value(2 * var + (negated ? 1 : 0)) { LLS_DCHECK(var >= 0); }

    int var() const { return value >> 1; }
    bool negated() const { return value & 1; }
    Lit operator!() const {
        Lit l;
        l.value = value ^ 1;
        return l;
    }
    bool operator==(const Lit& other) const = default;
};

enum class Status { Sat, Unsat, Unknown };

/// A self-contained CDCL SAT solver: two-literal watching, VSIDS branching,
/// first-UIP clause learning, phase saving, and Luby restarts. It is the
/// decision engine behind the combinational equivalence checks and SAT
/// sweeping used by the synthesis flow.
class Solver {
public:
    Solver() = default;

    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    /// Creates a fresh variable and returns its index.
    int new_var();

    int num_vars() const { return static_cast<int>(assign_.size()); }

    /// Adds the clause `lits[0..n)` (empty clause makes the instance
    /// trivially UNSAT). Returns false if the solver is already known to be
    /// UNSAT. The literals are normalized in a reused buffer, so adding a
    /// clause allocates only when the arena or a watch list grows.
    bool add_clause(const Lit* lits, std::size_t n);

    bool add_clause(const std::vector<Lit>& lits) { return add_clause(lits.data(), lits.size()); }
    bool add_clause(Lit a) { return add_clause(&a, 1); }
    bool add_clause(Lit a, Lit b) {
        const Lit lits[] = {a, b};
        return add_clause(lits, 2);
    }
    bool add_clause(Lit a, Lit b, Lit c) {
        const Lit lits[] = {a, b, c};
        return add_clause(lits, 3);
    }

    /// Solves under the given assumptions. `conflict_limit` < 0 means no
    /// limit; when the limit is hit, returns Status::Unknown. Every answer
    /// returns at decision level 0, so `add_clause` may follow any solve.
    Status solve(const std::vector<Lit>& assumptions = {}, std::int64_t conflict_limit = -1);

    /// Model value of a variable after a Sat answer.
    bool model_value(int var) const {
        LLS_REQUIRE(var >= 0 && var < num_vars());
        return model_[var] == 1;
    }

    std::int64_t num_conflicts() const { return conflicts_; }
    std::int64_t num_decisions() const { return decisions_; }
    std::int64_t num_propagations() const { return propagations_; }

    /// Allocation guard: total literals stored across problem and learned
    /// clauses. Growing past the ceiling throws LlsError{ResourceExhausted}
    /// (from add_clause or solve) instead of letting a runaway instance
    /// OOM-kill the process; the solver itself stays usable — the exception
    /// surfaces before the offending clause is stored. The default is
    /// generous (hundreds of MB); tests shrink it to exercise recovery.
    void set_literal_limit(std::size_t limit) {
        LLS_REQUIRE(limit <= UINT32_MAX);
        literal_limit_ = limit;
    }
    std::size_t literal_limit() const { return literal_limit_; }
    std::size_t num_literals() const { return arena_.size(); }

    /// Binds the run's cancellation context (common/run_context.hpp): the
    /// decide loop then polls the context's token every iteration and its
    /// deadline every kCancelPollPeriod iterations, in addition to the
    /// thread-local scope poll. This is what keeps a solver responsive
    /// when its query was fanned out to a pool worker whose thread-local
    /// scope belongs to someone else. Not owned; must outlive every solve.
    void bind_run_context(const RunContext* ctx) {
        run_context_ = ctx;
        context_poll_countdown_ = 0;
    }

private:
    static constexpr int kUndef = -1;

    /// A clause is a header over `arena_[begin, begin + size)`. Clauses
    /// are appended in creation order and only `reduce_learned` removes
    /// them, compacting the arena, so the arena holds exactly the live
    /// literals — at most `literal_limit_`, which fits 32-bit offsets.
    struct Clause {
        std::uint32_t begin = 0;
        std::uint32_t size = 0;
        bool learned = false;
        double activity = 0.0;
    };

    struct Watcher {
        int clause = -1;
        Lit blocker;
    };

    // value: 0 = false, 1 = true, -1 = unassigned (per variable).
    int lit_value(Lit l) const {
        const int v = assign_[l.var()];
        if (v == kUndef) return kUndef;
        return v ^ (l.negated() ? 1 : 0);
    }

    void enqueue(Lit l, int reason);
    Lit* clause_lits(int ci) { return arena_.data() + clauses_[ci].begin; }
    /// Appends `lits` to the arena as a new clause and attaches it; returns
    /// its index. The caller has charged the literals.
    int store_clause(const Lit* lits, std::size_t n, bool learned, double activity);
    int propagate();  // returns conflicting clause index or -1
    /// First-UIP analysis of `confl` into `learned_`; returns the level to
    /// backtrack to.
    int analyze(int confl);
    void backtrack(int level);
    /// The CDCL loop behind `solve`; may return above level 0.
    Status search(const std::vector<Lit>& assumptions, std::int64_t conflict_limit);
    Lit pick_branch();
    /// Decision order: higher activity first, ties to the lower index.
    bool branches_before(int a, int b) const {
        return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
    }
    void order_insert(int var);
    void order_pop();
    void order_sift_up(std::size_t pos);
    void order_sift_down(std::size_t pos);
    void bump_var(int var);
    void bump_clause(int ci);
    void decay_activities();
    void reduce_learned();
    void attach_clause(int ci);
    void charge_literals(std::size_t count);
    /// Reconciles the bound governor with the live literal count, in
    /// chunks, so short-lived solvers never touch the shared atomic.
    void sync_governor_accounting();
    static std::int64_t luby(std::int64_t i);

    std::vector<Clause> clauses_;
    std::vector<Lit> arena_;                     // literals of every clause
    std::vector<std::vector<Watcher>> watches_;  // indexed by literal value
    std::vector<int> assign_;                    // per var: 0/1/kUndef
    std::vector<int> level_;                     // decision level per var
    std::vector<int> reason_;                    // clause index or -1
    std::vector<char> phase_;                    // saved phase per var
    std::vector<double> activity_;
    // Binary heap of branching candidates under branches_before(). Every
    // unassigned variable is in it; assigned ones leave lazily when they
    // reach the top in pick_branch() and return on backtrack.
    std::vector<int> order_heap_;
    std::vector<int> order_pos_;  // per var: index in order_heap_, or -1
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::vector<char> seen_;
    std::vector<char> model_;
    std::vector<Lit> add_buf_;        // add_clause normalization
    std::vector<Lit> learned_;        // analyze's learned clause
    std::vector<Lit> minimized_buf_;  // analyze's minimization pass
    std::size_t qhead_ = 0;
    std::size_t literal_limit_ = std::size_t{1} << 27;  // ~128M lits = 512 MB
    double var_inc_ = 1.0;
    double clause_inc_ = 1.0;
    bool unsat_ = false;

    std::int64_t conflicts_ = 0;
    std::int64_t decisions_ = 0;
    std::int64_t propagations_ = 0;

    const lls::RunContext* run_context_ = nullptr;
    unsigned context_poll_countdown_ = 0;  // amortizes the context's clock read
    std::int64_t governor_charged_ = 0;    // bytes reported to the byte accountant
};

}  // namespace lls::sat
