#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/memgov.hpp"
#include "common/run_context.hpp"

namespace lls::sat {

namespace {
/// Accounting granularity: the governor's atomic is touched only when
/// the live byte estimate drifts this far from what was reported.
constexpr std::int64_t kGovernorChunkBytes = 256 << 10;
}  // namespace

void Solver::sync_governor_accounting() {
    if (run_context_ == nullptr || run_context_->governor == nullptr) return;
    const std::int64_t live = static_cast<std::int64_t>(arena_.size()) *
                              static_cast<std::int64_t>(memcost::kSatLiteralBytes);
    const std::int64_t delta = live - governor_charged_;
    if (delta >= kGovernorChunkBytes || delta <= -kGovernorChunkBytes) {
        run_context_->governor->charge(delta);
        governor_charged_ = live;
    }
}

void Solver::charge_literals(std::size_t count) {
    if (arena_.size() + count > literal_limit_)
        throw LlsError(ErrorKind::ResourceExhausted,
                       "SAT literal limit exceeded (" + std::to_string(literal_limit_) +
                           " literals)",
                       "sat");
    // Deterministic per-cone quota: clause/watch arena bytes, charged from
    // the literal count — the same allocation-count accounting the literal
    // limit itself uses. May throw LlsError{ResourceExhausted, "memgov"};
    // nothing was stored yet, so the solver stays usable.
    if (run_context_ != nullptr)
        run_context_->charge_memory(count * memcost::kSatLiteralBytes);
}

int Solver::new_var() {
    const int v = num_vars();
    assign_.push_back(kUndef);
    level_.push_back(0);
    reason_.push_back(-1);
    phase_.push_back(0);
    activity_.push_back(0.0);
    order_pos_.push_back(-1);
    order_insert(v);
    seen_.push_back(0);
    model_.push_back(0);
    watches_.resize(2 * assign_.size());
    return v;
}

bool Solver::add_clause(const Lit* lits, std::size_t n) {
    LLS_REQUIRE(trail_lim_.empty() && "clauses must be added at decision level 0");
    if (unsat_) return false;

    // Normalize: sort, remove duplicates, detect tautologies and falsified
    // literals (at level 0).
    add_buf_.assign(lits, lits + n);
    std::sort(add_buf_.begin(), add_buf_.end(),
              [](Lit a, Lit b) { return a.value < b.value; });
    std::size_t kept = 0;  // kept literals are compacted to the front
    Lit prev{};
    for (std::size_t i = 0; i < add_buf_.size(); ++i) {
        const Lit l = add_buf_[i];
        LLS_REQUIRE(l.var() < num_vars());
        if (i > 0 && l == prev) continue;
        if (i > 0 && l == !prev) return true;  // tautology
        prev = l;
        const int v = lit_value(l);
        if (v == 1) return true;  // already satisfied at level 0
        if (v == 0) continue;     // falsified at level 0, drop
        add_buf_[kept++] = l;
    }

    if (kept == 0) {
        unsat_ = true;
        return false;
    }
    if (kept == 1) {
        enqueue(add_buf_[0], -1);
        if (propagate() != -1) {
            unsat_ = true;
            return false;
        }
        return true;
    }

    charge_literals(kept);
    store_clause(add_buf_.data(), kept, false, 0.0);
    return true;
}

int Solver::store_clause(const Lit* lits, std::size_t n, bool learned, double activity) {
    const int ci = static_cast<int>(clauses_.size());
    clauses_.push_back(Clause{static_cast<std::uint32_t>(arena_.size()),
                              static_cast<std::uint32_t>(n), learned, activity});
    arena_.insert(arena_.end(), lits, lits + n);
    sync_governor_accounting();
    attach_clause(ci);
    return ci;
}

void Solver::attach_clause(int ci) {
    const Lit* c = clause_lits(ci);
    LLS_DCHECK(clauses_[ci].size >= 2);
    watches_[(!c[0]).value].push_back(Watcher{ci, c[1]});
    watches_[(!c[1]).value].push_back(Watcher{ci, c[0]});
}

void Solver::enqueue(Lit l, int reason) {
    LLS_DCHECK(lit_value(l) == kUndef);
    assign_[l.var()] = l.negated() ? 0 : 1;
    level_[l.var()] = static_cast<int>(trail_lim_.size());
    reason_[l.var()] = reason;
    phase_[l.var()] = static_cast<char>(l.negated() ? 0 : 1);
    trail_.push_back(l);
}

int Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++propagations_;
        auto& ws = watches_[p.value];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const Watcher w = ws[i];
            if (lit_value(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            Lit* lits = clause_lits(w.clause);
            const std::size_t size = clauses_[w.clause].size;
            // Make sure the falsified literal is lits[1].
            const Lit false_lit = !p;
            if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
            LLS_DCHECK(lits[1] == false_lit);
            if (lit_value(lits[0]) == 1) {
                ws[keep++] = Watcher{w.clause, lits[0]};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (std::size_t k = 2; k < size; ++k) {
                if (lit_value(lits[k]) != 0) {
                    std::swap(lits[1], lits[k]);
                    watches_[(!lits[1]).value].push_back(Watcher{w.clause, lits[0]});
                    found = true;
                    break;
                }
            }
            if (found) continue;
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{w.clause, lits[0]};
            if (lit_value(lits[0]) == 0) {
                // Conflict: restore remaining watchers and report.
                for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
                ws.resize(keep);
                qhead_ = trail_.size();
                return w.clause;
            }
            enqueue(lits[0], w.clause);
        }
        ws.resize(keep);
    }
    return -1;
}

void Solver::bump_var(int var) {
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
        // Scaling can round distinct activities to equal ones, whose order
        // then falls to the index tie-break: re-heapify everything.
        for (std::size_t i = order_heap_.size() / 2; i-- > 0;) order_sift_down(i);
    } else if (order_pos_[var] >= 0) {
        order_sift_up(static_cast<std::size_t>(order_pos_[var]));
    }
}

void Solver::bump_clause(int ci) {
    auto& c = clauses_[ci];
    if (!c.learned) return;
    c.activity += clause_inc_;
    if (c.activity > 1e20) {
        for (auto& cl : clauses_)
            if (cl.learned) cl.activity *= 1e-20;
        clause_inc_ *= 1e-20;
    }
}

void Solver::decay_activities() {
    var_inc_ /= 0.95;
    clause_inc_ /= 0.999;
}

int Solver::analyze(int confl) {
    learned_.clear();
    learned_.push_back(Lit{});  // slot for the asserting literal
    int counter = 0;
    Lit p{};
    std::size_t index = trail_.size();
    const int current_level = static_cast<int>(trail_lim_.size());

    do {
        LLS_DCHECK(confl != -1);
        bump_clause(confl);
        const Lit* lits = clause_lits(confl);
        const std::size_t size = clauses_[confl].size;
        // Skip lits[0] on the first iteration only when it is the conflict
        // clause (all literals false); afterwards lits[0] == p.
        for (std::size_t i = (p.value == -1 ? 0 : 1); i < size; ++i) {
            const Lit q = lits[i];
            if (seen_[q.var()] || level_[q.var()] == 0) continue;
            seen_[q.var()] = 1;
            bump_var(q.var());
            if (level_[q.var()] == current_level)
                ++counter;
            else
                learned_.push_back(q);
        }
        // Find the next literal on the trail that is marked.
        while (!seen_[trail_[index - 1].var()]) --index;
        p = trail_[index - 1];
        --index;
        confl = reason_[p.var()];
        seen_[p.var()] = 0;
        --counter;
    } while (counter > 0);
    learned_[0] = !p;

    // Simple self-subsumption minimization: drop literals whose reason
    // clause is entirely covered by the learned clause.
    minimized_buf_.clear();
    minimized_buf_.push_back(learned_[0]);
    for (std::size_t i = 1; i < learned_.size(); ++i) {
        const Lit q = learned_[i];
        const int r = reason_[q.var()];
        bool redundant = false;
        if (r != -1) {
            redundant = true;
            const Lit* reason = clause_lits(r);
            for (std::size_t k = 0; k < clauses_[r].size; ++k) {
                const Lit x = reason[k];
                if (x == !q) continue;
                if (level_[x.var()] == 0) continue;
                if (!seen_[x.var()]) {
                    redundant = false;
                    break;
                }
            }
        }
        if (!redundant) minimized_buf_.push_back(q);
    }
    for (std::size_t i = 1; i < learned_.size(); ++i) seen_[learned_[i].var()] = 0;
    learned_.swap(minimized_buf_);

    // Backtrack level = second highest level in the clause.
    if (learned_.size() == 1) return 0;
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learned_.size(); ++i)
        if (level_[learned_[i].var()] > level_[learned_[max_i].var()]) max_i = i;
    std::swap(learned_[1], learned_[max_i]);
    return level_[learned_[1].var()];
}

void Solver::backtrack(int level) {
    if (static_cast<int>(trail_lim_.size()) <= level) return;
    const std::size_t bound = static_cast<std::size_t>(trail_lim_[level]);
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const int v = trail_[i - 1].var();
        assign_[v] = kUndef;
        reason_[v] = -1;
        order_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(level));
    qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
    while (!order_heap_.empty()) {
        const int v = order_heap_[0];
        if (assign_[v] == kUndef) return Lit(v, phase_[v] == 0);
        order_pop();
    }
    return Lit{};
}

void Solver::order_insert(int var) {
    if (order_pos_[var] >= 0) return;
    order_pos_[var] = static_cast<int>(order_heap_.size());
    order_heap_.push_back(var);
    order_sift_up(order_heap_.size() - 1);
}

void Solver::order_pop() {
    order_pos_[order_heap_[0]] = -1;
    const int last = order_heap_.back();
    order_heap_.pop_back();
    if (order_heap_.empty()) return;
    order_heap_[0] = last;
    order_sift_down(0);
}

void Solver::order_sift_up(std::size_t pos) {
    const int var = order_heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!branches_before(var, order_heap_[parent])) break;
        order_heap_[pos] = order_heap_[parent];
        order_pos_[order_heap_[pos]] = static_cast<int>(pos);
        pos = parent;
    }
    order_heap_[pos] = var;
    order_pos_[var] = static_cast<int>(pos);
}

void Solver::order_sift_down(std::size_t pos) {
    const int var = order_heap_[pos];
    const std::size_t n = order_heap_.size();
    while (2 * pos + 1 < n) {
        std::size_t child = 2 * pos + 1;
        if (child + 1 < n && branches_before(order_heap_[child + 1], order_heap_[child])) ++child;
        if (!branches_before(order_heap_[child], var)) break;
        order_heap_[pos] = order_heap_[child];
        order_pos_[order_heap_[pos]] = static_cast<int>(pos);
        pos = child;
    }
    order_heap_[pos] = var;
    order_pos_[var] = static_cast<int>(pos);
}

std::int64_t Solver::luby(std::int64_t i) {
    // Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,...
    std::int64_t k = 1;
    while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
    while ((std::int64_t{1} << (k - 1)) - 1 != i) {
        i = i - ((std::int64_t{1} << (k - 1)) - 1);
        k = 1;
        while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
    }
    return std::int64_t{1} << (k - 1);
}

void Solver::reduce_learned() {
    // Remove the least active half of the learned clauses that are not
    // reasons for current assignments. Rebuild the watch lists afterwards.
    std::vector<int> learned_idx;
    for (int i = 0; i < static_cast<int>(clauses_.size()); ++i)
        if (clauses_[i].learned) learned_idx.push_back(i);
    if (learned_idx.size() < 2000) return;

    std::sort(learned_idx.begin(), learned_idx.end(),
              [&](int a, int b) { return clauses_[a].activity < clauses_[b].activity; });
    std::vector<char> drop(clauses_.size(), 0);
    std::vector<char> is_reason(clauses_.size(), 0);
    for (int v = 0; v < num_vars(); ++v)
        if (assign_[v] != kUndef && reason_[v] != -1) is_reason[reason_[v]] = 1;
    for (std::size_t i = 0; i < learned_idx.size() / 2; ++i)
        if (!is_reason[learned_idx[i]]) drop[learned_idx[i]] = 1;

    // Compact headers and arena in place; surviving clauses keep their
    // order, and each moves its literals only towards the front.
    std::vector<int> remap(clauses_.size(), -1);
    std::size_t kept = 0;
    std::uint32_t arena_end = 0;
    for (std::size_t i = 0; i < clauses_.size(); ++i) {
        if (drop[i]) continue;
        Clause c = clauses_[i];
        if (c.begin != arena_end) {
            std::copy_n(arena_.begin() + c.begin, c.size, arena_.begin() + arena_end);
            c.begin = arena_end;
        }
        arena_end += c.size;
        remap[i] = static_cast<int>(kept);
        clauses_[kept++] = c;
    }
    clauses_.resize(kept);
    arena_.resize(arena_end);
    sync_governor_accounting();
    for (int v = 0; v < num_vars(); ++v)
        if (reason_[v] != -1) reason_[v] = remap[reason_[v]];
    for (auto& ws : watches_) ws.clear();
    for (int i = 0; i < static_cast<int>(clauses_.size()); ++i) attach_clause(i);
}

Status Solver::solve(const std::vector<Lit>& assumptions, std::int64_t conflict_limit) {
    // Every answer leaves the solver at decision level 0 (the model is
    // already copied), so clauses can be added between queries. The search
    // starts with the same backtrack, so this moves no trajectory.
    const Status status = search(assumptions, conflict_limit);
    backtrack(0);
    return status;
}

Status Solver::search(const std::vector<Lit>& assumptions, std::int64_t conflict_limit) {
    if (unsat_) return Status::Unsat;
    backtrack(0);
    if (propagate() != -1) {
        unsat_ = true;
        return Status::Unsat;
    }

    const std::int64_t start_conflicts = conflicts_;
    std::int64_t restart_num = 0;
    std::int64_t restart_budget = 100 * luby(restart_num);

    while (true) {
        // The solve loop is unbounded when no conflict limit is set; this
        // poll is what guarantees a runaway query still honors shutdown
        // tokens and cone deadlines.
        poll_cancellation("sat");
        // A bound RunContext is polled too: its token on every iteration
        // (one relaxed load) and its deadline every kCancelPollPeriod
        // iterations, so queries fanned out to pool workers stay cancelable
        // even if the worker's thread-local scope belongs to another cone.
        if (run_context_ != nullptr) {
            if (run_context_->cancel != nullptr && run_context_->cancel->requested())
                throw LlsError(ErrorKind::Cancelled, "cancellation requested", "sat");
            if (context_poll_countdown_ == 0) {
                context_poll_countdown_ = kCancelPollPeriod;
                run_context_->poll_cancellation("sat");
            }
            --context_poll_countdown_;
        }
        const int confl = propagate();
        if (confl != -1) {
            ++conflicts_;
            if (trail_lim_.empty()) {
                unsat_ = true;
                return Status::Unsat;
            }
            const int bt_level = analyze(confl);
            // Backtracking below the assumption levels is fine: the pending
            // assumptions are re-applied as decisions before the next branch,
            // and a learned unit contradicting an assumption surfaces as
            // UNSAT below.
            backtrack(bt_level);
            if (learned_.size() == 1) {
                if (lit_value(learned_[0]) == 0) return Status::Unsat;
                if (lit_value(learned_[0]) == kUndef) enqueue(learned_[0], -1);
            } else {
                charge_literals(learned_.size());
                const int ci = store_clause(learned_.data(), learned_.size(), true, clause_inc_);
                enqueue(learned_[0], ci);
            }
            decay_activities();
            if (conflict_limit >= 0 && conflicts_ - start_conflicts >= conflict_limit)
                return Status::Unknown;
            if (conflicts_ - start_conflicts >= restart_budget) {
                ++restart_num;
                restart_budget = conflicts_ - start_conflicts + 100 * luby(restart_num);
                backtrack(0);
                reduce_learned();
            }
            continue;
        }

        // Apply pending assumptions as decisions.
        if (trail_lim_.size() < assumptions.size()) {
            const Lit a = assumptions[trail_lim_.size()];
            LLS_REQUIRE(a.var() < num_vars());
            const int v = lit_value(a);
            if (v == 0) return Status::Unsat;  // conflicting assumption
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            if (v == kUndef) enqueue(a, -1);
            continue;
        }

        const Lit next = pick_branch();
        if (next.value == -1) {
            for (int v = 0; v < num_vars(); ++v)
                model_[v] = static_cast<char>(assign_[v] == 1 ? 1 : 0);
            return Status::Sat;
        }
        ++decisions_;
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, -1);
    }
}

}  // namespace lls::sat
