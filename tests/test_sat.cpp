#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/rng.hpp"

namespace lls::sat {
namespace {

/// php(pigeons, holes): UNSAT whenever pigeons > holes.
void add_pigeonhole(Solver& s, int pigeons, int holes) {
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& x : row) x = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(Lit(v[p][h], false));
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(v[p1][h], true), Lit(v[p2][h], true));
}

TEST(SatSolver, TrivialSat) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    EXPECT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.model_value(a) || s.model_value(b));
}

TEST(SatSolver, TrivialUnsat) {
    Solver s;
    const int a = s.new_var();
    s.add_clause(Lit(a, false));
    EXPECT_FALSE(s.add_clause(Lit(a, true)));
    EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(SatSolver, UnitPropagationChain) {
    Solver s;
    std::vector<int> vars;
    for (int i = 0; i < 20; ++i) vars.push_back(s.new_var());
    // x0, and x_i -> x_{i+1}; finally !x19: unsat.
    s.add_clause(Lit(vars[0], false));
    for (int i = 0; i + 1 < 20; ++i) s.add_clause(Lit(vars[i], true), Lit(vars[i + 1], false));
    s.add_clause(Lit(vars[19], true));
    EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(SatSolver, XorChainSat) {
    Solver s;
    // x ^ y = 1 encoded by clauses; two chained xors.
    const int x = s.new_var(), y = s.new_var(), z = s.new_var();
    // x ^ y = 1
    s.add_clause(Lit(x, false), Lit(y, false));
    s.add_clause(Lit(x, true), Lit(y, true));
    // y ^ z = 1
    s.add_clause(Lit(y, false), Lit(z, false));
    s.add_clause(Lit(y, true), Lit(z, true));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_NE(s.model_value(x), s.model_value(y));
    EXPECT_NE(s.model_value(y), s.model_value(z));
}

TEST(SatSolver, PigeonholeUnsat) {
    // 4 pigeons in 3 holes: classic small UNSAT with real conflict analysis.
    Solver s;
    add_pigeonhole(s, 4, 3);
    EXPECT_EQ(s.solve(), Status::Unsat);
    EXPECT_GT(s.num_conflicts(), 0);
}

TEST(SatSolver, Assumptions) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
    EXPECT_EQ(s.solve({Lit(a, false), Lit(b, true)}), Status::Unsat);
    EXPECT_EQ(s.solve({Lit(a, false)}), Status::Sat);
    EXPECT_TRUE(s.model_value(b));
    // The solver must remain reusable after assumption-based calls.
    EXPECT_EQ(s.solve({Lit(b, true)}), Status::Sat);
    EXPECT_FALSE(s.model_value(a));
}

TEST(SatSolver, ConflictLimitReturnsUnknown) {
    // A hard pigeonhole instance with a 1-conflict budget cannot finish.
    Solver s;
    add_pigeonhole(s, 7, 6);
    EXPECT_EQ(s.solve({}, 1), Status::Unknown);
    // An Unknown answer also returns at level 0: the instance can grow.
    EXPECT_TRUE(s.add_clause(Lit(0, true)));
}

TEST(SatSolver, ClausesMayFollowASatAnswer) {
    // A Sat answer leaves its decisions behind only in the model, so a unit
    // added afterwards constrains the next query.
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.add_clause(Lit(a, true)));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, ClausesMayFollowAFailedAssumption) {
    // Unsat under an assumption is not Unsat of the instance: the solver
    // stays usable and accepts new clauses.
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
    ASSERT_EQ(s.solve({Lit(a, false), Lit(b, true)}), Status::Unsat);
    EXPECT_TRUE(s.add_clause(Lit(b, true)));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_EQ(s.solve({Lit(a, false)}), Status::Unsat);
}

TEST(SatSolver, HardPigeonholeExercisesClauseDatabaseReduction) {
    // php(9,8) needs ~20k conflicts, well past the learned-clause reduction
    // threshold, so this covers restart + reduce_learned + reason remapping.
    // It also passes the ~4,500 conflicts after which variable activities
    // first overflow 1e100 and are rescaled (rebuilding the decision heap),
    // so its search trajectory is pinned too (see SatTrajectory below).
    Solver s;
    add_pigeonhole(s, 9, 8);
    EXPECT_EQ(s.solve(), Status::Unsat);
    EXPECT_EQ(s.num_decisions(), 22662);
    EXPECT_EQ(s.num_conflicts(), 19046);
    EXPECT_EQ(s.num_propagations(), 242272);
}

TEST(SatSolver, DecisionFollowsActivityAcrossRescale) {
    // Two variables x and y take turns in single-conflict queries, so each
    // query's bump leaves the bumped one the most active variable. A probe
    // query after every step then decides exactly one of them: the most
    // active one, whose saved phase is 1 and implies the other through
    // (!x | !y); the other's saved phase is 0 and implies nothing, which
    // would cost a second decision. About every 4,500 conflicts the bump
    // that pushes an activity past 1e100 triggers the rescale. At that bump
    // the bumped variable sits below the other in the decision heap, and
    // only the post-rescale re-heapify moves it up.
    Solver s;
    const int x = s.new_var();
    const int y = s.new_var();
    const int not_x = s.new_var();  // assumption forcing x = 0
    const int not_y = s.new_var();  // assumption forcing y = 0
    s.add_clause(Lit(x, true), Lit(y, true));
    s.add_clause(Lit(not_x, true), Lit(x, true));
    s.add_clause(Lit(not_y, true), Lit(y, true));
    // Gadget of step i over v (x on even steps, y on odd ones): assuming b
    // implies v and u, which (!b | !u | !v) forbids, so the query ends in
    // one conflict whose learned unit !b (and then !u) fixes the gadget at
    // level 0. The query stops there, at level 0, so clauses can be added.
    const auto add_gadget = [&](int step) {
        const int v = step % 2 == 0 ? x : y;
        const int b = s.new_var();
        const int u = s.new_var();
        s.add_clause(Lit(b, true), Lit(v, false));
        s.add_clause(Lit(b, true), Lit(u, false));
        s.add_clause(Lit(b, true), Lit(u, true), Lit(v, true));
        s.add_clause(Lit(b, false), Lit(u, true));
        return b;
    };
    constexpr int kSteps = 10000;  // two rescales
    int wrong_first_decisions = 0;
    int b = add_gadget(0);
    for (int step = 0; step < kSteps; ++step) {
        const int other_off = step % 2 == 0 ? not_y : not_x;
        const std::int64_t conflicts = s.num_conflicts();
        ASSERT_EQ(s.solve({Lit(other_off, false), Lit(b, false)}, 1), Status::Unknown);
        ASSERT_EQ(s.num_conflicts(), conflicts + 1);
        b = add_gadget(step + 1);
        const std::int64_t decisions = s.num_decisions();
        ASSERT_EQ(s.solve({Lit(not_x, true), Lit(not_y, true), Lit(b, true)}), Status::Sat);
        if (s.num_decisions() != decisions + 1) ++wrong_first_decisions;
        EXPECT_EQ(s.model_value(x), step % 2 == 0);
    }
    EXPECT_EQ(wrong_first_decisions, 0);
}

TEST(SatSolver, TautologyAndDuplicateLiterals) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    EXPECT_TRUE(s.add_clause({Lit(a, false), Lit(a, true)}));          // tautology dropped
    EXPECT_TRUE(s.add_clause({Lit(b, false), Lit(b, false)}));         // dedup to unit
    EXPECT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.model_value(b));
}

/// Uniform random 3-SAT at clause/variable ratio 4.26 (the hardness peak):
/// three distinct variables per clause, random polarities.
void add_random_3sat(Solver& s, int num_vars, std::uint64_t seed) {
    Rng rng(seed);
    for (int v = 0; v < num_vars; ++v) s.new_var();
    const int num_clauses = (num_vars * 426 + 50) / 100;
    for (int c = 0; c < num_clauses; ++c) {
        int vs[3];
        for (int k = 0; k < 3; ++k) {
            bool fresh = false;
            while (!fresh) {
                vs[k] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars)));
                fresh = true;
                for (int j = 0; j < k; ++j) fresh = fresh && vs[j] != vs[k];
            }
        }
        s.add_clause(Lit(vs[0], rng.next_bool()), Lit(vs[1], rng.next_bool()),
                     Lit(vs[2], rng.next_bool()));
    }
}

// Search-trajectory regression: the decision order (VSIDS, ties to the
// lower variable index), conflict analysis and propagation are fully
// deterministic, so the counters of a fixed instance are pinned. The
// constants were recorded with a brancher that scanned every variable, so
// any change to the decision heap that alters a single decision fails here.
struct Random3SatCase {
    int num_vars;
    std::uint64_t seed;
    Status status;
    std::int64_t decisions;
    std::int64_t conflicts;
    std::int64_t propagations;
};

class SatTrajectory : public ::testing::TestWithParam<Random3SatCase> {};

TEST_P(SatTrajectory, RandomThreeSatMatchesRecordedCounters) {
    const Random3SatCase& c = GetParam();
    Solver s;
    add_random_3sat(s, c.num_vars, c.seed);
    EXPECT_EQ(s.solve(), c.status);
    EXPECT_EQ(s.num_decisions(), c.decisions);
    EXPECT_EQ(s.num_conflicts(), c.conflicts);
    EXPECT_EQ(s.num_propagations(), c.propagations);
}

INSTANTIATE_TEST_SUITE_P(
    Threshold, SatTrajectory,
    ::testing::Values(Random3SatCase{100, 5, Status::Sat, 235, 188, 4575},
                      Random3SatCase{100, 2, Status::Unsat, 563, 473, 10230},
                      Random3SatCase{150, 1, Status::Sat, 3160, 2639, 87628},
                      Random3SatCase{150, 7, Status::Unsat, 6326, 5343, 167362},
                      Random3SatCase{200, 1, Status::Sat, 12932, 10777, 394315}),
    [](const ::testing::TestParamInfo<Random3SatCase>& info) {
        return "n" + std::to_string(info.param.num_vars) + "_seed" +
               std::to_string(info.param.seed);
    });

TEST(SatSolver, IncrementalAssumptionsMatchRecordedCounters) {
    // Repeated solves on one solver keep activities across calls and
    // re-enter the decision order after backtracking to level 0.
    Solver s;
    add_random_3sat(s, 100, 5);
    const std::vector<std::vector<Lit>> queries = {
        {Lit(0, false), Lit(1, true)}, {Lit(2, false)}, {Lit(3, true), Lit(4, true), Lit(5, false)}};
    std::vector<Status> statuses;
    for (const auto& q : queries) statuses.push_back(s.solve(q));
    const std::vector<Status> want_statuses = {Status::Unsat, Status::Sat, Status::Unsat};
    EXPECT_EQ(statuses, want_statuses);
    EXPECT_EQ(s.num_decisions(), 547);
    EXPECT_EQ(s.num_conflicts(), 467);
    EXPECT_EQ(s.num_propagations(), 10836);
}

// Random 3-SAT cross-checked against brute force.
class RandomSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomSat, AgreesWithBruteForce) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int num_vars = 10;
    const int num_clauses = 3 + static_cast<int>(rng.next_below(50));

    std::vector<std::array<int, 3>> clauses;  // encoded literals 2v+neg
    for (int c = 0; c < num_clauses; ++c) {
        std::array<int, 3> cl{};
        for (auto& l : cl)
            l = static_cast<int>(rng.next_below(num_vars)) * 2 +
                static_cast<int>(rng.next_below(2));
        clauses.push_back(cl);
    }

    bool brute_sat = false;
    for (std::uint32_t m = 0; m < (1u << num_vars) && !brute_sat; ++m) {
        bool all = true;
        for (const auto& cl : clauses) {
            bool any = false;
            for (const int l : cl) {
                const bool val = ((m >> (l >> 1)) & 1) != 0;
                if (val != ((l & 1) != 0)) any = true;
            }
            if (!any) {
                all = false;
                break;
            }
        }
        brute_sat = all;
    }

    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
        std::vector<Lit> lits;
        for (const int l : cl) lits.push_back(Lit(l >> 1, (l & 1) != 0));
        consistent = s.add_clause(lits) && consistent;
    }
    const Status st = consistent ? s.solve() : Status::Unsat;
    EXPECT_EQ(st == Status::Sat, brute_sat);

    if (st == Status::Sat) {
        // The model must actually satisfy all clauses.
        for (const auto& cl : clauses) {
            bool any = false;
            for (const int l : cl)
                if (s.model_value(l >> 1) != ((l & 1) != 0)) any = true;
            EXPECT_TRUE(any);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSat, ::testing::Range(1, 40));

}  // namespace
}  // namespace lls::sat
