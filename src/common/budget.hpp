#pragma once

#include <cstdint>

namespace lls {

/// Deterministic work accounting for budgeted optimization runs.
///
/// A work unit is something the flow *does*, never time it takes: one
/// decomposition/simplification attempt, or one CDCL conflict inside a SAT
/// query. Both are pure functions of the inputs they are charged for, so a
/// budget metered in these units runs out at the same point of the flow on
/// every thread schedule and every machine (docs/ENGINE.md, "Budget
/// semantics").
struct WorkCost {
    std::uint64_t decompositions = 0;  ///< decomposition / node-simplification attempts
    std::uint64_t sat_conflicts = 0;   ///< CDCL conflicts across all SAT queries

    std::uint64_t units() const { return decompositions + sat_conflicts; }

    WorkCost& operator+=(const WorkCost& other) {
        decompositions += other.decompositions;
        sat_conflicts += other.sat_conflicts;
        return *this;
    }
};

/// A consumable work-unit budget (limit 0 = unlimited).
///
/// Deliberately not thread-safe: charges must happen at serial program
/// points of the driver (after a round's parallel fan-out has joined),
/// never inside the fan-out itself — charging from workers would make the
/// spend order, and with it the exhaustion point, schedule-dependent.
class WorkBudget {
public:
    explicit WorkBudget(std::uint64_t limit = 0) : limit_(limit) {}

    bool limited() const { return limit_ > 0; }
    std::uint64_t limit() const { return limit_; }
    std::uint64_t spent() const { return spent_; }

    void charge(const WorkCost& cost) { spent_ += cost.units(); }

    /// True once at least `limit` units have been charged — a pure
    /// function of work performed; no clock is involved.
    bool exhausted() const { return limited() && spent_ >= limit_; }

private:
    std::uint64_t limit_ = 0;
    std::uint64_t spent_ = 0;
};

}  // namespace lls
