#include "common/memgov.hpp"

#include <algorithm>

namespace lls {

namespace {
/// Counted-traffic interval between forced gauge polls: cache growth is
/// only visible through gauges, so the screen must not rely on a stale
/// snapshot forever.
constexpr std::uint64_t kPollInterval = std::uint64_t{4} << 20;  // 4 MiB
/// A new relief episode is allowed once usage grows this far past the
/// level the previous episode measured — repeated shedding of an
/// already-empty cache would inflate event counts without freeing bytes.
constexpr std::uint64_t kEpisodeGrowth = std::uint64_t{1} << 20;  // 1 MiB
}  // namespace

MemoryGovernor::MemoryGovernor(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

void MemoryGovernor::charge(std::int64_t delta) {
    if (delta > 0) {
        charged_total_.fetch_add(static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
        since_poll_.fetch_add(static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
    }
    counted_.fetch_add(delta, std::memory_order_relaxed);
    if (budget_ != 0 && delta > 0) maybe_relieve();
}

void MemoryGovernor::add_gauge(std::function<std::uint64_t()> gauge) {
    const std::lock_guard<std::mutex> lock(config_mutex_);
    gauges_.push_back(std::move(gauge));
}

void MemoryGovernor::add_shed_hook(std::function<void()> hook) {
    const std::lock_guard<std::mutex> lock(config_mutex_);
    shed_hooks_.push_back(std::move(hook));
}

std::uint64_t MemoryGovernor::poll_gauges_locked() {
    std::uint64_t total = 0;
    for (const auto& gauge : gauges_) total += gauge();
    gauge_cache_.store(total, std::memory_order_relaxed);
    since_poll_.store(0, std::memory_order_relaxed);
    return counted_bytes() + total;
}

std::uint64_t MemoryGovernor::current_bytes() {
    const std::lock_guard<std::mutex> lock(relief_mutex_);
    return poll_gauges_locked();
}

void MemoryGovernor::maybe_relieve() {
    // Cheap screen against the cached gauge total; a forced poll every
    // kPollInterval of counted traffic keeps the snapshot honest when the
    // gauged components (caches) are what grows.
    const std::uint64_t screen =
        counted_bytes() + gauge_cache_.load(std::memory_order_relaxed);
    if (screen <= budget_ && since_poll_.load(std::memory_order_relaxed) < kPollInterval) return;

    std::unique_lock<std::mutex> lock(relief_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return;  // another thread is already relieving
    const std::uint64_t current = poll_gauges_locked();
    if (current <= budget_) {
        // Hysteresis: drop the admission hold only once usage has fallen
        // meaningfully below the rail, so the gate does not flap.
        if (hold_.load(std::memory_order_relaxed) && current <= budget_ - budget_ / 8) {
            hold_.store(false, std::memory_order_relaxed);
            gate_cv_.notify_all();
        }
        return;
    }
    // Over the rail: shed at most once per growth episode.
    if (shed_events_.load(std::memory_order_relaxed) == 0 ||
        current >= last_relief_bytes_ + kEpisodeGrowth) {
        for (const auto& hook : shed_hooks_) hook();
        shed_events_.fetch_add(1, std::memory_order_relaxed);
        last_relief_bytes_ = poll_gauges_locked();
        hold_.store(last_relief_bytes_ > budget_, std::memory_order_relaxed);
    } else {
        hold_.store(true, std::memory_order_relaxed);
    }
}

void MemoryGovernor::admission_acquire() {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    bool counted_hold = false;
    while (budget_ != 0 && inflight_ > 0 && hold_.load(std::memory_order_relaxed)) {
        if (!counted_hold) {
            counted_hold = true;
            admission_holds_.fetch_add(1, std::memory_order_relaxed);
        }
        // Timed wait: the hold is cleared by whichever thread next runs the
        // relief slow path, which happens on charge traffic — re-poll here
        // too so a fully idle process still re-measures and unblocks.
        gate_cv_.wait_for(lock, std::chrono::milliseconds(50));
        if (hold_.load(std::memory_order_relaxed)) {
            lock.unlock();
            const std::uint64_t current = current_bytes();
            if (current <= budget_ - budget_ / 8) {
                hold_.store(false, std::memory_order_relaxed);
                gate_cv_.notify_all();
            }
            lock.lock();
        }
    }
    ++inflight_;
}

void MemoryGovernor::admission_release() {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    --inflight_;
    gate_cv_.notify_all();
}

}  // namespace lls
