#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tt/truth_table.hpp"

namespace lls {

/// Point-in-time statistics of one process-wide cache.
struct CacheStatsSnapshot {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
};

namespace detail {
/// Registers a cache's stats provider with the global registry (cache.cpp),
/// so `all_cache_stats()` and `lls_opt --metrics` see every instance no
/// matter which translation unit created it.
void register_cache(std::function<CacheStatsSnapshot()> provider);
}  // namespace detail

/// Snapshots of every registered cache, in registration order.
std::vector<CacheStatsSnapshot> all_cache_stats();

/// Mixes a value into a 64-bit hash accumulator (splitmix64 finalizer).
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= (h >> 30);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= (h >> 27);
    return h;
}

/// Sharded, mutex-striped memo cache for pure functions of the key.
///
/// Keys are distributed over `kShards` independently locked hash maps, so
/// concurrent lookups from the optimization workers contend only when they
/// collide on a stripe. Each shard is capacity-bounded: when an insert
/// would push a shard past `max_entries_per_shard`, the shard drops half of
/// its entries (in map order — the entries are pure memos, so eviction only
/// costs recomputation, never correctness). Hit/miss/eviction counters are
/// lock-free and the instance registers itself with the global stats
/// registry on construction.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
public:
    static constexpr std::size_t kShards = 16;

    explicit ShardedCache(std::string name, std::size_t max_entries_per_shard = 4096)
        : name_(std::move(name)), max_entries_per_shard_(max_entries_per_shard) {
        detail::register_cache([this] { return stats(); });
    }

    ShardedCache(const ShardedCache&) = delete;
    ShardedCache& operator=(const ShardedCache&) = delete;

    std::optional<Value> get(const Key& key) {
        Shard& shard = shard_of(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /// Inserts (or overwrites) an entry, evicting half the shard first if
    /// it is full.
    void put(const Key& key, Value value) {
        Shard& shard = shard_of(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            it->second = std::move(value);
            return;
        }
        if (shard.map.size() >= max_entries_per_shard_) evict_half_locked(shard);
        shard.map.emplace(key, std::move(value));
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute()` on a miss. `compute` runs outside the stripe lock, so
    /// two threads racing on the same fresh key may both compute; the first
    /// insert wins and the duplicates are discarded — acceptable for pure
    /// memos, and it keeps long computations from blocking a whole stripe.
    template <typename F>
    Value get_or_compute(const Key& key, F&& compute) {
        if (auto cached = get(key)) return std::move(*cached);
        Value value = compute();
        Shard& shard = shard_of(key);
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.map.find(key);
            if (it != shard.map.end()) return it->second;
        }
        put(key, value);
        return value;
    }

    void clear() {
        for (auto& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.map.clear();
        }
    }

    /// Visits every entry, shard by shard, under the stripe locks — the
    /// export hook of the persistent memo store. `fn` must not call back
    /// into this cache (the stripe lock is held) and should be cheap;
    /// concurrent inserts into not-yet-visited shards may or may not be
    /// seen, which is fine for the pure memos this cache holds.
    template <typename F>
    void for_each(F&& fn) const {
        for (const auto& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const auto& [key, value] : shard.map) fn(key, value);
        }
    }

    CacheStatsSnapshot stats() const {
        CacheStatsSnapshot s;
        s.name = name_;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.evictions = evictions_.load(std::memory_order_relaxed);
        for (auto& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            s.entries += shard.map.size();
        }
        return s;
    }

private:
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<Key, Value, Hash> map;
    };

    Shard& shard_of(const Key& key) { return shards_[Hash{}(key) % kShards]; }

    void evict_half_locked(Shard& shard) {
        const std::size_t target = shard.map.size() / 2;
        while (shard.map.size() > target) {
            shard.map.erase(shard.map.begin());
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    std::string name_;
    std::size_t max_entries_per_shard_;
    mutable std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
};

/// Hash for pair-of-u64 keys (structural-hash pairs, e.g. the CEC memo).
struct U64PairHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p) const {
        return static_cast<std::size_t>(hash_mix(hash_mix(0x243f6a8885a308d3ULL, p.first),
                                                 p.second));
    }
};

/// NPN-canonical cache key of a truth table: canonization maps every
/// function of an NPN equivalence class onto one representative, so memos
/// keyed this way are shared across input permutations and polarities.
std::string npn_cache_key(const TruthTable& canonical, int extra = 0);

/// Verdict memo for combinational equivalence checks, keyed by the ordered
/// pair of structural hashes of the two circuits. Only *resolved* checks
/// are memoized (an unresolved check may succeed with a fresh conflict
/// budget). The 128-bit key treats structural-hash equality as identity;
/// see docs/ENGINE.md for the collision discussion.
ShardedCache<std::pair<std::uint64_t, std::uint64_t>, bool, U64PairHash>& cec_memo();

}  // namespace lls
