// The striped LRU both process-wide caches keep their entries in
// (engine/shared_cache.h for plans, engine/result_cache.h for results).
//
// Keys are (database id, EngineOptions fingerprint, expression
// structure). The key hash picks one of a power-of-two number of stripes,
// each a mutex, a hash map and an LRU list, so two sessions running
// different query shapes usually lock different stripes. Entries are
// immutable `shared_ptr<const T>`: eviction only forgets an entry, and a
// caller still holding one keeps it alive.
//
// The stripe count follows the entry budget: one stripe per 32 entries,
// rounded down to a power of two, at most 8. A cache of fewer than 64
// entries is therefore one exact LRU, and the 256-entry serving caches
// get 8 stripes of 32. Both budgets are split over the stripes so that
// the shares sum to exactly the budget: a cache never holds more entries
// or bytes than it was given.
#ifndef SETALG_ENGINE_STRIPED_LRU_H_
#define SETALG_ENGINE_STRIPED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "ra/expr.h"
#include "util/hash.h"

namespace setalg::engine {

/// What both process-wide caches key on.
struct CacheKey {
  std::uint64_t db_id = 0;
  std::uint64_t options_fp = 0;
  /// ra::StructuralHash(*expr), computed once per operation rather than
  /// inside every map probe.
  std::uint64_t hash = 0;
  ra::ExprPtr expr;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(
        util::HashCombine(util::HashCombine(key.db_id, key.options_fp), key.hash));
  }
};

struct CacheKeyEqual {
  bool operator()(const CacheKey& a, const CacheKey& b) const {
    return a.db_id == b.db_id && a.options_fp == b.options_fp && a.hash == b.hash &&
           ra::ExprEqual{}(a.expr, b.expr);
  }
};

/// `T::approx_bytes` is an entry's charge against the byte budget;
/// `Stats` needs an `evictions` counter and `operator+=`.
template <typename T, typename Stats>
class StripedLru {
 public:
  using Ptr = std::shared_ptr<const T>;

  /// One stripe, reached only through With(), which holds its lock.
  class Stripe {
   public:
    /// The entry under `key`, refreshed to most-recently-used, or null.
    Ptr Find(const CacheKey& key) {
      const auto it = map_.find(key);
      if (it == map_.end()) return nullptr;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.entry;
    }

    /// Stores `entry` under `key` as most-recently-used, replacing any
    /// entry there, then evicts least-recently-used entries past either
    /// budget (`entry` itself included, when it alone exceeds them).
    void Put(CacheKey key, Ptr entry) {
      bytes_ += entry->approx_bytes;
      const auto it = map_.find(key);
      if (it != map_.end()) {
        bytes_ -= it->second.entry->approx_bytes;
        it->second.entry = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it->second.lru);
      } else {
        lru_.push_front(key);
        map_.emplace(std::move(key), Node{std::move(entry), lru_.begin()});
      }
      while (!lru_.empty() && (map_.size() > max_entries_ || bytes_ > max_bytes_)) {
        EraseNode(map_.find(lru_.back()));
        ++stats_.evictions;
      }
    }

    /// Drops the entry under `key`, if any.
    void Erase(const CacheKey& key) {
      const auto it = map_.find(key);
      if (it != map_.end()) EraseNode(it);
    }

    Stats& stats() { return stats_; }

   private:
    friend class StripedLru;
    struct Node {
      Ptr entry;
      typename std::list<CacheKey>::iterator lru;  // Front of lru_ = hottest.
    };
    using Map = std::unordered_map<CacheKey, Node, CacheKeyHash, CacheKeyEqual>;

    void EraseNode(typename Map::iterator it) {
      bytes_ -= it->second.entry->approx_bytes;
      lru_.erase(it->second.lru);
      map_.erase(it);
    }

    std::mutex mu_;
    Map map_;
    std::list<CacheKey> lru_;
    std::size_t bytes_ = 0;
    std::size_t max_entries_ = 0;
    std::size_t max_bytes_ = 0;
    Stats stats_;
  };

  /// `max_entries` >= 1 (0 reads as 1); `max_bytes` 0 = unbounded bytes.
  StripedLru(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(std::max<std::size_t>(1, max_entries)),
        max_bytes_(max_bytes),
        num_stripes_(StripeCount(max_entries_)),
        stripes_(std::make_unique<Stripe[]>(num_stripes_)) {
    for (std::size_t i = 0; i < num_stripes_; ++i) {
      stripes_[i].max_entries_ = Share(max_entries_, i);
      stripes_[i].max_bytes_ = max_bytes_ == 0 ? std::numeric_limits<std::size_t>::max()
                                               : Share(max_bytes_, i);
    }
  }

  /// Runs `fn(Stripe&)` under the lock of `key`'s stripe and returns what
  /// it returns.
  template <typename Fn>
  auto With(const CacheKey& key, Fn&& fn) const {
    Stripe& stripe = stripes_[CacheKeyHash{}(key) & (num_stripes_ - 1)];
    std::lock_guard<std::mutex> lock(stripe.mu_);
    return fn(stripe);
  }

  /// Drops every entry (callers holding one keep it alive).
  void Clear() const {
    ForEachStripe([](Stripe& stripe) {
      stripe.map_.clear();
      stripe.lru_.clear();
      stripe.bytes_ = 0;
    });
  }

  std::size_t size() const {
    std::size_t total = 0;
    ForEachStripe([&total](Stripe& stripe) { total += stripe.map_.size(); });
    return total;
  }

  std::size_t bytes() const {
    std::size_t total = 0;
    ForEachStripe([&total](Stripe& stripe) { total += stripe.bytes_; });
    return total;
  }

  /// Summed over stripes.
  Stats stats() const {
    Stats total;
    ForEachStripe([&total](Stripe& stripe) { total += stripe.stats_; });
    return total;
  }

  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_bytes() const { return max_bytes_; }
  std::size_t stripes() const { return num_stripes_; }

 private:
  static std::size_t StripeCount(std::size_t max_entries) {
    std::size_t stripes = 1;
    while (stripes < 8 && stripes * 2 * 32 <= max_entries) stripes *= 2;
    return stripes;
  }

  /// Stripe `i`'s share of `total`; the shares sum to `total`.
  std::size_t Share(std::size_t total, std::size_t i) const {
    return total / num_stripes_ + (i < total % num_stripes_ ? 1 : 0);
  }

  template <typename Fn>
  void ForEachStripe(Fn&& fn) const {
    for (std::size_t i = 0; i < num_stripes_; ++i) {
      std::lock_guard<std::mutex> lock(stripes_[i].mu_);
      fn(stripes_[i]);
    }
  }

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t num_stripes_;
  // A fixed array: stripes hold a mutex, so they never move.
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_STRIPED_LRU_H_
