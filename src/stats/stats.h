// Linear-time relation statistics for cost-based planning.
//
// The paper's experiments show that the *right* division/set-join
// algorithm depends on the shape of the inputs — group counts, set sizes,
// divisor size — not just on |D|. This module computes exactly those
// shape parameters from each stored relation's sorted storage:
//   - cardinality,
//   - per-column distinct counts, value range (domain width) and an
//     equi-depth histogram (value distribution, per-bucket distinct
//     counts — the skew signal the containment-join formulas need),
//   - for binary relations, the group profile on column 1
//     (number of groups, min/avg/max element-set size and the full
//     group-size distribution as a histogram).
//
// stats::DatabaseStats caches the per-relation statistics against
// core::Database::relation_version(), so repeated Engine runs over an
// unchanged database pay for the pass once; any mutation (SetRelation or
// mutable_relation) invalidates exactly the touched relation.
#ifndef SETALG_STATS_STATS_H_
#define SETALG_STATS_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/relation.h"
#include "core/value.h"

namespace setalg::stats {

/// Width of the inclusive value range [lo, hi], computed in unsigned
/// arithmetic so extreme ranges (e.g. lo = INT64_MIN) never overflow;
/// saturates at UINT64_MAX when the range covers the whole int64 domain.
/// 0 when lo > hi.
std::uint64_t RangeWidth(core::Value lo, core::Value hi);

/// Default bucket budget of the equi-depth histograms below.
inline constexpr std::size_t kHistogramBuckets = 32;

/// An equi-depth histogram over one value stream: buckets of roughly
/// equal row counts, with equal values never straddling a boundary.
/// Each bucket also carries its distinct-value count, so heavy hitters
/// (few values absorbing a whole bucket) stay visible — the shape the
/// min/avg/max summaries erase.
struct Histogram {
  core::Value min_value = 0;
  std::vector<core::Value> upper;        // Inclusive upper bound per bucket.
  std::vector<std::uint64_t> counts;     // Rows per bucket.
  std::vector<std::uint64_t> distincts;  // Distinct values per bucket.
  std::uint64_t total = 0;               // Sum of counts.

  bool empty() const { return total == 0; }
  std::size_t buckets() const { return counts.size(); }

  /// Fraction of rows with value <= v, interpolating uniformly inside
  /// the bucket containing v. 0 for an empty histogram.
  double SelectivityLeq(core::Value v) const;

  /// Approximate number of distinct values <= v (same interpolation).
  double DistinctLeq(core::Value v) const;

  /// Expected number of rows sharing the value of a row drawn uniformly:
  /// sum_b (count_b/total)·(count_b/distinct_b). Under a uniform
  /// distribution this is total/distinct; skew pushes it far higher —
  /// exactly the expected posting length an inverted-index probe pays.
  double ExpectedFrequency() const;

  std::string ToString() const;
};

/// Builds an equi-depth histogram from an already-sorted (ascending,
/// duplicates retained) value vector.
Histogram BuildHistogram(const std::vector<core::Value>& sorted_values,
                         std::size_t max_buckets = kHistogramBuckets);

/// Per-column statistics.
struct ColumnStats {
  std::size_t distinct = 0;
  core::Value min_value = 0;
  core::Value max_value = 0;
  /// Equi-depth value distribution (empty for an empty column).
  Histogram histogram;

  /// max - min + 1 for a nonempty column, else 0. An upper bound on
  /// `distinct` for integer-interned values. Computed via RangeWidth, so
  /// extreme ranges saturate instead of overflowing.
  std::uint64_t Width() const;
};

/// The group profile of a binary relation R(key, element) grouped on the
/// key column — the shape parameter the division and set-join cost
/// formulas depend on. Zeroed for other arities.
struct GroupStats {
  std::size_t num_groups = 0;
  std::size_t min_group_size = 0;
  std::size_t max_group_size = 0;
  double avg_group_size = 0.0;
  /// Distribution of group sizes (one entry per group, value = size) —
  /// what lets the cost model price "how many divisor groups can fit in
  /// a candidate group" instead of assuming every group is average.
  Histogram size_histogram;
};

/// Statistics of one relation, computed in a single pass.
struct RelationStats {
  std::size_t cardinality = 0;
  std::size_t arity = 0;
  std::vector<ColumnStats> columns;
  /// Valid (nonzero) only when arity == 2.
  GroupStats groups;

  std::string ToString() const;
};

/// Computes the statistics of `relation` from its normalized (sorted,
/// deduplicated) storage. Column 1 and the group profile fall out of the
/// run boundaries of the sorted storage in one O(n) pass. Every other
/// column (and the group sizes) takes one min/max pass, then a dense
/// count when its value range is at most 2n wide — O(n) — or else one
/// O(n log n) sort.
RelationStats ComputeRelationStats(const core::Relation& relation);

/// Read access to statistics of stored relations by name. Implementations
/// return nullptr for names they know nothing about; cost formulas then
/// fall back to coarse defaults.
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;
  virtual const RelationStats* Get(const std::string& name) const = 0;
};

/// A named snapshot of per-relation mutation counters — the invalidation
/// signal every cache derived from stored relations (DatabaseStats, the
/// engine's plan cache) compares against. Kept sorted by name so two
/// snapshots over the same relation set compare element-wise.
using VersionVector = std::vector<std::pair<std::string, std::uint64_t>>;

/// Snapshots db.relation_version(name) for each of `names` (sorted by
/// name; duplicates collapsed). Names outside the schema snapshot as 0.
VersionVector SnapshotVersions(const core::DatabaseView& db,
                               std::vector<std::string> names);

/// True iff none of the snapshotted relations has been mutated since —
/// i.e. re-snapshotting `db` would reproduce `versions` exactly.
bool VersionsMatch(const core::DatabaseView& db, const VersionVector& versions);

/// The caching provider over one database view: statistics are computed
/// on first use and reused until the relation's mutation counter moves.
/// Holds a pointer to the view; not thread-safe (immutable views that
/// need a concurrent provider — txn::Snapshot — carry their own).
class DatabaseStats : public StatsProvider {
 public:
  explicit DatabaseStats(const core::DatabaseView* db);

  const core::DatabaseView& db() const { return *db_; }

  /// Stats of the stored relation `name` (nullptr if not in the schema).
  /// Recomputes iff db().relation_version(name) moved since the last call.
  const RelationStats* Get(const std::string& name) const override;

  /// Number of (re)computations so far — observable cache behavior for
  /// tests.
  std::size_t recompute_count() const { return recompute_count_; }

 private:
  struct Entry {
    std::uint64_t version = 0;
    RelationStats stats;
  };

  const core::DatabaseView* db_;
  mutable std::unordered_map<std::string, Entry> cache_;
  mutable std::size_t recompute_count_ = 0;
};

}  // namespace setalg::stats

#endif  // SETALG_STATS_STATS_H_
