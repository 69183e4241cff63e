#include "stats/stats.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace setalg::stats {

std::uint64_t RangeWidth(core::Value lo, core::Value hi) {
  if (lo > hi) return 0;
  // Unsigned subtraction is well-defined for any pair of int64 values
  // (the signed difference overflows for e.g. lo = INT64_MIN, hi > 0).
  const std::uint64_t diff =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  return diff == std::numeric_limits<std::uint64_t>::max() ? diff : diff + 1;
}

std::uint64_t ColumnStats::Width() const {
  if (distinct == 0) return 0;
  return RangeWidth(min_value, max_value);
}

namespace {

// Accumulates an equi-depth histogram over `total` values fed as runs of
// equal values in ascending order. BuildHistogram and both column paths
// of ComputeRelationStats feed it, so they all close the same buckets.
class HistogramBuilder {
 public:
  explicit HistogramBuilder(std::uint64_t total,
                            std::size_t max_buckets = kHistogramBuckets)
      : depth_((total + max_buckets - 1) / max_buckets) {
    histogram_.total = total;
  }

  void AddRun(core::Value value, std::uint64_t length) {
    if (seen_ == 0) histogram_.min_value = value;
    seen_ += length;
    count_ += length;
    ++distinct_;
    // Runs go into one bucket whole, so a bucket boundary is always a
    // value boundary.
    if (count_ >= depth_ || seen_ == histogram_.total) {
      histogram_.upper.push_back(value);
      histogram_.counts.push_back(count_);
      histogram_.distincts.push_back(distinct_);
      count_ = 0;
      distinct_ = 0;
    }
  }

  Histogram Finish() { return std::move(histogram_); }

 private:
  Histogram histogram_;
  std::uint64_t depth_;
  std::uint64_t seen_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t distinct_ = 0;
};

}  // namespace

Histogram BuildHistogram(const std::vector<core::Value>& sorted_values,
                         std::size_t max_buckets) {
  if (sorted_values.empty() || max_buckets == 0) return Histogram{};
  HistogramBuilder builder(sorted_values.size(), max_buckets);
  for (std::size_t i = 0; i < sorted_values.size();) {
    std::size_t j = i + 1;
    while (j < sorted_values.size() && sorted_values[j] == sorted_values[i]) ++j;
    builder.AddRun(sorted_values[i], j - i);
    i = j;
  }
  return builder.Finish();
}

double Histogram::SelectivityLeq(core::Value v) const {
  if (total == 0 || v < min_value) return 0.0;
  double rows = 0.0;
  core::Value lower = min_value;
  for (std::size_t b = 0; b < buckets(); ++b) {
    if (v >= upper[b]) {
      rows += static_cast<double>(counts[b]);
      // upper[b] == INT64_MAX only in the last bucket (values ascend).
      if (upper[b] == std::numeric_limits<core::Value>::max()) break;
      lower = upper[b] + 1;
      continue;
    }
    const double width = static_cast<double>(RangeWidth(lower, upper[b]));
    const double covered = static_cast<double>(RangeWidth(lower, v));
    rows += static_cast<double>(counts[b]) *
            std::min(1.0, covered / std::max(1.0, width));
    break;
  }
  return rows / static_cast<double>(total);
}

double Histogram::DistinctLeq(core::Value v) const {
  if (total == 0 || v < min_value) return 0.0;
  double values = 0.0;
  core::Value lower = min_value;
  for (std::size_t b = 0; b < buckets(); ++b) {
    if (v >= upper[b]) {
      values += static_cast<double>(distincts[b]);
      if (upper[b] == std::numeric_limits<core::Value>::max()) break;
      lower = upper[b] + 1;
      continue;
    }
    const double width = static_cast<double>(RangeWidth(lower, upper[b]));
    const double covered = static_cast<double>(RangeWidth(lower, v));
    values += static_cast<double>(distincts[b]) *
              std::min(1.0, covered / std::max(1.0, width));
    break;
  }
  return values;
}

double Histogram::ExpectedFrequency() const {
  if (total == 0) return 0.0;
  double expected = 0.0;
  for (std::size_t b = 0; b < buckets(); ++b) {
    const double c = static_cast<double>(counts[b]);
    const double d = std::max(1.0, static_cast<double>(distincts[b]));
    expected += (c / static_cast<double>(total)) * (c / d);
  }
  return expected;
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  out << "hist{buckets=" << buckets() << ", total=" << total << ", efreq="
      << ExpectedFrequency() << "}";
  return out.str();
}

namespace {

// Range, distinct count and histogram of the `n` (> 0) values read at
// values[0], values[stride], ... in no particular order, whose least and
// greatest are `lo` and `hi`. The values are counted into a dense array
// when their range is at most 2n wide, and sorted once otherwise.
void SummarizeUnordered(const core::Value* values, std::size_t n,
                        std::size_t stride, core::Value lo, core::Value hi,
                        ColumnStats* column) {
  column->min_value = lo;
  column->max_value = hi;
  const std::uint64_t width = RangeWidth(lo, hi);
  if (width <= 2 * static_cast<std::uint64_t>(n) &&
      n <= std::numeric_limits<std::uint32_t>::max()) {
    std::vector<std::uint32_t> counts(width);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[static_cast<std::uint64_t>(values[i * stride]) -
               static_cast<std::uint64_t>(lo)];
    }
    HistogramBuilder histogram(n);
    for (std::uint64_t k = 0; k < width; ++k) {
      if (counts[k] == 0) continue;
      histogram.AddRun(lo + static_cast<core::Value>(k), counts[k]);
    }
    column->histogram = histogram.Finish();
  } else {
    std::vector<core::Value> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = values[i * stride];
    std::sort(sorted.begin(), sorted.end());
    column->histogram = BuildHistogram(sorted);
  }
  // Each distinct value lies in exactly one bucket.
  for (const std::uint64_t distinct : column->histogram.distincts) {
    column->distinct += distinct;
  }
}

}  // namespace

RelationStats ComputeRelationStats(const core::Relation& relation) {
  RelationStats stats;
  stats.arity = relation.arity();
  stats.cardinality = relation.size();
  stats.columns.resize(relation.arity());
  if (relation.empty() || relation.arity() == 0) return stats;
  const std::size_t n = relation.size();
  const std::size_t arity = relation.arity();
  const core::Value* data = relation.flat().data();
  const bool binary = arity == 2;

  // The storage is sorted lexicographically, so column 1 ascends: its
  // distinct values, and the groups of a binary relation, are its runs.
  // The same pass finds the least and greatest value of every other
  // column, and of the group sizes. Within a run column 2 ascends too, so
  // its extremes there are the run's first and last rows; columns 3 and
  // up are read row by row.
  ColumnStats& first = stats.columns[0];
  first.min_value = data[0];
  first.max_value = data[(n - 1) * arity];
  HistogramBuilder first_histogram(n);
  std::vector<core::Value> lo(data, data + arity);
  std::vector<core::Value> hi = lo;
  std::vector<core::Value> group_sizes;
  core::Value min_size = static_cast<core::Value>(n);
  core::Value max_size = 0;
  for (std::size_t i = 0; i < n;) {
    const core::Value key = data[i * arity];
    std::size_t j = i + 1;
    while (j < n && data[j * arity] == key) ++j;
    ++first.distinct;
    first_histogram.AddRun(key, j - i);
    if (arity >= 2) {
      lo[1] = std::min(lo[1], data[i * arity + 1]);
      hi[1] = std::max(hi[1], data[(j - 1) * arity + 1]);
    }
    for (std::size_t c = 2; c < arity; ++c) {
      for (std::size_t row = i; row < j; ++row) {
        lo[c] = std::min(lo[c], data[row * arity + c]);
        hi[c] = std::max(hi[c], data[row * arity + c]);
      }
    }
    if (binary) {
      const auto size = static_cast<core::Value>(j - i);
      group_sizes.push_back(size);
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
    }
    i = j;
  }
  first.histogram = first_histogram.Finish();

  for (std::size_t c = 1; c < arity; ++c) {
    SummarizeUnordered(data + c, n, arity, lo[c], hi[c], &stats.columns[c]);
  }
  if (binary) {
    ColumnStats sizes;
    SummarizeUnordered(group_sizes.data(), group_sizes.size(), 1, min_size, max_size,
                       &sizes);
    GroupStats& g = stats.groups;
    g.num_groups = group_sizes.size();
    g.min_group_size = static_cast<std::size_t>(sizes.min_value);
    g.max_group_size = static_cast<std::size_t>(sizes.max_value);
    g.avg_group_size = static_cast<double>(n) / static_cast<double>(g.num_groups);
    g.size_histogram = std::move(sizes.histogram);
  }
  return stats;
}

std::string RelationStats::ToString() const {
  std::ostringstream out;
  out << "card=" << cardinality;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out << " col" << c + 1 << "{distinct=" << columns[c].distinct
        << ", range=[" << columns[c].min_value << "," << columns[c].max_value
        << "], efreq=" << columns[c].histogram.ExpectedFrequency() << "}";
  }
  if (arity == 2) {
    out << " groups{n=" << groups.num_groups << ", size=" << groups.min_group_size
        << "/" << groups.avg_group_size << "/" << groups.max_group_size
        << ", " << groups.size_histogram.ToString() << "}";
  }
  return out.str();
}

VersionVector SnapshotVersions(const core::DatabaseView& db,
                               std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  VersionVector versions;
  versions.reserve(names.size());
  for (auto& name : names) {
    const std::uint64_t version = db.relation_version(name);
    versions.emplace_back(std::move(name), version);
  }
  return versions;
}

bool VersionsMatch(const core::DatabaseView& db, const VersionVector& versions) {
  for (const auto& [name, version] : versions) {
    if (db.relation_version(name) != version) return false;
  }
  return true;
}

DatabaseStats::DatabaseStats(const core::DatabaseView* db) : db_(db) {
  SETALG_CHECK(db != nullptr);
}

const RelationStats* DatabaseStats::Get(const std::string& name) const {
  if (!db_->schema().HasRelation(name)) return nullptr;
  const std::uint64_t version = db_->relation_version(name);
  auto it = cache_.find(name);
  if (it == cache_.end() || it->second.version != version) {
    Entry entry;
    entry.version = version;
    entry.stats = ComputeRelationStats(db_->relation(name));
    ++recompute_count_;
    it = cache_.insert_or_assign(name, std::move(entry)).first;
  }
  return &it->second.stats;
}

}  // namespace setalg::stats
