#include "setjoin/setjoin.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"
#include "util/hash.h"

namespace setalg::setjoin {
namespace {

using core::Relation;
using core::Value;

// The signature of every group, in group order.
std::vector<std::uint64_t> Signatures(const GroupedRelation& grouped) {
  std::vector<std::uint64_t> signatures;
  signatures.reserve(grouped.NumGroups());
  for (std::size_t i = 0; i < grouped.NumGroups(); ++i) {
    signatures.push_back(SetSignature(grouped.group(i).elements));
  }
  return signatures;
}

Relation NestedLoopContainment(const GroupedRelation& r, const GroupedRelation& s,
                               bool use_signatures) {
  Relation out(2);
  std::vector<std::uint64_t> r_signatures, s_signatures;
  if (use_signatures) {
    r_signatures = Signatures(r);
    s_signatures = Signatures(s);
  }
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    const Group rg = r.group(i);
    for (std::size_t j = 0; j < s.NumGroups(); ++j) {
      const Group sg = s.group(j);
      if (sg.elements.size() > rg.elements.size()) continue;
      if (use_signatures && (s_signatures[j] & ~r_signatures[i]) != 0) continue;
      if (SortedSubset(sg.elements, rg.elements)) out.Add({rg.key, sg.key});
    }
  }
  return out;
}

Relation PartitionedContainment(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  // Pick the partition count from the candidate-side size.
  const std::size_t partitions =
      std::max<std::size_t>(1, std::min<std::size_t>(64, r.NumGroups() / 8 + 1));
  auto partition_of = [&](Value e) {
    return static_cast<std::size_t>(util::Mix64(static_cast<std::uint64_t>(e)) %
                                    partitions);
  };
  // Candidate (containing) groups are replicated to the partition of each
  // of their elements; a contained group only needs to visit the partition
  // of one designated element (its minimum), since that element must occur
  // in any containing set. stamp[p] names the last group routed to p, so a
  // group lands in each partition once.
  std::vector<std::vector<std::size_t>> r_parts(partitions), s_parts(partitions);
  std::vector<std::size_t> stamp(partitions, r.NumGroups());
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (Value e : r.group(i).elements) {
      const std::size_t p = partition_of(e);
      if (stamp[p] != i) {
        stamp[p] = i;
        r_parts[p].push_back(i);
      }
    }
  }
  for (std::size_t j = 0; j < s.NumGroups(); ++j) {
    s_parts[partition_of(s.group(j).elements.front())].push_back(j);
  }
  const std::vector<std::uint64_t> r_signatures = Signatures(r);
  const std::vector<std::uint64_t> s_signatures = Signatures(s);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t i : r_parts[p]) {
      const Group rg = r.group(i);
      for (std::size_t j : s_parts[p]) {
        const Group sg = s.group(j);
        if (sg.elements.size() > rg.elements.size()) continue;
        if ((s_signatures[j] & ~r_signatures[i]) != 0) continue;
        if (SortedSubset(sg.elements, rg.elements)) out.Add({rg.key, sg.key});
      }
    }
  }
  return out;
}

Relation InvertedIndexContainment(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  // Postings: element -> candidate group indices containing it.
  std::unordered_map<Value, std::vector<std::uint32_t>> postings;
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (Value e : r.group(i).elements) {
      postings[e].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::uint32_t> hit_count(r.NumGroups(), 0);
  std::vector<std::uint32_t> touched;
  for (std::size_t j = 0; j < s.NumGroups(); ++j) {
    const Group sg = s.group(j);
    touched.clear();
    for (Value e : sg.elements) {
      auto it = postings.find(e);
      if (it == postings.end()) continue;
      for (std::uint32_t i : it->second) {
        if (hit_count[i] == 0) touched.push_back(i);
        ++hit_count[i];
      }
    }
    for (std::uint32_t i : touched) {
      if (hit_count[i] == sg.elements.size()) {
        out.Add({r.group(i).key, sg.key});
      }
      hit_count[i] = 0;
    }
  }
  return out;
}

}  // namespace

const char* ContainmentAlgorithmToString(ContainmentAlgorithm algorithm) {
  switch (algorithm) {
    case ContainmentAlgorithm::kNestedLoop:
      return "nested-loop";
    case ContainmentAlgorithm::kSignatureNestedLoop:
      return "signature-nested-loop";
    case ContainmentAlgorithm::kPartitioned:
      return "partitioned";
    case ContainmentAlgorithm::kInvertedIndex:
      return "inverted-index";
  }
  return "?";
}

std::vector<ContainmentAlgorithm> AllContainmentAlgorithms() {
  return {ContainmentAlgorithm::kNestedLoop, ContainmentAlgorithm::kSignatureNestedLoop,
          ContainmentAlgorithm::kPartitioned, ContainmentAlgorithm::kInvertedIndex};
}

core::Relation SetContainmentJoin(const GroupedRelation& r, const GroupedRelation& s,
                                  ContainmentAlgorithm algorithm) {
  switch (algorithm) {
    case ContainmentAlgorithm::kNestedLoop:
      return NestedLoopContainment(r, s, /*use_signatures=*/false);
    case ContainmentAlgorithm::kSignatureNestedLoop:
      return NestedLoopContainment(r, s, /*use_signatures=*/true);
    case ContainmentAlgorithm::kPartitioned:
      return PartitionedContainment(r, s);
    case ContainmentAlgorithm::kInvertedIndex:
      return InvertedIndexContainment(r, s);
  }
  SETALG_CHECK_STREAM(false) << "unreachable";
  return core::Relation(2);
}

core::Relation SetContainmentJoin(const core::Relation& r, const core::Relation& s,
                                  ContainmentAlgorithm algorithm) {
  return SetContainmentJoin(GroupedRelation(r), GroupedRelation(s), algorithm);
}

const char* EqualityJoinAlgorithmToString(EqualityJoinAlgorithm algorithm) {
  switch (algorithm) {
    case EqualityJoinAlgorithm::kNestedLoop:
      return "nested-loop";
    case EqualityJoinAlgorithm::kCanonicalHash:
      return "canonical-hash";
  }
  return "?";
}

core::Relation SetEqualityJoin(const GroupedRelation& r, const GroupedRelation& s,
                               EqualityJoinAlgorithm algorithm) {
  Relation out(2);
  if (algorithm == EqualityJoinAlgorithm::kNestedLoop) {
    for (std::size_t i = 0; i < r.NumGroups(); ++i) {
      const Group rg = r.group(i);
      for (std::size_t j = 0; j < s.NumGroups(); ++j) {
        const Group sg = s.group(j);
        if (std::ranges::equal(rg.elements, sg.elements)) out.Add({rg.key, sg.key});
      }
    }
    return out;
  }
  // Canonical hash: bucket the contained side by exact set hash, probe
  // with each candidate set, verify within the bucket.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  for (std::size_t j = 0; j < s.NumGroups(); ++j) {
    buckets[SetHash(s.group(j).elements)].push_back(static_cast<std::uint32_t>(j));
  }
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    const Group rg = r.group(i);
    auto it = buckets.find(SetHash(rg.elements));
    if (it == buckets.end()) continue;
    for (std::uint32_t j : it->second) {
      const Group sg = s.group(j);
      if (std::ranges::equal(rg.elements, sg.elements)) out.Add({rg.key, sg.key});
    }
  }
  return out;
}

core::Relation SetEqualityJoin(const core::Relation& r, const core::Relation& s,
                               EqualityJoinAlgorithm algorithm) {
  return SetEqualityJoin(GroupedRelation(r), GroupedRelation(s), algorithm);
}

core::Relation SetOverlapJoin(const GroupedRelation& r, const GroupedRelation& s) {
  Relation out(2);
  std::unordered_map<Value, std::vector<std::uint32_t>> postings;
  for (std::size_t i = 0; i < r.NumGroups(); ++i) {
    for (Value e : r.group(i).elements) {
      postings[e].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<bool> seen(r.NumGroups(), false);
  std::vector<std::uint32_t> touched;
  for (std::size_t j = 0; j < s.NumGroups(); ++j) {
    const Group sg = s.group(j);
    touched.clear();
    for (Value e : sg.elements) {
      auto it = postings.find(e);
      if (it == postings.end()) continue;
      for (std::uint32_t i : it->second) {
        if (!seen[i]) {
          seen[i] = true;
          touched.push_back(i);
          out.Add({r.group(i).key, sg.key});
        }
      }
    }
    for (std::uint32_t i : touched) seen[i] = false;
  }
  return out;
}

core::Relation SetOverlapJoin(const core::Relation& r, const core::Relation& s) {
  return SetOverlapJoin(GroupedRelation(r), GroupedRelation(s));
}

}  // namespace setalg::setjoin
