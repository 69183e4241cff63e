#include "txn/snapshot.h"

#include <algorithm>

#include "util/check.h"

namespace setalg::txn {

const core::Relation& Snapshot::relation(const std::string& name) const {
  auto it = relations_.find(name);
  SETALG_CHECK_STREAM(it != relations_.end()) << "unknown relation: " << name;
  return it->second->relation();
}

std::uint64_t Snapshot::relation_version(const std::string& name) const {
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

stats::VersionVector Snapshot::Versions() const {
  std::vector<std::string> names = schema_.Names();
  return stats::SnapshotVersions(*this, std::move(names));
}

const stats::RelationStats* Snapshot::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  return &it->second->stats();
}

void WriteBatch::Set(std::string name, core::Relation relation) {
  // Readers share published relations without locking, so a relation is
  // normalized before it can become visible, never lazily by a reader.
  relation.Normalize();
  // Last write per name wins — and counts as one write: re-staging a name
  // replaces the earlier entry so a commit bumps each touched relation's
  // version exactly once.
  for (auto& [staged_name, staged_relation] : writes_) {
    if (staged_name == name) {
      staged_relation = std::move(relation);
      return;
    }
  }
  writes_.emplace_back(std::move(name), std::move(relation));
}

VersionedDatabase::VersionedDatabase(core::Schema schema)
    : schema_(std::move(schema)), id_(core::NextDatabaseId()) {
  Snapshot::RelationMap relations;
  std::unordered_map<std::string, std::uint64_t> versions;
  for (const auto& name : schema_.Names()) {
    relations.emplace(name, std::make_shared<const Snapshot::RelationVersion>(
                                core::Relation(schema_.Arity(name))));
    versions.emplace(name, 0);
  }
  head_ = SnapshotPtr(new Snapshot(schema_, std::move(relations),
                                   std::move(versions), id_, 0));
}

VersionedDatabase::VersionedDatabase(const core::Database& db)
    : schema_(db.schema()), id_(core::NextDatabaseId()) {
  Snapshot::RelationMap relations;
  std::unordered_map<std::string, std::uint64_t> versions;
  for (const auto& name : schema_.Names()) {
    core::Relation relation = db.relation(name);
    relation.Normalize();
    relations.emplace(
        name, std::make_shared<const Snapshot::RelationVersion>(std::move(relation)));
    versions.emplace(name, 0);
  }
  head_ = SnapshotPtr(new Snapshot(schema_, std::move(relations),
                                   std::move(versions), id_, 0));
}

SnapshotPtr VersionedDatabase::snapshot() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

SnapshotPtr VersionedDatabase::SetRelation(const std::string& name,
                                           core::Relation relation) {
  relation.Normalize();
  std::vector<std::pair<std::string, core::Relation>> writes;
  writes.emplace_back(name, std::move(relation));
  std::lock_guard<std::mutex> lock(write_mu_);
  return PublishLocked(std::move(writes));
}

SnapshotPtr VersionedDatabase::Mutate(
    const std::string& name, const std::function<void(core::Relation&)>& fn) {
  std::lock_guard<std::mutex> lock(write_mu_);
  core::Relation copy = head_->relation(name);
  fn(copy);
  copy.Normalize();
  std::vector<std::pair<std::string, core::Relation>> writes;
  writes.emplace_back(name, std::move(copy));
  return PublishLocked(std::move(writes));
}

SnapshotPtr VersionedDatabase::Commit(WriteBatch batch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return PublishLocked(std::move(batch.writes_));
}

SnapshotPtr VersionedDatabase::PublishLocked(
    std::vector<std::pair<std::string, core::Relation>> writes) {
  // Copy-on-write: shallow-copy the published maps (shared_ptr per
  // relation version), then replace only the touched entries. Readers
  // holding the old snapshot keep the old versions alive; nothing they
  // can reach is ever modified. Untouched versions carry their statistics
  // over.
  Snapshot::RelationMap relations = head_->relations_;
  std::unordered_map<std::string, std::uint64_t> versions = head_->versions_;
  for (auto& [name, relation] : writes) {
    SETALG_CHECK_STREAM(schema_.HasRelation(name))
        << "unknown relation: " << name;
    SETALG_CHECK_EQ(schema_.Arity(name), relation.arity());
    relations.insert_or_assign(
        name, std::make_shared<const Snapshot::RelationVersion>(std::move(relation)));
    ++versions[name];
  }
  const SnapshotPtr published(new Snapshot(schema_, std::move(relations),
                                           std::move(versions), id_,
                                           head_->version() + 1));
  SnapshotPtr previous = published;
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    head_.swap(previous);
  }
  // If no reader holds the previous head, it is freed here, outside
  // head_mu_.
  return published;
}

}  // namespace setalg::txn
