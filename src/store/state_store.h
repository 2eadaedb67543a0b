// StateStore: the durable side of a query server — one directory that
// survives kill -9.
//
// Layout of --state-dir:
//
//   budget.wal       append-only ε ledger (store/wal.h) shared by every
//                    dataset; replayed at open
//   datasets.json    manifest: {"version": 1, "next_id": N,
//                    "datasets": [{"id", "snapshot", "budget"}, ...]},
//                    rewritten atomically on every registration/eviction
//   snapshots/       one <id>.snap per registered dataset
//                    (store/snapshot.h)
//
// Invariant the write ordering maintains: by the time a dataset is
// visible to queries, its snapshot and manifest entry are durable and
// its Accountant is journal-attached — so there is no window in which ε
// can be spent on data the next boot won't remember. That is why
// PersistRegistration runs as the DatasetRegistry's pre-insert hook, and
// why eviction persists the manifest BEFORE the registry forgets the id
// (a failed manifest write leaves the dataset registered and returns
// 500, rather than resurrecting it on restart with its ledger intact but
// its eviction forgotten... the other way around).
//
// Recovery is conservative in the same direction as the WAL: spend
// replayed for an id no longer in the manifest is simply ignored, but a
// re-registered NAME (operator preloads) re-binds to whatever the WAL
// remembers under that name — a name reuse can over-charge, never
// under-charge.
#ifndef PRIVBASIS_STORE_STATE_STORE_H_
#define PRIVBASIS_STORE_STATE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "engine/dataset.h"
#include "store/wal.h"

namespace privbasis::store {

class StateStore {
 public:
  /// Creates/opens the directory layout and replays the budget WAL.
  /// Fails (leaving nothing half-open) on an unreadable manifest, a
  /// foreign/newer WAL, or IO errors.
  static Result<std::unique_ptr<StateStore>> Open(const std::string& dir,
                                                  FsyncMode mode);

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// One dataset brought back from disk: snapshot decoded, WAL-recovered
  /// spend Restore()d, journal attached. Ready to register.
  struct Recovered {
    std::string id;
    std::shared_ptr<Dataset> dataset;
  };

  /// Loads every manifest entry. A missing/corrupt snapshot fails the
  /// whole recovery (serving a subset would silently "forget" data the
  /// operator believes is registered — the server stays 503 instead).
  Result<std::vector<Recovered>> RecoverDatasets();

  /// The id counter persisted in the manifest (seed the registry with it
  /// so "ds-N" ids are never reused across restarts).
  uint64_t next_id() const;

  /// Durably records a registration BEFORE it becomes visible: snapshot
  /// file, manifest rewrite, then journal attachment (re-binding any
  /// spend the WAL already holds under this id). On failure nothing is
  /// registered and any partial snapshot is removed.
  Status PersistRegistration(const std::string& id,
                             const std::shared_ptr<Dataset>& dataset);

  /// Durably forgets `id` (manifest rewrite, then best-effort snapshot
  /// unlink). Idempotent; a failed manifest write keeps the dataset.
  Status PersistEviction(const std::string& id);

 private:
  struct ManifestEntry {
    std::string id;
    std::string snapshot;  // filename under snapshots/
    double total_epsilon;  // Accountant::kUnlimited = no cap
  };

  StateStore(std::string dir, FsyncMode mode, std::shared_ptr<BudgetWal> wal)
      : dir_(std::move(dir)), mode_(mode), wal_(std::move(wal)) {}

  std::string SnapshotPath(const ManifestEntry& entry) const;
  /// Serializes + atomically rewrites datasets.json.
  Status WriteManifestLocked() PB_REQUIRES(mu_);

  const std::string dir_;
  const FsyncMode mode_;
  std::shared_ptr<BudgetWal> wal_;

  mutable Mutex mu_;
  std::vector<ManifestEntry> entries_ PB_GUARDED_BY(mu_);
  uint64_t next_id_ PB_GUARDED_BY(mu_) = 1;
};

}  // namespace privbasis::store

#endif  // PRIVBASIS_STORE_STATE_STORE_H_
