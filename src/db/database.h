#ifndef BAMBOO_SRC_DB_DATABASE_H_
#define BAMBOO_SRC_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/db/lock_table.h"
#include "src/db/txn.h"
#include "src/storage/table.h"

namespace bamboo {

class Wal;
class Checkpointer;
struct RecoveryResult;

/// Owns tables and indexes; names are looked up at load time only.
/// Creation has one writer (the loader); table_count/TableAt may run
/// concurrently with it (the checkpointer).
class Catalog {
 public:
  Table* CreateTable(const std::string& name, const Schema& schema);
  HashIndex* CreateIndex(const std::string& name, uint64_t capacity);
  Table* GetTable(const std::string& name) const;
  HashIndex* GetIndex(const std::string& name) const;

  /// Positional access for whole-catalog scans (checkpointing).
  size_t table_count() const { return table_dir_.size(); }
  Table* TableAt(size_t i) const { return table_dir_[i]; }

 private:
  std::vector<std::unique_ptr<Table>> tables_;  ///< owner (writer only)
  PublishedArray<Table> table_dir_;             ///< what readers walk
  std::vector<std::unique_ptr<HashIndex>> indexes_;
  std::vector<std::string> index_names_;
};

/// Concurrency-control front end: timestamp authority (wound-wait priority
/// timestamps *and* the commit-timestamp counter) + the lock manager.
class CCManager {
 public:
  explicit CCManager(const Config& cfg)
      : cfg_(cfg), locks_(cfg, &ts_counter_, &cts_stamped_) {}

  /// Start (an attempt of) a transaction. With static timestamping (or any
  /// non-Bamboo locking protocol) a fresh timestamp is assigned here;
  /// retries keep their old one so the oldest transaction cannot starve.
  void Begin(TxnCB* txn) {
    bool needs_ts = !(cfg_.protocol == Protocol::kBamboo && cfg_.dynamic_ts) &&
                    cfg_.protocol != Protocol::kSilo &&
                    cfg_.protocol != Protocol::kNoWait;
    if (needs_ts && txn->ts.load(std::memory_order_relaxed) == 0) {
      txn->ts.store(ts_counter_.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
  }

  /// Draw the next commit timestamp (CTS). Called by the committing thread
  /// immediately after its status CAS to kCommitted. The drawn stamp is
  /// not snapshot-visible until PublishCts.
  uint64_t NextCts() {
    return cts_alloc_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Draw, stamp and publish `txn`'s commit timestamp, in that order: the
  /// release-store of commit_cts must precede publication so a snapshot
  /// pinned at or above it always sees the stamp. Call only after the
  /// status CAS to kCommitted (the point of no return).
  void StampCommit(TxnCB* txn) {
    uint64_t cts = NextCts();
    txn->commit_cts.store(cts, std::memory_order_release);
    PublishCts(cts);
  }

  /// Publish a drawn CTS, in order. Snapshots pin against the *stamped*
  /// watermark, so a pin of S guarantees every commit with cts <= S has
  /// already made its TxnCB::commit_cts store visible -- without the
  /// ladder a reader could pin S covering a stamp it cannot see yet and
  /// judge the same writer differently on different rows. The wait is a
  /// handful of instructions per earlier committer (stamp store only; no
  /// latch is ever held between NextCts and here).
  void PublishCts(uint64_t cts) {
    while (cts_stamped_.load(std::memory_order_acquire) != cts - 1) {
      std::this_thread::yield();
    }
    cts_stamped_.store(cts, std::memory_order_release);
  }

  LockManager* locks() { return &locks_; }

  /// Resume both CTS counters above everything recovery replayed, so
  /// post-recovery commits never collide with pre-crash stamps. Called by
  /// Database::Recover only (single-threaded, before workers start).
  void RecoverCts(uint64_t max_cts) {
    uint64_t v = max_cts > 1 ? max_cts : 1;
    cts_alloc_.store(v, std::memory_order_relaxed);
    cts_stamped_.store(v, std::memory_order_relaxed);
  }

 private:
  const Config& cfg_;
  std::atomic<uint64_t> ts_counter_{0};
  /// CTS allocation counter and in-order publication watermark. Both
  /// seeded at 1 so a pinned snapshot (a load of cts_stamped_) is never 0,
  /// which TxnCB::raw_snapshot_cts reserves for "no snapshot pinned".
  /// Cache-line isolated from each other (and from ts_counter_/locks_):
  /// every committer bumps cts_alloc_ while concurrent publishers spin on
  /// and readers pin from cts_stamped_ -- on one line the allocation
  /// fetch_add would invalidate every pinning reader's cached watermark.
  /// The sharded lock table additionally keeps per-shard mirrors of the
  /// published watermark (LockShard::cts_mirror) so most Opt-3 pins never
  /// touch cts_stamped_'s line at all.
  alignas(kCacheLineSize) std::atomic<uint64_t> cts_alloc_{1};
  alignas(kCacheLineSize) std::atomic<uint64_t> cts_stamped_{1};
  alignas(kCacheLineSize) LockManager locks_;
};

/// Facade tying config, catalog and concurrency control together. One
/// Database per bench data point; worker threads share it.
///
/// With `log_enabled` (and a log_dir) the Database owns a Wal: committing
/// transactions append their after-images and are acknowledged durable
/// only once the group-commit watermark covers them; Recover replays a
/// crashed Database's log into a freshly loaded one.
class Database {
 public:
  explicit Database(const Config& cfg);
  ~Database();

  Catalog* catalog() { return &catalog_; }
  CCManager* cc() { return &cc_; }
  const Config& config() const { return cfg_; }
  /// The write-ahead log, or nullptr when logging is off (also for the
  /// Silo baseline, whose seqlock commit path bypasses the WAL hooks).
  Wal* wal() const { return wal_.get(); }
  /// The background checkpointer, or nullptr unless ckpt_enabled and the
  /// WAL came up healthy.
  Checkpointer* checkpointer() const { return ckpt_.get(); }

  /// Create one row in `table` and register it in `index` under `key`.
  /// Returns the row so loaders can fill in the initial image. The row
  /// carries its WAL identity (stamped by CreateRow); table->index is
  /// remembered for recovery.
  Row* LoadRow(Table* table, HashIndex* index, uint64_t key) {
    Row* row = table->CreateRow(key);
    index->Put(key, row);
    uint32_t tid = table->id();
    if (tid >= table_index_.size()) table_index_.resize(tid + 1, nullptr);
    table_index_[tid] = index;
    return row;
  }

  /// Index registered for `table_id`'s rows (recovery lookup), or nullptr.
  HashIndex* RecoveryIndex(uint32_t table_id) const {
    return table_id < table_index_.size() ? table_index_[table_id] : nullptr;
  }

  /// Replay `log_dir`'s write-ahead log into this (freshly loaded)
  /// Database: scan, verify checksums, refuse the torn tail, install the
  /// prefix-closed record set up to the last fully-durable epoch, and
  /// resume the CTS authority past every replayed stamp. Call after the
  /// workload's Load and before any transaction runs. (Defined in wal.cc.)
  RecoveryResult Recover(const std::string& log_dir);

 private:
  Config cfg_;
  Catalog catalog_;
  CCManager cc_;
  /// Recovery lookup: table id -> the index its rows were loaded under.
  std::vector<HashIndex*> table_index_;
  std::unique_ptr<Wal> wal_;
  /// Declared after wal_ so it is destroyed first: the checkpointer's
  /// background thread uses the WAL until it joins.
  std::unique_ptr<Checkpointer> ckpt_;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_DATABASE_H_
