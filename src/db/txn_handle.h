#ifndef BAMBOO_SRC_DB_TXN_HANDLE_H_
#define BAMBOO_SRC_DB_TXN_HANDLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/db/database.h"
#include "src/db/txn.h"
#include "src/db/wal.h"
#include "src/storage/row.h"

namespace bamboo {

/// Pooled open-addressed pointer set backing the access-dedup fallback for
/// long transactions. Power-of-two capacity, linear probing, <=50% load.
/// The slot array is retained across attempts (Clear memsets it only when
/// it was used), so the executor joins the lock table's
/// zero-allocation-after-warmup guarantee -- the std::unordered_set it
/// replaces allocated a node per insert, every attempt.
class RowSet {
 public:
  bool Contains(const Row* row) const {
    if (used_ == 0) return false;
    size_t i = Slot(row);
    while (slots_[i] != nullptr) {
      if (slots_[i] == row) return true;
      i = (i + 1) & (cap_ - 1);
    }
    return false;
  }

  void Insert(const Row* row) {
    if (used_ * 2 >= cap_) Grow();
    size_t i = Slot(row);
    while (slots_[i] != nullptr) {
      if (slots_[i] == row) return;
      i = (i + 1) & (cap_ - 1);
    }
    slots_[i] = row;
    used_++;
  }

  void Clear() {
    if (used_ != 0) std::memset(slots_.get(), 0, cap_ * sizeof(slots_[0]));
    used_ = 0;
  }

  size_t capacity() const { return cap_; }

 private:
  size_t Slot(const Row* row) const {
    uint64_t h = reinterpret_cast<uintptr_t>(row);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;  // Murmur3 finalizer: spreads aligned ptrs
    h ^= h >> 33;
    return static_cast<size_t>(h) & (cap_ - 1);
  }

  void Grow() {
    size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    std::unique_ptr<const Row*[]> nslots(new const Row*[ncap]());
    std::unique_ptr<const Row*[]> old = std::move(slots_);
    size_t ocap = cap_;
    slots_ = std::move(nslots);
    cap_ = ncap;
    size_t n = used_;
    used_ = 0;
    for (size_t i = 0; i < ocap && n != 0; i++) {
      if (old[i] != nullptr) {
        Insert(old[i]);
        n--;
      }
    }
  }

  std::unique_ptr<const Row*[]> slots_;
  size_t cap_ = 0;
  size_t used_ = 0;
};

/// Per-worker transaction executor. Construct once per thread and reuse
/// across attempts: the handle notices a new `txn_seq` and resets itself.
///
/// Every lock-taking access stores the GrantToken the lock manager handed
/// back, so retire/release go straight to the request node (O(1)) -- the
/// executor is the token's home for the footprint's lifetime.
///
/// Contract: every attempt ends in Commit() (with kOk or kUserAbort), which
/// releases all lock footprint; the caller bumps txn_seq and calls
/// CCManager::Begin before the next attempt.
class TxnHandle {
 public:
  TxnHandle(Database* db, TxnCB* txn);

  /// Read the row at `key`. On success `*data` points at a stable
  /// transaction-local copy (repeatable within the attempt).
  RC Read(HashIndex* index, uint64_t key, const char** data);

  /// Read-modify-write the row at `key`. On success `*data` points at the
  /// transaction's private image; write through it, then call WriteDone().
  /// A row previously read by this transaction upgrades its SH grant in
  /// place (the read stays continuously protected).
  RC Update(HashIndex* index, uint64_t key, char** data);

  /// Fused read-modify-write: `fn(image, arg)` runs under the tuple latch
  /// and, for Bamboo (outside the Opt-2 tail), the write retires in the
  /// same latch hold -- the tuple is never exposed in a half-written owner
  /// state, and queued RMWs are applied by the releasing thread. Preferred
  /// for short hotspot updates (stored-procedure execution model).
  RC UpdateRmw(HashIndex* index, uint64_t key, RmwFn fn, void* arg);

  /// Batch multi-key read: sorts the keys (deterministic acquisition
  /// order), reserves the request-pool slots once, and acquires per row in
  /// one pass; interactive mode pays a single RTT for the whole batch.
  /// `data_out[i]` receives the image for `keys[i]` (duplicates share one
  /// copy). Returns kOk only when every key was granted.
  RC ReadMany(HashIndex* index, const uint64_t* keys, int n,
              const char** data_out);

  /// Batch multi-key fused RMW: same batching as ReadMany; `fn(image,arg)`
  /// is applied once per key occurrence, with duplicates coalesced into a
  /// single grant (the first grant may retire the write, after which no
  /// further in-place application would be sound).
  RC UpdateRmwMany(HashIndex* index, const uint64_t* keys, int n, RmwFn fn,
                   void* arg);

  /// Mark the most recent Update as complete. Under Bamboo this retires
  /// the write lock (early release) unless the Opt-2 tail rule keeps it.
  void WriteDone();

  /// Finish the attempt. `user_rc` is the transaction logic's verdict
  /// (kOk or kUserAbort). Returns kOk on commit, kAbort on a protocol
  /// abort, kUserAbort if the logic abort went through, or kPending when
  /// the commit was handed off (detach mode only).
  RC Commit(RC user_rc);

  /// Allow Commit to hand off a dependency-blocked commit instead of
  /// blocking the worker (commit pipelining). Only safe when the caller
  /// keeps this handle and its TxnCB untouched until TxnCB::detach_state
  /// reports completion -- the bench runner's slot pool does; default off.
  void SetDetachAllowed(bool allowed) { detach_allowed_ = allowed; }

  TxnCB* txn() const { return txn_; }

  // --- continuation suspension. The driver picks the wait path: a handle
  // whose TxnCB has a susp_fire hook (the network server's event loops)
  // suspends; without one (thread workers) every wait futex-parks.
  //
  // A statement that would block records its wait, arms the TxnCB
  // continuation, and returns RC::kSuspended (Commit passes it through,
  // so workloads that funnel a failed op into Commit(kOk) report it
  // upward unchanged). When the continuation fires, the driver calls
  // ResumeSuspended():
  //   kSuspended - spurious wakeup; the wait predicate still fails and
  //                the continuation was re-armed. Park again.
  //   kPending   - a *statement* wait resolved (grant or wound). Re-issue
  //                just the blocked statement with the same arguments; the
  //                handle's parked-wait state finishes it.
  //   other      - a *commit* wait resolved; the value is the final
  //                Commit result (kOk / kAbort).
  /// True when this handle parked a continuation that has not resolved.
  bool Suspended() const { return susp_kind_ != SuspKind::kNone; }
  RC ResumeSuspended();

 private:
  /// kWaitingUpgrade marks a waiting SH->EX conversion (vs. a fresh EX
  /// wait): a suspended-then-re-issued statement must reconstruct the
  /// resume descriptor with upgrade_of set so the lock manager reports
  /// the grant off the token instead of re-finalizing it.
  enum class AccState { kWaiting, kWaitingUpgrade, kOwner, kRetired,
                        kSnapshot };

  struct Access {
    Row* row;
    LockType type;
    AccState state;
    char* data;  ///< SH: arena copy; EX: private version image
    GrantToken token;  ///< lock manager request node; null for kSnapshot
  };

  struct SiloRead {
    Row* row;
    uint64_t tid;
  };
  struct SiloWrite {
    Row* row;
    char* buf;
  };

  /// One batch element: original key plus its position in the caller's
  /// arrays, so results land in caller order after the sort.
  struct BatchKey {
    uint64_t key;
    int idx;
  };

  /// One not-yet-submitted row of a multi-key batch (new rows only;
  /// dedup hits are collected into rmw_hits_ and resolve through the
  /// scalar paths after the batch submits).
  /// Carries the routing shard so the batch can be sorted into maximal
  /// same-shard runs for LockManager::SubmitMany, and `uniq` -- the
  /// element's rank in key order -- as the deterministic tie-break within
  /// a shard (equal keys never appear twice here).
  struct PendKey {
    Row* row;
    uint32_t shard;
    int uniq;
    char* buf;  ///< SH read buffer; null for EX
    RmwFn fn;
    void* arg;
    bool retire_now;
    /// Occurrences this entry coalesces (1 = plain). reps > 1 means `arg`
    /// points at an RmwRepeat in rmw_reps_; a mid-batch resume refreshes
    /// that entry's inner fn/arg with the re-issued statement's.
    int reps = 1;
  };

  /// Duplicate-key coalescing: one grant applies `fn(.., arg)` `n` times.
  /// Batch entries point at retained member storage (rmw_reps_) because a
  /// promoting thread may apply the RMW while this worker is parked on an
  /// earlier key of the same batch -- the argument must stay at a stable
  /// address until the whole batch resolves.
  struct RmwRepeat {
    RmwFn fn;
    void* arg;
    int n;
  };

  /// One dedup hit of an UpdateRmwMany (row already in accesses_):
  /// own-write application or SH->EX upgrade, deferred to RunRmwHits so a
  /// blocking upgrade can suspend instead of parking inside the build.
  struct RmwHit {
    Row* row;
    int run;  ///< coalesced occurrences (fn applied `run` times)
  };

  /// What kind of wait the parked continuation covers; picks the resume
  /// predicate in ResumeSuspended.
  enum class SuspKind : uint8_t { kNone, kStatement, kCommit };

  void MaybeReset();
  char* ArenaAlloc(uint32_t size);
  void Rollback();
  bool TailWrite() const;
  /// Deduplication lookup. Linear for short transactions; long ones (the
  /// 1000-op scans) switch to the pooled RowSet so each op stays O(1).
  Access* FindAccess(Row* row);
  void NoteAccess(Row* row);
  /// Mark the attempt doomed (no-wait/wait-die decisions, missing rows) so
  /// a later Commit(kOk) cannot commit the partial footprint.
  RC FailAttempt();
  /// FailAttempt for a refused grant, preserving the refusal's abort code:
  /// a kReadOnlyMode rejection (WAL degraded to read-only) surfaces as
  /// RC::kReadOnlyMode so the runner retires the seed instead of retrying.
  RC FailGrant(const AccessGrant& g);
  /// Park until the pending lock request is granted or this txn is
  /// wounded. Returns the ns spent parked. (With BAMBOO_DEBUG_STUCK it
  /// polls and dumps the row's queues when stuck.)
  uint64_t WaitForLock(Row* row);

  /// Core of Read/ReadMany once the row is resolved (no reset/RTT).
  RC ReadRow(Row* row, const char** data);
  /// Core of Update once the row is resolved.
  RC UpdateRow(Row* row, char** data);
  /// Core of UpdateRmw/UpdateRmwMany once the row is resolved.
  RC UpdateRmwRow(Row* row, RmwFn fn, void* arg);
  /// Upgrade an existing SH access to EX (in place, via its token).
  RC UpgradeAccess(Access* a, RmwFn fn, void* arg, char** data_out);
  /// Sort `pend_` into (shard, key) order and drive it through
  /// LockManager::SubmitMany via RunBatch: one latch hold per same-shard
  /// run, parking (or suspending) on kWait grants and recording every
  /// access. Fails the attempt on the first abort. `fn`/`arg` are the
  /// statement's RMW for EX batches (null for SH).
  RC SubmitPending(LockType type, RmwFn fn, void* arg);

  // --- continuation suspension internals (single-threaded between the
  // suspension and its resume; the driver owns the handle throughout).
  /// The driver installed a continuation hook, so waits suspend instead
  /// of futex-parking this thread.
  bool CanSuspend() const { return txn_->susp_fire != nullptr; }
  bool StmtResolved() const;
  bool CommitDrained() const;
  /// Dekker arm: record the suspension, arm the TxnCB, re-check the wait
  /// predicate. Returns true when suspended (caller returns kSuspended);
  /// false when the predicate already held and the arm was reclaimed --
  /// the caller proceeds inline, the wait is over.
  bool ArmSuspension(SuspKind kind);
  /// Re-arm after a spurious fire. True = still suspended.
  bool ReArm();
  /// Finish a waiting scalar access after its suspension resolved (the
  /// re-issued statement, or inline after a reclaimed arm). `fn`/`arg` are
  /// the statement's live RMW (null for reads/plain writes); suspended RMW
  /// waits were unfused, so the grant is plain and the RMW applies here.
  RC FinishWait(Access* a, RmwFn fn, void* arg, bool retire_now);
  /// The SubmitMany loop, resumable across suspensions off batch_* state.
  RC RunBatch(RmwFn fn, void* arg);
  /// Dedup-hit phase of UpdateRmwMany (resumable via hits_done_).
  RC RunRmwHits(RmwFn fn, void* arg);
  /// Finish the waiting batch grant `j` (mirror of FinishWait).
  RC FinishBatchWait(int j, RmwFn fn, void* arg);
  /// Caller-order ReadMany output fill from batch_/uniq_data_.
  void FillReadManyOut(const char** data_out);
  /// Commit's point of no return onward (CAS to kCommitted, stamp, log,
  /// release); shared by the blocking path and the commit-wait resume.
  RC CommitTail();
  /// Release every lock-holding access through ReleaseMany (shard-sorted,
  /// one latch hold per run). Returns dependents wounded.
  int ReleaseAll(bool committed);

  /// Finish a detached commit (or its cascade abort) on whatever thread
  /// claimed it. Must not touch the origin worker's ThreadStats; the
  /// origin accounts for the outcome when it reclaims the slot.
  static void CompleteDetachedThunk(TxnCB* txn);
  void CompleteDetached();

  /// Stage this commit's after-images into the WAL and compute the
  /// durable-ack epoch (no-op without a Wal). Runs between the
  /// commit-point CAS and the lock releases: the version images are still
  /// live, and the ack epoch must be set before dependents see the
  /// barrier lift.
  void LogCommitRecords();

  RC SiloRead_(Row* row, const char** data);
  RC SiloUpdate_(Row* row, char** data);
  /// Read-then-write (or re-write) of a Silo row: move the existing
  /// transaction-local copy into the write set.
  void SiloPromoteToWrite(Row* row, Access* a);
  RC SiloCommit_(RC user_rc);
  char* SiloStableCopy(Row* row, uint64_t* tid_out);

  Database* db_;
  TxnCB* txn_;
  const Config& cfg_;
  LockManager* lm_;
  uint64_t seen_seq_ = ~0ull;
  bool detach_allowed_ = false;
  /// This attempt hit the WAL's read-only gate; Commit reports
  /// kReadOnlyMode so the caller stops retrying. Reset per attempt.
  bool readonly_rejected_ = false;

  std::vector<Access> accesses_;
  RowSet seen_rows_;
  bool use_row_set_ = false;
  std::vector<BatchKey> batch_;  ///< sort scratch for the multi-key APIs
  // Batch-submission scratch (retained across attempts, so the multi-key
  // APIs stay allocation-free after warmup).
  std::vector<PendKey> pend_;
  std::vector<AccessRequest> pend_reqs_;
  std::vector<AccessGrant> pend_grants_;
  std::vector<const char*> uniq_data_;  ///< per distinct key, in key order
  std::vector<RmwRepeat> rmw_reps_;     ///< stable homes for coalesced RMWs
  std::vector<ReleaseOp> rel_ops_;      ///< batch-release scratch
  std::vector<Wal::WriteRef> wal_writes_;  ///< commit-logging scratch
  std::vector<SiloRead> silo_reads_;
  std::vector<SiloWrite> silo_writes_;

  // --- continuation suspension state (reset per attempt by MaybeReset).
  SuspKind susp_kind_ = SuspKind::kNone;
  uint64_t susp_start_ns_ = 0;  ///< park time; charged to stats at resume
  /// Suspended-batch resume state: RunBatch re-enters at batch_next_ after
  /// finishing the waiting grant batch_j_ (-1 = none pending).
  bool batch_live_ = false;
  LockType batch_type_ = LockType::kSH;
  int batch_next_ = 0;
  int batch_j_ = -1;
  bool batch_unfused_ = false;
  /// Suspended dedup-hit resume state for UpdateRmwMany: hits_done_ is the
  /// count of fully applied hits (the resume cursor); hits_live_ marks a
  /// statement suspended inside RunRmwHits (batch already submitted).
  std::vector<RmwHit> rmw_hits_;
  int hits_done_ = 0;
  bool hits_live_ = false;

  // Chunked arena for transaction-local row copies; pointers are stable
  // until the next attempt. Rows larger than a chunk get dedicated
  // allocations in big_chunks_ (freed on reset, not reused).
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::unique_ptr<char[]>> big_chunks_;
  size_t chunk_idx_ = 0;
  size_t chunk_off_ = 0;
  static constexpr size_t kChunkSize = 1 << 16;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_TXN_HANDLE_H_
