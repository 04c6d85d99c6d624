#ifndef BAMBOO_SRC_DB_LOCK_TABLE_H_
#define BAMBOO_SRC_DB_LOCK_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "src/common/config.h"
#include "src/common/platform.h"
#include "src/common/stats.h"
#include "src/db/policy.h"

namespace bamboo {

struct TxnCB;
class Row;

enum class LockType : uint8_t { kSH, kEX };

inline bool Conflicts(LockType a, LockType b) {
  return a == LockType::kEX || b == LockType::kEX;
}

/// Applies a read-modify-write to a row image in place. Runs under the
/// entry latch, so it must stay tiny (counter bumps, balance updates).
using RmwFn = void (*)(char* data, void* arg);

/// One (txn, seq) commit-dependency edge recorded on a retired request;
/// the seq makes stale edges (a later attempt of the same TxnCB)
/// detectable, so records never dangle.
struct DepRec {
  TxnCB* txn;
  uint64_t seq;
};

/// Spill page for dependent records past the inline array. Pages are
/// recycled through a per-thread pool (lock_table.cc), so steady-state
/// spills never touch the allocator.
struct DepPage {
  static constexpr uint32_t kCap = 8;
  DepRec recs[kCap];
  DepPage* next = nullptr;
};

/// Which per-tuple list a request is currently linked into.
enum class ReqQueue : uint8_t { kNone, kOwners, kRetired, kWaiters };

/// One queued or granted request. Requests are intrusive list nodes that
/// live in the owning transaction's ReqPool (below); the lock manager only
/// ever links/unlinks them, so acquire/retire/promote/release never touch
/// the allocator and every erase is O(1). Node addresses are stable for the
/// footprint's lifetime, which is what lets the manager hand the pointer
/// back to the executor as an opaque GrantToken: release, retire and resume
/// go straight to the node instead of re-locating it by (txn, seq) scans.
/// All fields except the identity pair are guarded by the entry latch.
struct LockReq {
  // --- intrusive hooks. `next` doubles as the pool freelist link while
  //     the request is unallocated.
  LockReq* prev = nullptr;
  LockReq* next = nullptr;
  ReqQueue queue = ReqQueue::kNone;
  /// Pending SH->EX upgrade: the request keeps its SH slot in owners (or
  /// retired, Bamboo Opt 1) so the read stays continuously protected, but
  /// conflicts as if it were EX (EffectiveEx) until the upgrade is granted
  /// or the transaction rolls back.
  bool upgrading = false;

  // --- identity: (txn, seq) so references never dangle across the owning
  //     thread's retries.
  TxnCB* txn = nullptr;
  uint64_t seq = 0;
  LockType type = LockType::kSH;
  /// Fused RMW waiting to be applied (see AccessRequest). The promoter
  /// applies it on the sleeping waiter's behalf, so a whole queue of
  /// hotspot updates drains in a single latch hold.
  bool rmw_retire = false;
  RmwFn rmw_fn = nullptr;
  void* rmw_arg = nullptr;
  /// Private version image installed for this request by whichever thread
  /// completed the grant (immediate grant, RMW promotion, upgrade grant);
  /// Resume reads it back in O(1) instead of walking the version chain.
  char* write_data = nullptr;

  // --- dependents: transactions whose commit semaphore counts this
  //     (retired) request as their barrier; drained on commit, wounded on
  //     abort. The first kInlineDeps live inline; more spill to pooled
  //     pages (ThreadStats::pool_spills counts the page grabs) and the
  //     list shrinks back as records are scrubbed.
  static constexpr uint32_t kInlineDeps = 4;
  uint32_t dep_count = 0;
  DepRec dep_inline[kInlineDeps];
  DepPage* dep_head = nullptr;
  DepPage* dep_tail = nullptr;
};

/// Opaque handle to a transaction's request on one row. Returned by
/// LockManager::Submit (for granted *and* enqueued requests), stored by the
/// executor, and consumed by Resume/Retire/Release -- which thereby become
/// O(1): no list is ever scanned to find the caller's request again.
using GrantToken = LockReq*;

/// Conflict type of a linked request: a pending SH->EX upgrade blocks like
/// a writer so readers cannot starve it and nobody stacks behind it.
inline LockType EffectiveType(const LockReq& r) {
  return r.upgrading ? LockType::kEX : r.type;
}

inline bool EffectiveEx(const LockReq& r) {
  return r.type == LockType::kEX || r.upgrading;
}

/// Intrusive doubly-linked request list with O(1) link/unlink and the
/// conflict summary (`ex_count`) that lets waiter-eligibility checks skip
/// the scan in the common cases. `ex_count` counts *effective* EX members
/// (EX requests plus pending upgrades). All mutation happens under the
/// entry latch.
struct ReqList {
  LockReq* head = nullptr;
  LockReq* tail = nullptr;
  uint32_t size = 0;
  uint32_t ex_count = 0;  ///< effective-EX members (EX or upgrading)

  bool empty() const { return head == nullptr; }

  void PushBack(LockReq* r, ReqQueue q) { InsertBefore(nullptr, r, q); }

  /// Insert `r` before `pos` (nullptr = append at the tail).
  void InsertBefore(LockReq* pos, LockReq* r, ReqQueue q) {
    r->queue = q;
    r->next = pos;
    if (pos != nullptr) {
      r->prev = pos->prev;
      if (pos->prev != nullptr) {
        pos->prev->next = r;
      } else {
        head = r;
      }
      pos->prev = r;
    } else {
      r->prev = tail;
      if (tail != nullptr) {
        tail->next = r;
      } else {
        head = r;
      }
      tail = r;
    }
    size++;
    if (EffectiveEx(*r)) ex_count++;
  }

  void Remove(LockReq* r) {
    if (r->prev != nullptr) {
      r->prev->next = r->next;
    } else {
      head = r->next;
    }
    if (r->next != nullptr) {
      r->next->prev = r->prev;
    } else {
      tail = r->prev;
    }
    r->prev = nullptr;
    r->next = nullptr;
    r->queue = ReqQueue::kNone;
    size--;
    if (EffectiveEx(*r)) ex_count--;
  }
};

/// Per-transaction request pool: a fixed inline array of slots, growing by
/// geometric slabs only when a transaction's footprint outruns it (long
/// scans) -- and then never again, since slabs are retained for the TxnCB
/// lifetime. Steady-state Alloc/Free is a freelist pop/push.
///
/// Concurrency: the pool is *externally* synchronized by the TxnCB
/// ownership protocol -- at most one thread drives a given transaction's
/// acquires and releases at any time (a detached commit hands that role
/// over wholesale via the `detached` claim token), so no atomics are
/// needed here.
class ReqPool {
 public:
  ReqPool() {
    Thread(inline_, kInlineSlots);
  }
  ~ReqPool();
  ReqPool(const ReqPool&) = delete;
  ReqPool& operator=(const ReqPool&) = delete;

  /// Ensure at least `n` free slots, growing by slabs if needed. Called
  /// *before* the entry latch is taken (once per access, or once for a
  /// whole multi-key batch), so allocator work never extends a latch hold.
  void Reserve(uint32_t n = 1) {
    while (capacity_ - live_ < n) Grow();
  }
  /// Pop a reset slot. The caller must have Reserved: a missed reserve
  /// would silently grow a slab under the latch, so debug builds assert
  /// (the growth branch stays as a release-build backstop only).
  LockReq* Alloc();
  /// Return a slot. The caller must have unlinked it and cleared / drained
  /// its dependents (LockManager does both in Release).
  void Free(LockReq* r);

  // --- test/inspection helpers
  uint32_t capacity() const { return capacity_; }
  uint32_t live() const { return live_; }

 private:
  static constexpr uint32_t kInlineSlots = 20;  ///< covers 16-op default txns
  static constexpr int kMaxSlabs = 16;          ///< 20 * 2^16 slots max

  void Thread(LockReq* slots, uint32_t n) {
    for (uint32_t i = 0; i < n; i++) {
      slots[i].next = free_;
      free_ = &slots[i];
    }
  }

  void Grow();

  LockReq inline_[kInlineSlots];
  LockReq* slabs_[kMaxSlabs] = {};
  int num_slabs_ = 0;
  LockReq* free_ = nullptr;
  uint32_t capacity_ = kInlineSlots;
  uint32_t live_ = 0;
};

/// Per-tuple lock state: the paper's three queues.
///
///   owners  - granted, still in their "growing" phase on this tuple
///   retired - released early (Bamboo); order = dependency = commit order
///   waiters - blocked requests, oldest timestamp first
///
/// The entry carries no latch of its own: all queue state is guarded by the
/// latch of the LockShard the row hashes to (LockManager::ShardIndexOf), so
/// a multi-key batch landing in one shard mutates many entries under a
/// single latch hold. The entry stays cache-line aligned so adjacent
/// entries (or the surrounding Row fields) never false-share the queue
/// heads the shard-latch holder is writing.
struct alignas(kCacheLineSize) LockEntry {
  ReqList owners;
  ReqList retired;
  ReqList waiters;
  /// Linked requests with a pending SH->EX upgrade (granted or rolled back
  /// ones excluded). Lets PromoteWaiters skip the upgrade scan entirely in
  /// the common no-upgrade case.
  uint32_t upgrades_pending = 0;
  /// Conflict temperature (adaptive policy mode only; stays 0 in fixed
  /// mode). A decaying sum updated under the already-held shard latch:
  /// t -= t>>4 per submit, +256 per conflicting submit, +1024 per
  /// cascading abort, capped at 8192. Guarded by the shard latch.
  uint16_t temp = 0;
  /// Policy tier derived from `temp`: 0 = warm (full Bamboo / the fixed
  /// descriptor), 1 = cold (plain 2PL, retire skipped), 2 = pathological
  /// (escalated wound rule, forced RMW retire). Written only under the
  /// shard latch; atomic so Retire's pre-latch cold early-out may read it
  /// racily (a stale read only costs or saves one optional retire).
  std::atomic<uint8_t> tier{0};
};

/// One latch domain of the sharded lock table. Rows map to shards by a
/// stable hash of their (table, key) identity, so latch traffic spreads
/// across `Config::lock_shards` independent cache lines instead of
/// serializing on hot entries' lines, and the batch APIs take one latch
/// hold per same-shard run. Everything behind the latch word is guarded by
/// it (plain fields, no atomics):
///
///   latch_spins/latch_waits - contention counters, mirrored into the
///       executing thread's ThreadStats by ShardGuard (lock_table.cc); the
///       shard copy exists so tests can assert the two bookkeeping paths
///       agree (no double-counting in detached release).
///   cts_mirror - a conservative lower bound on the CTS authority's
///       *published* watermark, refreshed by committed EX releases in this
///       shard. Opt-3 snapshot pins can often be served from it without
///       touching the global watermark line (see RawSnapshotRead).
///
/// alignas isolates each shard on its own line: neighboring shards' latch
/// words must not ping-pong one line between cores.
struct alignas(kCacheLineSize) LockShard {
  SpinLatch latch;
  uint64_t latch_spins = 0;
  uint64_t latch_waits = 0;
  uint64_t cts_mirror = 0;
  // Adaptive-policy tier accounting (stay 0 in fixed mode). heats/cools
  // count transitions toward a hotter/colder tier; cold_rows/hot_rows are
  // the *current* number of this shard's entries sitting in the cold /
  // pathological tier (entries start warm, so warm is the implicit rest).
  uint64_t tier_heats = 0;
  uint64_t tier_cools = 0;
  int64_t cold_rows = 0;
  int64_t hot_rows = 0;
};

enum class AcqResult {
  kGranted,  ///< lock held (or Opt-3 snapshot read served; see took_lock)
  kWait,     ///< enqueued; park on txn->signal until granted or wounded
  kAbort,    ///< caller must abort (no-wait / wait-die decision)
};

/// Why a grant came back kAbort. Most aborts are protocol decisions
/// (wound/die/no-wait/validation) and retryable; kReadOnlyMode is an
/// admission rejection -- the WAL degraded to read-only and new writers
/// are turned away cleanly (retrying cannot help until the disk heals).
enum class AbortCode : uint8_t { kProtocol, kReadOnlyMode };

/// Unified request descriptor for every access mode: plain read (kSH +
/// read_buf), plain write (kEX), fused RMW (kEX + rmw_fn, retiring inside
/// the grant when retire_now), and SH->EX upgrade (upgrade_of = the SH
/// grant's token). New modes extend this struct instead of adding entry
/// points; Submit starts a request and Resume finishes one that waited.
struct AccessRequest {
  Row* row = nullptr;
  LockType type = LockType::kSH;
  char* read_buf = nullptr;  ///< SH: image copied here under the latch
  RmwFn rmw_fn = nullptr;    ///< EX: fused read-modify-write body
  void* rmw_arg = nullptr;
  bool retire_now = false;   ///< fused RMW: retire inside the same latch hold
  GrantToken upgrade_of = nullptr;  ///< SH->EX: the held SH grant to convert
  /// `row`'s shard index (ShardIndexOf) -- batch submission only. The
  /// batch caller computes it once while shard-sorting the descriptors;
  /// SubmitMany splits runs and picks the latch from this cached value
  /// instead of rehashing the row identity per key. Scalar Submit/Resume
  /// ignore it (they route from the row directly).
  uint32_t shard = 0;
};

/// Outcome of a Submit/Resume round.
struct AccessGrant {
  AcqResult rc = AcqResult::kAbort;
  /// The request's token: valid for kGranted with a footprint and for
  /// kWait (pass it to Resume, or Release it to abandon the wait). Null
  /// for kAbort and for footprint-free Opt-3 snapshot reads.
  GrantToken token = nullptr;
  bool took_lock = true;   ///< false for Opt-3 snapshot reads
  bool retired = false;    ///< request sits in the retired list (Opt 1 / RMW)
  bool dirty = false;      ///< served from an uncommitted version
  /// Meaningful for kAbort only: protocol abort vs. read-only rejection.
  AbortCode abort_code = AbortCode::kProtocol;
  char* write_data = nullptr;  ///< EX: private version image (stable)
};

/// One release operation for LockManager::ReleaseMany: the row plus the
/// grant token its access holds. The caller sorts ops by shard
/// (ShardIndexOf) so adjacent same-shard ops release under one latch hold.
struct ReleaseOp {
  Row* row = nullptr;
  GrantToken token = nullptr;
  /// `row`'s shard index (ShardIndexOf), filled by the caller. Caching it
  /// keeps the shard hash out of the sort comparator and out of the
  /// run-splitting scan: a release batch sorts once on this int instead of
  /// rehashing the row identity O(n log n) times.
  uint32_t shard = 0;
};

/// The lock manager implements Bamboo plus the 2PL baselines over the
/// per-tuple queues. All list manipulation happens under the shard latch
/// of the row's shard; blocking is delegated to the caller (kWait +
/// TxnCB::WaitFor) so the manager itself never sleeps and never holds two
/// shard latches at once.
///
/// Access protocol: Submit(descriptor) -> AccessGrant carrying the token;
/// a kWait result parks the caller, then Resume(descriptor, token)
/// finishes the round. Retire and Release take the token and are O(1) --
/// no (txn, seq) scan exists anywhere on the hot path. SubmitMany /
/// ReleaseMany run shard-sorted descriptor arrays with one latch hold per
/// same-shard run.
class LockManager {
 public:
  /// `ts_counter` feeds wound-wait priority timestamps. `cts_counter` is
  /// the *published* commit-timestamp watermark (CCManager::cts_stamped_,
  /// advanced by PublishCts), loaded here to pin Opt-3 raw-read snapshots
  /// when the shard's cts_mirror cannot serve the pin -- pinning from the
  /// allocation counter instead would race with in-flight stamps (see
  /// DESIGN.md).
  LockManager(const Config& cfg, std::atomic<uint64_t>* ts_counter,
              std::atomic<uint64_t>* cts_counter);

  /// Start the access described by `req` for `txn`. For SH grants the
  /// current image (or the Opt-3 committed image) is copied into
  /// `req.read_buf` under the latch; for fused RMWs the version is
  /// created, `rmw_fn` applied and (with retire_now) the write retired in
  /// the same latch hold; for upgrades the held SH converts in place.
  AccessGrant Submit(const AccessRequest& req, TxnCB* txn);

  /// Batch submission: run `reqs[0..n)` -- pre-sorted by (shard, key) by
  /// the caller (TxnHandle::ReadMany/UpdateRmwMany) -- taking one shard
  /// latch hold per consecutive same-shard run. Stops after the first
  /// grant that is not kGranted (a waiter must park before later keys are
  /// touched, an abort ends the attempt); returns the number of grants
  /// produced (>= 1 for n >= 1), with `grants[i]` filled for each. The
  /// caller resumes the remainder with another SubmitMany call after
  /// handling the stop. Pool slots for each run are reserved before its
  /// latch is taken.
  int SubmitMany(const AccessRequest* reqs, int n, TxnCB* txn,
                 AccessGrant* grants);

  /// Finish a Submit that returned kWait after the wait ended. Pass the
  /// same descriptor plus the token Submit returned. Plain reads/writes
  /// finalize here (image copy / version creation); fused RMWs and
  /// upgrades were already completed by the promoting thread, so Resume
  /// just reports the final state off the token.
  AccessGrant Resume(const AccessRequest& req, TxnCB* txn, GrantToken token);

  /// Strip the fused RMW (rmw_fn / rmw_arg / rmw_retire) off a request
  /// that is still pending -- waiting in the queue, or holding an
  /// ungranted SH->EX upgrade. Returns true if the request was still
  /// pending and is now a plain EX wait; returns false if the grant
  /// already happened (or is happening: lock_granted was set under this
  /// same latch), in which case the promoter applied the fused fn and the
  /// caller must treat the access as granted.
  ///
  /// This exists for the continuation suspension path: a suspending
  /// statement's rmw_arg may point into its (dying) stack frame, and
  /// PromoteWaiters applies fused fns on the *promoting* thread at an
  /// arbitrary later time. Unfusing before the frame dies makes the
  /// pending request safe; the re-issued statement applies the RMW with
  /// its own live argument and retires explicitly.
  bool UnfuseWaiter(Row* row, GrantToken token);

  /// RMW-own-write on an already-retired EX version (a second write by the
  /// same transaction to a row whose lock it released early). Lands the
  /// RMW in place iff no dependent has registered on the retired entry --
  /// no other transaction observed the version yet, so the bytes are still
  /// private. Returns false (caller aborts the attempt) otherwise; the
  /// outcome depends on live contention, so a retry is not doomed.
  bool RmwRetired(Row* row, GrantToken token, RmwFn fn, void* arg);

  /// Move a granted request from owners to the retired list (early release
  /// of the write lock; the heart of the protocol). O(1) off the token.
  /// The entry's ContentionPolicy decides whether the retire actually
  /// happens: RetireMode::kNever (cold tier / non-Bamboo descriptors)
  /// skips it entirely, kHonor skips Opt-2 tail writes (`tail_write`),
  /// kForce retires even those. Returns whether the request moved.
  bool Retire(Row* row, GrantToken token, bool tail_write = false);

  /// Drop the request wherever it sits (owners, retired, or waiters) --
  /// O(1) off the token. On commit: install the version, drain dependents'
  /// semaphores. On abort: discard the version, wound dependents
  /// (cascading abort). Always promotes eligible waiters. Returns the
  /// number of dependents wounded (cascade fan-out).
  int Release(Row* row, GrantToken token, bool committed);

  /// Batch release: drop `ops[0..n)` (all belonging to one transaction)
  /// with one shard latch hold per consecutive same-shard run; the caller
  /// sorts ops by ShardIndexOf to maximize run length. Same per-op
  /// semantics as Release. Returns total dependents wounded.
  int ReleaseMany(const ReleaseOp* ops, int n, bool committed);

  // --- shard routing. The hash is a pure function of the row's stable
  // (wal_table_id, wal_key) identity -- independent of Config, shard
  // count, protocol, and process -- so two managers over the same data
  // agree on it and tests can pin expectations.
  static uint64_t ShardHash(uint32_t table_id, uint64_t key);
  /// The shard `row` routes to in *this* manager: ShardHash & (shards-1).
  uint32_t ShardIndexOf(const Row* row) const;
  uint32_t shard_count() const { return shard_count_; }

  /// Sum of all shards' latch contention counters (latched per shard, not
  /// a consistent global snapshot). The shard counters mirror what
  /// ShardGuard charged to ThreadStats, so with all workers' stats summed
  /// the two must agree exactly -- the detached-release double-counting
  /// regression test relies on this.
  void ShardLatchTotals(uint64_t* spins, uint64_t* waits);

  /// Sum of all shards' adaptive-tier counters (latched per shard, not a
  /// consistent global snapshot): transition counts plus the current
  /// number of cold / pathological entries. All zero in fixed mode.
  void PolicyTierTotals(uint64_t* heats, uint64_t* cools, uint64_t* cold_rows,
                        uint64_t* hot_rows);

  /// Whether this manager runs the adaptive per-entry selector.
  bool adaptive() const { return adaptive_; }

  /// Wire the WAL's health word into the admission path: while it reads
  /// WalHealth::kReadOnly, new EX submissions and SH->EX upgrades are
  /// rejected with AbortCode::kReadOnlyMode (readers, and writers already
  /// holding their locks, proceed normally). Called once by the Database
  /// constructor, before workers start; null (the default) disables the
  /// gate.
  void SetWalHealth(const std::atomic<uint8_t>* health) {
    wal_health_ = health;
  }

  /// Checkpoint snapshot of one row: copy its committed base image and
  /// return its base CTS, under the row's shard latch (one latch at a
  /// time, never two -- the checkpointer walks rows through this). `buf`
  /// must hold row->size() bytes.
  uint64_t SnapshotRowForCheckpoint(Row* row, char* buf);

  /// Test/inspection helpers (latched).
  size_t OwnerCount(Row* row);
  size_t RetiredCount(Row* row);
  size_t WaiterCount(Row* row);
  /// Adaptive-policy inspection: the row's current temperature and tier.
  uint32_t DebugTemp(Row* row);
  int DebugTier(Row* row);
  /// Dependent records currently held on txn's request (0 when absent).
  size_t DependentCount(Row* row, TxnCB* txn);
  /// Debug aid: dump a row's queues to stderr (used by the
  /// BAMBOO_DEBUG_STUCK watchdog in txn_handle.cc).
  void DebugDumpRow(Row* row);

 private:
  LockShard* ShardOf(const Row* row) { return &shards_[ShardIndexOf(row)]; }

  /// Latch-free bodies of the public entry points, run under the row's
  /// shard latch; the public wrappers take the latch (one hold per
  /// same-shard run in the batch APIs) and run any claimed
  /// detached-commit completions after it drops.
  AccessGrant SubmitOne(LockShard* sh, const AccessRequest& req, TxnCB* txn);
  AccessGrant UpgradeOne(LockShard* sh, const AccessRequest& req, TxnCB* txn);
  AccessGrant ResumeLocked(const AccessRequest& req, TxnCB* txn,
                           GrantToken token);
  int ReleaseOne(LockShard* sh, Row* row, GrantToken token, bool committed);

  /// The descriptor governing `e` right now: the tier slot in fixed mode
  /// is always 0 (all three slots hold the protocol's descriptor), in
  /// adaptive mode the entry's temperature tier picks cold/warm/hot.
  /// Caller holds the shard latch (or accepts a racy-but-benign read).
  const ContentionPolicy& PolicyFor(const LockEntry* e) const {
    return policies_[e->tier.load(std::memory_order_relaxed)];
  }

  /// Fold one observation into `e`'s temperature (decay + `add`) and move
  /// it between tiers, maintaining `sh`'s transition/population counters.
  /// Adaptive mode only; runs under the shard latch. The caller resolves
  /// the access's policy *before* calling (this submit runs under the tier
  /// the previous traffic earned).
  void UpdateTemp(LockShard* sh, LockEntry* e, uint32_t add);

  /// Wound `victim`; if the victim's owner already handed its commit off,
  /// claim the completion so its rollback happens promptly (queued, run
  /// outside the latch). Returns whether this call performed the wound.
  static bool WoundAndClaim(TxnCB* victim, bool cascade);
  /// Run queued detached completions (claimed wounds / drained
  /// semaphores). Re-entrant calls accumulate; the outermost drains.
  static void DrainCompletions();
  /// Timestamp handling: 0 means unassigned (dynamic, Opt 4). Assigned
  /// lazily at first conflict, holder before requester so the established
  /// transaction becomes the older one.
  void EnsureTs(TxnCB* txn);
  /// True when a (ts-wise) precedes b: assigned beats unassigned, then
  /// smaller timestamp wins.
  static bool OlderThan(const TxnCB* a, const TxnCB* b);

  static bool HolderCommitted(const LockReq& r);

  /// Opt-3 raw read: serve the newest committed image with cts <= the
  /// transaction's pinned snapshot (pinning it on first use). Returns
  /// kGranted with took_lock = false, or kAbort when every eligible image
  /// was already overwritten past the retained slot -- the reader can no
  /// longer be served consistently and must retry on a fresh snapshot.
  /// Fresh pins are served from `sh`'s cts_mirror when sound (see the
  /// observed-floor gate in lock_table.cc), else from the global
  /// published watermark.
  AccessGrant RawSnapshotRead(LockShard* sh, Row* row, TxnCB* txn,
                              char* read_buf);
  /// Maintain the observed-CTS floor that gates shard-mirror snapshot
  /// pins: called for every Bamboo+Opt-3 SH grant served under a lock.
  static void ObserveLockedRead(Row* row, TxnCB* txn, bool dirty);
  /// Snapshot validation for locked grants: once a transaction pinned a
  /// raw-read snapshot, any image it observes under a lock must still be
  /// inside that snapshot. Violations mark TxnCB::snapshot_invalid; commit
  /// aborts on it. (Writes never reach this: a pinned transaction's EX
  /// request aborts at the acquire -- pinned transactions are read-only.)
  void ValidateSnapshotObservation(Row* row, TxnCB* txn, LockType type);

  /// Allocate and fill a request node from txn's pool.
  static LockReq* MakeReq(TxnCB* txn, uint64_t seq, LockType type,
                          RmwFn rmw_fn, void* rmw_arg, bool rmw_retire);
  /// Drain (commit) or wound (abort) `req`'s dependents, release its spill
  /// pages, and return the node to its owner's pool. Returns dependents
  /// wounded.
  int RetireDependentsAndFree(LockReq* req, bool committed);

  /// Grant helpers; all run under the entry latch.
  /// Immediate-grant tail shared by the uncontended fast path and the
  /// post-conflict-check grant: request allocation, snapshot validation,
  /// barrier registration, version/image work, fused RMW, placement.
  AccessGrant GrantNow(LockEntry* e, Row* row, TxnCB* txn,
                       const AccessRequest& req, uint64_t seq,
                       const ContentionPolicy& pol);
  bool RegisterBarrier(LockEntry* e, TxnCB* txn, LockType type, uint64_t seq);
  AccessGrant FinalizeGrant(LockEntry* e, Row* row, TxnCB* txn, LockType type,
                            char* read_buf, GrantToken token);
  void PromoteWaiters(LockEntry* e, Row* row);
  void WaitDieRepair(LockEntry* e);
  bool WaiterEligible(LockEntry* e, const LockReq& w) const;
  void InsertWaiter(LockEntry* e, LockReq* req);

  /// SH->EX upgrade machinery. A pending upgrade keeps its SH link (so the
  /// read stays protected) but conflicts as EX; UpgradeEligible decides
  /// whether it can convert (no other owner, no uncommitted retired entry
  /// that is not older); GrantUpgrade performs the conversion + version
  /// creation + fused RMW; TryGrantUpgrade runs it from the release path.
  bool UpgradeEligible(LockEntry* e, const LockReq& r) const;
  AccessGrant GrantUpgrade(LockEntry* e, Row* row, LockReq* r);
  void TryGrantUpgrade(LockEntry* e, Row* row);

  const Config& cfg_;
  std::atomic<uint64_t>* ts_counter_;
  std::atomic<uint64_t>* cts_counter_;
  /// WAL health word (WalHealth values), or null when no WAL is attached.
  /// Read relaxed on the EX admission path; see SetWalHealth.
  const std::atomic<uint8_t>* wal_health_ = nullptr;
  /// Shard array: power-of-two sized (index = hash & shard_mask_), each
  /// shard on its own cache line.
  std::unique_ptr<LockShard[]> shards_;
  uint32_t shard_count_ = 1;
  uint32_t shard_mask_ = 0;

  // --- contention-policy layer (resolved in the constructor).
  /// Per-tier descriptors indexed by LockEntry::tier. Fixed mode fills all
  /// three slots with the protocol's descriptor, so PolicyFor needs no
  /// mode branch on the hot path.
  ContentionPolicy policies_[3];
  /// Adaptive selector active (kAdaptive + kBamboo; anything else is
  /// normalized to fixed, matching Config::Validate's warning).
  bool adaptive_ = false;
  /// Any tier's descriptor can retire (fixed Bamboo or adaptive): gates
  /// Retire's pre-latch early-out.
  bool retire_possible_ = false;
  /// Soundness gates that must NOT vary per entry, cached off cfg_:
  /// a transaction that pinned an Opt-3 raw-read snapshot must abort on
  /// *any* EX acquire (whatever that row's tier)...
  bool bamboo_family_ = false;
  /// ...and CTS observation (every locked SH grant) / retention (committed
  /// EX releases) must run on every row, or snapshot pins on other rows
  /// would validate against stale bookkeeping.
  bool observe_cts_ = false;
  bool track_cts_ = false;
  uint32_t warm_threshold_ = 0;
  uint32_t hot_threshold_ = 0;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_LOCK_TABLE_H_
