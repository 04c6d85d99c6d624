#include "src/db/lock_table.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/db/txn.h"
#include "src/storage/row.h"

namespace bamboo {

namespace {

/// RAII shard-latch hold wiring the spin/park counters into the caller's
/// ThreadStats (nullptr for stat-less callers like the test helpers) *and*
/// into the shard's own counters -- under the latch, so the shard copy
/// needs no atomics. Both books are written from the same local counts of
/// the same acquisition, which is what makes "sum of shard counters ==
/// sum of worker ThreadStats" an exact invariant the tests can assert: a
/// release charged to the wrong stats (or charged twice) breaks it.
/// Stat-less holds (inspection helpers) update neither book.
class ShardGuard {
 public:
  ShardGuard(LockShard* sh, ThreadStats* stats) : sh_(sh) {
    uint64_t spins = 0;
    uint64_t waits = 0;
    sh->latch.Lock(&spins, &waits);
    if (stats != nullptr && (spins | waits) != 0) {
      sh->latch_spins += spins;
      sh->latch_waits += waits;
      stats->latch_spins += spins;
      stats->latch_waits += waits;
    }
  }
  ~ShardGuard() { sh_->latch.Unlock(); }
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  LockShard* sh_;
};

/// Per-thread recycling pool for dependent spill pages. Pages migrate
/// freely between threads (allocated here, freed wherever the release
/// lands); after warmup every Get is served from the freelist, so the
/// steady-state hot path never calls the allocator.
struct DepPagePool {
  DepPage* free_head = nullptr;

  ~DepPagePool() {
    while (free_head != nullptr) {
      DepPage* next = free_head->next;
      delete free_head;
      free_head = next;
    }
  }

  DepPage* Get() {
    if (free_head != nullptr) {
      DepPage* p = free_head;
      free_head = p->next;
      p->next = nullptr;
      return p;
    }
    return new DepPage();
  }

  void Put(DepPage* p) {
    p->next = free_head;
    free_head = p;
  }
};

thread_local DepPagePool t_dep_pages;

/// Sequential cursor over a request's dependent records: inline array
/// first, then the spill pages. O(1) amortized per step; the caller bounds
/// iteration by dep_count.
class DepCursor {
 public:
  explicit DepCursor(LockReq* r) : r_(r) {}

  DepRec* Next() {
    DepRec* slot;
    if (i_ < LockReq::kInlineDeps) {
      slot = &r_->dep_inline[i_];
    } else {
      if (i_ == LockReq::kInlineDeps || off_ == DepPage::kCap) {
        page_ = (page_ == nullptr) ? r_->dep_head : page_->next;
        off_ = 0;
      }
      slot = &page_->recs[off_++];
    }
    i_++;
    return slot;
  }

 private:
  LockReq* r_;
  uint32_t i_ = 0;
  DepPage* page_ = nullptr;
  uint32_t off_ = 0;
};

/// Append one dependent record; grabbing a fresh spill page counts as a
/// pool spill against `stats` (the acquiring side, which created the edge).
void DepPush(LockReq* r, TxnCB* txn, uint64_t seq, ThreadStats* stats) {
  DepRec* slot;
  uint32_t i = r->dep_count;
  if (i < LockReq::kInlineDeps) {
    slot = &r->dep_inline[i];
  } else {
    uint32_t off = (i - LockReq::kInlineDeps) % DepPage::kCap;
    if (off == 0) {
      DepPage* p = t_dep_pages.Get();
      if (r->dep_tail != nullptr) {
        r->dep_tail->next = p;
      } else {
        r->dep_head = p;
      }
      r->dep_tail = p;
      if (stats != nullptr) stats->pool_spills++;
    }
    slot = &r->dep_tail->recs[off];
  }
  slot->txn = txn;
  slot->seq = seq;
  r->dep_count++;
}

/// Shrink the dependent list to its first `kept` records, returning every
/// no-longer-needed spill page to the pool (the inline->spill->shrink
/// round trip).
void TrimDeps(LockReq* r, uint32_t kept) {
  uint32_t pages_needed =
      kept <= LockReq::kInlineDeps
          ? 0
          : (kept - LockReq::kInlineDeps + DepPage::kCap - 1) / DepPage::kCap;
  DepPage* p = r->dep_head;
  DepPage* tail = nullptr;
  for (uint32_t n = 0; n < pages_needed; n++) {
    tail = p;
    p = p->next;
  }
  while (p != nullptr) {
    DepPage* next = p->next;
    t_dep_pages.Put(p);
    p = next;
  }
  if (pages_needed == 0) {
    r->dep_head = nullptr;
    r->dep_tail = nullptr;
  } else {
    tail->next = nullptr;
    r->dep_tail = tail;
  }
  r->dep_count = kept;
}

/// Remove every dependent record pointing at `txn` (compacting in place
/// with a read/write cursor pair, O(dep_count)).
void ScrubDeps(LockReq* r, const TxnCB* txn) {
  DepCursor rd(r);
  DepCursor wr(r);
  uint32_t kept = 0;
  const uint32_t n = r->dep_count;
  for (uint32_t i = 0; i < n; i++) {
    DepRec* src = rd.Next();
    if (src->txn == txn) continue;
    DepRec* dst = wr.Next();
    if (dst != src) *dst = *src;
    kept++;
  }
  if (kept != n) TrimDeps(r, kept);
}

void DropDependentRecords(LockEntry* e, const TxnCB* txn) {
  for (LockReq* r = e->owners.head; r != nullptr; r = r->next) {
    ScrubDeps(r, txn);
  }
  for (LockReq* r = e->retired.head; r != nullptr; r = r->next) {
    ScrubDeps(r, txn);
  }
}

/// Locate a request by (txn, seq). Inspection helpers only: the access hot
/// path carries GrantTokens end to end and never re-locates a request.
LockReq* FindReqForInspection(ReqList* list, const TxnCB* txn, uint64_t seq) {
  for (LockReq* r = list->head; r != nullptr; r = r->next) {
    if (r->txn == txn && r->seq == seq) return r;
  }
  return nullptr;
}

// Detached-commit completions claimed while a latch was held; processed by
// the outermost public entry point once no latch is held (completions
// release other rows, which may claim further completions -> iterate).
#ifdef BAMBOO_DEBUG_STUCK
thread_local char t_dep_site = '?';
#endif
thread_local std::vector<TxnCB*> t_pending_completions;
thread_local bool t_draining = false;

// ThreadStats of the worker currently executing on this thread. Latch
// contention in a release must be charged to the *executing* thread, not
// the transaction's owner: a detached commit's release runs on whichever
// thread claimed it, while the origin worker is already driving its next
// transaction against the same (non-atomic) ThreadStats. Public entry
// points refresh the pointer from their caller's txn; nested releases
// inside DrainCompletions inherit it.
thread_local ThreadStats* t_exec_stats = nullptr;

/// Commit timestamp of a chain version if it is both committed and
/// stamped; 0 otherwise. Snapshots pin the *published* CTS watermark
/// (CCManager::PublishCts), so every stamp at or below a pin is already
/// visible -- a version still showing kCommitting or an unstamped 0
/// necessarily carries a stamp above the pin, and treating it as
/// invisible is exactly right (and consistent across rows). Caller holds
/// the row latch, which keeps the version (and its writer's attempt)
/// alive.
uint64_t VersionCommitCts(const Version& v) {
  if (v.writer->status.load(std::memory_order_acquire) !=
      TxnStatus::kCommitted) {
    return 0;
  }
  return v.writer->commit_cts.load(std::memory_order_acquire);
}

}  // namespace

// --- ReqPool ---------------------------------------------------------------

ReqPool::~ReqPool() {
  for (int i = 0; i < num_slabs_; i++) delete[] slabs_[i];
}

void ReqPool::Grow() {
  // Growth path (long scans only): one slab doubling the capacity,
  // retained for the TxnCB lifetime -- each size is paid at most once.
  if (num_slabs_ >= kMaxSlabs) std::abort();  // > 1M live requests: a bug
  uint32_t n = capacity_;
  LockReq* slab = new LockReq[n];
  slabs_[num_slabs_++] = slab;
  Thread(slab, n);
  capacity_ += n;
}

LockReq* ReqPool::Alloc() {
  // A missed Reserve() would grow a slab under the entry latch; catch it
  // in debug builds, keep the growth as a release-build backstop.
  assert(free_ != nullptr && "ReqPool::Alloc without a prior Reserve()");
  if (free_ == nullptr) Grow();
  LockReq* r = free_;
  free_ = r->next;
  live_++;
  r->prev = nullptr;
  r->next = nullptr;
  r->queue = ReqQueue::kNone;
  r->upgrading = false;
  r->write_data = nullptr;
  r->dep_count = 0;
  r->dep_head = nullptr;
  r->dep_tail = nullptr;
  return r;
}

void ReqPool::Free(LockReq* r) {
  if (r->dep_head != nullptr) TrimDeps(r, 0);
  r->dep_count = 0;
  r->next = free_;
  free_ = r;
  live_--;
}

// --- LockManager -----------------------------------------------------------

LockManager::LockManager(const Config& cfg, std::atomic<uint64_t>* ts_counter,
                         std::atomic<uint64_t>* cts_counter)
    : cfg_(cfg), ts_counter_(ts_counter), cts_counter_(cts_counter) {
  int want = cfg.lock_shards;
  if (want < 1) want = 1;
  if (want > 65536) want = 65536;
  uint32_t count = 1;
  while (count < static_cast<uint32_t>(want)) count <<= 1;
  shard_count_ = count;
  shard_mask_ = count - 1;
  shards_.reset(new LockShard[count]);

  policy_ = FixedPolicy(cfg);
  bamboo_family_ = cfg.protocol == Protocol::kBamboo;
  observe_cts_ = bamboo_family_ && cfg.bb_opt_raw_read;
  track_cts_ = observe_cts_;
}

uint64_t LockManager::ShardHash(uint32_t table_id, uint64_t key) {
  // SplitMix64 finalizer over the row's stable (table, key) identity.
  // Deliberately config- and process-independent, so every manager (and
  // every test) agrees on the routing of a given row; the shard index is
  // just the low bits (hash & shard_mask_). Rows outside any table (test
  // fixtures' stack rows) identify as (0, 0) and collapse into one shard,
  // which is merely coarse, never wrong.
  uint64_t h =
      key + 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(table_id) + 1);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

uint32_t LockManager::ShardIndexOf(const Row* row) const {
  return static_cast<uint32_t>(ShardHash(row->wal_table_id(), row->wal_key())) &
         shard_mask_;
}

void LockManager::ShardLatchTotals(uint64_t* spins, uint64_t* waits) {
  uint64_t s = 0;
  uint64_t w = 0;
  for (uint32_t i = 0; i < shard_count_; i++) {
    // Stat-less hold: reading the counters must not perturb them.
    ShardGuard g(&shards_[i], nullptr);
    s += shards_[i].latch_spins;
    w += shards_[i].latch_waits;
  }
  *spins = s;
  *waits = w;
}

uint64_t LockManager::SnapshotRowForCheckpoint(Row* row, char* buf) {
  // One shard latch at a time, never two: the checkpointer calls this per
  // row, so its walk can never deadlock against the batch APIs' same-shard
  // runs, and each pause it inflicts on workers is one row's memcpy.
  LockShard* sh = ShardOf(row);
  ShardGuard g(sh, nullptr);
  std::memcpy(buf, row->base(), row->size());
  return row->base_cts();
}

bool LockManager::WoundAndClaim(TxnCB* victim, bool cascade) {
  if (!victim->Wound(cascade)) return false;
  if (victim->detached.exchange(false, std::memory_order_acq_rel)) {
    t_pending_completions.push_back(victim);
  }
  return true;
}

void LockManager::DrainCompletions() {
  if (t_draining) return;
  t_draining = true;
  while (!t_pending_completions.empty()) {
    TxnCB* t = t_pending_completions.back();
    t_pending_completions.pop_back();
    t->detach_complete(t);
  }
  t_draining = false;
}

void LockManager::EnsureTs(TxnCB* txn) {
  uint64_t expected = 0;
  if (txn->ts.load(std::memory_order_relaxed) == 0) {
    uint64_t fresh = ts_counter_->fetch_add(1, std::memory_order_relaxed) + 1;
    txn->ts.compare_exchange_strong(expected, fresh,
                                    std::memory_order_acq_rel);
  }
}

bool LockManager::OlderThan(const TxnCB* a, const TxnCB* b) {
  uint64_t ta = a->ts.load(std::memory_order_relaxed);
  uint64_t tb = b->ts.load(std::memory_order_relaxed);
  if (ta == 0) return false;  // unassigned = youngest
  if (tb == 0) return true;
  return ta < tb;
}

bool LockManager::HolderCommitted(const LockReq& r) {
  return r.txn->status.load(std::memory_order_acquire) ==
         TxnStatus::kCommitted;
}

LockReq* LockManager::MakeReq(TxnCB* txn, uint64_t seq, LockType type,
                              RmwFn rmw_fn, void* rmw_arg, bool rmw_retire) {
  LockReq* r = txn->pool.Alloc();
  r->txn = txn;
  r->seq = seq;
  r->type = type;
  r->rmw_fn = rmw_fn;
  r->rmw_arg = rmw_arg;
  r->rmw_retire = rmw_retire;
  return r;
}

AccessGrant LockManager::Submit(const AccessRequest& req, TxnCB* txn) {
  t_exec_stats = txn->stats;  // submits only run on the owning thread
  AccessGrant grant;
  {
    LockShard* sh = ShardOf(req.row);
    // Any pool slab growth happens before the latch (upgrades reuse their
    // SH node and never allocate).
    if (req.upgrade_of == nullptr) txn->pool.Reserve();
    ShardGuard g(sh, txn->stats);
    grant = req.upgrade_of != nullptr ? UpgradeOne(req, txn)
                                      : SubmitOne(sh, req, txn);
  }
  DrainCompletions();
  return grant;
}

int LockManager::SubmitMany(const AccessRequest* reqs, int n, TxnCB* txn,
                            AccessGrant* grants) {
  if (n <= 0) return 0;
  t_exec_stats = txn->stats;  // batch submits only run on the owning thread
  // One reservation covers the whole batch (an over-reserve when some
  // grants are footprint-free snapshot reads, which is fine); per-run
  // reservations would re-walk the free-slot check once per shard run.
  txn->pool.Reserve(static_cast<uint32_t>(n));
  int i = 0;
  bool stopped = false;
  while (i < n && !stopped) {
    // One latch hold per consecutive same-shard run. The caller sorted the
    // descriptors by (shard, key) and cached each row's shard index in the
    // descriptor, so runs are maximal and splitting them is hash-free.
    const uint32_t s = reqs[i].shard;
    assert(s == ShardIndexOf(reqs[i].row));
    int end = i + 1;
    while (end < n && reqs[end].shard == s) end++;
    {
      ShardGuard g(&shards_[s], txn->stats);
      for (; i < end; i++) {
        grants[i] = reqs[i].upgrade_of != nullptr
                        ? UpgradeOne(reqs[i], txn)
                        : SubmitOne(&shards_[s], reqs[i], txn);
        if (grants[i].rc != AcqResult::kGranted) {
          // A waiter must park (and an abort ends the attempt) before any
          // later key is touched; the caller resumes the tail afterwards.
          i++;
          stopped = true;
          break;
        }
      }
    }
    if (txn->stats != nullptr) txn->stats->batch_runs++;
  }
  if (txn->stats != nullptr) txn->stats->batch_keys += static_cast<uint64_t>(i);
  // Claimed wound completions must run before the caller parks on a kWait
  // grant: one of them could be the very transaction the caller waits on.
  DrainCompletions();
  return i;
}

AccessGrant LockManager::SubmitOne(LockShard* sh, const AccessRequest& req,
                                   TxnCB* txn) {
  Row* row = req.row;
  const LockType type = req.type;
  // Read-only degradation gate: with the WAL dead, admitting a new writer
  // would execute work whose durability can never be acknowledged. Reject
  // it cleanly before it wounds or queues behind anyone; readers (and
  // writers already past admission) drain normally.
  if (type == LockType::kEX && wal_health_ != nullptr &&
      wal_health_->load(std::memory_order_relaxed) ==
          static_cast<uint8_t>(WalHealth::kReadOnly)) {
    AccessGrant a;
    a.rc = AcqResult::kAbort;
    a.abort_code = AbortCode::kReadOnlyMode;
    return a;
  }
  LockEntry* e = row->Lock();
  const uint64_t seq = txn->txn_seq.load(std::memory_order_relaxed);

  // Uncontended fast path: a fully empty entry grants immediately under
  // every policy -- no conflict gather, no timestamp assignment, no wound
  // decision can apply. Only the Bamboo pinned-read-only rule and the
  // snapshot validation still gate the grant (inside GrantNow; its barrier
  // registration is a no-op on the empty retired list).
  if (e->owners.head == nullptr && e->retired.head == nullptr &&
      e->waiters.head == nullptr) {
    if (type == LockType::kEX && bamboo_family_ &&
        txn->raw_snapshot_cts.load(std::memory_order_relaxed) != 0) {
      txn->raw_suppressed = true;
      AccessGrant a;
      a.rc = AcqResult::kAbort;
      return a;
    }
    return GrantNow(e, row, txn, req, seq);
  }

  // Gather conflicts. Self re-acquisition never reaches the lock manager
  // (TxnHandle deduplicates accesses; upgrades go through UpgradeOne).
  // Thread-local scratch keeps the allocator out of the latch-held
  // critical section; SubmitOne is never re-entered on a thread -- the
  // batch loop calls it sequentially and completions only run Release. A
  // pending SH->EX upgrade conflicts as EX (EffectiveType) so nothing
  // grants past -- or stacks behind -- it.
  thread_local std::vector<LockReq*> c_owners;
  thread_local std::vector<LockReq*> c_retired;
  c_owners.clear();
  c_retired.clear();
  for (LockReq* o = e->owners.head; o != nullptr; o = o->next) {
    if (o->txn != txn && Conflicts(EffectiveType(*o), type)) {
      c_owners.push_back(o);
    }
  }
  for (LockReq* r = e->retired.head; r != nullptr; r = r->next) {
    if (r->txn != txn && Conflicts(EffectiveType(*r), type)) {
      c_retired.push_back(r);
    }
  }
  bool older_conflicting_waiter = false;

  // Assign timestamps on first conflict (holders first, so the established
  // transaction ends up older; with dynamic_ts off Begin() already did it).
  if (!c_owners.empty() || !c_retired.empty()) {
    for (LockReq* o : c_owners) EnsureTs(o->txn);
    for (LockReq* r : c_retired) EnsureTs(r->txn);
    EnsureTs(txn);
  }
  for (LockReq* w = e->waiters.head; w != nullptr; w = w->next) {
    if (w->txn != txn && Conflicts(w->type, type) && OlderThan(w->txn, txn)) {
      older_conflicting_waiter = true;
      // A real conflict exists on this tuple: order ourselves.
      EnsureTs(txn);
      break;
    }
  }

  // A pinned snapshot makes this transaction read-only: its raw reads sit
  // at the pin, and a write would have to serialize after commits those
  // reads ignored. Abort here -- before wounding anyone on a doomed
  // attempt -- and suppress the raw path for the retry so a persistently
  // hot row cannot livelock the transaction. The pin was taken on *some*
  // row, so every row's EX must honor it.
  if (type == LockType::kEX && bamboo_family_ &&
      txn->raw_snapshot_cts.load(std::memory_order_relaxed) != 0) {
    txn->raw_suppressed = true;
    AccessGrant a;
    a.rc = AcqResult::kAbort;
    return a;
  }

  // Opt 3 (policy-gated): a reader older than every uncommitted retired
  // writer is serialized *before* them: serve a committed image with no
  // lock footprint instead of wounding the writers. The image comes from
  // the transaction's CTS snapshot (pinned at its first raw read), so raw
  // reads across rows are mutually consistent. Inert whenever the retired
  // list is empty -- i.e. always, under descriptors that never retire.
  if (type == LockType::kSH && policy_.raw_read && c_owners.empty() &&
      !c_retired.empty()) {
    bool all_uncommitted_younger = true;
    bool any_uncommitted = false;
    for (LockReq* r : c_retired) {
      if (HolderCommitted(*r)) continue;
      any_uncommitted = true;
      if (!OlderThan(txn, r->txn)) {
        all_uncommitted_younger = false;
        break;
      }
    }
    // Pin a fresh snapshot only for a transaction that has not written
    // (pinned transactions must stay read-only), was not suppressed by a
    // failed earlier attempt, and whose every dirty observation so far has
    // committed (semaphore drained -- their stamps are then covered by the
    // pin). Pre-pin *clean* locked reads need no check: their retired
    // footprint forces later writers of those rows to commit after this
    // reader. Otherwise fall through to the ordinary admission path.
    if (any_uncommitted && all_uncommitted_younger &&
        (txn->raw_snapshot_cts.load(std::memory_order_relaxed) != 0 ||
         (!txn->raw_suppressed &&
          !txn->wrote_any.load(std::memory_order_relaxed) &&
          txn->commit_semaphore.load(std::memory_order_acquire) == 0))) {
      return RawSnapshotRead(sh, row, txn, req.read_buf);
    }
  }

  // Unified admission, driven by the policy's conflict rule. The retired
  // list is provably empty under non-Bamboo descriptors (nothing ever
  // retires), so the retired clauses below reduce each rule to its
  // classic owners-only form there.
  bool wait = false;
  switch (policy_.conflict) {
    case ConflictRule::kAbort:
      // No-wait: any conflicting owner aborts the requester.
      if (!c_owners.empty()) {
        AccessGrant a;
        a.rc = AcqResult::kAbort;
        return a;
      }
      break;

    case ConflictRule::kDieYounger: {
      // Wait-die: the requester may wait only if it is older than every
      // conflicting holder (owners and uncommitted retired alike).
      bool die = older_conflicting_waiter;
      for (LockReq* o : c_owners) {
        if (!OlderThan(txn, o->txn)) die = true;  // younger requester dies
      }
      for (LockReq* r : c_retired) {
        if (!HolderCommitted(*r) && !OlderThan(txn, r->txn)) die = true;
      }
      if (die) {
        AccessGrant a;
        a.rc = AcqResult::kAbort;
        return a;
      }
      wait = !c_owners.empty();
      for (LockReq* r : c_retired) {
        if (!HolderCommitted(*r)) wait = true;
      }
      break;
    }

    case ConflictRule::kWoundYounger: {
      // Wound-wait over owners *and* retired keeps all dependency edges
      // pointing younger -> older, which makes both the waits-for graph
      // and the commit-order graph acyclic.
      for (LockReq* o : c_owners) {
        if (OlderThan(txn, o->txn)) WoundAndClaim(o->txn, /*cascade=*/false);
      }
      bool younger_retired_present = false;
      bool retired_upgrade_block = false;
      for (LockReq* r : c_retired) {
        if (HolderCommitted(*r)) continue;
        // Never grant past -- or stack a barrier behind -- a pending
        // upgrade: the upgrader waits for the entry to drain, so a grant
        // registered behind it would wait for the upgrader's commit while
        // the upgrader waits for the grant's release (a commit-order
        // deadlock). Enqueue instead; WaiterEligible holds waiters back
        // until the upgrade resolves.
        if (r->upgrading) retired_upgrade_block = true;
        if (OlderThan(txn, r->txn)) {
          WoundAndClaim(r->txn, /*cascade=*/false);
          younger_retired_present = true;  // stays until it rolls back
        }
      }
      wait = !c_owners.empty() || younger_retired_present ||
             retired_upgrade_block || older_conflicting_waiter;
      break;
    }
  }
  if (wait) {
    txn->lock_granted.store(0, std::memory_order_relaxed);
    LockReq* wreq =
        MakeReq(txn, seq, type, req.rmw_fn, req.rmw_arg, req.retire_now);
    InsertWaiter(e, wreq);
    AccessGrant a;
    a.rc = AcqResult::kWait;
    a.token = wreq;
    return a;
  }

  // Immediate grant.
  AccessGrant grant = GrantNow(e, row, txn, req, seq);
  if (policy_.waitdie_repair) WaitDieRepair(e);
  return grant;
}

/// Shared immediate-grant tail (fast path and post-conflict-check path):
/// allocate the request, validate/observe the snapshot, register barriers,
/// create the version / copy the image, apply a fused RMW, and place the
/// request. Fresh Bamboo reads go straight into the retired list (Opt 1)
/// without the owners round trip; a fused RMW with retire_now retires in
/// the same latch hold -- the row is never seen in a half-written owner
/// state, so no waiter convoy can seed behind a preempted writer.
/// Force-inlined into both call sites: one source copy, no call
/// (outlining this cost a measurable ~10ns per grant).
__attribute__((always_inline)) inline AccessGrant LockManager::GrantNow(
    LockEntry* e, Row* row, TxnCB* txn, const AccessRequest& req,
    uint64_t seq) {
  const LockType type = req.type;
  LockReq* r =
      MakeReq(txn, seq, type, req.rmw_fn, req.rmw_arg, req.retire_now);
  AccessGrant grant;
  grant.rc = AcqResult::kGranted;
  grant.token = r;
  ValidateSnapshotObservation(row, txn, type);
#ifdef BAMBOO_DEBUG_STUCK
  t_dep_site = 'G';
#endif
  grant.dirty = RegisterBarrier(e, txn, type, seq);
  if (type == LockType::kEX) {
    txn->wrote_any.store(true, std::memory_order_relaxed);
    grant.write_data = row->PushVersion(txn, seq);
    r->write_data = grant.write_data;
    if (req.rmw_fn != nullptr) {
      req.rmw_fn(grant.write_data, req.rmw_arg);
      // Fused RMWs retire when the caller asked (kHonor; the caller
      // already applied Opt 2's tail exemption), never under kNever. Plain
      // EX grants are placed in owners unconditionally -- the write has
      // not happened yet.
      if (policy_.retire == RetireMode::kHonor && req.retire_now) {
        e->retired.PushBack(r, ReqQueue::kRetired);
        grant.retired = true;
      } else {
        e->owners.PushBack(r, ReqQueue::kOwners);
      }
    } else {
      e->owners.PushBack(r, ReqQueue::kOwners);
    }
  } else {
    CopyRowImage(req.read_buf, row->NewestData(), row->size());
    if (grant.dirty && txn->stats != nullptr) txn->stats->dirty_reads++;
    if (observe_cts_) {
      // Snapshot pins on *other* rows validate against the floor every
      // locked read maintains.
      ObserveLockedRead(row, txn, grant.dirty);
    }
    if (policy_.retire_reads) {  // Opt 1
      e->retired.PushBack(r, ReqQueue::kRetired);
      grant.retired = true;
    } else {
      e->owners.PushBack(r, ReqQueue::kOwners);
    }
  }
  return grant;
}

// --- SH -> EX upgrades ------------------------------------------------------

AccessGrant LockManager::UpgradeOne(const AccessRequest& req, TxnCB* txn) {
  Row* row = req.row;
  LockReq* r = req.upgrade_of;
  LockEntry* e = row->Lock();
  AccessGrant a;
  if (txn->IsAborted()) {
    a.rc = AcqResult::kAbort;
    return a;
  }
  if (r->type == LockType::kEX) {  // already upgraded: idempotent
    a.rc = AcqResult::kGranted;
    a.token = r;
    a.write_data = r->write_data;
    a.retired = r->queue == ReqQueue::kRetired;
    return a;
  }
  // Read-only degradation gate (same rule as SubmitOne's EX admission):
  // an upgrade is a new write intent, so it is turned away while the WAL
  // is read-only. The SH link is untouched -- the caller keeps its read.
  if (wal_health_ != nullptr &&
      wal_health_->load(std::memory_order_relaxed) ==
          static_cast<uint8_t>(WalHealth::kReadOnly)) {
    a.rc = AcqResult::kAbort;
    a.abort_code = AbortCode::kReadOnlyMode;
    return a;
  }
  // Pinned transactions are read-only (Opt 3): same rule as a fresh EX
  // acquire -- abort before wounding anyone, suppress raw reads on retry.
  if (bamboo_family_ &&
      txn->raw_snapshot_cts.load(std::memory_order_relaxed) != 0) {
    txn->raw_suppressed = true;
    a.rc = AcqResult::kAbort;
    return a;
  }
  // Record the write intent on the node so a promoting thread can finish
  // the grant (version + RMW + queue placement) on our behalf.
  r->rmw_fn = req.rmw_fn;
  r->rmw_arg = req.rmw_arg;
  r->rmw_retire = req.retire_now;

  // Conflicts: every other owner plus every other uncommitted retired
  // entry (an EX request conflicts with everything). The SH link itself is
  // never dropped, so the read stays continuously protected -- upgrades
  // violate no 2PL rule.
  thread_local std::vector<LockReq*> c_holders;
  c_holders.clear();
  for (LockReq* o = e->owners.head; o != nullptr; o = o->next) {
    if (o != r) c_holders.push_back(o);
  }
  for (LockReq* q = e->retired.head; q != nullptr; q = q->next) {
    if (q != r && !HolderCommitted(*q)) c_holders.push_back(q);
  }
  if (!c_holders.empty()) {
    for (LockReq* h : c_holders) EnsureTs(h->txn);
    EnsureTs(txn);
  }

  switch (policy_.conflict) {
    case ConflictRule::kAbort:
      if (!c_holders.empty()) {
        a.rc = AcqResult::kAbort;
        return a;
      }
      break;
    case ConflictRule::kDieYounger: {
      // Wait-die: the upgrader may wait only if it is older than every
      // conflicting holder (this also resolves the classic dual-upgrade
      // deadlock: the younger of two upgrading readers dies here).
      for (LockReq* h : c_holders) {
        if (!OlderThan(txn, h->txn)) {
          a.rc = AcqResult::kAbort;
          return a;
        }
      }
      break;
    }
    case ConflictRule::kWoundYounger:
      // An upgrade is granted ahead of every waiter (PromoteWaiters), so an
      // older live waiter would end up waiting for this younger
      // transaction -- the edge wound-wait forbids, and a cycle once the
      // upgrader takes a commit barrier or a lock the waiter holds. The
      // younger party dies: here, the upgrader (unassigned counts as
      // youngest; it takes a timestamp first so its retry keeps its age).
      for (const LockReq* w = e->waiters.head; w != nullptr; w = w->next) {
        if (w->txn != txn && !w->txn->IsAborted() && OlderThan(w->txn, txn)) {
          EnsureTs(txn);
          a.rc = AcqResult::kAbort;
          return a;
        }
      }
      // Wound-wait: younger conflicting holders die (the dual-upgrade case
      // resolves the same way -- the younger upgrader is itself a holder).
      for (LockReq* h : c_holders) {
        if (OlderThan(txn, h->txn)) WoundAndClaim(h->txn, /*cascade=*/false);
      }
      break;
  }

  if (UpgradeEligible(e, *r)) {
    a = GrantUpgrade(e, row, r);
    // A retiring RMW upgrade (or wait-die's stricter conflict shape) can
    // change waiter eligibility; re-evaluate.
    PromoteWaiters(e, row);
    return a;
  }

  // Pend: keep the SH link (the read stays protected) but conflict as EX
  // from now on, so new readers queue behind the upgrade instead of
  // starving it. The releasing thread that drains the entry grants the
  // upgrade (TryGrantUpgrade) and completes it wholesale.
  r->upgrading = true;
  (r->queue == ReqQueue::kRetired ? e->retired : e->owners).ex_count++;
  e->upgrades_pending++;
  txn->lock_granted.store(0, std::memory_order_relaxed);
  // The pending upgrade just made previously-compatible waiters conflict
  // with an older holder -- the edge wait-die forbids.
  if (policy_.waitdie_repair) WaitDieRepair(e);
  a.rc = AcqResult::kWait;
  a.token = r;
  return a;
}

bool LockManager::UpgradeEligible(LockEntry* e, const LockReq& r) const {
  // Sole owner (besides the upgrading request itself)...
  uint32_t others = e->owners.size - (r.queue == ReqQueue::kOwners ? 1u : 0u);
  if (others != 0) return false;
  // ...and every other uncommitted retired entry is older: the upgrade
  // then stacks behind them with commit barriers exactly like a fresh EX
  // grant. Wounded younger stragglers must finish rolling back first.
  // (The retired list is empty under never-retire descriptors.)
  for (const LockReq* q = e->retired.head; q != nullptr; q = q->next) {
    if (q == &r || HolderCommitted(*q)) continue;
    if (!OlderThan(q->txn, r.txn)) return false;
  }
  return true;
}

AccessGrant LockManager::GrantUpgrade(LockEntry* e, Row* row, LockReq* r) {
  TxnCB* txn = r->txn;
  (r->queue == ReqQueue::kRetired ? e->retired : e->owners).Remove(r);
  if (r->upgrading) {
    r->upgrading = false;
    e->upgrades_pending--;
  }
  r->type = LockType::kEX;
  AccessGrant g;
  g.rc = AcqResult::kGranted;
  g.token = r;
  ValidateSnapshotObservation(row, txn, LockType::kEX);
#ifdef BAMBOO_DEBUG_STUCK
  t_dep_site = 'U';
#endif
  g.dirty = RegisterBarrier(e, txn, LockType::kEX, r->seq);
  txn->wrote_any.store(true, std::memory_order_relaxed);
  g.write_data = row->PushVersion(txn, r->seq);
  r->write_data = g.write_data;
  if (r->rmw_fn != nullptr) {
    r->rmw_fn(g.write_data, r->rmw_arg);
    if (policy_.retire == RetireMode::kHonor && r->rmw_retire) {
      e->retired.PushBack(r, ReqQueue::kRetired);
      g.retired = true;
      return g;
    }
  }
  e->owners.PushBack(r, ReqQueue::kOwners);
  return g;
}

void LockManager::TryGrantUpgrade(LockEntry* e, Row* row) {
  // At most one *alive* upgrade can pend per entry (the protocols kill or
  // wound the younger of two upgrading readers), but a wounded one may
  // still be linked until its rollback -- hence the scan under the count.
  LockReq* up = nullptr;
  for (LockReq* r = e->owners.head; r != nullptr && up == nullptr;
       r = r->next) {
    if (r->upgrading && !r->txn->IsAborted()) up = r;
  }
  for (LockReq* r = e->retired.head; r != nullptr && up == nullptr;
       r = r->next) {
    if (r->upgrading && !r->txn->IsAborted()) up = r;
  }
  if (up == nullptr || !UpgradeEligible(e, *up)) return;
  TxnCB* t = up->txn;
  GrantUpgrade(e, row, up);
  // 2 = fully granted (version created, RMW applied if any); Resume reads
  // the final state off the token.
  t->lock_granted.store(2, std::memory_order_release);
  t->Notify();
}

// ---------------------------------------------------------------------------

void LockManager::ObserveLockedRead(Row* row, TxnCB* txn, bool dirty) {
  // Maintains the gate for shard-mirror snapshot pins (RawSnapshotRead).
  // Runs under the row's shard latch on the owning thread, for every
  // Bamboo+Opt-3 SH grant served under a lock.
  //
  // A dirty read, or any read over a non-empty version chain, may have
  // observed a commit whose stamp is allocated but not yet *published*
  // (committed-but-unreleased versions sit in the chain); no local value
  // can be proven to cover it, so such an attempt must pin from the
  // global watermark. A clean read of a row with an empty chain observed
  // exactly the base image, whose base_cts is always a published stamp:
  // it raises the floor a mirror pin must reach.
  if (dirty || !row->chain().empty()) {
    txn->obs_cts_unbounded = true;
    return;
  }
  uint64_t base = row->base_cts();
  if (base > txn->obs_cts_floor) txn->obs_cts_floor = base;
}

AccessGrant LockManager::RawSnapshotRead(LockShard* sh, Row* row, TxnCB* txn,
                                         char* read_buf) {
  uint64_t snap = txn->raw_snapshot_cts.load(std::memory_order_relaxed);
  if (snap == 0) {
    // First raw read: pin the snapshot at a *published* CTS value -- every
    // stamp at or below the pin must already be visible. The authoritative
    // choice is the global published watermark, but loading it turns the
    // CTS authority's cache line into an all-cores hot spot, so try the
    // shard's mirror first. The mirror only ever holds previously
    // published values (committed EX releases in this shard refresh it
    // with their own published stamps, and fallback pins warm it), so a
    // mirror pin is sound exactly when it is not too *old*:
    //   - it must cover everything this attempt already observed under
    //     locks. Clean empty-chain reads raised obs_cts_floor to their
    //     (published) base stamps; every other observation set
    //     obs_cts_unbounded -- its stamp cannot be bounded locally -- and
    //     forces the fallback. The pin gate in SubmitOne already drained
    //     the commit semaphore, so dirty observations have committed, but
    //     their stamps may still exceed any stale local value.
    //   - it must reach this row's base_cts, so the pin can be served.
    // Both CTS counters seed at 1 (first real stamp is 2), so a floor of 1
    // pins the "nothing committed yet" snapshot.
    uint64_t local = sh->cts_mirror;
    if (txn->obs_cts_floor > local) local = txn->obs_cts_floor;
    if (local == 0) local = 1;
    if (!txn->obs_cts_unbounded && local >= row->base_cts()) {
      snap = local;
      if (txn->stats != nullptr) txn->stats->cts_mirror_pins++;
    } else {
      snap = cts_counter_->load(std::memory_order_acquire);
      if (snap > sh->cts_mirror) sh->cts_mirror = snap;  // warm the mirror
    }
    txn->raw_snapshot_cts.store(snap, std::memory_order_relaxed);
  }

  // Newest committed image with cts <= snap: start from the base (when it
  // is not already past the snapshot) and walk the committed chain prefix,
  // whose stamps increase in chain order. A base newer than the snapshot
  // falls back to the one retained pre-overwrite image.
  const char* src = nullptr;
  if (row->base_cts() <= snap) {
    src = row->base();
    for (const Version& v : row->chain()) {
      uint64_t vcts = VersionCommitCts(v);
      if (vcts == 0 || vcts > snap) break;
      src = v.data;
    }
  } else if (row->SnapData() != nullptr && row->snap_cts() <= snap) {
    src = row->SnapData();
  }

  AccessGrant a;
  if (src == nullptr) {
    // Overwritten at least twice since the pin: the snapshot image is
    // gone. Serving anything newer would break cross-row consistency, so
    // the reader aborts and retries on a fresh snapshot (it keeps its
    // priority timestamp, so it cannot starve).
    a.rc = AcqResult::kAbort;
    return a;
  }
  CopyRowImage(read_buf, src, row->size());
  if (txn->stats != nullptr) txn->stats->raw_reads++;
  a.rc = AcqResult::kGranted;
  a.took_lock = false;
  return a;
}

void LockManager::ValidateSnapshotObservation(Row* row, TxnCB* txn,
                                              LockType type) {
  (void)type;  // EX by a pinned transaction never reaches a grant
  uint64_t snap = txn->raw_snapshot_cts.load(std::memory_order_relaxed);
  if (snap == 0) return;  // no raw read yet: plain locked execution
  // The image a locked read observes is the newest one. Uncommitted state
  // will be stamped after the pin, i.e. outside the snapshot.
  bool dirty = false;
  uint64_t observed = row->base_cts();
  if (!row->chain().empty()) {
    uint64_t vcts = VersionCommitCts(row->chain().back());
    if (vcts == 0) {
      dirty = true;
    } else {
      observed = vcts;
    }
  }
  if (dirty || observed > snap) {
    txn->snapshot_invalid.store(true, std::memory_order_relaxed);
  }
}

/// Register the commit dependencies for a grant: one edge to every
/// conflicting retired entry down to (and including) the newest held-EX
/// conflict, which cuts the walk off. Registering only on the single
/// latest conflicting entry is not enough: transitivity through it fails
/// when the entries in between do not conflict with each other (two
/// retired readers are mutually unordered, so a writer barriered on the
/// later reader alone could commit before the earlier one -- a real
/// commit-order cycle, see TestStressSerializableHotspotRawRead). A
/// held-EX entry, however, conflicts with *every* entry older than it, so
/// its own barriers -- registered under this same rule when it was
/// granted -- already gate its release on all of their releases, and its
/// ack epoch carries their durability (the release path propagates
/// max(log_epoch, dep acks), so the rule is transitive). Everything past
/// the newest EX conflict is therefore covered by that one edge; without
/// the cutoff a hot row's write chain registers O(chain^2) edges and the
/// drain work quadruples every time the pipeline depth doubles. Grants
/// are only issued when all conflicting uncommitted retired holders are
/// older, so every edge still points younger -> older and the graph stays
/// acyclic. Edges to already committed entries carry no cascade risk but
/// still gate the commit on their release, which keeps version installs
/// in chain order. Returns whether the grant consumes an uncommitted
/// (dirty) state.
bool LockManager::RegisterBarrier(LockEntry* e, TxnCB* txn, LockType type,
                                  uint64_t seq) {
  bool dirty = false;
  bool newest = true;
  for (LockReq* it = e->retired.tail; it != nullptr; it = it->prev) {
    // Barrier on the *held* type, not EffectiveType: a pending upgrade
    // still holds only SH. Its EX conflict materializes in GrantUpgrade,
    // which registers its own (younger -> older) barriers at grant time.
    // Depending on the not-yet-granted upgrade here would invert the edge:
    // a promoted waiter finalizing its grant can be OLDER than an upgrade
    // that pended after its promotion, and an older -> younger edge closes
    // a commit-order cycle with the upgrade's own barrier (deadlock).
    if (it->txn == txn || !Conflicts(it->type, type)) continue;
    if (newest) {
      dirty = !HolderCommitted(*it);
      newest = false;
    }
    // Spills are charged to the executing thread: a promoter registering a
    // parked waiter's barrier must not write the waiter's ThreadStats
    // (its owner may already be rolling the wounded waiter back).
    DepPush(it, txn, seq, t_exec_stats);
    txn->commit_semaphore.fetch_add(1, std::memory_order_acq_rel);
    txn->deps_taken++;
#ifdef BAMBOO_DEBUG_STUCK
    std::fprintf(stderr,
                 "DEP+ site=%c e=%p pre=%p prets=%llu preseq=%llu prestat=%u "
                 "dep=%p dets=%llu depseq=%llu\n",
                 t_dep_site, (void*)e, (void*)it->txn,
                 (unsigned long long)it->txn->ts.load(),
                 (unsigned long long)it->seq, (unsigned)it->txn->status.load(),
                 (void*)txn, (unsigned long long)txn->ts.load(),
                 (unsigned long long)seq);
#endif
    // Transitive cutoff (see the function comment): this held-EX
    // predecessor already gates on every older entry's release, so the
    // edge just taken covers the rest of the chain. A pending SH->EX
    // upgrade holds only SH (it->type stays kSH) and never cuts off.
    if (it->type == LockType::kEX) break;
  }
  return dirty;
}

AccessGrant LockManager::Resume(const AccessRequest& req, TxnCB* txn,
                                GrantToken token) {
  t_exec_stats = txn->stats;  // resumes only run on the owning thread
  AccessGrant grant;
  {
    ShardGuard g(ShardOf(req.row), txn->stats);
    grant = ResumeLocked(req, txn, token);
  }
  DrainCompletions();
  return grant;
}

AccessGrant LockManager::ResumeLocked(const AccessRequest& req, TxnCB* txn,
                                      GrantToken token) {
  LockEntry* e = req.row->Lock();
  if (txn->IsAborted()) {
    AccessGrant a;
    a.rc = AcqResult::kAbort;
    return a;
  }
  if (req.rmw_fn != nullptr || req.upgrade_of != nullptr) {
    // The promoting thread completed the grant wholesale (version created,
    // RMW applied, queue placement final): report the state off the token.
    AccessGrant a;
    a.rc = AcqResult::kGranted;
    a.token = token;
    a.write_data = token->write_data;
    a.retired = token->queue == ReqQueue::kRetired;
    return a;
  }
  return FinalizeGrant(e, req.row, txn, req.type, req.read_buf, token);
}

AccessGrant LockManager::FinalizeGrant(LockEntry* e, Row* row, TxnCB* txn,
                                       LockType type, char* read_buf,
                                       GrantToken token) {
  const uint64_t seq = token->seq;
  AccessGrant grant;
  grant.rc = AcqResult::kGranted;
  grant.token = token;
  ValidateSnapshotObservation(row, txn, type);
#ifdef BAMBOO_DEBUG_STUCK
  t_dep_site = 'F';
#endif
  grant.dirty = RegisterBarrier(e, txn, type, seq);

  if (type == LockType::kEX) {
    txn->wrote_any.store(true, std::memory_order_relaxed);
    grant.write_data = row->PushVersion(txn, seq);
    token->write_data = grant.write_data;
  } else {
    // Copy under the latch: the version could be popped by a committing
    // writer the instant the latch drops.
    CopyRowImage(read_buf, row->NewestData(), row->size());
    if (grant.dirty && txn->stats != nullptr) txn->stats->dirty_reads++;
    if (observe_cts_) {
      ObserveLockedRead(row, txn, grant.dirty);
    }
    if (policy_.retire_reads && token->queue == ReqQueue::kOwners) {
      // Opt 1: the read is complete, retire inside the same latch hold --
      // straight off the token, no owners scan.
      e->owners.Remove(token);
      e->retired.PushBack(token, ReqQueue::kRetired);
      grant.retired = true;
      PromoteWaiters(e, row);
    }
  }
  return grant;
}

bool LockManager::UnfuseWaiter(Row* row, GrantToken token) {
  TxnCB* txn = token->txn;
  t_exec_stats = txn->stats;  // only the owning thread suspends its waits
  ShardGuard g(ShardOf(row), txn->stats);
  // Pending means the grant has not happened: still linked among the
  // waiters, or still an ungranted upgrade (GrantUpgrade clears
  // `upgrading` under this latch before touching the fused fn). A request
  // the promoter is granting right now is excluded by the same latch --
  // PromoteWaiters/TryGrantUpgrade move the node out of the waiters list /
  // clear `upgrading` while holding it.
  const bool pending =
      token->queue == ReqQueue::kWaiters || token->upgrading;
  if (!pending) return false;
  token->rmw_fn = nullptr;
  token->rmw_arg = nullptr;
  token->rmw_retire = false;
  return true;
}

bool LockManager::RmwRetired(Row* row, GrantToken token, RmwFn fn, void* arg) {
  TxnCB* txn = token->txn;
  t_exec_stats = txn->stats;  // own-write RMWs only run on the owning thread
  bool ok;
  {
    ShardGuard g(ShardOf(row), txn->stats);
    // A dependent on the retired entry conflicted with (and may have
    // dirty-read) this version: its bytes are no longer private, so a
    // second in-place write would rewrite state another transaction
    // already observed. With no dependents the version is still private
    // -- it is also necessarily the newest (any later writer would have
    // registered a barrier on it) -- and the RMW can land in place.
    ok = token->queue == ReqQueue::kRetired && token->dep_count == 0 &&
         !txn->IsAborted();
    if (ok) fn(token->write_data, arg);
  }
  return ok;
}

bool LockManager::Retire(Row* row, GrantToken token, bool tail_write) {
  // Pre-latch early-outs: a retire is an optimization, never required for
  // correctness. Only Bamboo retires, and Opt-2 tail writes never do.
  if (!bamboo_family_ || tail_write) return false;
  LockEntry* e = row->Lock();
  TxnCB* txn = token->txn;
  t_exec_stats = txn->stats;  // retires only run on the owning thread
  bool retired = false;
  {
    ShardGuard g(ShardOf(row), txn->stats);
    if (token->queue == ReqQueue::kOwners) {
      // (else: not an owner -- aborted concurrently)
      e->owners.Remove(token);
      e->retired.PushBack(token, ReqQueue::kRetired);
      PromoteWaiters(e, row);
      retired = true;
    }
  }
  DrainCompletions();  // PromoteWaiters can claim wound completions
  return retired;
}

int LockManager::Release(Row* row, GrantToken token, bool committed) {
  // Inside a completion drain this thread is finishing someone else's
  // transaction; keep charging latch contention to the thread's own
  // worker stats (set by the outer public call), never the origin's.
  if (!t_draining) t_exec_stats = token->txn->stats;
  int wounded;
  {
    LockShard* sh = ShardOf(row);
    ShardGuard g(sh, t_exec_stats);
    wounded = ReleaseOne(sh, row, token, committed);
  }
  DrainCompletions();
  return wounded;
}

int LockManager::ReleaseMany(const ReleaseOp* ops, int n, bool committed) {
  if (n <= 0) return 0;
  // All ops belong to one transaction (the caller's); charge the batch to
  // the executing thread exactly like Release would.
  if (!t_draining) t_exec_stats = ops[0].token->txn->stats;
  int wounded = 0;
  int i = 0;
  while (i < n) {
    // The caller cached each op's shard (ReleaseOp::shard) when it built
    // and sorted the batch; trusting it here keeps the row-identity hash
    // off the release path entirely.
    const uint32_t s = ops[i].shard;
    assert(s == ShardIndexOf(ops[i].row));
    int end = i + 1;
    while (end < n && ops[end].shard == s) end++;
    {
      ShardGuard g(&shards_[s], t_exec_stats);
      for (; i < end; i++) {
        wounded += ReleaseOne(&shards_[s], ops[i].row, ops[i].token, committed);
      }
    }
  }
  DrainCompletions();
  return wounded;
}

int LockManager::RetireDependentsAndFree(LockReq* req, bool committed) {
  int wounded = 0;
  DepCursor cur(req);
  const uint32_t n = req->dep_count;
  for (uint32_t i = 0; i < n; i++) {
    DepRec* rec = cur.Next();
    TxnCB* dep = rec->txn;
    if (dep->txn_seq.load(std::memory_order_acquire) != rec->seq) {
#ifdef BAMBOO_DEBUG_STUCK
      std::fprintf(stderr,
                   "DEP-SKIP dep=%p ts=%llu status=%u sem=%lld recseq=%llu "
                   "depseq=%llu\n",
                   (void*)dep, (unsigned long long)dep->ts.load(),
                   (unsigned)dep->status.load(),
                   (long long)dep->commit_semaphore.load(),
                   (unsigned long long)rec->seq,
                   (unsigned long long)dep->txn_seq.load());
#endif
      continue;
    }
#ifdef BAMBOO_DEBUG_STUCK
    std::fprintf(stderr, "DEP- pre=%p preseq=%llu dep=%p depseq=%llu c=%d\n",
                 (void*)req->txn, (unsigned long long)req->seq, (void*)dep,
                 (unsigned long long)rec->seq, committed ? 1 : 0);
#endif
    if (committed) {
      // Dependency-aware durability: hand the dependent our durable-ack
      // epoch before lifting its commit barrier, so it can never be
      // acknowledged durable while our (or, transitively, our own
      // dependencies') log records are still in flight. Propagating the
      // ack epoch rather than the commit epoch keeps the rule transitive
      // through read-only links. Atomic max: several released writers may
      // race on one dependent.
      uint64_t ack = req->txn->log_ack_epoch;
      if (ack != 0) {
        uint64_t cur = dep->dep_log_epoch.load(std::memory_order_relaxed);
        while (cur < ack &&
               !dep->dep_log_epoch.compare_exchange_weak(
                   cur, ack, std::memory_order_release,
                   std::memory_order_relaxed)) {
        }
      }
      if (dep->commit_semaphore.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        // Last barrier gone: if the dependent's worker already handed
        // its commit off, claim and finish it (commit pipelining). The
        // fence pairs with the one after TxnHandle::Commit publishes
        // `detached`: this exchange sees the flag, or that re-check sees
        // the drained semaphore.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (dep->detached.exchange(false, std::memory_order_acq_rel)) {
          t_pending_completions.push_back(dep);
        }
        dep->Notify();
      }
    } else {
      // Cascading abort: everything that consumed our dirty state dies.
      if (WoundAndClaim(dep, /*cascade=*/true)) wounded++;
    }
  }
  req->txn->pool.Free(req);  // also returns the spill pages
  return wounded;
}

int LockManager::ReleaseOne(LockShard* sh, Row* row, GrantToken req,
                            bool committed) {
  LockEntry* e = row->Lock();
  TxnCB* txn = req->txn;

  int wounded = 0;
  switch (req->queue) {
    case ReqQueue::kWaiters:
      // Never granted (rollback of a parked request): no version, no
      // dependents of its own.
      e->waiters.Remove(req);
      txn->pool.Free(req);
      break;
    case ReqQueue::kOwners:
    case ReqQueue::kRetired: {
      (req->queue == ReqQueue::kRetired ? e->retired : e->owners).Remove(req);
      if (req->upgrading) {
        // Wounded while the upgrade was pending: the request is still the
        // original SH and no version exists yet.
        req->upgrading = false;
        e->upgrades_pending--;
      }
      if (req->type == LockType::kEX) {
        const bool track_cts = track_cts_;
        if (committed) {
          // The committer drew its CTS before releasing, so the stamp is
          // available here (0 only for test-driven manual commits, which
          // keeps their rows' CTS bookkeeping inert).
          const uint64_t cts = txn->commit_cts.load(std::memory_order_acquire);
          row->CommitVersion(txn, req->seq, cts, /*retain=*/track_cts);
          // The stamp was published before the releases began
          // (StampCommit's PublishCts), so it is a valid refresh for the
          // shard's mirror of the published watermark.
          if (track_cts && cts > sh->cts_mirror) sh->cts_mirror = cts;
        } else {
          row->AbortVersion(txn, req->seq);
        }
      }
      wounded = RetireDependentsAndFree(req, committed);
      break;
    }
    case ReqQueue::kNone:
#ifdef BAMBOO_DEBUG_STUCK
      std::fprintf(stderr, "RELEASE-NONE txn=%p ts=%llu row=%p\n", (void*)txn,
                   (unsigned long long)txn->ts.load(), (void*)row);
#endif
      break;  // already released; tolerated defensively
  }

  // Drop any dependency records still pointing at us so a later attempt of
  // this TxnCB can never be confused with this one. Only needed when this
  // attempt registered a dependency somewhere.
  if (txn->deps_taken > 0) DropDependentRecords(e, txn);
  PromoteWaiters(e, row);
  return wounded;
}

bool LockManager::WaiterEligible(LockEntry* e, const LockReq& w) const {
  // O(1) summary checks first. A waiter is never itself linked into owners
  // or retired (one request per (txn, row); TxnHandle deduplicates and
  // upgrades keep their original link), so the aggregate counters decide
  // the owners side without a scan, and the whole check without one in the
  // common shapes (empty entry, read-only retired list). Pending upgrades
  // count as EX in the summaries, so they are never granted past.
  if (w.type == LockType::kEX) {
    if (e->owners.size != 0) return false;
  } else if (e->owners.ex_count != 0) {
    return false;
  }
  if (e->retired.empty()) return true;
  if (w.type == LockType::kSH && e->retired.ex_count == 0) return true;
  // Only reachable under a retiring descriptor: the retired list stays
  // empty under every other one.
  for (const LockReq* r = e->retired.head; r != nullptr; r = r->next) {
    if (r->txn == w.txn || !Conflicts(EffectiveType(*r), w.type)) continue;
    // A pending upgrade must resolve before anything stacks behind it
    // (see the deadlock note in SubmitLocked).
    if (r->upgrading) return false;
    // May only queue *behind* older (or already committed) retired
    // entries; a younger uncommitted one is a doomed wound target that
    // must drain first.
    if (!HolderCommitted(*r) && !OlderThan(r->txn, w.txn)) {
      return false;
    }
  }
  return true;
}

void LockManager::PromoteWaiters(LockEntry* e, Row* row) {
  // Upgrades first: the upgrader already holds the lock, so it always
  // precedes any waiter in the grant order.
  if (e->upgrades_pending != 0) TryGrantUpgrade(e, row);

  LockReq* w = e->waiters.head;
  while (w != nullptr) {
    LockReq* next = w->next;
    if (w->txn->IsAborted()) {
      w = next;  // its own rollback will remove it; do not block others on it
      continue;
    }
    if (!WaiterEligible(e, *w)) break;  // strict wake-up order
    e->waiters.Remove(w);
    TxnCB* t = w->txn;
    if (w->rmw_fn != nullptr) {
      // Apply the fused RMW on the sleeping waiter's behalf. Retired RMWs
      // keep draining the queue: the next (younger) writer may queue right
      // behind this freshly retired one, so a whole chain of hotspot
      // updates completes in this single latch hold.
      ValidateSnapshotObservation(row, t, LockType::kEX);
      t->wrote_any.store(true, std::memory_order_relaxed);
#ifdef BAMBOO_DEBUG_STUCK
  t_dep_site = 'P';
#endif
      RegisterBarrier(e, t, LockType::kEX, w->seq);
      char* data = row->PushVersion(t, w->seq);
      w->write_data = data;
      w->rmw_fn(data, w->rmw_arg);
      if (policy_.retire == RetireMode::kHonor && w->rmw_retire) {
        e->retired.PushBack(w, ReqQueue::kRetired);
      } else {
        e->owners.PushBack(w, ReqQueue::kOwners);
      }
      t->lock_granted.store(2, std::memory_order_release);
    } else {
      e->owners.PushBack(w, ReqQueue::kOwners);
      t->lock_granted.store(1, std::memory_order_release);
    }
    t->Notify();
    w = next;
  }

  if (policy_.waitdie_repair) WaitDieRepair(e);
}

/// Wait-die invariant repair: enqueueing only ever makes an older txn wait
/// for younger owners, but granting (promotion, the waiter-bypass in
/// Submit, or a pending upgrade hardening an SH holder into an effective
/// EX) can install an *older* conflicting owner in front of a younger
/// waiter -- an edge wait-die forbids (it is how deadlock cycles close).
/// Such waiters must die now, not wait.
void LockManager::WaitDieRepair(LockEntry* e) {
  for (LockReq* w = e->waiters.head; w != nullptr; w = w->next) {
    if (w->txn->IsAborted()) continue;
    for (const LockReq* o = e->owners.head; o != nullptr; o = o->next) {
      if (o->txn != w->txn && Conflicts(EffectiveType(*o), w->type) &&
          OlderThan(o->txn, w->txn)) {
        WoundAndClaim(w->txn, /*cascade=*/false);
        break;
      }
    }
  }
}

void LockManager::InsertWaiter(LockEntry* e, LockReq* req) {
  // Oldest-first order, walking from the tail: a fresh request is almost
  // always the youngest on the tuple, so the expected walk is zero steps
  // (the old sorted-vector insert paid a full memmove for the same
  // position).
  LockReq* pos = e->waiters.tail;
  while (pos != nullptr && OlderThan(req->txn, pos->txn)) pos = pos->prev;
  e->waiters.InsertBefore(pos == nullptr ? e->waiters.head : pos->next, req,
                          ReqQueue::kWaiters);
}

size_t LockManager::OwnerCount(Row* row) {
  ShardGuard g(ShardOf(row), nullptr);
  return row->Lock()->owners.size;
}
size_t LockManager::RetiredCount(Row* row) {
  ShardGuard g(ShardOf(row), nullptr);
  return row->Lock()->retired.size;
}
size_t LockManager::WaiterCount(Row* row) {
  ShardGuard g(ShardOf(row), nullptr);
  return row->Lock()->waiters.size;
}

size_t LockManager::DependentCount(Row* row, TxnCB* txn) {
  LockEntry* e = row->Lock();
  ShardGuard g(ShardOf(row), nullptr);
  const uint64_t seq = txn->txn_seq.load(std::memory_order_relaxed);
  LockReq* r = FindReqForInspection(&e->retired, txn, seq);
  if (r == nullptr) r = FindReqForInspection(&e->owners, txn, seq);
  return r != nullptr ? r->dep_count : 0;
}

void LockManager::DebugDumpRow(Row* row) {
  LockEntry* e = row->Lock();
  ShardGuard g(ShardOf(row), nullptr);
  std::fprintf(stderr,
               "  row=%p shard=%u owners=%u retired=%u waiters=%u "
               "upgrades_pending=%u\n",
               static_cast<void*>(row), ShardIndexOf(row), e->owners.size,
               e->retired.size, e->waiters.size, e->upgrades_pending);
  const struct {
    const char* name;
    LockReq* head;
  } lists[] = {{"owner", e->owners.head},
               {"retired", e->retired.head},
               {"waiter", e->waiters.head}};
  for (const auto& l : lists) {
    for (LockReq* r = l.head; r != nullptr; r = r->next) {
      std::fprintf(
          stderr,
          "    %s txn=%p ts=%llu type=%s%s status=%u deps=%u\n", l.name,
          static_cast<void*>(r->txn),
          static_cast<unsigned long long>(
              r->txn->ts.load(std::memory_order_relaxed)),
          r->type == LockType::kEX ? "EX" : "SH",
          r->upgrading ? "+upg" : "",
          static_cast<unsigned>(r->txn->status.load(std::memory_order_relaxed)),
          r->dep_count);
    }
  }
}

}  // namespace bamboo
