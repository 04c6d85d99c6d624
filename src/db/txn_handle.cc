#include "src/db/txn_handle.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/common/platform.h"

namespace bamboo {

namespace {

// Word-wise relaxed-atomic row-image copy for the Silo seqlock. A reader
// copies while a committing writer may be installing in place; the TID
// recheck discards torn copies, but the accesses themselves must be atomic
// or the copy is a data race (UB, and a TSan report). Images come from
// new[] so the 8-byte strides are aligned.
void SeqlockLoad(char* dst, const char* src, uint32_t size) {
  uint32_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w = __atomic_load_n(reinterpret_cast<const uint64_t*>(src + i),
                                 __ATOMIC_RELAXED);
    std::memcpy(dst + i, &w, 8);
  }
  for (; i < size; i++) dst[i] = __atomic_load_n(src + i, __ATOMIC_RELAXED);
}

void SeqlockStore(char* dst, const char* src, uint32_t size) {
  uint32_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, src + i, 8);
    __atomic_store_n(reinterpret_cast<uint64_t*>(dst + i), w,
                     __ATOMIC_RELAXED);
  }
  for (; i < size; i++) __atomic_store_n(dst + i, src[i], __ATOMIC_RELAXED);
}

}  // namespace

TxnHandle::TxnHandle(Database* db, TxnCB* txn)
    : db_(db), txn_(txn), cfg_(db->config()), lm_(db->cc()->locks()) {}

void TxnHandle::MaybeReset() {
  uint64_t seq = txn_->txn_seq.load(std::memory_order_relaxed);
  if (seq == seen_seq_) return;
  seen_seq_ = seq;
  accesses_.clear();
  seen_rows_.Clear();
  use_row_set_ = false;
  readonly_rejected_ = false;
  silo_reads_.clear();
  silo_writes_.clear();
  chunk_idx_ = 0;
  chunk_off_ = 0;
  big_chunks_.clear();
  susp_kind_ = SuspKind::kNone;
  batch_live_ = false;
  batch_j_ = -1;
  hits_live_ = false;
  hits_done_ = 0;
  rmw_hits_.clear();
}

// --- continuation suspension ------------------------------------------------

bool TxnHandle::StmtResolved() const {
  return txn_->lock_granted.load(std::memory_order_acquire) != 0 ||
         txn_->IsAborted();
}

bool TxnHandle::CommitDrained() const {
  return txn_->commit_semaphore.load(std::memory_order_acquire) <= 0 ||
         txn_->IsAborted();
}

bool TxnHandle::ArmSuspension(SuspKind kind) {
  susp_kind_ = kind;
  susp_start_ns_ = NowNs();
  txn_->susp_armed.store(1, std::memory_order_release);
  // Pairs with the fence in TxnCB::Notify: either the notifier sees the
  // armed flag, or this re-check sees the state change it published.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const bool resolved =
      kind == SuspKind::kCommit ? CommitDrained() : StmtResolved();
  if (resolved &&
      txn_->susp_armed.exchange(0, std::memory_order_acq_rel) != 0) {
    // Reclaimed the arm before any notifier claimed it: the wait is over,
    // proceed inline (no continuation will fire for this arming).
    susp_kind_ = SuspKind::kNone;
    return false;
  }
  // Either the wait is still pending, or a notifier won the exchange and
  // the continuation is on its way to the driver's queue -- report
  // suspended in both cases so the resume happens exactly once.
  if (txn_->stats != nullptr) txn_->stats->suspended_txns++;
  return true;
}

bool TxnHandle::ReArm() {
  txn_->susp_armed.store(1, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const bool resolved =
      susp_kind_ == SuspKind::kCommit ? CommitDrained() : StmtResolved();
  if (resolved &&
      txn_->susp_armed.exchange(0, std::memory_order_acq_rel) != 0) {
    return false;  // resolved during the re-arm; caller proceeds
  }
  return true;
}

RC TxnHandle::ResumeSuspended() {
  if (susp_kind_ == SuspKind::kStatement) {
    if (!StmtResolved() && ReArm()) return RC::kSuspended;  // spurious fire
    susp_kind_ = SuspKind::kNone;
    if (txn_->stats != nullptr) {
      txn_->stats->lock_wait_ns += NowNs() - susp_start_ns_;
    }
    return RC::kPending;  // driver re-issues; the statement finishes itself
  }
  if (susp_kind_ == SuspKind::kCommit) {
    if (!CommitDrained() && ReArm()) return RC::kSuspended;
    susp_kind_ = SuspKind::kNone;
    if (txn_->stats != nullptr) {
      txn_->stats->commit_wait_ns += NowNs() - susp_start_ns_;
    }
    return CommitTail();
  }
  return RC::kPending;  // stale fire after resolution; nothing to do
}

RC TxnHandle::FinishWait(Access* a, RmwFn fn, void* arg, bool retire_now) {
  // The suspension resolved (or the arm was reclaimed), so this returns
  // immediately in the common case; a wound resolves it too.
  uint64_t waited = WaitForLock(a->row);
  if (txn_->stats != nullptr) txn_->stats->lock_wait_ns += waited;
  AccessRequest req;
  req.row = a->row;
  req.type = a->type;
  if (a->state == AccState::kWaitingUpgrade) {
    // Report the upgrade off the token (GrantUpgrade completed it); the
    // fused fn, if any, was stripped at suspension, so the version is
    // untouched and the RMW applies below.
    req.upgrade_of = a->token;
  } else if (a->type == LockType::kSH) {
    req.read_buf = a->data;  // the arena buf stored at enqueue
  }
  AccessGrant g = lm_->Resume(req, txn_, a->token);
  if (g.rc != AcqResult::kGranted) return FailAttempt();
  a->state = g.retired ? AccState::kRetired : AccState::kOwner;
  if (a->type == LockType::kEX) {
    a->data = g.write_data;
    if (fn != nullptr) {
      fn(a->data, arg);  // the re-issued statement's argument, frame alive
      if (retire_now && a->state == AccState::kOwner &&
          lm_->Retire(a->row, a->token, /*tail_write=*/false)) {
        a->state = AccState::kRetired;
      }
    }
  }
  return RC::kOk;
}

TxnHandle::Access* TxnHandle::FindAccess(Row* row) {
  if (!use_row_set_ && accesses_.size() >= 32) {
    seen_rows_.Clear();
    for (const Access& a : accesses_) seen_rows_.Insert(a.row);
    use_row_set_ = true;
  }
  if (use_row_set_ && !seen_rows_.Contains(row)) return nullptr;
  for (Access& a : accesses_) {
    if (a.row == row) return &a;
  }
  return nullptr;
}

void TxnHandle::NoteAccess(Row* row) {
  if (use_row_set_) seen_rows_.Insert(row);
}

char* TxnHandle::ArenaAlloc(uint32_t size) {
  if (size > kChunkSize) {
    // A row larger than a chunk gets its own dedicated allocation; packing
    // it into the fixed-size chunks would write past the chunk end.
    big_chunks_.emplace_back(new char[size]);
    return big_chunks_.back().get();
  }
  if (chunks_.empty()) chunks_.emplace_back(new char[kChunkSize]);
  if (chunk_off_ + size > kChunkSize) {
    chunk_idx_++;
    chunk_off_ = 0;
    if (chunk_idx_ >= chunks_.size()) chunks_.emplace_back(new char[kChunkSize]);
  }
  char* p = chunks_[chunk_idx_].get() + chunk_off_;
  chunk_off_ += size;
  return p;
}

RC TxnHandle::FailAttempt() {
  txn_->status.store(TxnStatus::kAborted, std::memory_order_release);
  return RC::kAbort;
}

RC TxnHandle::FailGrant(const AccessGrant& g) {
  FailAttempt();
  if (g.abort_code == AbortCode::kReadOnlyMode) {
    // Remembered until the next attempt: workloads funnel every failed op
    // through Commit, which must report kReadOnlyMode (not kAbort) so the
    // runner retires the seed instead of retrying a hopeless write.
    readonly_rejected_ = true;
    return RC::kReadOnlyMode;
  }
  return RC::kAbort;
}

uint64_t TxnHandle::WaitForLock(Row* row) {
  (void)row;
#ifdef BAMBOO_DEBUG_STUCK
  uint64_t start = NowNs();
  for (;;) {
    if (txn_->lock_granted.load(std::memory_order_acquire) != 0 ||
        txn_->IsAborted()) {
      return NowNs() - start;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (NowNs() - start > 5000000000ull) {
      std::fprintf(stderr, "STUCK-LOCK txn=%p ts=%llu row=%p\n", (void*)txn_,
                   (unsigned long long)txn_->ts.load(), (void*)row);
      lm_->DebugDumpRow(row);
      start = NowNs();
    }
  }
#else
  return txn_->WaitFor([this] {
    return txn_->lock_granted.load(std::memory_order_acquire) != 0 ||
           txn_->IsAborted();
  });
#endif
}

RC TxnHandle::Read(HashIndex* index, uint64_t key, const char** data) {
  MaybeReset();
  if (txn_->IsAborted()) return RC::kAbort;
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);
  Row* row = index->Get(key);
  if (row == nullptr) return FailAttempt();
  return ReadRow(row, data);
}

RC TxnHandle::ReadRow(Row* row, const char** data) {
  if (Access* a = FindAccess(row)) {
    if (a->state == AccState::kWaiting ||
        a->state == AccState::kWaitingUpgrade) {
      // Re-issue of the statement that suspended on this row: its grant
      // resolved (that is what fired the continuation), finish it.
      RC rc = FinishWait(a, nullptr, nullptr, /*retire_now=*/false);
      if (rc != RC::kOk) return rc;
    }
    *data = a->data;  // repeatable read / read-own-write
    return RC::kOk;
  }
  txn_->ops_done++;

  if (cfg_.protocol == Protocol::kSilo) return SiloRead_(row, data);

  char* buf = ArenaAlloc(row->size());
  AccessRequest req;
  req.row = row;
  req.type = LockType::kSH;
  req.read_buf = buf;
  AccessGrant g = lm_->Submit(req, txn_);
  if (g.rc == AcqResult::kWait) {
    accesses_.push_back({row, LockType::kSH, AccState::kWaiting, buf, g.token});
    NoteAccess(row);
    if (CanSuspend() && ArmSuspension(SuspKind::kStatement)) {
      return RC::kSuspended;
    }
    RC rc = FinishWait(&accesses_.back(), nullptr, nullptr,
                       /*retire_now=*/false);
    if (rc != RC::kOk) return rc;
    *data = buf;
    return RC::kOk;
  }
  if (g.rc != AcqResult::kGranted) return FailAttempt();
  AccState st = !g.took_lock ? AccState::kSnapshot
                             : (g.retired ? AccState::kRetired : AccState::kOwner);
  accesses_.push_back({row, LockType::kSH, st, buf, g.token});
  NoteAccess(row);
  *data = buf;
  return RC::kOk;
}

RC TxnHandle::Update(HashIndex* index, uint64_t key, char** data) {
  MaybeReset();
  if (txn_->IsAborted()) return RC::kAbort;
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);
  Row* row = index->Get(key);
  if (row == nullptr) return FailAttempt();
  return UpdateRow(row, data);
}

RC TxnHandle::UpdateRow(Row* row, char** data) {
  if (Access* a = FindAccess(row)) {
    if (a->state == AccState::kWaiting ||
        a->state == AccState::kWaitingUpgrade) {
      RC rc = FinishWait(a, nullptr, nullptr, /*retire_now=*/false);
      if (rc != RC::kOk) return rc;
      *data = a->data;
      return RC::kOk;
    }
    if (cfg_.protocol == Protocol::kSilo) {
      SiloPromoteToWrite(row, a);
      *data = a->data;  // Silo buffers are txn-local: just write the copy
      return RC::kOk;
    }
    if (a->type == LockType::kEX && a->state == AccState::kOwner) {
      *data = a->data;  // write-own-write
      return RC::kOk;
    }
    if (a->type == LockType::kSH &&
        (a->state == AccState::kOwner || a->state == AccState::kRetired)) {
      // SH -> EX upgrade through the grant token: the read lock is never
      // dropped, so the observed image stays protected across the convert.
      return UpgradeAccess(a, nullptr, nullptr, data);
    }
    // Snapshot reads are footprint-free (pinned transactions are
    // read-only); writes into already-retired EX versions are unsupported.
    return FailAttempt();
  }
  txn_->ops_done++;

  if (cfg_.protocol == Protocol::kSilo) return SiloUpdate_(row, data);

  AccessRequest req;
  req.row = row;
  req.type = LockType::kEX;
  AccessGrant g = lm_->Submit(req, txn_);
  if (g.rc == AcqResult::kWait) {
    accesses_.push_back(
        {row, LockType::kEX, AccState::kWaiting, nullptr, g.token});
    NoteAccess(row);
    if (CanSuspend() && ArmSuspension(SuspKind::kStatement)) {
      return RC::kSuspended;
    }
    RC rc = FinishWait(&accesses_.back(), nullptr, nullptr,
                       /*retire_now=*/false);
    if (rc != RC::kOk) return rc;
    *data = accesses_.back().data;
    return RC::kOk;
  }
  if (g.rc != AcqResult::kGranted) return FailGrant(g);
  accesses_.push_back(
      {row, LockType::kEX, AccState::kOwner, g.write_data, g.token});
  NoteAccess(row);
  *data = g.write_data;
  return RC::kOk;
}

RC TxnHandle::UpdateRmw(HashIndex* index, uint64_t key, RmwFn fn, void* arg) {
  MaybeReset();
  if (txn_->IsAborted()) return RC::kAbort;
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);
  Row* row = index->Get(key);
  if (row == nullptr) return FailAttempt();
  return UpdateRmwRow(row, fn, arg);
}

RC TxnHandle::UpdateRmwRow(Row* row, RmwFn fn, void* arg) {
  if (Access* a = FindAccess(row)) {
    if (a->state == AccState::kWaiting ||
        a->state == AccState::kWaitingUpgrade) {
      // Re-issue of the suspended statement. The wait was unfused before
      // the suspension (only unfused waits suspend), so the grant is plain
      // and the re-issued fn/arg apply here, exactly once.
      return FinishWait(a, fn, arg,
                        cfg_.protocol == Protocol::kBamboo && !TailWrite());
    }
    if (cfg_.protocol == Protocol::kSilo) {
      SiloPromoteToWrite(row, a);
      fn(a->data, arg);
      return RC::kOk;
    }
    if (a->type == LockType::kEX && a->state == AccState::kOwner) {
      fn(a->data, arg);  // RMW-own-write
      return RC::kOk;
    }
    if (a->type == LockType::kSH &&
        (a->state == AccState::kOwner || a->state == AccState::kRetired)) {
      return UpgradeAccess(a, fn, arg, nullptr);
    }
    if (a->type == LockType::kEX && a->state == AccState::kRetired) {
      // RMW-own-write after early release: lands in place while the
      // version is unobserved, aborts the attempt once a dependent has
      // seen the bytes (FailAttempt would otherwise loop forever on a
      // deterministic retry -- the workload replays the same duplicate).
      if (lm_->RmwRetired(a->row, a->token, fn, arg)) return RC::kOk;
    }
    return FailAttempt();  // snapshot read, or observed retired version
  }
  txn_->ops_done++;

  if (cfg_.protocol == Protocol::kSilo) {
    char* buf = nullptr;
    RC rc = SiloUpdate_(row, &buf);
    if (rc == RC::kOk) fn(buf, arg);
    return rc;
  }

  AccessRequest req;
  req.row = row;
  req.type = LockType::kEX;
  req.rmw_fn = fn;
  req.rmw_arg = arg;
  req.retire_now = cfg_.protocol == Protocol::kBamboo && !TailWrite();
  AccessGrant g = lm_->Submit(req, txn_);
  if (g.rc == AcqResult::kWait) {
    accesses_.push_back(
        {row, LockType::kEX, AccState::kWaiting, nullptr, g.token});
    NoteAccess(row);
    if (CanSuspend() && lm_->UnfuseWaiter(row, g.token)) {
      // The fused fn/arg are stripped so a promoting thread can never
      // apply them after this frame dies; the RMW lands in FinishWait.
      if (ArmSuspension(SuspKind::kStatement)) return RC::kSuspended;
      return FinishWait(&accesses_.back(), fn, arg, req.retire_now);
    }
    // No continuation hook -- or the grant beat the unfuse, in which case
    // the promoter applied the fused fn while this frame is alive.
    uint64_t waited = WaitForLock(row);
    if (txn_->stats != nullptr) txn_->stats->lock_wait_ns += waited;
    g = lm_->Resume(req, txn_, g.token);
    if (g.rc != AcqResult::kGranted) return FailAttempt();
    accesses_.back().state = g.retired ? AccState::kRetired : AccState::kOwner;
    accesses_.back().data = g.write_data;
    return RC::kOk;
  }
  if (g.rc != AcqResult::kGranted) return FailGrant(g);
  accesses_.push_back({row, LockType::kEX,
                       g.retired ? AccState::kRetired : AccState::kOwner,
                       g.write_data, g.token});
  NoteAccess(row);
  return RC::kOk;
}

RC TxnHandle::UpgradeAccess(Access* a, RmwFn fn, void* arg, char** data_out) {
  txn_->ops_done++;
  AccessRequest req;
  req.row = a->row;
  req.type = LockType::kEX;
  req.rmw_fn = fn;
  req.rmw_arg = arg;
  req.retire_now =
      fn != nullptr && cfg_.protocol == Protocol::kBamboo && !TailWrite();
  req.upgrade_of = a->token;
  AccessGrant g = lm_->Submit(req, txn_);
  if (g.rc == AcqResult::kWait) {
    a->type = LockType::kEX;
    a->state = AccState::kWaitingUpgrade;
    if (CanSuspend() &&
        (fn == nullptr || lm_->UnfuseWaiter(a->row, a->token))) {
      if (ArmSuspension(SuspKind::kStatement)) return RC::kSuspended;
      RC rc = FinishWait(a, fn, arg, req.retire_now);
      if (rc != RC::kOk) return rc;
      if (data_out != nullptr) *data_out = a->data;
      return RC::kOk;
    }
    uint64_t waited = WaitForLock(a->row);
    if (txn_->stats != nullptr) txn_->stats->lock_wait_ns += waited;
    g = lm_->Resume(req, txn_, a->token);
  }
  if (g.rc != AcqResult::kGranted) return FailGrant(g);
  a->type = LockType::kEX;
  a->state = g.retired ? AccState::kRetired : AccState::kOwner;
  a->data = g.write_data;
  if (data_out != nullptr) *data_out = g.write_data;
  return RC::kOk;
}

RC TxnHandle::ReadMany(HashIndex* index, const uint64_t* keys, int n,
                       const char** data_out) {
  MaybeReset();
  if (txn_->IsAborted()) return RC::kAbort;
  if (n <= 0) return RC::kOk;
  // One simulated round trip for the whole batch: a multi-key statement is
  // exactly what the interactive mode's per-statement RTT amortizes over.
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);

  if (batch_live_) {
    // Re-issue of the suspended batch statement: batch_/pend_/uniq_data_
    // are still live; re-enter the submission loop where it parked.
    // Building the batch again would re-apply nothing here (SH), but the
    // resume path is shared with UpdateRmwMany, where it must not rebuild.
    RC rc = RunBatch(nullptr, nullptr);
    if (rc != RC::kOk) return rc;
    FillReadManyOut(data_out);
    return RC::kOk;
  }

  batch_.clear();
  for (int i = 0; i < n; i++) batch_.push_back({keys[i], i});
  std::sort(batch_.begin(), batch_.end(),
            [](const BatchKey& a, const BatchKey& b) { return a.key < b.key; });

  if (cfg_.protocol == Protocol::kSilo) {
    // Silo has no lock queues to batch over; keep the scalar per-key path.
    bool have_prev = false;
    uint64_t prev_key = 0;
    const char* prev_data = nullptr;
    for (const BatchKey& b : batch_) {
      if (have_prev && b.key == prev_key) {
        data_out[b.idx] = prev_data;  // duplicate key: share the copy
        continue;
      }
      Row* row = index->Get(b.key);
      if (row == nullptr) return FailAttempt();
      const char* d = nullptr;
      RC rc = ReadRow(row, &d);
      if (rc != RC::kOk) return rc;
      data_out[b.idx] = d;
      prev_key = b.key;
      prev_data = d;
      have_prev = true;
    }
    return RC::kOk;
  }

  // Pass 1 (key order): resolve rows, serve dedup hits from the existing
  // footprint, and stage every new row for one sharded batch submission.
  // uniq_data_ collects the image per distinct key, in key order.
  pend_.clear();
  uniq_data_.clear();
  bool have_prev = false;
  uint64_t prev_key = 0;
  for (const BatchKey& b : batch_) {
    if (have_prev && b.key == prev_key) continue;
    prev_key = b.key;
    have_prev = true;
    Row* row = index->Get(b.key);
    if (row == nullptr) return FailAttempt();
    if (const Access* a = FindAccess(row)) {
      uniq_data_.push_back(a->data);  // repeatable read / read-own-write
      continue;
    }
    txn_->ops_done++;
    char* buf = ArenaAlloc(row->size());
    pend_.push_back({row, lm_->ShardIndexOf(row),
                     static_cast<int>(uniq_data_.size()), buf,
                     /*fn=*/nullptr, /*arg=*/nullptr, /*retire_now=*/false});
    uniq_data_.push_back(buf);
  }
  RC rc = SubmitPending(LockType::kSH, nullptr, nullptr);
  if (rc != RC::kOk) return rc;
  FillReadManyOut(data_out);
  return RC::kOk;
}

void TxnHandle::FillReadManyOut(const char** data_out) {
  // Fill the caller's slots in key order, advancing one uniq_data_ slot
  // per distinct key (duplicates share the copy).
  int u = -1;
  bool have_prev = false;
  uint64_t prev_key = 0;
  for (const BatchKey& b : batch_) {
    if (!have_prev || b.key != prev_key) {
      u++;
      prev_key = b.key;
      have_prev = true;
    }
    data_out[b.idx] = uniq_data_[static_cast<size_t>(u)];
  }
}

RC TxnHandle::UpdateRmwMany(HashIndex* index, const uint64_t* keys, int n,
                            RmwFn fn, void* arg) {
  MaybeReset();
  if (txn_->IsAborted()) return RC::kAbort;
  if (n <= 0) return RC::kOk;
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);

  if (batch_live_) {
    // Re-issue of the suspended batch statement. Rebuilding the batch
    // would re-apply RMWs through the dedup own-write path, so the
    // suspended submission state stays live and the loop resumes where it
    // parked (with the re-issued fn/arg swapped in for unsubmitted
    // entries).
    RC rc = RunBatch(fn, arg);
    if (rc != RC::kOk) return rc;
    return RunRmwHits(fn, arg);
  }
  if (hits_live_) {
    // Suspended inside the dedup-hit phase (an SH->EX upgrade parked);
    // the batch itself already completed. hits_done_ skips everything
    // already applied; the parked upgrade resolves through the
    // kWaitingUpgrade branch of the scalar path.
    return RunRmwHits(fn, arg);
  }

  batch_.clear();
  for (int i = 0; i < n; i++) batch_.push_back({keys[i], i});
  std::sort(batch_.begin(), batch_.end(),
            [](const BatchKey& a, const BatchKey& b) { return a.key < b.key; });

  // Duplicate keys coalesce into one grant that applies the RMW once per
  // occurrence (sorted order makes runs adjacent). Applying them as
  // separate operations would be unsound under Bamboo: the first
  // occurrence retires the write in its grant, and a retired version may
  // already have been consumed by dirty readers -- which is also why a
  // repeated scalar UpdateRmw on a retired row fails the attempt.
  RmwFn repeat_fn = [](char* d, void* a) {
    const RmwRepeat* r = static_cast<const RmwRepeat*>(a);
    for (int i = 0; i < r->n; i++) r->fn(d, r->arg);
  };

  if (cfg_.protocol == Protocol::kSilo) {
    for (size_t i = 0; i < batch_.size();) {
      const uint64_t key = batch_[i].key;
      int run = 1;
      while (i + run < batch_.size() && batch_[i + run].key == key) run++;
      i += static_cast<size_t>(run);
      Row* row = index->Get(key);
      if (row == nullptr) return FailAttempt();
      RC rc;
      if (run == 1) {
        rc = UpdateRmwRow(row, fn, arg);
      } else {
        RmwRepeat rep{fn, arg, run};  // scalar path resolves before returning
        rc = UpdateRmwRow(row, repeat_fn, &rep);
      }
      if (rc != RC::kOk) return rc;
    }
    return RC::kOk;
  }

  // Pass 1 (key order): dedup hits are only *collected* here -- they run
  // after the batch submits, in RunRmwHits, where an SH->EX upgrade that
  // blocks may suspend and resume from an intra-statement cursor. Pass 1
  // itself never waits, so a hit applied inline would have to block the
  // build -- deadlocking an event-loop driver whose other connections
  // hold the conflicting locks. New rows are staged for the sharded batch.
  // rmw_reps_ must not reallocate once an entry's address is handed to a
  // request: a promoting thread may apply the coalesced RMW while this
  // worker parks on another key.
  pend_.clear();
  rmw_reps_.clear();
  rmw_reps_.reserve(static_cast<size_t>(n));
  rmw_hits_.clear();
  hits_done_ = 0;
  int uniq = 0;
  for (size_t i = 0; i < batch_.size();) {
    const uint64_t key = batch_[i].key;
    int run = 1;
    while (i + run < batch_.size() && batch_[i + run].key == key) run++;
    i += static_cast<size_t>(run);
    Row* row = index->Get(key);
    if (row == nullptr) return FailAttempt();
    if (FindAccess(row) != nullptr) {
      rmw_hits_.push_back({row, run});
      continue;
    }
    txn_->ops_done++;
    PendKey p{row, lm_->ShardIndexOf(row), uniq++, /*buf=*/nullptr, fn, arg,
              cfg_.protocol == Protocol::kBamboo && !TailWrite()};
    if (run > 1) {
      rmw_reps_.push_back({fn, arg, run});
      p.fn = repeat_fn;
      p.arg = &rmw_reps_.back();
      p.reps = run;
    }
    pend_.push_back(p);
  }
  RC rc = SubmitPending(LockType::kEX, fn, arg);
  if (rc != RC::kOk) return rc;
  return RunRmwHits(fn, arg);
}

RC TxnHandle::RunRmwHits(RmwFn fn, void* arg) {
  // Dedup-hit phase of UpdateRmwMany: own-write applications and SH->EX
  // upgrades, after the batch has fully submitted. hits_done_ is the
  // resume cursor -- an upgrade that suspends re-enters here and the
  // completed prefix (whose RMWs already landed) is skipped, never
  // re-applied. The in-flight upgrade itself resolves through the scalar
  // path's kWaitingUpgrade branch, which applies the fresh fn at grant.
  RmwFn repeat_fn = [](char* d, void* a) {
    const RmwRepeat* r = static_cast<const RmwRepeat*>(a);
    for (int i = 0; i < r->n; i++) r->fn(d, r->arg);
  };
  hits_live_ = true;
  while (hits_done_ < static_cast<int>(rmw_hits_.size())) {
    const RmwHit& h = rmw_hits_[static_cast<size_t>(hits_done_)];
    RC rc;
    if (h.run == 1) {
      rc = UpdateRmwRow(h.row, fn, arg);
    } else {
      RmwRepeat rep{fn, arg, h.run};  // scalar path resolves before returning
      rc = UpdateRmwRow(h.row, repeat_fn, &rep);
    }
    if (rc == RC::kSuspended) return rc;
    if (rc != RC::kOk) {
      hits_live_ = false;
      return rc;
    }
    hits_done_++;
  }
  hits_live_ = false;
  return RC::kOk;
}

RC TxnHandle::SubmitPending(LockType type, RmwFn fn, void* arg) {
  const int total = static_cast<int>(pend_.size());
  if (total == 0) return RC::kOk;
  // (shard, key) order: the shard hash scatters adjacent keys, so key
  // order alone would yield length-1 shard runs; sorting by shard first
  // makes runs maximal, while `uniq` (which rises with the key) keeps the
  // within-shard order deterministic across transactions -- two batches
  // over the same keys still acquire in one consistent order.
  std::sort(pend_.begin(), pend_.end(),
            [](const PendKey& a, const PendKey& b) {
              return a.shard != b.shard ? a.shard < b.shard : a.uniq < b.uniq;
            });
  pend_reqs_.clear();
  for (const PendKey& p : pend_) {
    AccessRequest req;
    req.row = p.row;
    req.type = type;
    req.read_buf = p.buf;
    req.rmw_fn = p.fn;
    req.rmw_arg = p.arg;
    req.retire_now = p.retire_now;
    req.shard = p.shard;
    pend_reqs_.push_back(req);
  }
  pend_grants_.clear();
  pend_grants_.resize(static_cast<size_t>(total));
  batch_type_ = type;
  batch_next_ = 0;
  batch_j_ = -1;
  batch_unfused_ = false;
  return RunBatch(fn, arg);
}

RC TxnHandle::RunBatch(RmwFn fn, void* arg) {
  const int total = static_cast<int>(pend_.size());
  if (batch_j_ >= 0) {
    // Resuming after a suspension: entries not yet submitted still carry
    // the suspended frame's dead arg; swap in the re-issued statement's
    // before any of them can reach a promoting thread. Coalesced entries
    // keep their stable RmwRepeat home and refresh it in place.
    if (batch_type_ == LockType::kEX && fn != nullptr) {
      for (int k = batch_next_; k < total; k++) {
        PendKey& p = pend_[static_cast<size_t>(k)];
        if (p.reps > 1) {
          RmwRepeat* r = static_cast<RmwRepeat*>(p.arg);
          r->fn = fn;
          r->arg = arg;
        } else {
          p.fn = fn;
          p.arg = arg;
          pend_reqs_[static_cast<size_t>(k)].rmw_fn = fn;
          pend_reqs_[static_cast<size_t>(k)].rmw_arg = arg;
        }
      }
    }
    int j = batch_j_;
    batch_j_ = -1;
    RC rc = FinishBatchWait(j, fn, arg);
    if (rc != RC::kOk) {
      batch_live_ = false;
      return rc;
    }
  }
  int done = batch_next_;
  while (done < total) {
    int m = lm_->SubmitMany(pend_reqs_.data() + done, total - done, txn_,
                            pend_grants_.data() + done);
    // Only the last of the m grants can be kWait/kAbort (SubmitMany stops
    // there); the loop handles the general shape anyway.
    for (int j = done; j < done + m; j++) {
      const AccessGrant& g = pend_grants_[static_cast<size_t>(j)];
      const PendKey& p = pend_[static_cast<size_t>(j)];
      if (g.rc == AcqResult::kGranted) {
        AccState st = !g.took_lock
                          ? AccState::kSnapshot
                          : (g.retired ? AccState::kRetired : AccState::kOwner);
        char* data = batch_type_ == LockType::kEX ? g.write_data : p.buf;
        accesses_.push_back({p.row, batch_type_, st, data, g.token});
        NoteAccess(p.row);
      } else if (g.rc == AcqResult::kWait) {
        accesses_.push_back({p.row, batch_type_, AccState::kWaiting,
                             batch_type_ == LockType::kEX ? nullptr : p.buf,
                             g.token});
        NoteAccess(p.row);
        bool suspendable = batch_type_ == LockType::kSH || p.fn == nullptr;
        batch_unfused_ = false;
        if (CanSuspend() && !suspendable &&
            lm_->UnfuseWaiter(p.row, g.token)) {
          // Fused EX waiter: strip the fn so no promoter can apply an arg
          // from a frame that dies at the suspension; the RMW lands in
          // FinishBatchWait instead. An unfuse lost to a racing grant
          // resumes inline below with the (still live) fused arg applied.
          batch_unfused_ = true;
          suspendable = true;
        }
        if (CanSuspend() && suspendable) {
          batch_next_ = j + 1;
          batch_j_ = j;
          if (ArmSuspension(SuspKind::kStatement)) {
            batch_live_ = true;
            return RC::kSuspended;
          }
          batch_j_ = -1;
        }
        RC rc = FinishBatchWait(j, fn, arg);
        if (rc != RC::kOk) {
          batch_live_ = false;
          return rc;
        }
      } else {
        batch_live_ = false;
        return FailGrant(g);
      }
    }
    done += m;
  }
  batch_live_ = false;
  return RC::kOk;
}

RC TxnHandle::FinishBatchWait(int j, RmwFn fn, void* arg) {
  const PendKey& p = pend_[static_cast<size_t>(j)];
  Access* a = FindAccess(p.row);  // pushed when the wait was enqueued
  uint64_t waited = WaitForLock(p.row);
  if (txn_->stats != nullptr) txn_->stats->lock_wait_ns += waited;
  AccessRequest req = pend_reqs_[static_cast<size_t>(j)];
  if (batch_unfused_) {
    req.rmw_fn = nullptr;
    req.rmw_arg = nullptr;
  }
  AccessGrant g = lm_->Resume(req, txn_, a->token);
  if (g.rc != AcqResult::kGranted) return FailAttempt();
  a->state = g.retired ? AccState::kRetired : AccState::kOwner;
  if (batch_type_ == LockType::kEX) {
    a->data = g.write_data;
    if (batch_unfused_ && fn != nullptr) {
      for (int r = 0; r < p.reps; r++) fn(a->data, arg);
      if (p.retire_now && a->state == AccState::kOwner &&
          lm_->Retire(p.row, a->token, /*tail_write=*/false)) {
        a->state = AccState::kRetired;
      }
    }
  }
  return RC::kOk;
}

int TxnHandle::ReleaseAll(bool committed) {
  rel_ops_.clear();
  for (const Access& a : accesses_) {
    if (a.state == AccState::kSnapshot) continue;
    rel_ops_.push_back({a.row, a.token, lm_->ShardIndexOf(a.row)});
  }
  const int n = static_cast<int>(rel_ops_.size());
  if (n == 0) return 0;
  // Shard-sort so ReleaseMany takes one latch hold per shard run. Releases
  // are per-row independent and the outcome (commit point or abort) is
  // already decided, so reordering across rows is free. The shard index is
  // hashed once per op above; comparing the cached int keeps the sort from
  // rehashing every comparison (which dominates exactly when the shard
  // values scatter, i.e. in the sharded configurations).
  std::sort(rel_ops_.begin(), rel_ops_.end(),
            [](const ReleaseOp& x, const ReleaseOp& y) {
              return x.shard < y.shard;
            });
  return lm_->ReleaseMany(rel_ops_.data(), n, committed);
}

bool TxnHandle::TailWrite() const {
  if (!cfg_.bb_opt_no_retire_tail) return false;  // Opt 2 off: always retire
  if (txn_->planned_ops <= 0) return false;
  double threshold =
      static_cast<double>(txn_->planned_ops) * (1.0 - cfg_.bb_delta);
  return static_cast<double>(txn_->ops_done) > threshold;
}

void TxnHandle::WriteDone() {
  if (cfg_.protocol != Protocol::kBamboo) return;  // strict 2PL: hold to end
  if (txn_->IsAborted()) return;
  for (auto it = accesses_.rbegin(); it != accesses_.rend(); ++it) {
    if (it->type == LockType::kEX && it->state == AccState::kOwner) {
      // The Opt-2 tail decision rides along as a hint: the entry's
      // ContentionPolicy has the final say (cold tiers skip every retire
      // without taking the latch, the pathological tier retires even tail
      // writes).
      if (lm_->Retire(it->row, it->token, TailWrite())) {
        it->state = AccState::kRetired;
      }
      return;
    }
  }
}

void TxnHandle::Rollback() {
  txn_->status.store(TxnStatus::kAborted, std::memory_order_release);
  int wounded = ReleaseAll(/*committed=*/false);
  accesses_.clear();
  if (txn_->stats != nullptr) {
    if (txn_->abort_was_cascade.load(std::memory_order_relaxed)) {
      txn_->stats->cascade_victims++;
    } else if (wounded > 0) {
      txn_->stats->cascade_events++;
    }
  }
}

RC TxnHandle::Commit(RC user_rc) {
  MaybeReset();
  // A suspended statement funnels through here unchanged: workloads report
  // any non-kOk statement result via Commit(kOk), and a suspended attempt
  // must neither commit nor roll back -- the armed continuation is the only
  // path that resolves it (drivers Wound a suspended txn, never Rollback).
  if (susp_kind_ == SuspKind::kStatement) return RC::kSuspended;
  if (cfg_.protocol == Protocol::kSilo) return SiloCommit_(user_rc);

  if (user_rc == RC::kUserAbort && !txn_->IsAborted()) {
    Rollback();
    return RC::kUserAbort;
  }
  if (user_rc != RC::kOk || txn_->IsAborted()) {
    Rollback();
    return readonly_rejected_ ? RC::kReadOnlyMode : RC::kAbort;
  }
  // Snapshot validation (Opt 3): a locked access after the first raw read
  // observed state newer than the pinned snapshot, so the raw reads and
  // the locked accesses cannot sit at one serialization point. The flag is
  // only ever set by this transaction's own accesses, all of which happened
  // before Commit, so checking once here is complete.
  if (txn_->snapshot_invalid.load(std::memory_order_relaxed)) {
    Rollback();
    return RC::kAbort;
  }
  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);

  TxnStatus expected = TxnStatus::kRunning;
  if (!txn_->status.compare_exchange_strong(expected, TxnStatus::kCommitting,
                                            std::memory_order_acq_rel)) {
    Rollback();
    return RC::kAbort;
  }
  // Every transaction we consumed dirty state from must commit first.
  auto drained = [this] {
    return txn_->commit_semaphore.load(std::memory_order_acquire) <= 0 ||
           txn_->IsAborted();
  };
  if (!drained() && detach_allowed_) {
    // Commit pipelining: hand the commit off instead of blocking. Whoever
    // drains our semaphore (or wounds us) completes the release; the
    // worker immediately starts the next transaction.
    txn_->detach_ctx = this;
    txn_->detach_complete = &TxnHandle::CompleteDetachedThunk;
    txn_->detach_state.store(1, std::memory_order_relaxed);
    txn_->detached.store(true, std::memory_order_release);
    // Pairs with the fence before the releaser's claim (LockManager's
    // last-barrier path; Notify's on the wound path). Without it the store
    // can still sit in the store buffer when the re-check below reads the
    // semaphore, while the releaser's exchange reads `false`: both sides
    // miss and the commit -- and every commit chained behind it -- strands.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Re-check: the last barrier may have drained (or a wound landed)
    // before the flag was visible; claim back and finish inline then.
    if (drained()) {
      if (txn_->detached.exchange(false, std::memory_order_acq_rel)) {
        txn_->detach_state.store(0, std::memory_order_relaxed);
        if (txn_->IsAborted()) {
          Rollback();
          return RC::kAbort;
        }
        // fall through to the inline commit below
      } else {
        return RC::kPending;  // a completer claimed it already
      }
    } else {
      return RC::kPending;
    }
  } else if (!drained()) {
    // Blocking mode (raw handles, or the runner's slot cap).
    uint64_t t0 = NowNs();
    // A suspending driver parks at once, never spins: on an event loop the
    // writer we wait for is usually another connection of this same
    // thread, so a spin can only stall it. Whoever drains the semaphore
    // (or wounds us) fires the continuation; its owner finishes via
    // ResumeSuspended. An arm reclaimed from a racing drain or wound finds
    // drained() true below and commits (or rolls back) inline.
    if (CanSuspend() && ArmSuspension(SuspKind::kCommit)) {
      return RC::kSuspended;
    }
    // Thread driver: yield first, commit waits are short; sleep as fallback.
    for (int i = 0; i < 4096 && !drained(); i++) std::this_thread::yield();
#ifdef BAMBOO_DEBUG_STUCK
    while (!drained()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (NowNs() - t0 > 5000000000ull) {
        std::fprintf(stderr,
                     "STUCK-COMMIT txn=%p ts=%llu sem=%lld taken=%d footprint:\n",
                     (void*)txn_, (unsigned long long)txn_->ts.load(),
                     (long long)txn_->commit_semaphore.load(),
                     txn_->deps_taken);
        for (const Access& a : accesses_) lm_->DebugDumpRow(a.row);
        t0 = NowNs();
      }
    }
#else
    if (!drained()) txn_->WaitFor(drained);
#endif
    if (txn_->stats != nullptr) txn_->stats->commit_wait_ns += NowNs() - t0;
  }
  return CommitTail();
}

RC TxnHandle::CommitTail() {
  TxnStatus expected = TxnStatus::kCommitting;
  if (!txn_->status.compare_exchange_strong(expected, TxnStatus::kCommitted,
                                            std::memory_order_acq_rel)) {
    Rollback();
    return RC::kAbort;
  }
  // Stamp the commit timestamp only now, after the point of no return:
  // readers treat "kCommitted but unstamped" as outside their snapshot,
  // which is correct because a snapshot pins the *published* watermark --
  // every stamp at or below it is already visible. Only the raw-read
  // configuration consumes commit timestamps; the baselines skip the draw
  // so the in-order publication never serializes their commits -- unless
  // logging is on, where the CTS orders same-row records within an epoch
  // on replay.
  if ((cfg_.protocol == Protocol::kBamboo && cfg_.bb_opt_raw_read) ||
      db_->wal() != nullptr) {
    db_->cc()->StampCommit(txn_);
  }
  LogCommitRecords();
  ReleaseAll(/*committed=*/true);
  // The after-images are installed (releases done): tell the WAL this
  // thread's logged commit is no longer in flight, so a fuzzy checkpoint
  // boundary can advance past its epoch. Same thread as LogCommit.
  if (txn_->log_epoch != 0) db_->wal()->InstallDone();
  accesses_.clear();
  return RC::kOk;
}

void TxnHandle::LogCommitRecords() {
  Wal* wal = db_->wal();
  if (wal == nullptr) return;
  wal_writes_.clear();
  for (const Access& a : accesses_) {
    if (a.type != LockType::kEX || a.data == nullptr ||
        a.state == AccState::kSnapshot || a.state == AccState::kWaiting ||
        a.state == AccState::kWaitingUpgrade) {
      continue;
    }
    wal_writes_.push_back({a.row->wal_table_id(), a.row->wal_key(), a.data,
                           a.row->size()});
  }
  uint64_t e = 0;
  if (!wal_writes_.empty()) {
    e = wal->LogCommit(txn_->commit_cts.load(std::memory_order_relaxed),
                       wal_writes_.data(),
                       static_cast<int>(wal_writes_.size()));
  }
  // The commit barrier has drained (we are past the kCommitted CAS), so
  // every dependency already propagated its ack epoch; the max makes the
  // durable-ack rule transitive. Must be set before the releases below
  // hand *our* ack epoch to our own dependents.
  txn_->log_epoch = e;
  uint64_t dep = txn_->dep_log_epoch.load(std::memory_order_acquire);
  txn_->log_ack_epoch = e > dep ? e : dep;
}

void TxnHandle::CompleteDetachedThunk(TxnCB* txn) {
  static_cast<TxnHandle*>(txn->detach_ctx)->CompleteDetached();
}

void TxnHandle::CompleteDetached() {
  TxnStatus expected = TxnStatus::kCommitting;
  bool committed = txn_->status.compare_exchange_strong(
      expected, TxnStatus::kCommitted, std::memory_order_acq_rel);
  if (committed) {
    if ((cfg_.protocol == Protocol::kBamboo && cfg_.bb_opt_raw_read) ||
        db_->wal() != nullptr) {
      db_->cc()->StampCommit(txn_);
    }
    // A detached commit defers its durable ack like any other: the ack
    // epoch lands in the TxnCB before the releases, and the origin worker
    // gates the commit's acknowledgment on the durable watermark when it
    // reclaims the slot.
    LogCommitRecords();
  } else {
    // Wounded while detached: finish the rollback on its behalf.
    txn_->status.store(TxnStatus::kAborted, std::memory_order_release);
  }
  int wounded = ReleaseAll(committed);
  // The completer thread ran LogCommit above, so the in-flight pairing
  // stays thread-local even for handed-off commits.
  if (committed && txn_->log_epoch != 0) db_->wal()->InstallDone();
  accesses_.clear();
  // Publish the outcome last; the origin worker reclaims the slot and does
  // the stats accounting (this may be a foreign thread, so it must not
  // touch the origin's ThreadStats). State 4 = abort that wounded
  // dependents, so the reclaimer can count the cascade root event.
  std::atomic<uint32_t>* wake = txn_->owner_wake;
  uint32_t outcome = committed ? 2u : (wounded > 0 ? 4u : 3u);
  txn_->detach_state.store(outcome, std::memory_order_release);
  if (wake != nullptr) {
    wake->fetch_add(1, std::memory_order_release);
    wake->notify_all();
  }
}

// --- Silo (OCC) -----------------------------------------------------------

char* TxnHandle::SiloStableCopy(Row* row, uint64_t* tid_out) {
  char* buf = ArenaAlloc(row->size());
  for (;;) {
    uint64_t t1 = row->silo_tid.load(std::memory_order_acquire);
    if (t1 & Row::kSiloLockBit) {
      std::this_thread::yield();
      continue;
    }
    SeqlockLoad(buf, row->base(), row->size());
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t t2 = row->silo_tid.load(std::memory_order_acquire);
    if (t1 == t2) {
      *tid_out = t1;
      return buf;
    }
  }
}

void TxnHandle::SiloPromoteToWrite(Row* row, Access* a) {
  for (const SiloWrite& w : silo_writes_) {
    if (w.row == row) return;  // already in the write set
  }
  silo_writes_.push_back({row, a->data});
  a->type = LockType::kEX;
}

RC TxnHandle::SiloRead_(Row* row, const char** data) {
  uint64_t tid = 0;
  char* buf = SiloStableCopy(row, &tid);
  silo_reads_.push_back({row, tid});
  accesses_.push_back(
      {row, LockType::kSH, AccState::kSnapshot, buf, nullptr});
  NoteAccess(row);
  *data = buf;
  return RC::kOk;
}

RC TxnHandle::SiloUpdate_(Row* row, char** data) {
  uint64_t tid = 0;
  char* buf = SiloStableCopy(row, &tid);
  silo_reads_.push_back({row, tid});
  silo_writes_.push_back({row, buf});
  accesses_.push_back(
      {row, LockType::kEX, AccState::kSnapshot, buf, nullptr});
  NoteAccess(row);
  *data = buf;
  return RC::kOk;
}

RC TxnHandle::SiloCommit_(RC user_rc) {
  if (user_rc == RC::kUserAbort) return RC::kUserAbort;  // nothing held

  if (cfg_.mode == ExecMode::kInteractive) SimulateRtt(cfg_.interactive_rtt_us);

  // Lock the write set in address order (deadlock-free), then validate.
  std::sort(silo_writes_.begin(), silo_writes_.end(),
            [](const SiloWrite& a, const SiloWrite& b) { return a.row < b.row; });
  uint64_t start = NowNs();
  for (size_t i = 0; i < silo_writes_.size(); i++) {
    Row* row = silo_writes_[i].row;
    for (;;) {
      uint64_t cur = row->silo_tid.load(std::memory_order_acquire);
      if (!(cur & Row::kSiloLockBit) &&
          row->silo_tid.compare_exchange_weak(cur, cur | Row::kSiloLockBit,
                                              std::memory_order_acq_rel)) {
        break;
      }
      std::this_thread::yield();
    }
  }
  if (txn_->stats != nullptr) txn_->stats->lock_wait_ns += NowNs() - start;

  bool valid = true;
  for (const SiloRead& r : silo_reads_) {
    uint64_t cur = r.row->silo_tid.load(std::memory_order_acquire);
    bool locked_by_other =
        (cur & Row::kSiloLockBit) &&
        std::none_of(silo_writes_.begin(), silo_writes_.end(),
                     [&](const SiloWrite& w) { return w.row == r.row; });
    if (locked_by_other || (cur & ~Row::kSiloLockBit) != r.tid) {
      valid = false;
      break;
    }
  }

  if (!valid) {
    for (const SiloWrite& w : silo_writes_) {
      uint64_t cur = w.row->silo_tid.load(std::memory_order_acquire);
      w.row->silo_tid.store(cur & ~Row::kSiloLockBit,
                            std::memory_order_release);
    }
    return RC::kAbort;
  }

  uint64_t commit_tid = 0;
  for (const SiloRead& r : silo_reads_) {
    commit_tid = std::max(commit_tid, r.tid & ~Row::kSiloLockBit);
  }
  commit_tid++;
  for (const SiloWrite& w : silo_writes_) {
    SeqlockStore(w.row->base(), w.buf, w.row->size());
    w.row->silo_tid.store(commit_tid, std::memory_order_release);
  }
  return RC::kOk;
}

}  // namespace bamboo
