#ifndef BAMBOO_SRC_DB_TXN_H_
#define BAMBOO_SRC_DB_TXN_H_

#include <atomic>
#include <cstdint>

#ifdef BAMBOO_DEBUG_STUCK
#include <cstdio>
#endif

#include "src/common/config.h"
#include "src/common/platform.h"
#include "src/common/stats.h"
#include "src/db/lock_table.h"

namespace bamboo {

enum class TxnStatus : uint32_t {
  kRunning,
  kCommitting,  ///< draining the commit semaphore; still woundable
  kCommitted,   ///< point of no return; releases follow
  kAborted,     ///< wounded / died / cascaded; rollback follows
};

/// Transaction control block. One per worker thread, reused across attempts;
/// `txn_seq` disambiguates attempts so that stale cross-transaction
/// references (dependents, wound targets) can be detected and ignored.
///
/// Lifecycle per attempt:
///   txn_seq++; ResetForAttempt(is_retry); cc->Begin(txn);
///   ...operations via TxnHandle...; handle->Commit(rc);
struct alignas(64) TxnCB {
  // --- identity
  /// Attempt counter, bumped by the caller before each attempt. Atomic
  /// because stale dependency records are validated against it from other
  /// threads (they compare the recorded seq before acting).
  std::atomic<uint64_t> txn_seq{0};
  /// Wound-wait priority; smaller = older = higher priority; 0 = unassigned
  /// (dynamic timestamping, Opt 4). Retries keep their timestamp so the
  /// oldest transaction eventually wins (no starvation).
  std::atomic<uint64_t> ts{0};

  // --- cross-thread state
  std::atomic<TxnStatus> status{TxnStatus::kRunning};
  /// Number of uncommitted transactions this one depends on (dirty reads,
  /// write-after-write on dirty versions, commit ordering after retired
  /// readers). Commit waits until it drains to zero.
  std::atomic<int64_t> commit_semaphore{0};
  /// Eventcount: bumped + notified on any state change a waiter could be
  /// parked on (lock grant, wound, semaphore drain). Waiters futex-sleep on
  /// it, which matters when threads outnumber cores.
  std::atomic<uint32_t> signal{0};
  /// Set when the abort was caused by a dependency cascade rather than a
  /// direct conflict; drives the cascade statistics.
  std::atomic<bool> abort_was_cascade{false};
  /// Set by a releasing thread when this transaction's waiting request was
  /// promoted into the owners list (wait handshake).
  std::atomic<uint32_t> lock_granted{0};

  // --- commit-timestamp (CTS) snapshot state for Opt-3 raw reads.
  /// Commit timestamp, drawn from CCManager immediately *after* the status
  /// CAS to kCommitted and then published in CTS order
  /// (CCManager::PublishCts). 0 = not drawn yet; a reader that observes
  /// kCommitted with commit_cts still 0 must treat the commit as newer
  /// than any snapshot it pinned earlier -- snapshots pin the published
  /// watermark, below which every stamp is already visible.
  std::atomic<uint64_t> commit_cts{0};
  /// CTS snapshot pinned at this transaction's first Opt-3 raw read
  /// (0 = none). Every raw read serves the newest committed image with
  /// cts <= raw_snapshot_cts, so raw reads across rows are mutually
  /// consistent.
  std::atomic<uint64_t> raw_snapshot_cts{0};
  /// Set when a locked read after the snapshot pin observed state newer
  /// than raw_snapshot_cts (or uncommitted state). Commit validates the
  /// flag and aborts: the transaction can no longer be serialized at its
  /// snapshot point.
  std::atomic<bool> snapshot_invalid{false};
  /// True once this attempt acquired any EX lock. A transaction that wrote
  /// never pins a fresh snapshot, and a pinned transaction that tries to
  /// write is aborted: pinned transactions are read-only, which is what
  /// makes serializing them at the snapshot sound (their writes would have
  /// to sit after later commits their raw reads ignored).
  std::atomic<bool> wrote_any{false};
  /// Sticky across retry attempts (cleared on a fresh transaction): set
  /// when a pinned attempt died trying to write, so the retry skips the
  /// raw path and takes the ordinary wound/wait route instead of aborting
  /// on the same hot row forever.
  bool raw_suppressed = false;
  /// Observed-CTS floor for shard-mirror snapshot pins (single-threaded:
  /// written by the owning thread's clean shared reads under the shard
  /// latch, read back at pin time). A fresh pin may use a shard's CTS
  /// mirror only if the mirror (or this floor) is >= every commit this
  /// attempt already observed; clean reads of rows with an empty version
  /// chain raise the floor to the row's published base_cts.
  uint64_t obs_cts_floor = 0;
  /// Set when this attempt observed state whose commit stamp may not be
  /// published yet (a dirty read, or any read over a non-empty version
  /// chain). Such an attempt must pin from the global published watermark:
  /// a stale shard mirror could order the snapshot before an observation.
  bool obs_cts_unbounded = false;

  // --- durability (WAL epoch group commit; all 0 when logging is off).
  /// Group-commit epoch of this transaction's own log records, set by the
  /// committing thread right after the commit-point CAS (0 = read-only,
  /// nothing logged). Only that thread reads it back.
  uint64_t log_epoch = 0;
  /// Durable-ack gate: max(log_epoch, every dependency's ack epoch). The
  /// commit may be acknowledged durable only once Wal::durable_epoch
  /// covers it -- so a transaction that consumed a retired writer's dirty
  /// state is never acknowledged before that writer's records are on disk.
  uint64_t log_ack_epoch = 0;
  /// Running max of the ack epochs of retired-chain dependencies, written
  /// by their releasing threads (lock_table.cc) before they lift this
  /// transaction's commit barrier; complete once commit_semaphore drains.
  std::atomic<uint64_t> dep_log_epoch{0};

  // --- detached (pipelined) commit handshake.
  // A worker whose transaction finished its work but still has a nonzero
  // commit semaphore can hand the commit off instead of blocking: whoever
  // drains the semaphore to zero (or wounds the transaction) claims the
  // flag and completes the release on the owner's behalf, so dependency
  // chains drain without context switches.
  std::atomic<bool> detached{false};   ///< claim token (exchange to claim)
  void* detach_ctx = nullptr;          ///< the owning TxnHandle
  void (*detach_complete)(TxnCB*) = nullptr;
  /// 0 = not detached, 1 = in flight, 2 = done-committed, 3 = done-aborted,
  /// 4 = done-aborted and wounded >=1 dependent (cascade root; see
  /// TxnHandle::CompleteDetached). Reclaimers treat 3 and 4 as aborts and
  /// use 4 to count the cascade-event root.
  std::atomic<uint32_t> detach_state{0};
  /// Optional eventcount of the owning worker, bumped+notified when a
  /// detached outcome is published so a slot-starved worker wakes up.
  std::atomic<uint32_t>* owner_wake = nullptr;

  // --- continuation suspension (drivers that install susp_fire).
  // When a statement would block, the handle records resume state, arms
  // `susp_armed`, and returns RC::kSuspended instead of futex-parking.
  // Every wakeup path already funnels through Notify() (grant, wound,
  // semaphore drain), which claims the armed flag with an exchange and
  // invokes `susp_fire` exactly once per arming. The arming side uses the
  // same Dekker pattern as the futex eventcount: store-armed, seq_cst
  // fence, re-check the wait predicate -- if it already holds, reclaim the
  // flag (exchange back to 0) and proceed inline; losing the exchange
  // means a notifier owns the fire.
  std::atomic<uint8_t> susp_armed{0};
  /// Continuation dispatch, installed once by a driver that must never
  /// block (the network server's event loops); nullptr keeps futex
  /// semantics -- this pointer alone selects the wait path. Runs on the
  /// *notifying* thread (a lock-table release path, under no latches) --
  /// it must only enqueue, never re-enter the engine.
  void (*susp_fire)(TxnCB*) = nullptr;
  void* susp_ctx = nullptr;   ///< driver context for susp_fire (e.g. queue)
  void* susp_user = nullptr;  ///< driver per-txn cookie (e.g. connection)
  /// Intrusive link for the driver's ready queue; owned by the driver
  /// between fire and resume (see ResumeQueue in src/db/suspend.h).
  TxnCB* ready_next = nullptr;

  // --- per-attempt bookkeeping (single-threaded)
  int planned_ops = 0;  ///< declared txn length; enables the Opt 2 tail rule
  int ops_done = 0;
  /// Number of commit dependencies taken this attempt; lets release skip
  /// the dependent-record scrub on the (common) dependency-free path.
  int deps_taken = 0;
  ThreadStats* stats = nullptr;

  /// Request-node pool for this transaction's lock footprint: the lock
  /// manager allocates one LockReq per accessed row from here and returns
  /// it on release, so the per-tuple queues never touch the allocator.
  /// Synchronized by the TxnCB ownership protocol (one driving thread at a
  /// time), not by atomics -- see ReqPool.
  ReqPool pool;

  void ResetForAttempt(bool keep_ts) {
    if (!keep_ts) {
      ts.store(0, std::memory_order_relaxed);
      raw_suppressed = false;  // retries keep the suppression, like the ts
    }
    status.store(TxnStatus::kRunning, std::memory_order_relaxed);
    commit_semaphore.store(0, std::memory_order_relaxed);
    abort_was_cascade.store(false, std::memory_order_relaxed);
    lock_granted.store(0, std::memory_order_relaxed);
    commit_cts.store(0, std::memory_order_relaxed);
    raw_snapshot_cts.store(0, std::memory_order_relaxed);
    snapshot_invalid.store(false, std::memory_order_relaxed);
    wrote_any.store(false, std::memory_order_relaxed);
    obs_cts_floor = 0;
    obs_cts_unbounded = false;
    log_epoch = 0;
    log_ack_epoch = 0;
    dep_log_epoch.store(0, std::memory_order_relaxed);
    detached.store(false, std::memory_order_relaxed);
    detach_state.store(0, std::memory_order_relaxed);
    susp_armed.store(0, std::memory_order_relaxed);
    planned_ops = 0;
    ops_done = 0;
    deps_taken = 0;
  }

  bool IsAborted() const {
    return status.load(std::memory_order_acquire) == TxnStatus::kAborted;
  }

  /// Try to abort this transaction from another thread. Fails once the
  /// target has committed. Returns true if this call performed the wound.
  bool Wound(bool cascade) {
    TxnStatus s = status.load(std::memory_order_acquire);
    while (s == TxnStatus::kRunning || s == TxnStatus::kCommitting) {
      if (status.compare_exchange_weak(s, TxnStatus::kAborted,
                                       std::memory_order_acq_rel)) {
        if (cascade) abort_was_cascade.store(true, std::memory_order_relaxed);
        Notify();
        return true;
      }
    }
    return false;
  }

  void Notify() {
    signal.fetch_add(1, std::memory_order_release);
    signal.notify_all();
    // Continuation dispatch. The seq_cst fence pairs with the arming
    // side's fence: either this load sees the armed flag, or the armer's
    // predicate re-check sees the state change that prompted this Notify.
    // The exchange makes the fire exclusive -- concurrent notifiers (e.g.
    // a grant racing a wound) dispatch at most once per arming.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (susp_armed.load(std::memory_order_relaxed) != 0 &&
        susp_armed.exchange(0, std::memory_order_acq_rel) != 0) {
      susp_fire(this);
    }
  }

  /// Park until `pred()` holds. The caller re-checks under no lock, so the
  /// predicate must read only atomics. Returns the ns spent parked.
  template <typename Pred>
  uint64_t WaitFor(Pred pred);
};

template <typename Pred>
uint64_t TxnCB::WaitFor(Pred pred) {
  uint64_t start = NowNs();
  for (;;) {
    uint32_t s = signal.load(std::memory_order_acquire);
    if (pred()) break;
#ifdef BAMBOO_DEBUG_STUCK
    (void)s;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (NowNs() - start > 5000000000ull) {
      std::fprintf(stderr,
                   "STUCK txn=%p seq=%llu ts=%llu status=%u lock_granted=%u "
                   "sem=%lld\n",
                   (void*)this,
                   (unsigned long long)txn_seq.load(),
                   (unsigned long long)ts.load(),
                   (unsigned)status.load(), (unsigned)lock_granted.load(),
                   (long long)commit_semaphore.load());
      start = NowNs();
    }
#else
    signal.wait(s, std::memory_order_acquire);
#endif
  }
  return NowNs() - start;
}

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_TXN_H_
