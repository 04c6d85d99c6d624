#include "src/workload/bench_runner.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/platform.h"
#include "src/db/checkpoint.h"
#include "src/db/database.h"
#include "src/db/wal.h"

namespace bamboo {

namespace {

struct SharedState {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
};

/// One in-flight transaction: control block + executor + the seed that
/// regenerates it deterministically on retry. Workers run transactions out
/// of a small slot pool so a commit handed off to the dependency chain
/// (detached commit) never blocks the worker: it just takes a fresh slot.
struct TxnSlot {
  TxnCB cb;
  TxnHandle handle;
  uint64_t seed = 0;

  TxnSlot(Database* db, ThreadStats* stats, bool detach) : handle(db, &cb) {
    cb.stats = stats;
    handle.SetDetachAllowed(detach);
  }
};

/// Commit pipelining (detached commits) lets a worker run ahead of its
/// dependency-blocked commits; completed chains drain inside the head
/// committer's release cascade with no context switches. The pool is kept
/// small on oversubscribed boxes: once it is exhausted the worker sleeps,
/// which keeps the runnable set tight so preempted lock holders recover
/// quickly; each wake-up then reclaims a whole batch of finished commits.
bool UseDetachedCommits(const Config& cfg) {
  return cfg.protocol == Protocol::kBamboo;
}

size_t DetachSlotCap() {
  unsigned cores = std::thread::hardware_concurrency();
  return cores >= 2 ? 64 : 8;
}

/// Per-worker state. Owned by LoadAndRun, NOT the worker thread: a foreign
/// committer finishing a detached commit touches the slot and the wake
/// word after publishing the outcome, so this storage must outlive every
/// worker; it is freed only after all threads joined.
struct WorkerCtx {
  ThreadStats stats;
  std::atomic<uint32_t> wake_word{0};
  std::vector<std::unique_ptr<TxnSlot>> slots;
};

void WorkerLoop(Database* db, Workload* workload, SharedState* shared,
                int thread_id, WorkerCtx* ctx) {
  ThreadStats& stats = ctx->stats;
  std::atomic<uint32_t>& wake_word = ctx->wake_word;
  Rng rng(0xb4c0ull * 2654435761u + static_cast<uint64_t>(thread_id) + 1);
  const bool detach = UseDetachedCommits(db->config());
  const size_t max_slots = detach ? DetachSlotCap() : 1;
  Wal* wal = db->wal();

  struct Retry {
    uint64_t seed;
    uint64_t ts;  ///< kept so cascade victims age instead of starving
    /// Kept like the ts: a requeued attempt that died writing after a raw
    /// read must not re-pin on the same hot row (anti-livelock).
    bool raw_suppressed;
  };
  std::vector<std::unique_ptr<TxnSlot>>& slots = ctx->slots;
  std::vector<TxnSlot*> free_slots;
  std::vector<Retry> retries;
  bool measuring_seen = false;

  // Durable acknowledgment (logging only): a committed transaction is not
  // counted until the group-commit watermark covers its ack epoch. The
  // worker never blocks on the log -- it queues the ack and keeps going;
  // `measured` pins the commit to the window it committed in, so late
  // durability notifications neither inflate nor lose window commits.
  struct PendingAck {
    uint64_t epoch;
    bool had_deps;
    bool measured;
  };
  std::deque<PendingAck> acks;
  auto push_ack = [&](TxnCB& cb) {
    PendingAck p{cb.log_ack_epoch, cb.deps_taken > 0, measuring_seen};
    if (p.measured && p.had_deps && wal->durable_epoch() < p.epoch) {
      stats.commits_awaiting_dep++;
    }
    acks.push_back(p);
  };
  auto drain_acks = [&] {
    if (acks.empty()) return;
    uint64_t d = wal->durable_epoch();
    bool failed = wal->failed();
    while (!acks.empty() && (acks.front().epoch <= d || failed)) {
      const PendingAck& p = acks.front();
      if (p.measured && p.epoch <= d) {
        stats.commits++;
        stats.durable_lag_epochs += d - p.epoch;
      } else if (p.measured) {
        // The log went read-only before covering this epoch: the commit
        // is applied in memory but was never acknowledged durable.
        stats.commits_ack_failed++;
      }
      acks.pop_front();  // a failed log never acknowledges: drop, uncounted
    }
  };

  // Collect finished detached commits: count the outcome, requeue seed+ts
  // on a cascade abort, return the slot to the pool. `counted` is false in
  // the post-stop drain: outcomes landing after the measured window are
  // not attributed to it (keeps the detach-only pipeline from inflating
  // Bamboo's numbers relative to the blocking protocols).
  auto reclaim = [&](bool counted) {
    for (auto& s : slots) {
      uint32_t st = s->cb.detach_state.load(std::memory_order_acquire);
      if (st == 2u) {
        if (counted) {
          if (wal != nullptr) {
            push_ack(s->cb);
          } else {
            stats.commits++;
          }
        }
      } else if (st == 3u || st == 4u) {  // 4 = abort that wounded dependents
        if (counted) {
          stats.aborts++;
          bool was_cascade =
              s->cb.abort_was_cascade.load(std::memory_order_relaxed);
          if (was_cascade) stats.cascade_victims++;
          if (st == 4u && !was_cascade) stats.cascade_events++;
        }
        retries.push_back({s->seed, s->cb.ts.load(std::memory_order_relaxed),
                           s->cb.raw_suppressed});
      } else {
        continue;
      }
      s->cb.detach_state.store(0, std::memory_order_relaxed);
      free_slots.push_back(s.get());
    }
  };

  while (!shared->stop.load(std::memory_order_acquire)) {
    if (!measuring_seen && shared->measuring.load(std::memory_order_acquire)) {
      stats.Reset();  // warmup ends: drop everything counted so far
      measuring_seen = true;
    }
    reclaim(/*counted=*/true);
    if (wal != nullptr) drain_acks();

    TxnSlot* slot = nullptr;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else if (slots.size() < max_slots) {
      slots.push_back(std::make_unique<TxnSlot>(db, &stats, detach));
      slots.back()->cb.owner_wake = &wake_word;
      slot = slots.back().get();
    } else {
      // Every slot in flight: sleep until a completion wakes us, then
      // reclaim the whole finished batch in one go.
      uint32_t w = wake_word.load(std::memory_order_acquire);
      reclaim(/*counted=*/true);
      if (free_slots.empty() &&
          !shared->stop.load(std::memory_order_acquire)) {
        wake_word.wait(w, std::memory_order_acquire);
      }
      continue;
    }

    uint64_t txn_seed;
    uint64_t keep_ts = 0;
    bool keep_suppressed = false;
    if (!retries.empty()) {
      txn_seed = retries.back().seed;
      keep_ts = retries.back().ts;
      keep_suppressed = retries.back().raw_suppressed;
      retries.pop_back();
    } else {
      txn_seed = rng.Next();
    }
    slot->seed = txn_seed;

    bool retry = false;
    int attempt = 0;
    for (;;) {
      slot->cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
      // Wound-wait-family retries keep their timestamp so victims age
      // toward immunity (no starvation).
      slot->cb.ResetForAttempt(/*keep_ts=*/retry);
      if (keep_ts != 0 && !retry) {
        // Requeued cascade victim: restore its old timestamp so it ages,
        // and its raw suppression so it cannot re-pin into the same abort.
        slot->cb.ts.store(keep_ts, std::memory_order_relaxed);
        slot->cb.raw_suppressed = keep_suppressed;
      }
      db->cc()->Begin(&slot->cb);
      uint64_t t0 = NowNs();
      Rng txn_rng(txn_seed);
      RC rc = workload->RunTxn(&slot->handle, &txn_rng);
      if (rc == RC::kOk) {
        if (wal != nullptr) {
          push_ack(slot->cb);
        } else {
          stats.commits++;
        }
        free_slots.push_back(slot);
        break;
      }
      if (rc == RC::kUserAbort) {
        stats.user_aborts++;
        free_slots.push_back(slot);
        break;
      }
      if (rc == RC::kPending) {
        break;  // in flight; reclaimed when the chain drains
      }
      if (rc == RC::kReadOnlyMode) {
        // The WAL degraded to read-only: this write can never be made
        // durable, so retiring the seed beats retrying it forever. A short
        // sleep keeps a writer-heavy mix from spinning on the gate.
        stats.readonly_rejects++;
        free_slots.push_back(slot);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        break;
      }
      stats.aborts++;
      stats.abort_ns += NowNs() - t0;
      if (shared->stop.load(std::memory_order_acquire)) {
        free_slots.push_back(slot);
        break;
      }
      retry = true;
      // Bounded randomized backoff keeps No-Wait-style retry storms from
      // livelocking a saturated machine.
      attempt = attempt < 7 ? attempt + 1 : 7;
      uint64_t us = 1ull << attempt;
      std::this_thread::sleep_for(
          std::chrono::microseconds(1 + rng.Uniform(us)));
    }
  }

  // Drain: every detached slot completes once the dependency chains empty
  // (all workers are draining, and each chain's head commits inline).
  // Outcomes landing here are outside the measured window: not counted.
  for (;;) {
    uint32_t w = wake_word.load(std::memory_order_acquire);
    reclaim(/*counted=*/false);
    if (free_slots.size() == slots.size()) break;
    wake_word.wait(w, std::memory_order_acquire);
  }

  // Settle the pending durable acks: these transactions committed inside
  // the window, only their group-commit notification is late. The log
  // writer keeps ticking, so this converges within an epoch or two; a
  // failed log drains the queue unacknowledged instead of hanging.
  if (wal != nullptr) {
    while (!acks.empty()) {
      WaitResult wr = wal->WaitDurable(acks.front().epoch);
      size_t before = acks.size();
      drain_acks();  // kFailed still drains (unacknowledged, uncounted)
      if (wr != WaitResult::kDurable && acks.size() == before) break;
      if (acks.size() == before) break;  // defensive: no progress
    }
  }
}

}  // namespace

RunResult LoadAndRun(const Config& cfg, Workload* workload) {
  Database db(cfg);
  workload->Load(&db);

  SharedState shared;
  int n = cfg.num_threads > 0 ? cfg.num_threads : 1;
  // Latch spin budget: spinning only pays when the latch holder is live on
  // another core. With more workers than cores a contended thread should
  // park immediately -- its spin occupies the core the preempted holder
  // needs. Reset per run so thread-count sweeps retune as they go.
  unsigned hw = std::thread::hardware_concurrency();
  SpinLatch::SetMaxSpinRounds(
      hw != 0 && static_cast<unsigned>(n) > hw ? 0 : SpinLatch::kSpinRounds);
  // WorkerCtx outlives every worker thread (freed after the joins below):
  // detached-commit completers may touch another worker's slots and wake
  // word right up until they return.
  std::vector<std::unique_ptr<WorkerCtx>> ctxs;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    ctxs.push_back(std::make_unique<WorkerCtx>());
    threads.emplace_back(WorkerLoop, &db, workload, &shared, i,
                         ctxs.back().get());
  }

  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<int64_t>(s * 1e9)));
  };
  sleep_s(cfg.warmup_seconds);
  uint64_t t_start = NowNs();
  shared.measuring.store(true, std::memory_order_release);
  sleep_s(cfg.duration_seconds);
  shared.stop.store(true, std::memory_order_release);
  uint64_t t_end = NowNs();
  for (auto& t : threads) t.join();

  RunResult result;
  for (const auto& c : ctxs) result.total.Add(c->stats);
  if (Wal* wal = db.wal()) wal->FillStats(&result.total);
  if (Checkpointer* ck = db.checkpointer()) ck->FillStats(&result.total);
  result.elapsed_seconds = static_cast<double>(t_end - t_start) / 1e9;
  return result;
}

}  // namespace bamboo
