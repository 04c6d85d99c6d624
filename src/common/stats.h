#ifndef BAMBOO_SRC_COMMON_STATS_H_
#define BAMBOO_SRC_COMMON_STATS_H_

#include <cstdint>

#include "src/common/platform.h"

namespace bamboo {

/// Per-worker counters. Written by exactly one thread during a run (no
/// atomics on the hot path), aggregated into a RunResult afterwards.
/// Cache-line aligned: workers' stats often sit in adjacent storage
/// (worker contexts, fixture arrays), and a shared line would turn every
/// counter bump into cross-core traffic.
struct alignas(kCacheLineSize) ThreadStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;        ///< protocol aborts (wound/die/no-wait/validation)
  uint64_t user_aborts = 0;   ///< logic aborts (e.g. TPC-C invalid item)
  uint64_t dirty_reads = 0;   ///< reads served from an uncommitted version
  uint64_t raw_reads = 0;     ///< Opt-3 snapshot reads (no lock footprint)
  uint64_t cascade_events = 0;   ///< root aborts that wounded >=1 dependent
  uint64_t cascade_victims = 0;  ///< transactions aborted via a dependency

  uint64_t lock_wait_ns = 0;    ///< time parked in waiter queues
  uint64_t abort_ns = 0;        ///< work thrown away in aborted attempts
  uint64_t commit_wait_ns = 0;  ///< time draining the commit semaphore

  // --- lock-table hot-path instrumentation (see DESIGN.md "Memory layout
  // and latching"): entry-latch contention and request-pool spills.
  uint64_t latch_spins = 0;   ///< backoff rounds spun on shard latches
  uint64_t latch_waits = 0;   ///< futex parks on shard latches
  uint64_t pool_spills = 0;   ///< dependent lists that overflowed inline space

  // --- sharded batch submission (LockManager::SubmitMany / ReleaseMany).
  uint64_t batch_runs = 0;  ///< same-shard runs (one latch hold each)
  uint64_t batch_keys = 0;  ///< keys submitted through the batch path
  /// Opt-3 snapshot pins served from a shard's CTS mirror (no load of the
  /// global published watermark); the rest fell back to the authority.
  uint64_t cts_mirror_pins = 0;

  // --- durability (WAL epoch group commit). log_bytes/log_fsyncs come
  // from the log writer (folded in at run end); the other two are counted
  // by workers at durable-acknowledgment time.
  uint64_t log_bytes = 0;   ///< record bytes staged into the log
  uint64_t log_fsyncs = 0;  ///< epoch fsyncs issued by the log writer
  /// Sum over acknowledgments of (durable epoch at ack - commit epoch):
  /// how far commits run ahead of the group-commit watermark.
  uint64_t durable_lag_epochs = 0;
  /// Commits whose durable ack was still gated by a retired-chain
  /// dependency's epoch when they first checked the watermark.
  uint64_t commits_awaiting_dep = 0;
  /// Measured commits whose durability was never acknowledged because the
  /// log failed (WaitResult::kFailed); counted separately from commits.
  uint64_t commits_ack_failed = 0;
  /// Writer attempts rejected with RC::kReadOnlyMode (WAL in kReadOnly).
  uint64_t readonly_rejects = 0;
  /// Transient I/O faults absorbed by the WAL writer's retry/backoff loop.
  uint64_t wal_retries = 0;
  /// WAL segments deleted behind a completed checkpoint.
  uint64_t wal_truncated_segments = 0;

  // --- fuzzy checkpoints (Checkpointer::FillStats, folded in at run end).
  uint64_t ckpt_count = 0;  ///< checkpoints completed (renamed into place)
  uint64_t ckpt_bytes = 0;  ///< bytes written into completed checkpoints
  /// Longest single shard-latch hold while snapshotting rows, in
  /// microseconds (max-merged: the worst pause anywhere in the run).
  uint64_t ckpt_pause_us_max = 0;
  /// Worst WalHealth observed (numeric ladder, max-merged): 0 healthy,
  /// 1 degraded, 2 read-only.
  uint64_t health_state = 0;

  // --- transaction suspension and the network front-end, both counted
  // by the server's event loops (the only driver that suspends).
  // net_frames/net_bytes are frames decoded + encoded and payload bytes in
  // both directions; all zero for embedded runs.
  uint64_t suspended_txns = 0;       ///< statements parked as continuations
  uint64_t continuations_fired = 0;  ///< continuation wakeups dispatched
  uint64_t net_frames = 0;           ///< protocol frames decoded + encoded
  uint64_t net_bytes = 0;            ///< protocol bytes received + sent

  // --- adaptive contention policy (LockManager::PolicyTierTotals, folded
  // in at run end; all zero in fixed policy mode). heats/cools count tier
  // transitions; cold/hot_rows are the end-of-run tier populations.
  uint64_t policy_heats = 0;
  uint64_t policy_cools = 0;
  uint64_t policy_cold_rows = 0;
  uint64_t policy_hot_rows = 0;

  void Add(const ThreadStats& o) {
    commits += o.commits;
    aborts += o.aborts;
    user_aborts += o.user_aborts;
    dirty_reads += o.dirty_reads;
    raw_reads += o.raw_reads;
    cascade_events += o.cascade_events;
    cascade_victims += o.cascade_victims;
    lock_wait_ns += o.lock_wait_ns;
    abort_ns += o.abort_ns;
    commit_wait_ns += o.commit_wait_ns;
    latch_spins += o.latch_spins;
    latch_waits += o.latch_waits;
    pool_spills += o.pool_spills;
    batch_runs += o.batch_runs;
    batch_keys += o.batch_keys;
    cts_mirror_pins += o.cts_mirror_pins;
    log_bytes += o.log_bytes;
    log_fsyncs += o.log_fsyncs;
    durable_lag_epochs += o.durable_lag_epochs;
    commits_awaiting_dep += o.commits_awaiting_dep;
    commits_ack_failed += o.commits_ack_failed;
    readonly_rejects += o.readonly_rejects;
    wal_retries += o.wal_retries;
    wal_truncated_segments += o.wal_truncated_segments;
    ckpt_count += o.ckpt_count;
    ckpt_bytes += o.ckpt_bytes;
    if (o.ckpt_pause_us_max > ckpt_pause_us_max) {
      ckpt_pause_us_max = o.ckpt_pause_us_max;  // worst pause, not a sum
    }
    if (o.health_state > health_state) {
      health_state = o.health_state;  // worst health observed, not a sum
    }
    suspended_txns += o.suspended_txns;
    continuations_fired += o.continuations_fired;
    net_frames += o.net_frames;
    net_bytes += o.net_bytes;
    policy_heats += o.policy_heats;
    policy_cools += o.policy_cools;
    policy_cold_rows += o.policy_cold_rows;
    policy_hot_rows += o.policy_hot_rows;
  }

  void Reset() { *this = ThreadStats(); }
};

/// Aggregate view over all workers, kept by the bench runner.
struct Stats {
  ThreadStats total;

  void Merge(const ThreadStats& t) { total.Add(t); }
  void Reset() { total.Reset(); }
};

/// One measured data point: aggregated counters plus the wall-clock window
/// they were collected in. All derived metrics are per *committed* txn, the
/// paper's Figure 4b/6b breakdown convention.
struct RunResult {
  ThreadStats total;
  double elapsed_seconds = 0;

  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total.commits) /
                                     elapsed_seconds
                               : 0.0;
  }
  /// Aborted attempts per executed attempt (commits + aborts).
  double AbortRate() const {
    uint64_t attempts = total.commits + total.aborts;
    return attempts > 0
               ? static_cast<double>(total.aborts) / static_cast<double>(attempts)
               : 0.0;
  }
  double LockWaitMsPerTxn() const { return PerCommitMs(total.lock_wait_ns); }
  double AbortMsPerTxn() const { return PerCommitMs(total.abort_ns); }
  double CommitWaitMsPerTxn() const { return PerCommitMs(total.commit_wait_ns); }
  /// Average number of transitively wounded victims per root cascade.
  double AvgCascadeChain() const {
    return total.cascade_events > 0
               ? static_cast<double>(total.cascade_victims) /
                     static_cast<double>(total.cascade_events)
               : 0.0;
  }

 private:
  double PerCommitMs(uint64_t ns) const {
    return total.commits > 0 ? static_cast<double>(ns) / 1e6 /
                                   static_cast<double>(total.commits)
                             : 0.0;
  }
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_COMMON_STATS_H_
