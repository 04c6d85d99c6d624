#ifndef BAMBOO_SRC_COMMON_CONFIG_H_
#define BAMBOO_SRC_COMMON_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bamboo {

/// Concurrency-control protocols (Section 5.1's implementations plus IC3
/// for the Figure 11 comparison).
enum class Protocol {
  kBamboo,     ///< this paper: 2PL with early lock release (retire lists)
  kWoundWait,  ///< strict 2PL, wound-wait deadlock prevention
  kWaitDie,    ///< strict 2PL, wait-die deadlock prevention
  kNoWait,     ///< strict 2PL, abort on any conflict
  kSilo,       ///< OCC with epoch-less TID validation
  kIc3,        ///< column-group 2PL standing in for IC3's static analysis
};

const char* ProtocolName(Protocol p);

/// How the lock manager picks a contention policy per tuple.
///
///   kFixed    - every entry runs the Config protocol's descriptor
///               (the five classic protocols, unchanged behavior).
///   kAdaptive - Bamboo only: each entry tracks a conflict temperature and
///               is admitted under the tier's descriptor -- cold rows run
///               plain 2PL with retire skipped entirely (no cascade
///               bookkeeping), warm rows run full Bamboo with the
///               Section-3.5 opts, pathological rows escalate the wound
///               rule and force fused-RMW retirement. With a non-Bamboo
///               protocol kAdaptive is normalized back to kFixed (warned
///               by Config::Validate), so a process-wide BB_POLICY_MODE
///               default composes with protocol sweeps.
enum class PolicyMode { kFixed, kAdaptive };

/// Default policy mode: BB_POLICY_MODE=adaptive (latched once per process,
/// like BB_LOCK_SHARDS), else kFixed. CI runs the tier-1 and TSan suites in
/// both modes.
PolicyMode DefaultPolicyMode();

/// Default lock-table shard count: the BB_LOCK_SHARDS environment knob
/// (latched once per process, like the failpoint env), else 1024. The CI
/// matrix runs the tier-1 and TSan suites at 1 and 16 shards so the
/// unsharded configuration stays a tested fallback.
int DefaultLockShards();

/// Execution mode: stored procedures run back-to-back; interactive mode
/// inserts a simulated client round trip (RTT) before every statement, so
/// locks are held across network delays (Section 5's second setting).
enum class ExecMode {
  kStoredProcedure,
  kInteractive,
};

/// Return codes threaded through transaction execution.
enum class RC {
  kOk,         ///< operation succeeded / transaction committed
  kAbort,      ///< protocol abort (wound, die, validation failure, cascade)
  kUserAbort,  ///< logic abort requested by the transaction itself
  kPending,    ///< commit handed off (detached); outcome arrives via
               ///< TxnCB::detach_state (runner-managed workers only)
  kReadOnlyMode,  ///< writer rejected: the WAL exhausted its I/O retries and
                  ///< the engine degraded to read-only (see WalHealth)
  kSuspended,  ///< statement blocked and the transaction parked a
               ///< continuation instead of this thread (the driver
               ///< installed TxnCB::susp_fire); the driver resumes it via
               ///< TxnHandle::ResumeSuspended once the continuation fires
};

/// Names of the two wait paths: a thread parks on the TxnCB eventcount
/// (futex), or the transaction parks a continuation and frees its thread.
/// The engine never reads a setting to choose: a handle suspends iff its
/// driver installed TxnCB::susp_fire (see the Config field below).
enum class SuspendMode { kFutex, kContinuation };

/// Durability health ladder (src/db/wal.h drives the transitions; the lock
/// manager reads it to reject new writers in read-only mode).
///
///   kHealthy  - epochs write + fsync cleanly; durability acks flow.
///   kDegraded - the writer is retrying a transient I/O fault with backoff;
///               commits keep executing but the durable watermark (and thus
///               acks) stalls, visible as durable-lag in stats. The state
///               returns to kHealthy when a retry succeeds.
///   kReadOnly - retries exhausted (or a hard I/O error): the log can no
///               longer accept writes. New EX lock requests are rejected
///               with RC::kReadOnlyMode; readers and in-flight commits
///               drain normally (their durability is never acked).
///
/// Numeric order is the severity ladder; stats max-merge the value.
enum class WalHealth : uint8_t { kHealthy = 0, kDegraded = 1, kReadOnly = 2 };

const char* WalHealthName(WalHealth h);

/// One struct drives every layer: the lock manager reads the protocol and
/// the four Bamboo ablation switches, the workloads read their scale knobs,
/// and the bench runner reads thread count and durations.
struct Config {
  Protocol protocol = Protocol::kBamboo;
  ExecMode mode = ExecMode::kStoredProcedure;
  int num_threads = 1;
  double duration_seconds = 0.4;
  double warmup_seconds = 0.08;
  /// Simulated client<->server round trip per statement in interactive mode.
  double interactive_rtt_us = 50.0;
  // --- Durability: WAL with epoch group commit (src/db/wal.h). The Silo
  // baseline bypasses the lock-based commit path and is not logged.
  bool log_enabled = false;
  /// Directory for the log file; logging requires a non-empty, writable
  /// directory (wal.log inside it is truncated per Database).
  std::string log_dir;
  /// Group-commit epoch length: the log writer flushes + fsyncs and
  /// advances the durable watermark once per epoch. 10ms keeps the writer
  /// thread's wakeups off the workers' critical path (Silo's group commit
  /// runs 40ms epochs); shorten it to trade throughput for ack latency.
  double log_epoch_us = 10000.0;
  /// fsync per epoch (off trades crash safety for I/O-bound test speed).
  bool log_fsync = true;
  /// Transient-I/O-fault budget: a failed epoch write/fsync is retried up
  /// to this many times with exponential backoff before the engine
  /// degrades to read-only. 0 restores the old fail-fast behavior (first
  /// fault lands in kReadOnly immediately).
  int log_retry_max = 8;
  /// Base backoff before retry k sleeps `log_retry_backoff_us << k` (caps
  /// at ~100ms per step). Keep it well under log_epoch_us so one absorbed
  /// fault costs less than an epoch.
  double log_retry_backoff_us = 200.0;

  // --- Fuzzy checkpoints (src/db/checkpoint.h). Requires the WAL: the
  // checkpoint's covered epoch is a WAL rotation boundary and recovery
  // pairs the newest valid checkpoint with the WAL suffix behind it.
  /// Run a background checkpointer that periodically snapshots committed
  /// row images and truncates WAL segments behind the previous checkpoint.
  bool ckpt_enabled = false;
  /// Interval between background checkpoint passes.
  double ckpt_interval_us = 250000.0;

  /// Lock-table shards: the per-tuple queues are latched per *shard* (a
  /// stable hash of the row's (table, key) identity), so latch traffic
  /// scales with the shard count instead of serializing on hot cache
  /// lines, and the batch APIs take one latch hold per same-shard run.
  /// Rounded up to a power of two and clamped to [1, 65536] by the lock
  /// manager. Default comes from BB_LOCK_SHARDS (else 1024); 1 degenerates
  /// to a single latch domain (the pre-shard behavior, kept in CI).
  int lock_shards = DefaultLockShards();

  // --- Per-entry contention policy (adaptive protocol selection). The
  // lock manager resolves a ContentionPolicy descriptor per LockEntry; in
  // kFixed mode every tier slot holds the Config protocol's descriptor, in
  // kAdaptive mode (Bamboo only) a per-entry conflict temperature picks
  // cold / warm / pathological descriptors. See DESIGN.md "Per-entry
  // contention policy".
  PolicyMode policy_mode = DefaultPolicyMode();

  /// Unused by the engine; kept only because the benchmark drivers
  /// (perfbench/net_load.cc, perfbench/embedded.cc) still set and print
  /// it. The wait path follows the driver: the network server installs
  /// TxnCB::susp_fire and suspends, thread workers never do and park.
  SuspendMode suspend_mode = SuspendMode::kFutex;
  /// Temperature at or above which an entry runs full Bamboo (below it the
  /// entry is cold: plain 2PL admission, retire skipped). Temperature is a
  /// decaying sum (t -= t>>4 per submit) of +256 per conflicting submit and
  /// +1024 per cascading abort, capped at 8192; a pure conflict stream
  /// saturates near 4096.
  uint32_t policy_warm_threshold = 512;
  /// Temperature at or above which an entry is pathological: the wound
  /// rule escalates to waiters and fused RMWs always retire. Above the
  /// 4096 conflict-only ceiling, so sustained cascading aborts (not mere
  /// contention) are required to escalate.
  uint32_t policy_hot_threshold = 6144;

  /// Validate this Config. Returns an empty string when usable, else a
  /// human-readable error (Database construction aborts on it). Combos
  /// that are silently ignored (bb_opt_* under non-Bamboo protocols,
  /// adaptive policy mode under non-Bamboo, WAL under Silo) are appended
  /// to `warnings` (may be null) and normalized by the consumer.
  std::string Validate(std::vector<std::string>* warnings = nullptr) const;

  // --- Bamboo ablation switches (Section 3.5). All default to the paper's
  // full configuration; bench_opt_ablation toggles them individually.
  /// Opt 1: shared locks retire inside LockAcquire (no second latch round).
  bool bb_opt_read_retire = true;
  /// Opt 2: writes in the last `bb_delta` fraction of a transaction are not
  /// retired (the tail gains little and the bookkeeping is pure overhead).
  bool bb_opt_no_retire_tail = true;
  /// Opt 3: a reader older than every uncommitted retired writer is served
  /// a *committed* version instead of wounding the writers. Served versions
  /// come from a commit-timestamp snapshot pinned at the reader's first raw
  /// read, so raw reads stay consistent across rows (strict
  /// serializability); see DESIGN.md "Opt 3: commit-timestamp snapshots".
  bool bb_opt_raw_read = true;
  /// Opt 4: timestamps are assigned on first conflict instead of at begin,
  /// so conflict-free transactions are never ordered (fewer wounds).
  bool dynamic_ts = true;
  /// Tail fraction for Opt 2; the paper settles on 0.15 for all workloads.
  double bb_delta = 0.15;

  // --- Synthetic hotspot workload (Sections 3/5.2).
  uint64_t synth_rows = 10000;   ///< cold uniformly-read table
  int synth_ops_per_txn = 16;
  int synth_num_hotspots = 1;    ///< 0..2 read-modify-write hotspots
  double synth_hotspot_pos[2] = {0.0, 1.0};  ///< position in [0,1] within txn
  /// Batched variant: hotspot RMWs issue through UpdateRmwMany (positions
  /// collapse to the front) and the cold reads through ReadMany, so the
  /// whole transaction is a handful of multi-key statements. Exercised by
  /// bench_multiget.
  bool synth_batch_ops = false;
  /// Mixed-temperature variant: each transaction touches one pathological
  /// hotspot (fused RMW), a few warm rows (fused RMWs over a small warm
  /// table), a few cold plain writes (Update + WriteDone, exercising the
  /// retire path), and cold reads for the rest. This is the workload where
  /// the adaptive policy should beat every fixed protocol.
  bool synth_mixed_temp = false;
  uint64_t synth_warm_rows = 64;  ///< size of the warm (contended) table
  int synth_mix_warm_ops = 2;     ///< warm fused RMWs per transaction
  int synth_mix_cold_writes = 2;  ///< cold plain writes per transaction

  // --- YCSB.
  uint64_t ycsb_rows = 100000;
  int ycsb_ops_per_txn = 16;
  double ycsb_zipf_theta = 0.9;
  double ycsb_read_ratio = 0.5;
  double ycsb_long_txn_frac = 0.0;  ///< fraction of long read-only scans
  int ycsb_long_txn_ops = 1000;

  // --- TPC-C (scaled down; payment + new-order mix, 1% user aborts).
  int tpcc_warehouses = 1;
  int tpcc_districts_per_warehouse = 10;
  int tpcc_customers_per_district = 300;
  int tpcc_items = 10000;
  /// Figure 11c/d: new-order additionally reads W_YTD, turning the
  /// payment/new-order column disjointness into a true conflict.
  bool tpcc_neworder_reads_wytd = false;
};

/// Protocol name for reports, policy-mode aware: "ADAPTIVE" when the lock
/// manager actually runs the adaptive selector (kAdaptive + kBamboo), else
/// the fixed protocol's name.
const char* ProtocolName(const Config& cfg);

}  // namespace bamboo

#endif  // BAMBOO_SRC_COMMON_CONFIG_H_
