// Ablation of the four Bamboo optimizations of Section 3.5 on
// high-contention YCSB: all-on, each switched off individually, and the
// base protocol with all optimizations off. DESIGN.md calls these out as
// the design choices to quantify.
//   opt1: reads retire inside LockAcquire (no second latch)
//   opt2: no retire for the tail delta of writes
//   opt3: read-after-write served from the preceding version (no wound)
//   opt4: dynamic timestamp assignment on first conflict
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/failpoint.h"
#include "src/net/client.h"
#include "src/net/server.h"

namespace {

struct Variant {
  const char* name;
  bool o1, o2, o3, o4;
};

/// Lock-table shard sweep on the same Zipfian mix (all optimizations on):
/// the scaling the sharded latch domains buy, visible in latch_spins/waits
/// per txn, and what the batch path's per-shard runs collapse to as the
/// hash scatters keys over more shards. Row names are stable awk keys
/// (BAMBOO_z09_<t>t_<s>s) for scripts/bench_snapshot.sh.
void RunShardSweep(const bamboo::bench::Options& opt) {
  using namespace bamboo;
  using namespace bamboo::bench;
  TablePrinter tbl(
      "Lock-table shard sweep, Bamboo all-on, YCSB theta=0.9 rr=0.5",
      {"config", "throughput(txn/s)", "abort_rate", "latch_spins/txn",
       "latch_waits/txn", "keys/run", "mirror_pins/txn"});
  const int threads = opt.threads > 0 ? opt.threads : 16;
  for (int shards : {1, 4, 16, 64}) {
    Config cfg = opt.BaseConfig();
    cfg.protocol = Protocol::kBamboo;
    cfg.num_threads = threads;
    cfg.lock_shards = shards;
    cfg.ycsb_zipf_theta = 0.9;
    cfg.ycsb_read_ratio = 0.5;
    RunResult r = RunYcsb(cfg);
    auto per_txn = [&r](uint64_t n) {
      return r.total.commits > 0 ? static_cast<double>(n) /
                                       static_cast<double>(r.total.commits)
                                 : 0.0;
    };
    tbl.AddRow({"BAMBOO_z09_" + std::to_string(threads) + "t_" +
                    std::to_string(shards) + "s",
                FmtThroughput(r), Fmt(r.AbortRate(), 3),
                Fmt(per_txn(r.total.latch_spins), 2),
                Fmt(per_txn(r.total.latch_waits), 2),
                Fmt(r.total.batch_runs > 0
                        ? static_cast<double>(r.total.batch_keys) /
                              static_cast<double>(r.total.batch_runs)
                        : 0.0,
                    2),
                Fmt(per_txn(r.total.cts_mirror_pins), 2)});
  }
  tbl.Print("one latch domain serializes every acquire at 16 threads; the "
            "sweep shows where the contention actually stops falling");
}

/// Durability under fault injection: the clean logged baseline, the same
/// mix with an fsync fault on every 4th epoch write (retry/backoff must
/// absorb it: zero failed acks, health back to healthy), and the
/// checkpointing run (pause and byte cost of the fuzzy snapshot). Needs
/// BB_LOG_DIR; row names are stable awk keys (DUR_*) for
/// scripts/bench_snapshot.sh. Returns false (after printing the table) when
/// a row proves nothing: the fault never fired or was not absorbed, or no
/// checkpoint completed.
bool RunDurabilityFaults(const bamboo::bench::Options& opt) {
  using namespace bamboo;
  using namespace bamboo::bench;
  if (opt.log_dir.empty()) {
    std::printf("\n== Durability fault table skipped: set BB_LOG_DIR ==\n");
    return true;
  }
  TablePrinter tbl(
      "Durability faults, Bamboo logged YCSB theta=0.9 rr=0.5",
      {"config", "throughput(txn/s)", "wal_retries", "ack_failed",
       "ro_rejects", "ckpts", "ckpt_kB", "pause_us_max", "trunc_segs",
       "health"});
  const int threads = opt.threads > 0 ? opt.threads : 8;
  std::vector<std::string> failures;
  auto run_one = [&](const char* name, const char* fault, bool ckpt) {
    Config cfg = opt.BaseConfig();
    cfg.protocol = Protocol::kBamboo;
    cfg.num_threads = threads;
    cfg.ycsb_zipf_theta = 0.9;
    cfg.ycsb_read_ratio = 0.5;
    if (ckpt) {
      cfg.ckpt_enabled = true;
      cfg.ckpt_interval_us = 50000;  // several checkpoints per bench window
    }
    if (fault != nullptr) Failpoints::ArmForTest(fault);
    RunResult r = RunYcsb(cfg);
    if (fault != nullptr) Failpoints::DisarmForTest("wal_fsync_error");
    const auto health = static_cast<WalHealth>(r.total.health_state);
    if (fault != nullptr) {
      if (r.total.wal_retries == 0) failures.push_back("fault never fired");
      if (r.total.commits_ack_failed > 0) {
        failures.push_back("commits lost their durable ack");
      }
      if (health != WalHealth::kHealthy) {
        failures.push_back(std::string("health ") + WalHealthName(health));
      }
    }
    if (ckpt && r.total.ckpt_count == 0) {
      failures.push_back("no checkpoint completed");
    }
    tbl.AddRow({name, FmtThroughput(r),
                std::to_string(r.total.wal_retries),
                std::to_string(r.total.commits_ack_failed),
                std::to_string(r.total.readonly_rejects),
                std::to_string(r.total.ckpt_count),
                Fmt(static_cast<double>(r.total.ckpt_bytes) / 1024.0, 1),
                std::to_string(r.total.ckpt_pause_us_max),
                std::to_string(r.total.wal_truncated_segments),
                WalHealthName(health)});
  };
  run_one("DUR_CLEAN", nullptr, false);
  // Deterministic trigger: at the default 10ms epoch and window a run
  // sees about a dozen injected faults, and a retry (the next evaluation)
  // never fails.
  run_one("DUR_FAULTY", "wal_fsync_error:every=4", false);
  run_one("DUR_CKPT", nullptr, true);
  tbl.Print("the faulty run must absorb every transient fsync error "
            "(ack_failed=0, health=healthy); the checkpoint run prices the "
            "fuzzy snapshot in pause and bytes");
  for (const std::string& f : failures) {
    std::fprintf(stderr, "durability fault table FAILED: %s\n", f.c_str());
  }
  return failures.empty();
}

/// Suspension through the wire-protocol server: a loopback run whose
/// blocked statements suspend on the server's event loops, so the
/// susp/cont and net_frames/net_bytes counters are exercised end to end.
/// The row name is a stable awk key (SUSP_*) for scripts/bench_snapshot.sh.
void RunSuspension(const bamboo::bench::Options& opt) {
  using namespace bamboo;
  using namespace bamboo::bench;
  TablePrinter tbl(
      "Suspension over loopback frames, Bamboo",
      {"config", "throughput(txn/s)", "abort_rate", "susp/txn", "cont/txn",
       "net_frames", "net_kB", "breakdown(ms/txn)"});
  auto add_row = [&tbl](const char* name, const RunResult& r) {
    auto per_txn = [&r](uint64_t n) {
      return r.total.commits > 0 ? static_cast<double>(n) /
                                       static_cast<double>(r.total.commits)
                                 : 0.0;
    };
    tbl.AddRow({name, FmtThroughput(r), Fmt(r.AbortRate(), 3),
                Fmt(per_txn(r.total.suspended_txns), 3),
                Fmt(per_txn(r.total.continuations_fired), 3),
                std::to_string(r.total.net_frames),
                Fmt(static_cast<double>(r.total.net_bytes) / 1024.0, 1),
                FmtBreakdown(r)});
  };
  // A few synchronous clients drive BEGIN/READ_MANY/UPDATE_RMW/COMMIT
  // frames against an in-process server, long enough to exercise
  // suspension under real frames. Metrics come from the server's loop
  // stats.
  {
    Config cfg = opt.BaseConfig();
    cfg.protocol = Protocol::kBamboo;
    cfg.num_threads = 2;
    NetServer::Options sopts;
    sopts.rows = 8192;
    NetServer server(cfg, sopts);
    if (server.Start()) {
      const int kClients = 8;
      const int kTxns = 200;
      std::vector<std::thread> cls;
      std::atomic<uint64_t> commits{0}, aborts{0};
      for (int c = 0; c < kClients; c++) {
        cls.emplace_back([&, c] {
          net::BlockingClient cli;
          if (!cli.Connect(server.port())) return;
          std::mt19937_64 rng(0xabcdef12u + static_cast<uint64_t>(c));
          uint64_t keys[16];
          for (int t = 0; t < kTxns; t++) {
            netproto::Status st;
            if (!cli.Begin(&st) || st != netproto::Status::kOk) return;
            for (int i = 0; i < 16; i++) keys[i] = rng() % sopts.rows;
            if (!cli.Call(netproto::MsgType::kReadMany, keys, 16, 0, &st)) {
              return;
            }
            if (st != netproto::Status::kOk) {
              aborts.fetch_add(1);
              continue;  // server already rolled the txn back
            }
            for (int i = 0; i < 4; i++) keys[i] = rng() % 64;  // hot range
            if (!cli.Call(netproto::MsgType::kUpdateRmw, keys, 4, 1, &st)) {
              return;
            }
            if (st != netproto::Status::kOk) {
              aborts.fetch_add(1);
              continue;
            }
            if (!cli.Commit(&st)) return;
            if (st == netproto::Status::kOk) commits.fetch_add(1);
            else aborts.fetch_add(1);
          }
        });
      }
      for (auto& t : cls) t.join();
      server.Stop();
      RunResult r;
      r.total = server.StatsTotal();
      r.total.commits = commits.load();
      r.total.aborts = aborts.load();
      r.elapsed_seconds = 1.0;  // throughput column is not meaningful here
      add_row("SUSP_NET_LOOPBACK", r);
    }
  }
  tbl.Print("the loopback row proves the suspension and frame counters flow "
            "through the wire protocol");
}

}  // namespace

int main() {
  using namespace bamboo;
  using namespace bamboo::bench;
  Options opt = FromEnv();

  // BB_SHARD_SWEEP_ONLY=1: just the shard sweep (bench_snapshot.sh runs it
  // as the Zipfian multi-shard YCSB point without paying for the ablation).
  if (std::getenv("BB_SHARD_SWEEP_ONLY") != nullptr) {
    RunShardSweep(opt);
    return 0;
  }

  // BB_DUR_ONLY=1: just the durability fault-injection table (needs
  // BB_LOG_DIR; bench_snapshot.sh uses this for the durability_faults
  // section). Exits nonzero when the table's checks fail.
  if (std::getenv("BB_DUR_ONLY") != nullptr) {
    return RunDurabilityFaults(opt) ? 0 : 1;
  }

  // BB_SUSP_ONLY=1: just the loopback suspension row (bench_snapshot.sh uses
  // this for the networked_interactive section).
  if (std::getenv("BB_SUSP_ONLY") != nullptr) {
    RunSuspension(opt);
    return 0;
  }

  const Variant variants[] = {
      {"all on", true, true, true, true},
      {"-opt1 (read retire)", false, true, true, true},
      {"-opt2 (tail holdback)", true, false, true, true},
      {"-opt3 (RAW reads)", true, true, false, true},
      {"-opt4 (dynamic ts)", true, true, true, false},
      {"all off", false, false, false, false},
  };

  // Durability columns are live when BB_LOG_DIR turns the WAL on: log
  // bytes amortized per commit, epoch fsyncs, how far commits ran ahead of
  // the durable watermark, and commits whose ack waited on a retired-chain
  // dependency -- the group-commit cost surface.
  TablePrinter tbl(
      "Bamboo optimization ablation, YCSB theta=0.9 rr=0.5",
      {"variant", "throughput(txn/s)", "abort_rate", "dirty_reads/txn",
       "raw_reads/txn", "latch_spins/txn", "latch_waits/txn",
       "pool_spills/txn", "log_B/txn", "fsyncs", "dur_lag/txn", "await_dep",
       "breakdown(ms/txn)"});
  for (const Variant& v : variants) {
    Config cfg = opt.BaseConfig();
    cfg.protocol = Protocol::kBamboo;
    cfg.num_threads = opt.threads > 0 ? opt.threads : (opt.full ? 32 : 8);
    cfg.ycsb_zipf_theta = 0.9;
    cfg.ycsb_read_ratio = 0.5;
    cfg.bb_opt_read_retire = v.o1;
    cfg.bb_opt_no_retire_tail = v.o2;
    cfg.bb_opt_raw_read = v.o3;
    cfg.dynamic_ts = v.o4;
    RunResult r = RunYcsb(cfg);
    auto per_txn = [&r](uint64_t n) {
      return r.total.commits > 0 ? static_cast<double>(n) /
                                       static_cast<double>(r.total.commits)
                                 : 0.0;
    };
    tbl.AddRow({v.name, FmtThroughput(r), Fmt(r.AbortRate(), 3),
                Fmt(per_txn(r.total.dirty_reads), 2),
                Fmt(per_txn(r.total.raw_reads), 2),
                Fmt(per_txn(r.total.latch_spins), 2),
                Fmt(per_txn(r.total.latch_waits), 2),
                Fmt(per_txn(r.total.pool_spills), 3),
                Fmt(per_txn(r.total.log_bytes), 1),
                std::to_string(r.total.log_fsyncs),
                Fmt(per_txn(r.total.durable_lag_epochs), 2),
                std::to_string(r.total.commits_awaiting_dep),
                FmtBreakdown(r)});
  }
  tbl.Print("each optimization contributes; opt3 matters most on "
            "read-write mixes (RAW aborts), opt4 reduces first-conflict "
            "wounds");
  RunShardSweep(opt);
  const bool dur_ok = RunDurabilityFaults(opt);
  RunSuspension(opt);
  return dur_ok ? 0 : 1;
}
