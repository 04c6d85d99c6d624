#!/usr/bin/env sh
# Emit a JSON snapshot of the headline throughput numbers so every PR can
# extend the perf trajectory: single-hotspot (8 threads, all protocols'
# headline BAMBOO row), the lock-table shard scaling (8/24 threads at 1 vs
# 16 shards, plus a Zipfian multi-shard YCSB point), and the lock-table
# microbenchmarks, including the release-path primitives the grant-token
# API targets (BM_RetiredDependencyChain) and the multi-key batch read
# (BM_MultiGet16).
# Usage: scripts/bench_snapshot.sh [build-dir] [out.json]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_pr10.json}"

if [ ! -x "$BUILD_DIR/bench_single_hotspot" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)"
fi

DUR="${BB_BENCH_DURATION:-0.4}"
WARM="${BB_BENCH_WARMUP:-0.08}"

# First BAMBOO/WOUND_WAIT rows are the stored-procedure table.
hot_out=$(BB_BENCH_DURATION="$DUR" BB_BENCH_WARMUP="$WARM" \
          "$BUILD_DIR/bench_single_hotspot")
to_num='{v=$2; u=substr(v,length(v),1); n=v+0;
         if (u=="k") n*=1e3; else if (u=="M") n*=1e6;
         printf "%.0f", n; exit}'
bamboo_tput=$(printf '%s\n' "$hot_out" | awk '$1=="BAMBOO"'" $to_num")
ww_tput=$(printf '%s\n' "$hot_out" | awk '$1=="WOUND_WAIT"'" $to_num")

# Shard-scaling rows from the same run (BAMBOO_<threads>t_<shards>s): the
# >16-thread point is the one the sharded latch domains exist for.
hot_8t_1s=$(printf '%s\n' "$hot_out" | awk '$1=="BAMBOO_8t_1s"'" $to_num")
hot_8t_16s=$(printf '%s\n' "$hot_out" | awk '$1=="BAMBOO_8t_16s"'" $to_num")
hot_24t_1s=$(printf '%s\n' "$hot_out" | awk '$1=="BAMBOO_24t_1s"'" $to_num")
hot_24t_16s=$(printf '%s\n' "$hot_out" | awk '$1=="BAMBOO_24t_16s"'" $to_num")

# Zipfian multi-shard YCSB (theta=0.9, rr=0.5, 16 threads): the shard
# sweep's 1- and 16-shard rows, skewed enough that a few hot entries and
# the latch domain both matter.
ycsb_out=$(BB_BENCH_DURATION="$DUR" BB_BENCH_WARMUP="$WARM" \
           BB_SHARD_SWEEP_ONLY=1 "$BUILD_DIR/bench_opt_ablation")
ycsb_16t_1s=$(printf '%s\n' "$ycsb_out" | awk '$1=="BAMBOO_z09_16t_1s"'" $to_num")
ycsb_16t_16s=$(printf '%s\n' "$ycsb_out" | awk '$1=="BAMBOO_z09_16t_16s"'" $to_num")

# Same hotspot with the WAL on (group-commit epoch at its default 10ms):
# the logging tax on the headline number, and the durability counters.
LOG_DIR=$(mktemp -d)
trap 'rm -rf "$LOG_DIR"' EXIT INT TERM
log_out=$(BB_BENCH_DURATION="$DUR" BB_BENCH_WARMUP="$WARM" \
          BB_LOG_DIR="$LOG_DIR" "$BUILD_DIR/bench_single_hotspot")
bamboo_log_tput=$(printf '%s\n' "$log_out" | awk '$1=="BAMBOO"'" $to_num")
ww_log_tput=$(printf '%s\n' "$log_out" | awk '$1=="WOUND_WAIT"'" $to_num")

# Durability fault injection (DUR_* rows from bench_opt_ablation): the
# clean logged baseline, an fsync fault on every 4th epoch write
# (retry/backoff must absorb it: ack_failed stays 0 and health returns to
# HEALTHY), and the checkpointing run's pause/byte cost. The bench exits
# nonzero when the fault never fired, was not absorbed, or no checkpoint
# completed, which fails the snapshot (set -e).
dur_out=$(BB_BENCH_DURATION="$DUR" BB_BENCH_WARMUP="$WARM" \
          BB_LOG_DIR="$LOG_DIR/dur" BB_DUR_ONLY=1 \
          "$BUILD_DIR/bench_opt_ablation")
pick_col() { printf '%s\n' "$dur_out" | awk -v row="$1" -v col="$2" \
             '$1==row {print $col+0; exit}'; }
dur_clean_tput=$(printf '%s\n' "$dur_out" | awk '$1=="DUR_CLEAN"'" $to_num")
dur_faulty_tput=$(printf '%s\n' "$dur_out" | awk '$1=="DUR_FAULTY"'" $to_num")
dur_ckpt_tput=$(printf '%s\n' "$dur_out" | awk '$1=="DUR_CKPT"'" $to_num")
dur_faulty_retries=$(pick_col DUR_FAULTY 3)
dur_faulty_ack_failed=$(pick_col DUR_FAULTY 4)
dur_faulty_health=$(printf '%s\n' "$dur_out" | \
                    awk '$1=="DUR_FAULTY" {print $10; exit}')
dur_ckpt_count=$(pick_col DUR_CKPT 6)
dur_ckpt_kb=$(pick_col DUR_CKPT 7)
dur_ckpt_pause_us=$(pick_col DUR_CKPT 8)
dur_ckpt_trunc=$(pick_col DUR_CKPT 9)

# Suspension over a loopback wire-protocol run (SUSP_NET_LOOPBACK row:
# real frames through the epoll server).
susp_out=$(BB_BENCH_DURATION="$DUR" BB_BENCH_WARMUP="$WARM" \
           BB_SUSP_ONLY=1 "$BUILD_DIR/bench_opt_ablation")
pick_susp() { printf '%s\n' "$susp_out" | awk -v row="$1" -v col="$2" \
              '$1==row {print $col+0; exit}'; }
net_loop_frames=$(pick_susp SUSP_NET_LOOPBACK 6)
net_loop_kb=$(pick_susp SUSP_NET_LOOPBACK 7)

# Networked interactive front-end: the bench_net smoke (1k connections
# multiplexed over a few mux threads against 8 event loops, fork-isolated
# server). Exits nonzero on any protocol error, which fails the snapshot.
net_out=$("$BUILD_DIR/bench_net" --smoke)
pick_net() { printf '%s\n' "$net_out" | awk -v k="$1" \
             '$1==k {print $2+0; exit}'; }
net_tps=$(pick_net "txn/s")
# "p50 latency <n> us": the number is the third field.
net_p50_us=$(printf '%s\n' "$net_out" | awk '$1=="p50" {print $3+0; exit}')
net_p99_us=$(printf '%s\n' "$net_out" | awk '$1=="p99" {print $3+0; exit}')
net_commits=$(pick_net "commits")
net_aborts=$(pick_net "aborts")
net_susp=$(pick_net "suspended_txns")
net_cont=$(pick_net "continuations")
net_frames=$(pick_net "net_frames")
net_bytes=$(pick_net "net_bytes")

# Lock-table microbenchmarks (ns/op), when google-benchmark is available.
sh_ns=null; ex_ns=null; txn16_ns=null; chain_ns=null; multiget_ns=null
if [ -x "$BUILD_DIR/bench_lock_micro" ]; then
  micro_out=$("$BUILD_DIR/bench_lock_micro" --benchmark_min_time=0.2 \
              --benchmark_filter='BM_AcquireReleaseSh|BM_AcquireRetireReleaseEx|BM_Txn16Ops|BM_RetiredDependencyChain|BM_MultiGet16' \
              2>/dev/null)
  pick='{print $2+0; exit}'
  sh_ns=$(printf '%s\n' "$micro_out" | awk '$1=="BM_AcquireReleaseSh"'" $pick")
  ex_ns=$(printf '%s\n' "$micro_out" | awk '$1=="BM_AcquireRetireReleaseEx"'" $pick")
  txn16_ns=$(printf '%s\n' "$micro_out" | awk '$1=="BM_Txn16Ops"'" $pick")
  chain_ns=$(printf '%s\n' "$micro_out" | awk '$1=="BM_RetiredDependencyChain"'" $pick")
  multiget_ns=$(printf '%s\n' "$micro_out" | awk '$1=="BM_MultiGet16"'" $pick")
  [ -n "$sh_ns" ] || sh_ns=null
  [ -n "$ex_ns" ] || ex_ns=null
  [ -n "$txn16_ns" ] || txn16_ns=null
  [ -n "$chain_ns" ] || chain_ns=null
  [ -n "$multiget_ns" ] || multiget_ns=null
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
cores=$(nproc 2>/dev/null || echo null)

cat > "$OUT" <<EOF
{
  "commit": "$commit",
  "date": "$stamp",
  "bench_duration_s": $DUR,
  "host_cores": $cores,
  "single_hotspot_8t": {
    "bamboo_txn_per_s": ${bamboo_tput:-null},
    "wound_wait_txn_per_s": ${ww_tput:-null}
  },
  "hotspot_shard_scaling": {
    "note": "shard counts > host_cores cannot show latch-domain parallelism; on a 1-core host the 16-shard column measures pure per-run overhead (see DESIGN.md)",
    "bamboo_8t_1shard": ${hot_8t_1s:-null},
    "bamboo_8t_16shards": ${hot_8t_16s:-null},
    "bamboo_24t_1shard": ${hot_24t_1s:-null},
    "bamboo_24t_16shards": ${hot_24t_16s:-null}
  },
  "ycsb_zipf09_16t_shards": {
    "bamboo_1shard": ${ycsb_16t_1s:-null},
    "bamboo_16shards": ${ycsb_16t_16s:-null}
  },
  "single_hotspot_8t_logged": {
    "bamboo_txn_per_s": ${bamboo_log_tput:-null},
    "wound_wait_txn_per_s": ${ww_log_tput:-null},
    "bamboo_log_on_off_ratio": $(awk -v a="${bamboo_log_tput:-0}" \
        -v b="${bamboo_tput:-0}" \
        'BEGIN { if (b > 0) printf "%.3f", a / b; else print "null" }')
  },
  "durability_faults": {
    "note": "logged YCSB theta=0.9 rr=0.5; faulty run injects wal_fsync_error on every 4th epoch write (bounded retry/backoff must absorb it); ckpt run checkpoints every 50ms",
    "clean_txn_per_s": ${dur_clean_tput:-null},
    "faulty_txn_per_s": ${dur_faulty_tput:-null},
    "faulty_wal_retries": ${dur_faulty_retries:-null},
    "faulty_commits_ack_failed": ${dur_faulty_ack_failed:-null},
    "faulty_health": "${dur_faulty_health:-unknown}",
    "ckpt_txn_per_s": ${dur_ckpt_tput:-null},
    "ckpt_count": ${dur_ckpt_count:-null},
    "ckpt_kb": ${dur_ckpt_kb:-null},
    "ckpt_pause_us_max": ${dur_ckpt_pause_us:-null},
    "wal_truncated_segments": ${dur_ckpt_trunc:-null}
  },
  "lock_micro_ns": {
    "acquire_release_sh": $sh_ns,
    "acquire_retire_release_ex": $ex_ns,
    "txn_16_ops": $txn16_ns,
    "retired_dependency_chain": $chain_ns,
    "multiget_16": $multiget_ns
  },
  "networked_interactive": {
    "note": "bench_net --smoke: 1k closed-loop connections multiplexed over a few client threads against 8 epoll loops (continuation suspension, fork-isolated server); loopback_* fields come from bench_opt_ablation's SUSP_NET_LOOPBACK row",
    "smoke_conns": 1000,
    "smoke_txn_per_s": ${net_tps:-null},
    "smoke_p50_us": ${net_p50_us:-null},
    "smoke_p99_us": ${net_p99_us:-null},
    "smoke_commits": ${net_commits:-null},
    "smoke_aborts": ${net_aborts:-null},
    "smoke_suspended_txns": ${net_susp:-null},
    "smoke_continuations_fired": ${net_cont:-null},
    "smoke_net_frames": ${net_frames:-null},
    "smoke_net_bytes": ${net_bytes:-null},
    "loopback_net_frames": ${net_loop_frames:-null},
    "loopback_net_kb": ${net_loop_kb:-null}
  }
}
EOF
echo "wrote $OUT"
cat "$OUT"
