// Google-benchmark microbenchmarks of the lock-entry primitives
// (LockAcquire / LockRetire / LockRelease / PromoteWaiters paths) that sit
// on every Bamboo hot path. These quantify the per-operation cost the
// paper bounds in Section 3.5 (retire latching within 0.8% of runtime,
// semaphore within 0.2%).
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "src/db/database.h"
#include "src/db/txn_handle.h"
#include "src/storage/row.h"

namespace bamboo {
namespace {

/// Single-threaded fixture: one database, one table, reusable txn blocks.
class LockMicro {
 public:
  explicit LockMicro(Protocol protocol, bool retire_writes = true,
                     uint64_t rows = kRows) {
    cfg_.protocol = protocol;
    cfg_.num_threads = 1;
    cfg_.bb_opt_no_retire_tail = !retire_writes;
    cfg_.log_enabled = false;
    db_ = std::make_unique<Database>(cfg_);
    Schema schema;
    schema.AddColumn("val", 8);
    table_ = db_->catalog()->CreateTable("t", schema);
    index_ = db_->catalog()->CreateIndex("t_pk", rows);
    for (uint64_t k = 0; k < rows; k++) db_->LoadRow(table_, index_, k);
    txn_.stats = &stats_;
  }

  static constexpr uint64_t kRows = 1024;

  Config cfg_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  HashIndex* index_ = nullptr;
  ThreadStats stats_;
  TxnCB txn_;
};

/// Publish the lock-table hot-path counters (latch contention, dependent
/// spills) per transaction, so before/after runs compare the constant
/// factors directly. (The fixture counts iterations, not commits: the
/// runner-side commit counter is not bumped by raw TxnHandle use.)
void ReportHotPathCounters(benchmark::State& state, const ThreadStats& s) {
  double txns = state.iterations() > 0
                    ? static_cast<double>(state.iterations())
                    : 1.0;
  state.counters["latch_spins/txn"] =
      static_cast<double>(s.latch_spins) / txns;
  state.counters["latch_waits/txn"] =
      static_cast<double>(s.latch_waits) / txns;
  state.counters["pool_spills/txn"] =
      static_cast<double>(s.pool_spills) / txns;
}

void BM_AcquireReleaseSh(benchmark::State& state) {
  LockMicro m(Protocol::kBamboo);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    const char* data = nullptr;
    benchmark::DoNotOptimize(handle.Read(m.index_, key, &data));
    handle.Commit(RC::kOk);
    key = (key + 1) % LockMicro::kRows;
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_AcquireReleaseSh);

void BM_AcquireRetireReleaseEx(benchmark::State& state) {
  LockMicro m(Protocol::kBamboo);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    char* data = nullptr;
    benchmark::DoNotOptimize(handle.Update(m.index_, key, &data));
    handle.WriteDone();  // LockRetire
    handle.Commit(RC::kOk);
    key = (key + 1) % LockMicro::kRows;
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_AcquireRetireReleaseEx);

void BM_AcquireReleaseExNoRetire(benchmark::State& state) {
  // Wound-Wait path: same code with retiring disabled -- the difference to
  // the benchmark above is the retire latch cost (Section 3.5, Opt 1/2).
  LockMicro m(Protocol::kWoundWait);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    char* data = nullptr;
    benchmark::DoNotOptimize(handle.Update(m.index_, key, &data));
    handle.Commit(RC::kOk);
    key = (key + 1) % LockMicro::kRows;
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_AcquireReleaseExNoRetire);

void BM_Txn16Ops(benchmark::State& state) {
  // A full 16-access transaction (the paper's default length), uncontended:
  // the per-transaction bookkeeping floor.
  LockMicro m(Protocol::kBamboo);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    m.txn_.planned_ops = 16;
    for (int i = 0; i < 16; i++) {
      key = (key + 17) % LockMicro::kRows;
      if (i % 2 == 0) {
        char* data = nullptr;
        handle.Update(m.index_, key, &data);
        handle.WriteDone();
      } else {
        const char* data = nullptr;
        handle.Read(m.index_, key, &data);
      }
    }
    handle.Commit(RC::kOk);
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_Txn16Ops);

void BM_Txn16OpsCold(benchmark::State& state) {
  // 8 reads, 8 fused RMWs and a commit over a 1M-row table with scattered
  // keys, so nearly every access misses the cache on its index slot and
  // its row. BM_Txn16Ops' 1024-row table stays cached and cannot show this
  // per-access storage cost.
  constexpr uint64_t kColdRows = 1000000;
  LockMicro m(Protocol::kBamboo, /*retire_writes=*/true, kColdRows);
  TxnHandle handle(m.db_.get(), &m.txn_);
  RmwFn bump = [](char* d, void*) {
    uint64_t v;
    std::memcpy(&v, d, 8);
    v++;
    std::memcpy(d, &v, 8);
  };
  uint64_t n = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    m.txn_.planned_ops = 16;
    for (int i = 0; i < 16; i++) {
      // Multiplicative scatter: consecutive draws land far apart.
      const uint64_t key = (++n * 0x9e3779b97f4a7c15ull >> 20) % kColdRows;
      if (i % 2 == 0) {
        const char* data = nullptr;
        benchmark::DoNotOptimize(handle.Read(m.index_, key, &data));
        benchmark::DoNotOptimize(data);
      } else {
        benchmark::DoNotOptimize(
            handle.UpdateRmw(m.index_, key, bump, nullptr));
      }
    }
    benchmark::DoNotOptimize(handle.Commit(RC::kOk));
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_Txn16OpsCold);

void BM_SiloTxn16Ops(benchmark::State& state) {
  LockMicro m(Protocol::kSilo);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    for (int i = 0; i < 16; i++) {
      key = (key + 17) % LockMicro::kRows;
      if (i % 2 == 0) {
        char* data = nullptr;
        handle.Update(m.index_, key, &data);
      } else {
        const char* data = nullptr;
        handle.Read(m.index_, key, &data);
      }
    }
    handle.Commit(RC::kOk);
  }
}
BENCHMARK(BM_SiloTxn16Ops);

void BM_RetiredDependencyChain(benchmark::State& state) {
  // The contended-hotspot primitive: a writer retires an uncommitted
  // update, a reader consumes it dirty (dependent registration + commit
  // semaphore), then both release in commit order. Exercises the retired
  // list, DepPush/drain, and the promote path. Retire and Release go
  // through the grant tokens, so this measures the O(1) release path the
  // descriptor API buys (no per-tuple list scan re-locates the request).
  LockMicro m(Protocol::kBamboo);
  LockManager* lm = m.db_->cc()->locks();
  Row* row = m.index_->Get(0);
  TxnCB writer, reader;
  writer.stats = &m.stats_;
  reader.stats = &m.stats_;
  char buf[8];
  uint64_t seq = 0;
  // Descriptors are plain value structs: build once, submit every round.
  AccessRequest wr;
  wr.row = row;
  wr.type = LockType::kEX;
  AccessRequest rr;
  rr.row = row;
  rr.type = LockType::kSH;
  rr.read_buf = buf;
  for (auto _ : state) {
    seq++;
    writer.txn_seq.store(seq, std::memory_order_relaxed);
    writer.ResetForAttempt(false);
    writer.ts.store(1, std::memory_order_relaxed);
    reader.txn_seq.store(seq, std::memory_order_relaxed);
    reader.ResetForAttempt(false);
    reader.ts.store(2, std::memory_order_relaxed);

    AccessGrant gw = lm->Submit(wr, &writer);
    benchmark::DoNotOptimize(gw.write_data);
    lm->Retire(row, gw.token);
    AccessGrant gr = lm->Submit(rr, &reader);
    benchmark::DoNotOptimize(gr.dirty);
    writer.status.store(TxnStatus::kCommitted, std::memory_order_release);
    lm->Release(row, gw.token, /*committed=*/true);
    reader.status.store(TxnStatus::kCommitted, std::memory_order_release);
    lm->Release(row, gr.token, /*committed=*/true);
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_RetiredDependencyChain);

void BM_MultiGet16(benchmark::State& state) {
  // 16 uncontended reads through the batch API: one sort + dedup pass and
  // a single pool reservation instead of 16 per-key entries. Compare with
  // BM_Txn16Ops for the batching win on the same footprint size.
  LockMicro m(Protocol::kBamboo);
  TxnHandle handle(m.db_.get(), &m.txn_);
  uint64_t key = 0;
  uint64_t keys[16];
  const char* data[16];
  for (auto _ : state) {
    m.txn_.txn_seq++;
    m.txn_.ResetForAttempt(false);
    m.db_->cc()->Begin(&m.txn_);
    m.txn_.planned_ops = 16;
    for (int i = 0; i < 16; i++) {
      key = (key + 17) % LockMicro::kRows;
      keys[i] = key;
    }
    benchmark::DoNotOptimize(handle.ReadMany(m.index_, keys, 16, data));
    handle.Commit(RC::kOk);
  }
  ReportHotPathCounters(state, m.stats_);
}
BENCHMARK(BM_MultiGet16);

void BM_IndexGet(benchmark::State& state) {
  LockMicro m(Protocol::kBamboo);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.index_->Get(key));
    key = (key + 1) % LockMicro::kRows;
  }
}
BENCHMARK(BM_IndexGet);

}  // namespace
}  // namespace bamboo

BENCHMARK_MAIN();
