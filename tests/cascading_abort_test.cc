// Cascading aborts and commit-dependency draining: the invariants TXSQL
// and Brook-2PL call out as the correctness core of early-lock-release.
// Part 1 drives the lock manager single-threaded; part 2 is a 4-thread
// stress test asserting serializability on a 3-row hotspot.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/db/lock_table.h"
#include "src/db/txn_handle.h"
#include "src/storage/row.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

/// Descriptor shorthand for the direct lock-manager scenarios.
AccessGrant Acquire(LockManager* lm, Row* row, TxnCB* t, LockType type,
                    char* buf) {
  AccessRequest req;
  req.row = row;
  req.type = type;
  req.read_buf = buf;
  return lm->Submit(req, t);
}

void TestRetiredWriterAbortCascades() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.bb_opt_raw_read = false;
  std::atomic<uint64_t> ts{0};
  std::atomic<uint64_t> cts{1};
  LockManager lm(cfg, &ts, &cts);
  Row row(8);
  char buf[8];

  TxnCB writer, reader;
  ThreadStats wstats, rstats;
  writer.stats = &wstats;
  reader.stats = &rstats;
  writer.ts.store(1);
  reader.ts.store(2);

  AccessGrant gw = Acquire(&lm, &row, &writer, LockType::kEX, buf);
  CHECK(gw.rc == AcqResult::kGranted);
  std::memset(gw.write_data, 0xab, 8);
  lm.Retire(&row, gw.token);

  AccessGrant gr = Acquire(&lm, &row, &reader, LockType::kSH, buf);
  CHECK(gr.rc == AcqResult::kGranted);
  CHECK(gr.dirty);
  CHECK_EQ(rstats.dirty_reads, 1u);
  CHECK_EQ(reader.commit_semaphore.load(), 1);

  // The retired writer aborts: the dependent reader must die with it.
  int wounded = lm.Release(&row, gw.token, /*committed=*/false);
  CHECK_EQ(wounded, 1);
  CHECK(reader.status.load() == TxnStatus::kAborted);
  CHECK(reader.abort_was_cascade.load());
  // The writer's dirty version is gone.
  CHECK_EQ(row.chain().size(), 0u);
  lm.Release(&row, gr.token, /*committed=*/false);
  CHECK_EQ(lm.RetiredCount(&row), 0u);
}

void TestCommitDependenciesDrainInOrder() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.bb_opt_raw_read = false;  // force the dirty read for R below
  std::atomic<uint64_t> ts{0};
  std::atomic<uint64_t> cts{1};
  LockManager lm(cfg, &ts, &cts);
  Row row(8);
  char buf[8];

  TxnCB w1, w2, r;
  ThreadStats s1, s2, s3;
  w1.stats = &s1;
  w2.stats = &s2;
  r.stats = &s3;
  w1.ts.store(1);
  w2.ts.store(2);
  r.ts.store(3);

  // W1 then W2 retire writes; R reads behind both.
  AccessGrant g1 = Acquire(&lm, &row, &w1, LockType::kEX, buf);
  *reinterpret_cast<uint64_t*>(g1.write_data) = 1;
  lm.Retire(&row, g1.token);
  AccessGrant g2 = Acquire(&lm, &row, &w2, LockType::kEX, buf);
  CHECK(g2.rc == AcqResult::kGranted);
  CHECK_EQ(w2.commit_semaphore.load(), 1);  // WAW dependency on W1
  *reinterpret_cast<uint64_t*>(g2.write_data) = 2;
  lm.Retire(&row, g2.token);
  AccessGrant g3 = Acquire(&lm, &row, &r, LockType::kSH, buf);
  CHECK(g3.rc == AcqResult::kGranted);
  CHECK_EQ(*reinterpret_cast<uint64_t*>(buf), 2u);  // newest dirty version
  // One edge only: W2 is a held-EX conflict, and its own barrier on W1
  // (asserted above) makes the W1 ordering transitive -- the cutoff stops
  // the walk there instead of registering O(chain) edges.
  CHECK_EQ(r.commit_semaphore.load(), 1);

  // Commits drain in timestamp (= retired list) order: W1 first.
  w1.status.store(TxnStatus::kCommitted);
  lm.Release(&row, g1.token, true);
  CHECK_EQ(w2.commit_semaphore.load(), 0);
  CHECK_EQ(r.commit_semaphore.load(), 1);  // still pinned behind W2
  uint64_t base1;
  std::memcpy(&base1, row.base(), 8);
  CHECK_EQ(base1, 1u);  // W1's write installed

  w2.status.store(TxnStatus::kCommitted);
  lm.Release(&row, g2.token, true);
  CHECK_EQ(r.commit_semaphore.load(), 0);
  uint64_t base2;
  std::memcpy(&base2, row.base(), 8);
  CHECK_EQ(base2, 2u);
  lm.Release(&row, g3.token, true);
}

/// The transitive-cutoff rule of RegisterBarrier, pinned deterministically:
/// retired readers are mutually unordered, so a writer behind several of
/// them needs one edge per reader -- but everything older than the newest
/// held-EX conflict is covered by that entry's own barriers, so the walk
/// stops there and a deep write chain registers O(1) edges per grant.
void TestBarrierCutoffAtNewestExConflict() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.bb_opt_raw_read = false;  // force dirty reads through the lock table
  std::atomic<uint64_t> ts{0};
  std::atomic<uint64_t> cts{1};
  LockManager lm(cfg, &ts, &cts);
  char buf[8];

  // Two retired readers, no writer: a new writer must barrier on both --
  // neither reader orders the other, so no cutoff applies between them.
  {
    Row row(8);
    TxnCB r1, r2, w3;
    ThreadStats s1, s2, s3;
    r1.stats = &s1;
    r2.stats = &s2;
    w3.stats = &s3;
    r1.ts.store(1);
    r2.ts.store(2);
    w3.ts.store(3);
    AccessGrant gr1 = Acquire(&lm, &row, &r1, LockType::kSH, buf);
    AccessGrant gr2 = Acquire(&lm, &row, &r2, LockType::kSH, buf);
    CHECK(gr1.rc == AcqResult::kGranted);
    CHECK(gr2.rc == AcqResult::kGranted);
    CHECK_EQ(lm.RetiredCount(&row), 2u);  // Opt 1: reads retire on grant
    AccessGrant gw3 = Acquire(&lm, &row, &w3, LockType::kEX, buf);
    CHECK(gw3.rc == AcqResult::kGranted);
    CHECK_EQ(w3.commit_semaphore.load(), 2);  // one edge per retired reader
    r1.status.store(TxnStatus::kCommitted);
    r2.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gr1.token, true);
    lm.Release(&row, gr2.token, true);
    CHECK_EQ(w3.commit_semaphore.load(), 0);
    w3.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gw3.token, true);
  }

  // Chain [W1(EX), R2(SH)]: the next writer barriers on the reader and on
  // W1 (walk reaches the EX and stops *after* taking that edge); a fourth
  // writer behind [.., W3(EX)] then needs exactly one edge -- the cutoff.
  {
    Row row(8);
    TxnCB w1, r2, w3, w4;
    ThreadStats s1, s2, s3, s4;
    w1.stats = &s1;
    r2.stats = &s2;
    w3.stats = &s3;
    w4.stats = &s4;
    w1.ts.store(1);
    r2.ts.store(2);
    w3.ts.store(3);
    w4.ts.store(4);
    AccessGrant gw1 = Acquire(&lm, &row, &w1, LockType::kEX, buf);
    CHECK(gw1.rc == AcqResult::kGranted);
    std::memset(gw1.write_data, 0x11, 8);
    lm.Retire(&row, gw1.token);
    AccessGrant gr2 = Acquire(&lm, &row, &r2, LockType::kSH, buf);
    CHECK(gr2.rc == AcqResult::kGranted);
    CHECK(gr2.dirty);
    CHECK_EQ(r2.commit_semaphore.load(), 1);  // behind W1
    AccessGrant gw3 = Acquire(&lm, &row, &w3, LockType::kEX, buf);
    CHECK(gw3.rc == AcqResult::kGranted);
    CHECK_EQ(w3.commit_semaphore.load(), 2);  // R2, then W1 cuts off
    std::memset(gw3.write_data, 0x33, 8);
    lm.Retire(&row, gw3.token);
    AccessGrant gw4 = Acquire(&lm, &row, &w4, LockType::kEX, buf);
    CHECK(gw4.rc == AcqResult::kGranted);
    CHECK_EQ(w4.commit_semaphore.load(), 1);  // W3 alone covers the chain

    // Drains still arrive in chain order through the transitive edges.
    w1.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gw1.token, true);
    CHECK_EQ(r2.commit_semaphore.load(), 0);
    CHECK_EQ(w3.commit_semaphore.load(), 1);  // still pinned behind R2
    CHECK_EQ(w4.commit_semaphore.load(), 1);
    r2.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gr2.token, true);
    CHECK_EQ(w3.commit_semaphore.load(), 0);
    w3.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gw3.token, true);
    CHECK_EQ(w4.commit_semaphore.load(), 0);
    w4.status.store(TxnStatus::kCommitted);
    lm.Release(&row, gw4.token, true);
  }
}

// --- 4-thread serializability stress test ---------------------------------
//
// Three hot rows hold a balance each; every writer transaction moves a
// random amount between two of them (total conserved); every reader
// transaction reads all three. Any committed reader observing a total
// different from the invariant is a serializability violation. Dirty reads
// are allowed while running -- but a reader that consumed an aborted
// writer's version must itself be cascade-aborted, never commit.
//
// Runs twice: with Opt 3 (raw reads) off and on. The on-configuration is
// the full four-optimization setup every Bamboo bench measures; it stays
// strictly serializable because raw reads serve a commit-timestamp
// snapshot pinned at the reader's first raw read.
void StressSerializableHotspot(bool raw_read) {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.num_threads = 4;
  cfg.bb_opt_raw_read = raw_read;

  Database db(cfg);
  Schema schema;
  schema.AddColumn("balance", 8);
  Table* table = db.catalog()->CreateTable("hot", schema);
  HashIndex* index = db.catalog()->CreateIndex("hot_pk", 3);
  constexpr uint64_t kInitial = 1000;
  for (uint64_t k = 0; k < 3; k++) {
    Row* row = db.LoadRow(table, index, k);
    std::memcpy(row->base(), &kInitial, 8);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> reader_commits{0};
  std::atomic<uint64_t> writer_commits{0};
  std::atomic<uint64_t> raw_reads{0};

  auto worker = [&](int id) {
    ThreadStats stats;
    TxnCB txn;
    txn.stats = &stats;
    TxnHandle h(&db, &txn);
    Rng rng(0xdeadull + static_cast<uint64_t>(id));
    while (!stop.load(std::memory_order_acquire)) {
      txn.txn_seq.fetch_add(1, std::memory_order_relaxed);
      txn.ResetForAttempt(false);
      db.cc()->Begin(&txn);
      bool is_reader = rng.NextDouble() < 0.5;
      if (is_reader) {
        txn.planned_ops = 3;
        uint64_t total = 0;
        uint64_t vals[3] = {0, 0, 0};
        bool raw[3] = {false, false, false};
        bool ok = true;
        for (uint64_t k = 0; k < 3 && ok; k++) {
          const char* data = nullptr;
          uint64_t raw_before = stats.raw_reads;
          ok = h.Read(index, k, &data) == RC::kOk;
          if (ok) {
            uint64_t v;
            std::memcpy(&v, data, 8);
            vals[k] = v;
            raw[k] = stats.raw_reads != raw_before;
            total += v;
          }
        }
        RC rc = h.Commit(ok ? RC::kOk : RC::kAbort);
        if (rc == RC::kOk) {
          reader_commits.fetch_add(1);
          if (total != 3 * kInitial) {
            violations.fetch_add(1);
            std::printf(
                "  VIOLATION total=%llu vals=%llu/%llu/%llu raw=%d%d%d "
                "snap=%llu sem=%lld\n",
                (unsigned long long)total, (unsigned long long)vals[0],
                (unsigned long long)vals[1], (unsigned long long)vals[2],
                raw[0], raw[1], raw[2],
                (unsigned long long)txn.raw_snapshot_cts.load(),
                (long long)txn.commit_semaphore.load());
          }
        }
      } else {
        txn.planned_ops = 2;
        uint64_t from = rng.Uniform(3);
        uint64_t to = (from + 1 + rng.Uniform(2)) % 3;
        uint64_t amount = 1 + rng.Uniform(50);
        bool ok = true;
        char* src = nullptr;
        char* dst = nullptr;
        ok = h.Update(index, from, &src) == RC::kOk;
        if (ok) {
          uint64_t v;
          std::memcpy(&v, src, 8);
          v -= amount;
          std::memcpy(src, &v, 8);
          h.WriteDone();
          ok = h.Update(index, to, &dst) == RC::kOk;
        }
        if (ok) {
          uint64_t v;
          std::memcpy(&v, dst, 8);
          v += amount;
          std::memcpy(dst, &v, 8);
          h.WriteDone();
        }
        if (h.Commit(ok ? RC::kOk : RC::kAbort) == RC::kOk) {
          writer_commits.fetch_add(1);
        }
      }
    }
    raw_reads.fetch_add(stats.raw_reads);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) threads.emplace_back(worker, i);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  CHECK_EQ(violations.load(), 0u);
  CHECK(reader_commits.load() > 0);
  CHECK(writer_commits.load() > 0);
  // Final state: all versions drained, base checksum intact.
  uint64_t total = 0;
  for (uint64_t k = 0; k < 3; k++) {
    Row* row = index->Get(k);
    CHECK_EQ(row->chain().size(), 0u);
    uint64_t v;
    std::memcpy(&v, row->base(), 8);
    total += v;
  }
  CHECK_EQ(total, 3 * kInitial);
  std::printf("  stress(raw_read=%d): %llu reader / %llu writer commits, "
              "%llu raw reads\n",
              raw_read ? 1 : 0,
              static_cast<unsigned long long>(reader_commits.load()),
              static_cast<unsigned long long>(writer_commits.load()),
              static_cast<unsigned long long>(raw_reads.load()));
}

void TestStressSerializableHotspot() { StressSerializableHotspot(false); }
void TestStressSerializableHotspotRawRead() { StressSerializableHotspot(true); }

// --- Opt-3 cross-row snapshot unit tests -----------------------------------

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void WriteU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

/// Start an attempt the way the bench runner does, then force a priority
/// timestamp so the wound-wait decisions in the scenario are deterministic.
void BeginWithTs(Database* db, TxnCB* cb, uint64_t ts) {
  cb->txn_seq.fetch_add(1, std::memory_order_relaxed);
  cb->ResetForAttempt(false);
  db->cc()->Begin(cb);
  cb->ts.store(ts, std::memory_order_relaxed);
}

/// The cross-row anomaly the per-row Opt 3 allowed: a reader raw-reads row
/// A *before* writer W commits and row B *after*, observing half of W's
/// transfer. With the snapshot rule the second read still goes through (it
/// is an ordinary locked read) but poisons the reader's snapshot, so the
/// reader must abort instead of committing the broken total.
void TestRawReadCrossRowSnapshotForbidsAnomaly() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;  // all four optimizations on
  Database db(cfg);
  Schema schema;
  schema.AddColumn("balance", 8);
  Table* table = db.catalog()->CreateTable("acct", schema);
  HashIndex* index = db.catalog()->CreateIndex("acct_pk", 2);
  for (uint64_t k = 0; k < 2; k++) {
    WriteU64(db.LoadRow(table, index, k)->base(), 1000);
  }

  TxnCB wcb, rcb;
  ThreadStats wstats, rstats;
  wcb.stats = &wstats;
  rcb.stats = &rstats;
  TxnHandle w(&db, &wcb), r(&db, &rcb);
  BeginWithTs(&db, &wcb, 2);
  BeginWithTs(&db, &rcb, 1);  // the reader is older: raw reads may fire

  // W moves 100 from row 0 to row 1; both writes retire (early release).
  char* d = nullptr;
  CHECK(w.Update(index, 0, &d) == RC::kOk);
  WriteU64(d, 900);
  w.WriteDone();
  CHECK(w.Update(index, 1, &d) == RC::kOk);
  WriteU64(d, 1100);
  w.WriteDone();

  // The older reader's first read is served raw: the committed pre-W image
  // of row 0, and a snapshot pin.
  const char* rd = nullptr;
  CHECK(r.Read(index, 0, &rd) == RC::kOk);
  CHECK_EQ(ReadU64(rd), 1000u);
  CHECK_EQ(rstats.raw_reads, 1u);
  CHECK(rcb.raw_snapshot_cts.load() != 0);

  // W commits and releases: both rows now hold post-transfer values.
  CHECK(w.Commit(RC::kOk) == RC::kOk);

  // Row 1 no longer has any retired writer, so the reader takes a normal
  // locked read and observes state newer than its snapshot...
  CHECK(r.Read(index, 1, &rd) == RC::kOk);
  CHECK_EQ(ReadU64(rd), 1100u);  // the half-transfer view: total would be 2100
  // ...which the snapshot rule catches at commit. The old per-row behavior
  // committed here, which is exactly the serializability hole.
  CHECK(r.Commit(RC::kOk) == RC::kAbort);
}

/// The consistent side of the rule: when the image a snapshot needs is
/// still reachable -- committed base, or the one retained pre-overwrite
/// image -- raw reads across rows serve one commit-timestamp snapshot and
/// the reader commits fine.
void TestRawReadServesConsistentSnapshot() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("balance", 8);
  Table* table = db.catalog()->CreateTable("acct", schema);
  HashIndex* index = db.catalog()->CreateIndex("acct_pk", 2);
  for (uint64_t k = 0; k < 2; k++) {
    WriteU64(db.LoadRow(table, index, k)->base(), 1000);
  }

  TxnCB rcb, w1cb, w2cb, w3cb;
  ThreadStats rstats, w1stats, w2stats, w3stats;
  rcb.stats = &rstats;
  w1cb.stats = &w1stats;
  w2cb.stats = &w2stats;
  w3cb.stats = &w3stats;
  TxnHandle r(&db, &rcb), w1(&db, &w1cb), w2(&db, &w2cb), w3(&db, &w3cb);
  BeginWithTs(&db, &rcb, 1);
  BeginWithTs(&db, &w1cb, 2);
  BeginWithTs(&db, &w2cb, 3);
  BeginWithTs(&db, &w3cb, 4);

  // W1 retires an uncommitted write on row 0 so the reader's first read is
  // raw (and pins the snapshot).
  char* d = nullptr;
  CHECK(w1.Update(index, 0, &d) == RC::kOk);
  WriteU64(d, 900);
  w1.WriteDone();
  const char* rd = nullptr;
  CHECK(r.Read(index, 0, &rd) == RC::kOk);
  CHECK_EQ(ReadU64(rd), 1000u);
  CHECK_EQ(rstats.raw_reads, 1u);

  // W2 commits a write to row 1 *after* the pin: the base moves past the
  // snapshot, but the overwritten image is retained.
  CHECK(w2.Update(index, 1, &d) == RC::kOk);
  WriteU64(d, 1100);
  w2.WriteDone();
  CHECK(w2.Commit(RC::kOk) == RC::kOk);

  // W3 retires another uncommitted write on row 1, so the reader's second
  // read takes the raw path again -- and is served the retained
  // pre-snapshot image, not W2's newer base.
  CHECK(w3.Update(index, 1, &d) == RC::kOk);
  WriteU64(d, 1200);
  w3.WriteDone();
  CHECK(r.Read(index, 1, &rd) == RC::kOk);
  CHECK_EQ(ReadU64(rd), 1000u);
  CHECK_EQ(rstats.raw_reads, 2u);

  // Both raw reads sit at one snapshot: the total is consistent and the
  // reader commits.
  CHECK(r.Commit(RC::kOk) == RC::kOk);

  // Cleanup: the pending writers commit; final balances are theirs.
  CHECK(w1.Commit(RC::kOk) == RC::kOk);
  CHECK(w3.Commit(RC::kOk) == RC::kOk);
  CHECK_EQ(ReadU64(index->Get(0)->base()), 900u);
  CHECK_EQ(ReadU64(index->Get(1)->base()), 1200u);
}

/// Pinned transactions are read-only. A write after a raw read would have
/// to serialize after commits the raw reads ignored (footprint-free raw
/// reads make that write skew invisible to any per-row check), so the
/// write aborts at the acquire -- without wounding anyone -- and the
/// retry skips the raw path; symmetrically, a transaction that already
/// wrote never pins a snapshot.
void TestRawReadMakesTransactionReadOnly() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("balance", 8);
  Table* table = db.catalog()->CreateTable("acct", schema);
  HashIndex* index = db.catalog()->CreateIndex("acct_pk", 2);
  for (uint64_t k = 0; k < 2; k++) {
    WriteU64(db.LoadRow(table, index, k)->base(), 1000);
  }
  const uint64_t kX = 0, kY = 1;
  LockManager* lm = db.cc()->locks();
  Row* row_y = index->Get(kY);

  TxnCB wcb, w2cb, w3cb;
  ThreadStats wstats, w2stats, w3stats;
  wcb.stats = &wstats;
  w2cb.stats = &w2stats;
  w3cb.stats = &w3stats;
  TxnHandle w(&db, &wcb), w2(&db, &w2cb), w3(&db, &w3cb);
  BeginWithTs(&db, &wcb, 1);   // oldest: its Y read takes the raw path
  BeginWithTs(&db, &w2cb, 4);  // youngest uncommitted writer on Y

  // W2 retires an uncommitted write on Y; W raw-reads it and pins.
  char* d = nullptr;
  CHECK(w2.Update(index, kY, &d) == RC::kOk);
  WriteU64(d, 1100);
  w2.WriteDone();
  const char* rd = nullptr;
  CHECK(w.Read(index, kY, &rd) == RC::kOk);
  CHECK_EQ(ReadU64(rd), 1000u);
  CHECK_EQ(wstats.raw_reads, 1u);

  // The pinned W tries to write X: immediate abort, nobody wounded, and
  // the raw path is suppressed for the retry.
  CHECK(w.Update(index, kX, &d) == RC::kAbort);
  CHECK(wcb.IsAborted());
  CHECK(w2cb.status.load() != TxnStatus::kAborted);
  CHECK(wcb.raw_suppressed);
  CHECK(w.Commit(RC::kAbort) == RC::kAbort);  // roll the attempt back

  // Retry (timestamp and suppression kept): the same read now takes the
  // ordinary wound/wait route -- the younger retired writer gets wounded
  // and the reader waits instead of being served raw.
  wcb.txn_seq.fetch_add(1, std::memory_order_relaxed);
  wcb.ResetForAttempt(/*keep_ts=*/true);
  db.cc()->Begin(&wcb);
  char buf[8];
  AccessGrant g = Acquire(lm, row_y, &wcb, LockType::kSH, buf);
  CHECK(g.rc == AcqResult::kWait);
  CHECK_EQ(wstats.raw_reads, 1u);  // no new raw read
  CHECK(w2cb.status.load() == TxnStatus::kAborted);
  lm->Release(row_y, g.token, /*committed=*/false);  // drop the waiting request
  CHECK(w2.Commit(RC::kOk) == RC::kAbort);           // wounded: rolls back

  // A transaction that already wrote never pins: its read behind an
  // uncommitted younger retired writer goes to the waiters, not raw.
  BeginWithTs(&db, &w2cb, 4);
  CHECK(w2.Update(index, kY, &d) == RC::kOk);
  w2.WriteDone();
  BeginWithTs(&db, &w3cb, 3);
  CHECK(w3.Update(index, kX, &d) == RC::kOk);
  w3.WriteDone();
  g = Acquire(lm, row_y, &w3cb, LockType::kSH, buf);
  CHECK(g.rc == AcqResult::kWait);
  CHECK_EQ(w3stats.raw_reads, 0u);
  CHECK_EQ(w3cb.raw_snapshot_cts.load(), 0u);
  lm->Release(row_y, g.token, /*committed=*/false);
  CHECK(w3.Commit(RC::kAbort) == RC::kAbort);
  CHECK(w2.Commit(RC::kOk) == RC::kAbort);  // wounded by w3's fall-through
}

/// When even the retained image is gone (two commits landed on the row
/// since the pin), the raw path must refuse: the reader aborts -- without
/// wounding the younger retired writer -- and retries on a fresh snapshot.
void TestRawReadAbortsWhenSnapshotImageGone() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  std::atomic<uint64_t> ts{0};
  std::atomic<uint64_t> cts{1};
  LockManager lm(cfg, &ts, &cts);
  Row row_a(8), row_b(8);
  char buf[8];

  TxnCB reader, wa, wb, wc, wd;
  ThreadStats rstats;
  reader.stats = &rstats;
  reader.ts.store(1);
  wa.ts.store(2);
  wb.ts.store(3);
  wc.ts.store(4);
  wd.ts.store(5);

  // Manual commit: stamp the CTS the way TxnHandle::Commit does, then
  // release so the stamp lands on the row.
  auto commit_on = [&](TxnCB* t, Row* row, GrantToken token) {
    t->status.store(TxnStatus::kCommitted);
    t->commit_cts.store(cts.fetch_add(1) + 1);
    lm.Release(row, token, /*committed=*/true);
  };

  // Pin the reader's snapshot with a raw read on row A (behind wa's
  // uncommitted retired write).
  AccessGrant ga = Acquire(&lm, &row_a, &wa, LockType::kEX, buf);
  CHECK(ga.rc == AcqResult::kGranted);
  lm.Retire(&row_a, ga.token);
  AccessGrant g = Acquire(&lm, &row_a, &reader, LockType::kSH, buf);
  CHECK(g.rc == AcqResult::kGranted);
  CHECK(!g.took_lock);
  CHECK(g.token == nullptr);  // footprint-free: nothing to release
  CHECK_EQ(rstats.raw_reads, 1u);
  const uint64_t snap = reader.raw_snapshot_cts.load();
  CHECK(snap != 0);

  // Two commits land on row B after the pin: base and the retained image
  // are both newer than the snapshot now.
  AccessGrant gb = Acquire(&lm, &row_b, &wb, LockType::kEX, buf);
  lm.Retire(&row_b, gb.token);
  commit_on(&wb, &row_b, gb.token);
  AccessGrant gc = Acquire(&lm, &row_b, &wc, LockType::kEX, buf);
  lm.Retire(&row_b, gc.token);
  commit_on(&wc, &row_b, gc.token);
  CHECK(row_b.base_cts() > snap);
  CHECK(row_b.snap_cts() > snap);

  // A third, uncommitted retired writer makes the reader's request take
  // the raw path -- which must now refuse and abort the reader.
  AccessGrant gd = Acquire(&lm, &row_b, &wd, LockType::kEX, buf);
  lm.Retire(&row_b, gd.token);
  g = Acquire(&lm, &row_b, &reader, LockType::kSH, buf);
  CHECK(g.rc == AcqResult::kAbort);
  // The younger retired writer was not wounded: refusing the snapshot is
  // the reader's problem, not the writer's.
  CHECK(wd.status.load() != TxnStatus::kAborted);

  // Cleanup.
  lm.Release(&row_a, ga.token, /*committed=*/false);
  lm.Release(&row_b, gd.token, /*committed=*/false);
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestRetiredWriterAbortCascades);
  RUN_TEST(TestCommitDependenciesDrainInOrder);
  RUN_TEST(TestBarrierCutoffAtNewestExConflict);
  RUN_TEST(TestRawReadCrossRowSnapshotForbidsAnomaly);
  RUN_TEST(TestRawReadServesConsistentSnapshot);
  RUN_TEST(TestRawReadMakesTransactionReadOnly);
  RUN_TEST(TestRawReadAbortsWhenSnapshotImageGone);
  RUN_TEST(TestStressSerializableHotspot);
  RUN_TEST(TestStressSerializableHotspotRawRead);
  return bamboo::test::Summary("cascading_abort_test");
}
