// WAL unit coverage: record codec round-trip, checksum rejection, torn-tail
// truncation, the failpoint countdown, and the epoch watermark math --
// including the Bamboo durable-ack rule that a dirty reader's ack epoch is
// gated by its retired-chain dependency's. End-to-end: commit through
// TxnHandle, destroy the Database, replay the log into a fresh one.
#include "src/db/wal.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/failpoint.h"
#include "src/db/database.h"
#include "src/db/txn_handle.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

std::string MakeTmpDir(const char* tag) {
  std::string dir = std::string("wal_test_") + tag + "_" +
                    std::to_string(static_cast<long>(getpid()));
  mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveTmpDir(const std::string& dir) {
  if (DIR* d = opendir(dir.c_str())) {
    while (struct dirent* ent = readdir(d)) {
      if (ent->d_name[0] == '.') continue;
      std::remove((dir + "/" + ent->d_name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

void Bump(char* d, void*) {
  uint64_t v;
  std::memcpy(&v, d, 8);
  v++;
  std::memcpy(d, &v, 8);
}

uint64_t RowValue(const Row* row) {
  uint64_t v;
  std::memcpy(&v, row->base(), 8);
  return v;
}

/// One transaction driver following the runner's per-attempt protocol.
struct Actor {
  TxnCB cb;
  TxnHandle h;
  explicit Actor(Database* db) : h(db, &cb) {}
  void Begin(Database* db) {
    cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
    cb.ResetForAttempt(/*keep_ts=*/false);
    db->cc()->Begin(&cb);
  }
};

Config LogConfig(const std::string& dir) {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.log_enabled = true;
  cfg.log_dir = dir;
  cfg.log_epoch_us = 200;
  // Force true dirty reads (dependencies) instead of Opt-3 snapshot serves.
  cfg.bb_opt_raw_read = false;
  return cfg;
}

void TestFailpointCountdown() {
  // main() armed fp_unit_test:2 before any Eval ran: the second evaluation
  // fires, every other one stays quiet.
  CHECK(!Failpoints::Eval("fp_unit_test"));
  CHECK(Failpoints::Eval("fp_unit_test"));
  CHECK(!Failpoints::Eval("fp_unit_test"));
  CHECK(!Failpoints::Eval("never_armed"));
}

void TestRecordRoundTrip() {
  const char img[] = "0123456789abcdef";
  walfmt::Record in;
  in.epoch = 42;
  in.cts = 1234567;
  in.table_id = 7;
  in.key = 0xdeadbeefull;
  in.image = img;
  in.image_size = sizeof(img);

  std::vector<char> buf;
  walfmt::Append(&buf, in);
  walfmt::Append(&buf, in);  // two records back to back

  walfmt::Record out;
  int64_t used = walfmt::Decode(buf.data(), buf.size(), 0, &out);
  CHECK(used > 0);
  CHECK_EQ(out.epoch, in.epoch);
  CHECK_EQ(out.cts, in.cts);
  CHECK_EQ(out.table_id, in.table_id);
  CHECK_EQ(out.key, in.key);
  CHECK_EQ(out.image_size, in.image_size);
  CHECK(std::memcmp(out.image, img, sizeof(img)) == 0);
  int64_t used2 =
      walfmt::Decode(buf.data(), buf.size(), static_cast<size_t>(used), &out);
  CHECK_EQ(used2, used);
  CHECK_EQ(static_cast<size_t>(used + used2), buf.size());
}

void TestChecksumRejection() {
  walfmt::Record in;
  in.epoch = 1;
  in.cts = 2;
  in.table_id = 3;
  in.key = 4;
  const char img[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  in.image = img;
  in.image_size = 8;
  std::vector<char> buf;
  walfmt::Append(&buf, in);

  walfmt::Record out;
  CHECK(walfmt::Decode(buf.data(), buf.size(), 0, &out) > 0);
  buf[buf.size() / 2] ^= 0x40;  // corrupt one body byte
  CHECK_EQ(walfmt::Decode(buf.data(), buf.size(), 0, &out), -1);
}

void TestTornTailDecode() {
  walfmt::Record in;
  in.epoch = 9;
  in.table_id = 1;
  const char img[16] = {0};
  in.image = img;
  in.image_size = 16;
  std::vector<char> buf;
  walfmt::Append(&buf, in);

  walfmt::Record out;
  // Any prefix shorter than the full record is torn, not corrupt.
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{7}, size_t{0}}) {
    CHECK_EQ(walfmt::Decode(buf.data(), cut, 0, &out), 0);
  }
}

void TestEpochWatermarkAndDependencyAck() {
  std::string dir = MakeTmpDir("epoch");
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    CHECK(db.wal() != nullptr);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < 4; k++) db.LoadRow(tbl, idx, k);

    // Writer A retires an EX write; B consumes it dirty (dependency), then
    // writes a second row itself.
    Actor a(&db), b(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
    b.Begin(&db);
    const char* d = nullptr;
    CHECK(b.h.Read(idx, 0, &d) == RC::kOk);
    CHECK_EQ(b.cb.commit_semaphore.load(), 1);  // barriered behind A
    CHECK(b.h.UpdateRmw(idx, 1, Bump, nullptr) == RC::kOk);

    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(a.cb.log_epoch >= 1);
    CHECK_EQ(a.cb.log_ack_epoch, a.cb.log_epoch);
    // A's release propagated its ack epoch before lifting B's barrier.
    CHECK_EQ(b.cb.dep_log_epoch.load(), a.cb.log_ack_epoch);

    CHECK(b.h.Commit(RC::kOk) == RC::kOk);
    CHECK(b.cb.log_epoch >= a.cb.log_epoch);  // epochs are monotone
    CHECK(b.cb.log_ack_epoch >= a.cb.log_ack_epoch);
    CHECK(b.cb.log_ack_epoch >= b.cb.log_epoch);

    // Read-only dependent: logs nothing, still gated by its dependency.
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 2, Bump, nullptr) == RC::kOk);
    b.Begin(&db);
    CHECK(b.h.Read(idx, 2, &d) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(b.h.Commit(RC::kOk) == RC::kOk);
    CHECK_EQ(b.cb.log_epoch, uint64_t{0});
    CHECK_EQ(b.cb.log_ack_epoch, a.cb.log_ack_epoch);

    db.wal()->WaitDurable(b.cb.log_ack_epoch);
    CHECK(db.wal()->durable_epoch() >= b.cb.log_ack_epoch);
    CHECK(!db.wal()->failed());

    ThreadStats ts;
    db.wal()->FillStats(&ts);
    CHECK(ts.log_bytes > 0);
    CHECK(ts.log_fsyncs >= 1);
  }
  RemoveTmpDir(dir);
}

/// Cross-shard dependency ack: with the lock table sharded, a dirty
/// reader's retired-chain dependency can live in a different shard than
/// the row the reader itself writes. Ack-epoch propagation rides the
/// per-request barrier records (never a shard latch), so the durable-ack
/// rule must hold unchanged across a chain that hops shards: each
/// dependent's ack epoch covers its dependency's.
void TestCrossShardDependencyAck() {
  std::string dir = MakeTmpDir("xshard");
  {
    Config cfg = LogConfig(dir);
    cfg.lock_shards = 4;
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 64);
    for (uint64_t k = 0; k < 32; k++) db.LoadRow(tbl, idx, k);
    LockManager* lm = db.cc()->locks();
    CHECK_EQ(lm->shard_count(), 4u);

    // Pick two keys that route to different shards.
    uint64_t k0 = 0, k1 = 0;
    bool found = false;
    for (uint64_t b = 1; b < 32 && !found; b++) {
      if (lm->ShardIndexOf(idx->Get(b)) != lm->ShardIndexOf(idx->Get(k0))) {
        k1 = b;
        found = true;
      }
    }
    CHECK(found);

    // A retires a write on k0; B consumes it dirty (dependency recorded in
    // k0's shard) and retires its own write on k1 (a different shard); C
    // consumes *that* dirty -- a dependency chain spanning two shards.
    Actor a(&db), b(&db), c(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, k0, Bump, nullptr) == RC::kOk);
    b.Begin(&db);
    const char* d = nullptr;
    CHECK(b.h.Read(idx, k0, &d) == RC::kOk);
    CHECK_EQ(b.cb.commit_semaphore.load(), 1);
    CHECK(b.h.UpdateRmw(idx, k1, Bump, nullptr) == RC::kOk);
    c.Begin(&db);
    CHECK(c.h.Read(idx, k1, &d) == RC::kOk);
    CHECK_EQ(c.cb.commit_semaphore.load(), 1);

    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(a.cb.log_epoch >= 1);
    CHECK_EQ(b.cb.dep_log_epoch.load(), a.cb.log_ack_epoch);
    CHECK(b.h.Commit(RC::kOk) == RC::kOk);
    CHECK(b.cb.log_ack_epoch >= a.cb.log_ack_epoch);
    CHECK(b.cb.log_ack_epoch >= b.cb.log_epoch);
    // B's release in k1's shard handed C the ack epoch B computed from its
    // own records *and* its k0 dependency -- transitivity across shards.
    CHECK_EQ(c.cb.dep_log_epoch.load(), b.cb.log_ack_epoch);
    CHECK(c.h.Commit(RC::kOk) == RC::kOk);
    CHECK_EQ(c.cb.log_epoch, uint64_t{0});  // read-only, logs nothing
    CHECK(c.cb.log_ack_epoch >= b.cb.log_ack_epoch);

    db.wal()->WaitDurable(c.cb.log_ack_epoch);
    CHECK(db.wal()->durable_epoch() >= c.cb.log_ack_epoch);
    CHECK(!db.wal()->failed());
  }
  RemoveTmpDir(dir);
}

void TestRecoveryReplay() {
  std::string dir = MakeTmpDir("replay");
  uint64_t expected[4] = {0, 0, 0, 0};
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < 4; k++) db.LoadRow(tbl, idx, k);
    Actor a(&db);
    for (int i = 0; i < 10; i++) {
      a.Begin(&db);
      uint64_t key = static_cast<uint64_t>(i) % 4;
      CHECK(a.h.UpdateRmw(idx, key, Bump, nullptr) == RC::kOk);
      CHECK(a.h.Commit(RC::kOk) == RC::kOk);
      expected[key]++;
    }
  }  // Database dtor: the log writer drains and fsyncs everything

  Config cfg2;
  cfg2.protocol = Protocol::kBamboo;  // logging off: don't truncate the log
  Database db2(cfg2);
  Schema s;
  s.AddColumn("val", 8);
  Table* tbl = db2.catalog()->CreateTable("t", s);
  HashIndex* idx = db2.catalog()->CreateIndex("t_pk", 16);
  Row* rows[4];
  for (uint64_t k = 0; k < 4; k++) rows[k] = db2.LoadRow(tbl, idx, k);

  RecoveryResult res = db2.Recover(dir);
  CHECK(res.durable_epoch >= 1);
  CHECK(!res.tail_torn);
  CHECK_EQ(res.truncated_bytes, 0u);
  CHECK_EQ(res.records_applied + res.records_skipped, 10u);
  CHECK(res.max_cts >= 10);
  for (int k = 0; k < 4; k++) {
    CHECK_EQ(RowValue(rows[k]), expected[k]);
    CHECK(rows[k]->base_cts() > 0);
  }
  // The CTS authority resumed past every replayed stamp.
  CHECK_EQ(db2.cc()->NextCts(), res.max_cts + 1);
  RemoveTmpDir(dir);
}

void TestRecoveryRefusesTornTail() {
  std::string dir = MakeTmpDir("torn");
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    db.LoadRow(tbl, idx, 0);
    Actor a(&db);
    for (int i = 0; i < 3; i++) {
      a.Begin(&db);
      CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
      CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    }
  }

  // Garbage appended after the last marker: refused, nothing else lost.
  std::string path = Wal::SegmentPath(dir, 1);
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    CHECK(f != nullptr);
    std::fputs("garbage!", f);
    std::fclose(f);
  }
  {
    Config cfg2;
    Database db2(cfg2);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db2.catalog()->CreateTable("t", s);
    HashIndex* idx = db2.catalog()->CreateIndex("t_pk", 16);
    Row* row = db2.LoadRow(tbl, idx, 0);
    RecoveryResult res = db2.Recover(dir);
    CHECK(res.tail_torn);
    CHECK_EQ(res.truncated_bytes, 8u);
    CHECK_EQ(RowValue(row), 3u);
  }

  // Truncation into the tail record/marker: the incomplete epoch is
  // refused; the recovered value is a consistent prefix (<= 3).
  struct stat st;
  CHECK_EQ(stat(path.c_str(), &st), 0);
  CHECK_EQ(truncate(path.c_str(), st.st_size - 12), 0);
  {
    Config cfg3;
    Database db3(cfg3);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db3.catalog()->CreateTable("t", s);
    HashIndex* idx = db3.catalog()->CreateIndex("t_pk", 16);
    Row* row = db3.LoadRow(tbl, idx, 0);
    RecoveryResult res = db3.Recover(dir);
    CHECK(res.tail_torn);
    CHECK(RowValue(row) <= 3u);
    CHECK_EQ(RowValue(row), res.records_applied);
  }
  RemoveTmpDir(dir);
}

/// A transient fsync fault must be absorbed: retry, recover to kHealthy,
/// keep acknowledging durability, count the retry.
void TestTransientFaultRetries() {
  std::string dir = MakeTmpDir("transient");
  {
    Config cfg = LogConfig(dir);
    cfg.log_retry_backoff_us = 10;
    Database db(cfg);
    CHECK(db.wal() != nullptr);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    db.LoadRow(tbl, idx, 0);

    // One-shot: exactly the first fsync fails, every retry succeeds.
    CHECK(Failpoints::ArmForTest("wal_fsync_error:1"));
    Actor a(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(a.cb.log_epoch >= 1);
    CHECK(db.wal()->WaitDurable(a.cb.log_ack_epoch) == WaitResult::kDurable);
    CHECK(db.wal()->health() == WalHealth::kHealthy);
    CHECK(!db.wal()->failed());

    ThreadStats ts;
    db.wal()->FillStats(&ts);
    CHECK(ts.wal_retries >= 1);
    CHECK_EQ(ts.health_state, static_cast<uint64_t>(WalHealth::kHealthy));
    Failpoints::DisarmForTest("wal_fsync_error");
  }
  RemoveTmpDir(dir);
}

/// Sustained fault pressure: every 4th fsync fails across a stream of 24
/// commits, each individually waited durable. The retry/backoff loop must
/// absorb all of them -- every ack is kDurable (zero lost acked commits),
/// health lands back on kHealthy, and no sticky failure latches.
void TestSustainedTransientFaults() {
  std::string dir = MakeTmpDir("sustained");
  {
    Config cfg = LogConfig(dir);
    cfg.log_retry_backoff_us = 10;
    Database db(cfg);
    CHECK(db.wal() != nullptr);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    db.LoadRow(tbl, idx, 0);

    CHECK(Failpoints::ArmForTest("wal_fsync_error:every=4"));
    Actor a(&db);
    for (int i = 0; i < 24; i++) {
      a.Begin(&db);
      CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
      CHECK(a.h.Commit(RC::kOk) == RC::kOk);
      CHECK(db.wal()->WaitDurable(a.cb.log_ack_epoch) ==
            WaitResult::kDurable);
    }
    CHECK(db.wal()->health() == WalHealth::kHealthy);
    CHECK(!db.wal()->failed());
    ThreadStats ts;
    db.wal()->FillStats(&ts);
    CHECK(ts.wal_retries >= 4);  // ~24 fsyncs + retries, every 4th faulted
    Failpoints::DisarmForTest("wal_fsync_error");
  }
  RemoveTmpDir(dir);
}

/// An injected ENOSPC on the write path is transient too (space can be
/// freed): same absorb-and-recover behavior as the fsync fault.
void TestEnospcRetries() {
  std::string dir = MakeTmpDir("enospc");
  {
    Config cfg = LogConfig(dir);
    cfg.log_retry_backoff_us = 10;
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    db.LoadRow(tbl, idx, 0);

    CHECK(Failpoints::ArmForTest("wal_write_enospc:1"));
    Actor a(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(db.wal()->WaitDurable(a.cb.log_ack_epoch) == WaitResult::kDurable);
    CHECK(db.wal()->health() == WalHealth::kHealthy);
    ThreadStats ts;
    db.wal()->FillStats(&ts);
    CHECK(ts.wal_retries >= 1);
    Failpoints::DisarmForTest("wal_write_enospc");
  }
  RemoveTmpDir(dir);
}

/// Exhausted retries: the WAL walks kHealthy -> kDegraded -> kReadOnly,
/// WaitDurable reports kFailed (never a false ack), new writers abort with
/// kReadOnlyMode at admission, and readers keep committing.
void TestExhaustedRetriesReadOnly() {
  std::string dir = MakeTmpDir("readonly");
  {
    Config cfg = LogConfig(dir);
    cfg.log_retry_max = 2;
    cfg.log_retry_backoff_us = 10;
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < 2; k++) db.LoadRow(tbl, idx, k);

    // Every fsync fails: the writer burns through its retry budget.
    CHECK(Failpoints::ArmForTest("wal_fsync_error:every=1"));
    Actor a(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);  // applied in memory...
    // ...but never durable: the wait must report the failure.
    CHECK(db.wal()->WaitDurable(a.cb.log_ack_epoch) == WaitResult::kFailed);
    CHECK(db.wal()->health() == WalHealth::kReadOnly);
    CHECK(db.wal()->failed());

    // New writers are rejected cleanly at admission.
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 1, Bump, nullptr) == RC::kReadOnlyMode);
    CHECK(a.h.Commit(RC::kOk) == RC::kReadOnlyMode);

    // Readers still run to commit while the engine degrades.
    Actor r(&db);
    r.Begin(&db);
    const char* d = nullptr;
    CHECK(r.h.Read(idx, 1, &d) == RC::kOk);
    CHECK(r.h.Commit(RC::kOk) == RC::kOk);

    ThreadStats ts;
    db.wal()->FillStats(&ts);
    CHECK_EQ(ts.health_state, static_cast<uint64_t>(WalHealth::kReadOnly));
    Failpoints::DisarmForTest("wal_fsync_error");
  }
  RemoveTmpDir(dir);
}

/// Probabilistic and every-Nth failpoint grammar.
void TestFailpointModes() {
  CHECK(Failpoints::ArmForTest("fp_mode_test:every=3"));
  int fired = 0;
  for (int i = 0; i < 9; i++) fired += Failpoints::Eval("fp_mode_test");
  CHECK_EQ(fired, 3);  // fires on every 3rd evaluation
  Failpoints::DisarmForTest("fp_mode_test");

  CHECK(Failpoints::ArmForTest("fp_prob_test:p=1.0"));
  CHECK(Failpoints::Eval("fp_prob_test"));
  CHECK(Failpoints::Eval("fp_prob_test"));
  Failpoints::DisarmForTest("fp_prob_test");
  CHECK(!Failpoints::Eval("fp_prob_test"));

  CHECK(Failpoints::ArmForTest("fp_prob_zero:p=0.0"));
  for (int i = 0; i < 64; i++) CHECK(!Failpoints::Eval("fp_prob_zero"));
  Failpoints::DisarmForTest("fp_prob_zero");
}

}  // namespace
}  // namespace bamboo

int main() {
  // Arm the unit-test failpoint before the first Eval anywhere in the
  // process (the parser latches the env exactly once).
  setenv("BB_FAILPOINT", "fp_unit_test:2", 1);
  RUN_TEST(bamboo::TestFailpointCountdown);
  RUN_TEST(bamboo::TestRecordRoundTrip);
  RUN_TEST(bamboo::TestChecksumRejection);
  RUN_TEST(bamboo::TestTornTailDecode);
  RUN_TEST(bamboo::TestEpochWatermarkAndDependencyAck);
  RUN_TEST(bamboo::TestCrossShardDependencyAck);
  RUN_TEST(bamboo::TestRecoveryReplay);
  RUN_TEST(bamboo::TestRecoveryRefusesTornTail);
  RUN_TEST(bamboo::TestFailpointModes);
  RUN_TEST(bamboo::TestTransientFaultRetries);
  RUN_TEST(bamboo::TestSustainedTransientFaults);
  RUN_TEST(bamboo::TestEnospcRetries);
  RUN_TEST(bamboo::TestExhaustedRetriesReadOnly);
  return bamboo::test::Summary("wal_test");
}
