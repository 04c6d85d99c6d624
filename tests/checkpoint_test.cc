// Checkpoint subsystem coverage: a fuzzy checkpoint pass (rotate, quiesce
// the boundary, snapshot rows, atomic-rename publish, retention), bounded
// recovery = checkpoint + WAL-suffix replay, fallback to the previous
// checkpoint when the newest is damaged (both by external corruption and
// via the ckpt_torn_tail failpoint), WAL-segment truncation behind the
// retention rule, and background passes racing a large load.
#include "src/db/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/db/database.h"
#include "src/db/txn_handle.h"
#include "src/db/wal.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

std::string MakeTmpDir(const char* tag) {
  std::string dir = std::string("ckpt_test_") + tag + "_" +
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

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
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
  cfg.bb_opt_raw_read = false;
  // Tests drive passes deterministically through RunOnce; park the
  // background thread on an interval it will never reach.
  cfg.ckpt_interval_us = 1e9;
  return cfg;
}

constexpr int kKeys = 4;

/// `n` committed bump transactions round-robining over the keys.
void CommitBumps(Database* db, HashIndex* idx, int n, uint64_t* expected,
                 uint64_t* last_ack) {
  Actor a(db);
  for (int i = 0; i < n; i++) {
    a.Begin(db);
    uint64_t key = static_cast<uint64_t>(i) % kKeys;
    CHECK(a.h.UpdateRmw(idx, key, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    expected[key]++;
    if (last_ack != nullptr) *last_ack = a.cb.log_ack_epoch;
  }
}

/// A fresh non-logging Database loaded with the test schema, ready for
/// Recover (which must not touch the on-disk files).
struct FreshDb {
  Database db;
  Row* rows[kKeys];
  FreshDb() : db(Config{}) {
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < kKeys; k++) rows[k] = db.LoadRow(tbl, idx, k);
  }
};

/// Round trip: checkpoint mid-run, then recovery = checkpoint + suffix.
void TestCheckpointRoundTrip() {
  std::string dir = MakeTmpDir("roundtrip");
  uint64_t expected[kKeys] = {0};
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    CHECK(db.wal() != nullptr);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < kKeys; k++) db.LoadRow(tbl, idx, k);

    uint64_t ack = 0;
    CommitBumps(&db, idx, 10, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);

    Checkpointer ck(cfg, &db, db.wal());
    CHECK(ck.RunOnce());
    CHECK_EQ(ck.last_seq(), 1u);
    CHECK(FileExists(CkptPath(dir, 1)));
    CHECK(!FileExists(CkptTmpPath(dir, 1)));
    CHECK(db.wal()->segment_seq() >= 2);  // rotation happened

    ThreadStats ts;
    ck.FillStats(&ts);
    CHECK_EQ(ts.ckpt_count, 1u);
    CHECK(ts.ckpt_bytes > 0);

    // Suffix commits after the checkpoint.
    CommitBumps(&db, idx, 5, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
  }

  FreshDb f;
  RecoveryResult res = f.db.Recover(dir);
  CHECK(res.ckpt_epoch > 0);
  CHECK_EQ(res.ckpt_rows, static_cast<uint64_t>(kKeys));
  // Bounded recovery: only the post-checkpoint suffix replays, strictly
  // fewer records than the 15-commit full history.
  CHECK(res.records_applied < 15u);
  CHECK(res.records_applied >= 5u);
  CHECK(res.durable_epoch >= res.ckpt_epoch);
  for (int k = 0; k < kKeys; k++) CHECK_EQ(RowValue(f.rows[k]), expected[k]);
  CHECK(res.max_cts >= 15);
  CHECK_EQ(f.db.cc()->NextCts(), res.max_cts + 1);
  RemoveTmpDir(dir);
}

/// A damaged newest checkpoint must fall back to the previous one, whose
/// whole WAL suffix the retention rule kept alive.
void TestTornNewestFallsBack() {
  std::string dir = MakeTmpDir("fallback");
  uint64_t expected[kKeys] = {0};
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < kKeys; k++) db.LoadRow(tbl, idx, k);
    Checkpointer ck(cfg, &db, db.wal());

    uint64_t ack = 0;
    CommitBumps(&db, idx, 8, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
    CHECK(ck.RunOnce());
    CommitBumps(&db, idx, 8, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
    CHECK(ck.RunOnce());
    CHECK_EQ(ck.last_seq(), 2u);
    CommitBumps(&db, idx, 4, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
  }

  // Flip a byte in the middle of the newest checkpoint.
  {
    std::string path = CkptPath(dir, 2);
    FILE* fp = std::fopen(path.c_str(), "r+b");
    CHECK(fp != nullptr);
    std::fseek(fp, 0, SEEK_END);
    long size = std::ftell(fp);
    CHECK(size > 64);
    std::fseek(fp, size / 2, SEEK_SET);
    int c = std::fgetc(fp);
    std::fseek(fp, size / 2, SEEK_SET);
    std::fputc(c ^ 0x20, fp);
    std::fclose(fp);
  }

  FreshDb f;
  RecoveryResult res = f.db.Recover(dir);
  CHECK(res.ckpt_epoch > 0);  // fell back to checkpoint 1, not to nothing
  for (int k = 0; k < kKeys; k++) CHECK_EQ(RowValue(f.rows[k]), expected[k]);
  RemoveTmpDir(dir);
}

/// The ckpt_torn_tail failpoint publishes a truncated checkpoint file via
/// the normal rename: validation must reject it and recovery must still be
/// exactly consistent from the previous checkpoint + suffix.
void TestTornTailFailpoint() {
  std::string dir = MakeTmpDir("torntail");
  uint64_t expected[kKeys] = {0};
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < kKeys; k++) db.LoadRow(tbl, idx, k);
    Checkpointer ck(cfg, &db, db.wal());

    uint64_t ack = 0;
    CommitBumps(&db, idx, 6, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
    CHECK(ck.RunOnce());

    CommitBumps(&db, idx, 6, expected, &ack);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
    CHECK(Failpoints::ArmForTest("ckpt_torn_tail:1"));
    CHECK(ck.RunOnce());  // writes, truncates the tail, renames anyway
    Failpoints::DisarmForTest("ckpt_torn_tail");
    CHECK(FileExists(CkptPath(dir, 2)));
  }

  FreshDb f;
  RecoveryResult res = f.db.Recover(dir);
  CHECK(res.ckpt_epoch > 0);
  for (int k = 0; k < kKeys; k++) CHECK_EQ(RowValue(f.rows[k]), expected[k]);
  RemoveTmpDir(dir);
}

/// Retention: after checkpoint N completes, segments the (N-1)-th
/// checkpoint no longer needs are gone, and checkpoints <= N-2 are gone --
/// but the fallback checkpoint N-1 and its whole suffix survive.
void TestRetentionTruncatesSegments() {
  std::string dir = MakeTmpDir("retention");
  uint64_t expected[kKeys] = {0};
  {
    Config cfg = LogConfig(dir);
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    for (uint64_t k = 0; k < kKeys; k++) db.LoadRow(tbl, idx, k);
    Checkpointer ck(cfg, &db, db.wal());

    uint64_t ack = 0;
    for (int round = 0; round < 3; round++) {
      CommitBumps(&db, idx, 4, expected, &ack);
      CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
      CHECK(ck.RunOnce());
    }
    CHECK_EQ(ck.last_seq(), 3u);
    // Checkpoint 1 was retired (two newer ones exist)...
    CHECK(!FileExists(CkptPath(dir, 1)));
    CHECK(FileExists(CkptPath(dir, 2)));
    CHECK(FileExists(CkptPath(dir, 3)));
    // ...and segment 1 (below checkpoint 2's suffix window) with it.
    CHECK(!FileExists(Wal::SegmentPath(dir, 1)));

    ThreadStats ts;
    ck.FillStats(&ts);
    CHECK(ts.wal_truncated_segments >= 1);
    CHECK_EQ(ts.ckpt_count, 3u);
  }

  FreshDb f;
  RecoveryResult res = f.db.Recover(dir);
  CHECK(res.ckpt_epoch > 0);
  for (int k = 0; k < kKeys; k++) CHECK_EQ(RowValue(f.rows[k]), expected[k]);
  RemoveTmpDir(dir);
}

/// RunOnce refuses to run against an unhealthy WAL, and a refused pass
/// never publishes or deletes anything.
void TestNoCheckpointWhenReadOnly() {
  std::string dir = MakeTmpDir("unhealthy");
  {
    Config cfg = LogConfig(dir);
    cfg.log_retry_max = 1;
    cfg.log_retry_backoff_us = 10;
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    db.LoadRow(tbl, idx, 0);
    Checkpointer ck(cfg, &db, db.wal());

    CHECK(Failpoints::ArmForTest("wal_fsync_error:every=1"));
    Actor a(&db);
    a.Begin(&db);
    CHECK(a.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    CHECK(db.wal()->WaitDurable(a.cb.log_ack_epoch) == WaitResult::kFailed);
    CHECK(db.wal()->health() == WalHealth::kReadOnly);

    CHECK(!ck.RunOnce());
    CHECK_EQ(ck.last_seq(), 0u);
    CHECK(!FileExists(CkptPath(dir, 1)));
    Failpoints::DisarmForTest("wal_fsync_error");
  }
  RemoveTmpDir(dir);
}

/// Wait (bounded) until `ck` completes a pass past `seq`.
bool WaitPassAfter(const Checkpointer* ck, uint32_t seq) {
  for (int i = 0; i < 60000; i++) {
    if (ck->last_seq() > seq) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The background checkpointer, at a 1 ms interval, walks the catalog while
/// the loader is still creating the table's rows (and committing now and
/// then): each pass may read only published rows. Recovery from the passes'
/// checkpoints must reproduce every committed image.
void TestCheckpointDuringLoad() {
  constexpr uint64_t kLoadRows = 200000;
  constexpr uint64_t kQuarter = kLoadRows / 4;
  std::string dir = MakeTmpDir("duringload");
  std::vector<uint64_t> expected(kLoadRows, 0);
  {
    Config cfg = LogConfig(dir);
    cfg.ckpt_enabled = true;
    cfg.ckpt_interval_us = 1000;
    Database db(cfg);
    const Checkpointer* ck = db.checkpointer();
    CHECK(ck != nullptr);
    if (ck == nullptr) return;
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", kLoadRows);
    Actor a(&db);
    uint64_t ack = 0;
    for (uint64_t k = 0; k < kLoadRows; k++) {
      db.LoadRow(tbl, idx, k);
      if (k % 1024 == 1023) {
        const uint64_t key = (k * 7919) % (k + 1);
        a.Begin(&db);
        CHECK(a.h.UpdateRmw(idx, key, Bump, nullptr) == RC::kOk);
        CHECK(a.h.Commit(RC::kOk) == RC::kOk);
        expected[key]++;
        ack = a.cb.log_ack_epoch;
      }
      // Hold at each quarter until a pass completes, so passes provably
      // interleave with the load.
      if (k % kQuarter == kQuarter - 1 && k + 1 < kLoadRows) {
        CHECK(WaitPassAfter(ck, ck->last_seq()));
      }
    }
    CHECK(ck->last_seq() >= 3u);
    CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
    // A pass that starts after the load covers every row.
    const uint32_t seen = ck->last_seq();
    CHECK(WaitPassAfter(ck, seen + 1));
  }

  Database fresh{Config{}};
  Schema s;
  s.AddColumn("val", 8);
  Table* tbl = fresh.catalog()->CreateTable("t", s);
  HashIndex* idx = fresh.catalog()->CreateIndex("t_pk", kLoadRows);
  for (uint64_t k = 0; k < kLoadRows; k++) fresh.LoadRow(tbl, idx, k);
  RecoveryResult res = fresh.Recover(dir);
  CHECK(res.ckpt_epoch > 0);
  CHECK_EQ(res.ckpt_rows, kLoadRows);
  uint64_t mismatches = 0;
  for (uint64_t k = 0; k < kLoadRows; k++) {
    if (RowValue(idx->Get(k)) != expected[k]) mismatches++;
  }
  CHECK_EQ(mismatches, 0u);
  RemoveTmpDir(dir);
}

}  // namespace
}  // namespace bamboo

int main() {
  RUN_TEST(bamboo::TestCheckpointRoundTrip);
  RUN_TEST(bamboo::TestTornNewestFallsBack);
  RUN_TEST(bamboo::TestTornTailFailpoint);
  RUN_TEST(bamboo::TestRetentionTruncatesSegments);
  RUN_TEST(bamboo::TestNoCheckpointWhenReadOnly);
  RUN_TEST(bamboo::TestCheckpointDuringLoad);
  return bamboo::test::Summary("checkpoint_test");
}
