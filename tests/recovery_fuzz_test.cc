// Recovery fuzz: generate a real checkpoint + multi-segment WAL directory,
// then repeatedly copy it, damage one file (bit flip, truncation, or
// appended garbage at a seeded pseudo-random spot), and recover. The
// contract is refuse-or-consistent: Recover must never crash, and every
// recovered counter row must be a value the workload actually reached
// (i.e. <= the true final count -- the rows are monotone counters, so any
// prefix-consistent state satisfies this, and any fabricated state would
// overshoot or corrupt the image).
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/db/checkpoint.h"
#include "src/db/database.h"
#include "src/db/txn_handle.h"
#include "src/db/wal.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

constexpr int kKeys = 4;
constexpr int kFuzzIterations = 48;

std::string MakeTmpDir(const std::string& name) {
  mkdir(name.c_str(), 0755);
  return name;
}

std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = opendir(dir.c_str())) {
    while (struct dirent* ent = readdir(d)) {
      if (ent->d_name[0] == '.') continue;
      names.push_back(ent->d_name);
    }
    closedir(d);
  }
  return names;
}

void RemoveTmpDir(const std::string& dir) {
  for (const std::string& f : ListFiles(dir)) {
    std::remove((dir + "/" + f).c_str());
  }
  rmdir(dir.c_str());
}

bool ReadFile(const std::string& path, std::vector<char>* out) {
  FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) return false;
  std::fseek(fp, 0, SEEK_END);
  long size = std::ftell(fp);
  std::fseek(fp, 0, SEEK_SET);
  out->resize(static_cast<size_t>(size));
  bool ok = size == 0 || std::fread(out->data(), 1, out->size(), fp) ==
                             out->size();
  std::fclose(fp);
  return ok;
}

void WriteFile(const std::string& path, const std::vector<char>& buf) {
  FILE* fp = std::fopen(path.c_str(), "wb");
  CHECK(fp != nullptr);
  if (!buf.empty()) {
    CHECK(std::fwrite(buf.data(), 1, buf.size(), fp) == buf.size());
  }
  std::fclose(fp);
}

void CopyDir(const std::string& from, const std::string& to) {
  std::vector<char> buf;
  for (const std::string& f : ListFiles(from)) {
    CHECK(ReadFile(from + "/" + f, &buf));
    WriteFile(to + "/" + f, buf);
  }
}

/// Deterministic xorshift64* -- the fuzz must not depend on wall-clock
/// entropy so failures replay by seed.
struct FuzzRng {
  uint64_t s;
  explicit FuzzRng(uint64_t seed) : s(seed * 2654435761u + 1) {}
  uint64_t Next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

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

/// Build the golden durability directory: 20 commits, a checkpoint after
/// 12, so the corpus has a checkpoint, a covered prefix and a live suffix.
void BuildCorpus(const std::string& dir, uint64_t* truth) {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.log_enabled = true;
  cfg.log_dir = dir;
  cfg.log_epoch_us = 200;
  cfg.bb_opt_raw_read = false;
  cfg.ckpt_interval_us = 1e9;

  Database db(cfg);
  CHECK(db.wal() != nullptr);
  Schema s;
  s.AddColumn("val", 8);
  Table* tbl = db.catalog()->CreateTable("t", s);
  HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
  for (uint64_t k = 0; k < kKeys; k++) db.LoadRow(tbl, idx, k);
  Checkpointer ck(cfg, &db, db.wal());

  Actor a(&db);
  uint64_t ack = 0;
  for (int i = 0; i < 20; i++) {
    a.Begin(&db);
    uint64_t key = static_cast<uint64_t>(i) % kKeys;
    CHECK(a.h.UpdateRmw(idx, key, Bump, nullptr) == RC::kOk);
    CHECK(a.h.Commit(RC::kOk) == RC::kOk);
    truth[key]++;
    ack = a.cb.log_ack_epoch;
    if (i == 11) {
      CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
      CHECK(ck.RunOnce());
    }
  }
  CHECK(db.wal()->WaitDurable(ack) == WaitResult::kDurable);
}

void TestRecoveryFuzz() {
  std::string base =
      MakeTmpDir("fuzz_base_" + std::to_string(static_cast<long>(getpid())));
  uint64_t truth[kKeys] = {0};
  BuildCorpus(base, truth);
  std::vector<std::string> files = ListFiles(base);
  CHECK(files.size() >= 2);  // at least one checkpoint + one segment

  std::string work =
      MakeTmpDir("fuzz_work_" + std::to_string(static_cast<long>(getpid())));
  for (int iter = 0; iter < kFuzzIterations; iter++) {
    for (const std::string& f : ListFiles(work)) {
      std::remove((work + "/" + f).c_str());
    }
    CopyDir(base, work);

    // Damage one file: bit flip / truncate / append garbage.
    FuzzRng rng(static_cast<uint64_t>(iter) + 1);
    const std::string victim =
        work + "/" + files[rng.Uniform(files.size())];
    std::vector<char> buf;
    CHECK(ReadFile(victim, &buf));
    switch (rng.Uniform(3)) {
      case 0:
        if (!buf.empty()) {
          buf[rng.Uniform(buf.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      case 1:
        buf.resize(rng.Uniform(buf.size() + 1));
        break;
      default:
        for (int i = 0; i < 16; i++) {
          buf.push_back(static_cast<char>(rng.Next()));
        }
        break;
    }
    WriteFile(victim, buf);

    // Recover into a fresh database: must not crash, and must land on a
    // state the workload actually passed through.
    Config cfg;
    Database db(cfg);
    Schema s;
    s.AddColumn("val", 8);
    Table* tbl = db.catalog()->CreateTable("t", s);
    HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
    Row* rows[kKeys];
    for (uint64_t k = 0; k < kKeys; k++) rows[k] = db.LoadRow(tbl, idx, k);

    RecoveryResult res = db.Recover(work);
    (void)res;
    for (int k = 0; k < kKeys; k++) {
      uint64_t v = RowValue(rows[k]);
      CHECK(v <= truth[k]);  // never fabricates progress
    }
  }

  RemoveTmpDir(work);
  RemoveTmpDir(base);
}

/// Sanity anchor for the fuzz: the undamaged corpus recovers exactly.
void TestUndamagedCorpusRecoversExactly() {
  std::string dir =
      MakeTmpDir("fuzz_exact_" + std::to_string(static_cast<long>(getpid())));
  uint64_t truth[kKeys] = {0};
  BuildCorpus(dir, truth);

  Config cfg;
  Database db(cfg);
  Schema s;
  s.AddColumn("val", 8);
  Table* tbl = db.catalog()->CreateTable("t", s);
  HashIndex* idx = db.catalog()->CreateIndex("t_pk", 16);
  Row* rows[kKeys];
  for (uint64_t k = 0; k < kKeys; k++) rows[k] = db.LoadRow(tbl, idx, k);
  RecoveryResult res = db.Recover(dir);
  CHECK(res.ckpt_epoch > 0);
  CHECK(res.records_applied < 20u);  // suffix-only replay
  for (int k = 0; k < kKeys; k++) CHECK_EQ(RowValue(rows[k]), truth[k]);
  RemoveTmpDir(dir);
}

}  // namespace
}  // namespace bamboo

int main() {
  RUN_TEST(bamboo::TestUndamagedCorpusRecoversExactly);
  RUN_TEST(bamboo::TestRecoveryFuzz);
  return bamboo::test::Summary("recovery_fuzz_test");
}
