// SH -> EX upgrades through grant tokens: a reader that later updates the
// same row converts its held SH request in place -- the read never loses
// protection -- under all of BAMBOO / wound-wait / wait-die / no-wait,
// including the wounded-mid-upgrade path, acquires blocked behind a
// pending upgrade (the commit-order deadlock the block rule prevents), and
// a younger upgrade dying rather than jumping an older waiter.
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

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
void WriteU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

struct Fixture {
  explicit Fixture(Protocol p, bool raw_read = true) {
    cfg.protocol = p;
    cfg.bb_opt_raw_read = raw_read;
    lm = new LockManager(cfg, &ts_counter, &cts_counter);
  }
  ~Fixture() { delete lm; }

  AccessGrant Sh(Row* row, TxnCB* t) {
    AccessRequest req;
    req.row = row;
    req.type = LockType::kSH;
    req.read_buf = buf;
    return lm->Submit(req, t);
  }
  AccessGrant Ex(Row* row, TxnCB* t) {
    AccessRequest req;
    req.row = row;
    req.type = LockType::kEX;
    return lm->Submit(req, t);
  }
  /// Submit the SH->EX conversion of `token` (optionally a fused RMW).
  AccessGrant Upgrade(Row* row, TxnCB* t, GrantToken token,
                      RmwFn fn = nullptr, void* arg = nullptr,
                      bool retire_now = false) {
    AccessRequest req;
    req.row = row;
    req.type = LockType::kEX;
    req.rmw_fn = fn;
    req.rmw_arg = arg;
    req.retire_now = retire_now;
    req.upgrade_of = token;
    return lm->Submit(req, t);
  }
  AccessGrant ResumeUpgrade(Row* row, TxnCB* t, GrantToken token) {
    AccessRequest req;
    req.row = row;
    req.type = LockType::kEX;
    req.upgrade_of = token;
    return lm->Resume(req, t, token);
  }

  Config cfg;
  std::atomic<uint64_t> ts_counter{0};
  std::atomic<uint64_t> cts_counter{1};
  LockManager* lm;
  Row row{8};
  char buf[8];
};

void BeginTxn(TxnCB* t, uint64_t ts) {
  t->txn_seq.fetch_add(1, std::memory_order_relaxed);
  t->ResetForAttempt(false);
  t->ts.store(ts, std::memory_order_relaxed);
}

/// A sole reader upgrades immediately under every protocol; the write
/// installs on commit. Under Bamboo the SH sits in the *retired* list
/// (Opt 1), so this also covers the retired -> owners conversion.
void TestUpgradeSoleHolder() {
  const Protocol protocols[] = {Protocol::kBamboo, Protocol::kWoundWait,
                                Protocol::kWaitDie, Protocol::kNoWait};
  for (Protocol p : protocols) {
    Fixture f(p);
    TxnCB t;
    ThreadStats stats;
    t.stats = &stats;
    BeginTxn(&t, 1);
    AccessGrant g = f.Sh(&f.row, &t);
    CHECK(g.rc == AcqResult::kGranted);
    if (p == Protocol::kBamboo) {
      CHECK(g.retired);
      CHECK_EQ(f.lm->RetiredCount(&f.row), 1u);
    } else {
      CHECK_EQ(f.lm->OwnerCount(&f.row), 1u);
    }
    AccessGrant up = f.Upgrade(&f.row, &t, g.token);
    CHECK(up.rc == AcqResult::kGranted);
    CHECK(up.token == g.token);  // same request node, converted in place
    CHECK(up.write_data != nullptr);
    CHECK_EQ(f.lm->OwnerCount(&f.row), 1u);
    CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
    CHECK_EQ(t.pool.live(), 1u);  // still one request for the row
    WriteU64(up.write_data, 99);
    t.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, up.token, true);
    CHECK_EQ(ReadU64(f.row.base()), 99u);
    CHECK_EQ(t.pool.live(), 0u);
  }
}

/// The executor path: Read then Update (and Read then UpdateRmw) on the
/// same key upgrades through the stored token under every protocol.
void TestUpgradeThroughHandle() {
  const Protocol protocols[] = {Protocol::kBamboo, Protocol::kWoundWait,
                                Protocol::kWaitDie, Protocol::kNoWait};
  for (Protocol p : protocols) {
    Config cfg;
    cfg.protocol = p;
    Database db(cfg);
    Schema schema;
    schema.AddColumn("v", 8);
    Table* table = db.catalog()->CreateTable("t", schema);
    HashIndex* index = db.catalog()->CreateIndex("t_pk", 8);
    for (uint64_t k = 0; k < 8; k++) {
      WriteU64(db.LoadRow(table, index, k)->base(), 10 + k);
    }
    TxnCB cb;
    ThreadStats stats;
    cb.stats = &stats;
    TxnHandle h(&db, &cb);
    auto begin = [&]() {
      cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
      cb.ResetForAttempt(false);
      db.cc()->Begin(&cb);
    };

    // Read -> Update -> write -> commit.
    begin();
    const char* rd = nullptr;
    CHECK(h.Read(index, 3, &rd) == RC::kOk);
    CHECK_EQ(ReadU64(rd), 13u);
    char* wd = nullptr;
    CHECK(h.Update(index, 3, &wd) == RC::kOk);
    WriteU64(wd, 77);
    h.WriteDone();
    CHECK(h.Commit(RC::kOk) == RC::kOk);
    CHECK_EQ(ReadU64(index->Get(3)->base()), 77u);

    // Read -> fused UpdateRmw -> commit (retires inside the grant under
    // Bamboo).
    RmwFn bump = [](char* d, void*) { WriteU64(d, ReadU64(d) + 1); };
    begin();
    CHECK(h.Read(index, 4, &rd) == RC::kOk);
    CHECK(h.UpdateRmw(index, 4, bump, nullptr) == RC::kOk);
    CHECK(h.Commit(RC::kOk) == RC::kOk);
    CHECK_EQ(ReadU64(index->Get(4)->base()), 15u);
  }
}

/// Two readers, the older upgrades: wound-wait wounds the younger reader
/// and pends; the reader's rollback grants the upgrade (completed by the
/// releasing thread, reported through the token).
void TestUpgradeWoundsSecondReaderWoundWait() {
  Fixture f(Protocol::kWoundWait);
  TxnCB a, b;
  ThreadStats sa, sb;
  a.stats = &sa;
  b.stats = &sb;
  BeginTxn(&a, 5);
  BeginTxn(&b, 10);
  AccessGrant ga = f.Sh(&f.row, &a);
  AccessGrant gb = f.Sh(&f.row, &b);
  CHECK(ga.rc == AcqResult::kGranted);
  CHECK(gb.rc == AcqResult::kGranted);

  AccessGrant up = f.Upgrade(&f.row, &a, ga.token);
  CHECK(up.rc == AcqResult::kWait);       // B still linked (rolls back async)
  CHECK(b.IsAborted());                   // ...but already wounded
  CHECK_EQ(a.lock_granted.load(), 0u);

  f.lm->Release(&f.row, gb.token, false);  // B's rollback
  CHECK_EQ(a.lock_granted.load(), 2u);     // upgrade granted + completed
  AccessGrant res = f.ResumeUpgrade(&f.row, &a, ga.token);
  CHECK(res.rc == AcqResult::kGranted);
  CHECK(res.write_data != nullptr);
  WriteU64(res.write_data, 41);
  a.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, res.token, true);
  CHECK_EQ(ReadU64(f.row.base()), 41u);
}

/// Wait-die: the older upgrader waits (no wound) and is granted when the
/// younger reader releases; a younger upgrader dies instead of waiting --
/// which is also how the classic dual-upgrade deadlock resolves.
void TestUpgradeWaitDieDecision() {
  {
    Fixture f(Protocol::kWaitDie);
    TxnCB a, b;
    ThreadStats sa, sb;
    a.stats = &sa;
    b.stats = &sb;
    BeginTxn(&a, 5);
    BeginTxn(&b, 10);
    AccessGrant ga = f.Sh(&f.row, &a);
    AccessGrant gb = f.Sh(&f.row, &b);
    AccessGrant up = f.Upgrade(&f.row, &a, ga.token);
    CHECK(up.rc == AcqResult::kWait);  // older: waits, wounds nobody
    CHECK(b.status.load() != TxnStatus::kAborted);
    b.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, gb.token, true);
    CHECK_EQ(a.lock_granted.load(), 2u);
    AccessGrant res = f.ResumeUpgrade(&f.row, &a, ga.token);
    CHECK(res.rc == AcqResult::kGranted);
    a.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, res.token, true);
  }
  {
    Fixture f(Protocol::kWaitDie);
    TxnCB a, b;
    ThreadStats sa, sb;
    a.stats = &sa;
    b.stats = &sb;
    BeginTxn(&a, 5);
    BeginTxn(&b, 10);
    AccessGrant ga = f.Sh(&f.row, &a);
    AccessGrant gb = f.Sh(&f.row, &b);
    AccessGrant up = f.Upgrade(&f.row, &b, gb.token);
    CHECK(up.rc == AcqResult::kAbort);  // younger upgrader dies
    CHECK(a.status.load() != TxnStatus::kAborted);
    // B's SH footprint is untouched by the refused upgrade.
    CHECK_EQ(f.lm->OwnerCount(&f.row), 2u);
    f.lm->Release(&f.row, gb.token, false);
    a.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, ga.token, true);
  }
}

/// No-wait: any conflicting holder aborts the upgrade immediately.
void TestUpgradeNoWaitAborts() {
  Fixture f(Protocol::kNoWait);
  TxnCB a, b;
  ThreadStats sa, sb;
  a.stats = &sa;
  b.stats = &sb;
  BeginTxn(&a, 0);
  BeginTxn(&b, 0);
  AccessGrant ga = f.Sh(&f.row, &a);
  AccessGrant gb = f.Sh(&f.row, &b);
  CHECK(f.Upgrade(&f.row, &a, ga.token).rc == AcqResult::kAbort);
  CHECK(b.status.load() != TxnStatus::kAborted);
  f.lm->Release(&f.row, ga.token, false);
  f.lm->Release(&f.row, gb.token, false);
}

/// Wounded mid-upgrade: a younger pending upgrader is itself a conflicting
/// (effective-EX) holder, so an older transaction's own upgrade wounds it.
/// The victim's rollback must clear the pending-upgrade state through its
/// token (still SH, no version), after which the older upgrade proceeds.
void TestWoundedMidUpgrade() {
  Fixture f(Protocol::kWoundWait);
  TxnCB young, old;
  ThreadStats sy, so;
  young.stats = &sy;
  old.stats = &so;
  BeginTxn(&young, 10);
  BeginTxn(&old, 5);
  AccessGrant gy = f.Sh(&f.row, &young);
  AccessGrant go = f.Sh(&f.row, &old);
  CHECK(gy.rc == AcqResult::kGranted);
  CHECK(go.rc == AcqResult::kGranted);

  // The younger reader starts its upgrade first: it pends behind the older
  // SH holder (wound-wait: younger waits).
  AccessGrant upy = f.Upgrade(&f.row, &young, gy.token);
  CHECK(upy.rc == AcqResult::kWait);
  CHECK(!young.IsAborted());

  // The older reader now upgrades too: the younger pending upgrader is a
  // conflicting holder and gets wounded mid-upgrade.
  AccessGrant upo = f.Upgrade(&f.row, &old, go.token);
  CHECK(upo.rc == AcqResult::kWait);
  CHECK(young.IsAborted());

  // The victim's rollback releases its still-SH request (no version was
  // ever created) and thereby grants the older upgrade.
  f.lm->Release(&f.row, gy.token, false);
  CHECK_EQ(young.pool.live(), 0u);
  CHECK_EQ(old.lock_granted.load(), 2u);
  AccessGrant res = f.ResumeUpgrade(&f.row, &old, go.token);
  CHECK(res.rc == AcqResult::kGranted);
  WriteU64(res.write_data, 123);
  old.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, res.token, true);
  CHECK_EQ(ReadU64(f.row.base()), 123u);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 0u);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
}

/// Bamboo: upgrading a dirty reader stacks the write behind the older
/// retired writer with a commit barrier, exactly like a fresh EX grant --
/// and the whole chain drains in commit order.
void TestBambooUpgradeBehindRetiredWriter() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  TxnCB w, r;
  ThreadStats sw, sr;
  w.stats = &sw;
  r.stats = &sr;
  BeginTxn(&w, 1);
  BeginTxn(&r, 2);

  AccessGrant gw = f.Ex(&f.row, &w);
  CHECK(gw.rc == AcqResult::kGranted);
  WriteU64(gw.write_data, 50);
  f.lm->Retire(&f.row, gw.token);

  AccessGrant gr = f.Sh(&f.row, &r);
  CHECK(gr.rc == AcqResult::kGranted);
  CHECK(gr.dirty);
  CHECK_EQ(ReadU64(f.buf), 50u);
  CHECK_EQ(r.commit_semaphore.load(), 1);

  // Upgrade behind the older uncommitted writer: granted immediately, with
  // a second barrier edge (EX conflicts with the writer too).
  AccessGrant up = f.Upgrade(&f.row, &r, gr.token);
  CHECK(up.rc == AcqResult::kGranted);
  CHECK_EQ(r.commit_semaphore.load(), 2);
  WriteU64(up.write_data, 60);

  // W commits first (chain order); both of R's edges drain.
  w.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gw.token, true);
  CHECK_EQ(r.commit_semaphore.load(), 0);
  CHECK_EQ(ReadU64(f.row.base()), 50u);
  r.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, up.token, true);
  CHECK_EQ(ReadU64(f.row.base()), 60u);
}

/// Nothing grants past -- or stacks behind -- a pending upgrade: a fresh
/// reader enqueues instead (the block rule that prevents the upgrade /
/// barrier commit-order deadlock), and is promoted once the upgrader's
/// write completes.
void TestAcquireBlockedBehindPendingUpgrade() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  TxnCB up_txn, victim, late;
  ThreadStats s1, s2, s3;
  up_txn.stats = &s1;
  victim.stats = &s2;
  late.stats = &s3;
  BeginTxn(&up_txn, 2);
  BeginTxn(&victim, 3);
  BeginTxn(&late, 4);

  AccessGrant gu = f.Sh(&f.row, &up_txn);
  AccessGrant gv = f.Sh(&f.row, &victim);
  CHECK(gu.rc == AcqResult::kGranted);
  CHECK(gv.rc == AcqResult::kGranted);

  // The upgrade wounds the younger reader and pends until it drains.
  AccessGrant up = f.Upgrade(&f.row, &up_txn, gu.token);
  CHECK(up.rc == AcqResult::kWait);
  CHECK(victim.IsAborted());

  // A fresh reader must queue behind the pending upgrade, not stack a
  // barrier behind its (still-SH) retired entry.
  AccessGrant gl = f.Sh(&f.row, &late);
  CHECK(gl.rc == AcqResult::kWait);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 1u);

  // Victim rollback -> upgrade granted; the reader still waits behind the
  // now-EX owner.
  f.lm->Release(&f.row, gv.token, false);
  CHECK_EQ(up_txn.lock_granted.load(), 2u);
  CHECK_EQ(late.lock_granted.load(), 0u);
  AccessGrant res = f.ResumeUpgrade(&f.row, &up_txn, gu.token);
  CHECK(res.rc == AcqResult::kGranted);
  WriteU64(res.write_data, 7);

  // Upgrader commits: the blocked reader is promoted and sees the write.
  up_txn.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, res.token, true);
  CHECK_EQ(late.lock_granted.load(), 1u);
  AccessRequest rr;
  rr.row = &f.row;
  rr.type = LockType::kSH;
  rr.read_buf = f.buf;
  AccessGrant glr = f.lm->Resume(rr, &late, gl.token);
  CHECK(glr.rc == AcqResult::kGranted);
  CHECK_EQ(ReadU64(f.buf), 7u);
  f.lm->Release(&f.row, glr.token, true);
}

/// Wound-wait never lets an older transaction wait for a younger one, and
/// upgrades are granted ahead of every waiter. So a younger reader's
/// upgrade must die when an older transaction already waits on the row.
/// Here O (oldest) waits for the wounded writer Y to roll back; if U's
/// upgrade pended, Y's rollback would grant it first and O would sit
/// behind U. With U's commit later gated on O (a barrier, or a lock O
/// holds), that cycle hung the 16-thread shard stress.
void TestUpgradeYieldsToOlderWaiter() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  TxnCB older, up_txn, writer;
  ThreadStats s1, s2, s3;
  older.stats = &s1;
  up_txn.stats = &s2;
  writer.stats = &s3;
  BeginTxn(&older, 5);
  BeginTxn(&up_txn, 10);
  BeginTxn(&writer, 20);

  AccessGrant gu = f.Sh(&f.row, &up_txn);  // retired at once (Opt 1)
  CHECK(gu.rc == AcqResult::kGranted);
  AccessGrant gw = f.Ex(&f.row, &writer);  // behind U's read, a barrier
  CHECK(gw.rc == AcqResult::kGranted);
  AccessGrant go = f.Sh(&f.row, &older);   // wounds Y, waits for rollback
  CHECK(go.rc == AcqResult::kWait);
  CHECK(writer.IsAborted());

  AccessGrant up = f.Upgrade(&f.row, &up_txn, gu.token);
  CHECK(up.rc == AcqResult::kAbort);
  CHECK_EQ(f.lm->OwnerCount(&f.row) + f.lm->RetiredCount(&f.row), 2u);

  // Y's rollback now promotes O (SH beside U's read), not an upgrade.
  f.lm->Release(&f.row, gw.token, false);
  CHECK_EQ(older.lock_granted.load(), 1u);
  f.lm->Release(&f.row, gu.token, false);
  AccessRequest rr;
  rr.row = &f.row;
  rr.type = LockType::kSH;
  rr.read_buf = f.buf;
  AccessGrant gor = f.lm->Resume(rr, &older, go.token);
  CHECK(gor.rc == AcqResult::kGranted);
  older.status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gor.token, true);
}

/// Concurrent upgrade stress: every transaction Reads the shared counter,
/// then Updates it (an SH->EX upgrade under contention -- dueling
/// upgrades, wounds mid-upgrade, waiter blocking behind pending upgrades,
/// cascades under Bamboo). Lost updates would show as a final counter
/// below the committed-increment count; the upgrade keeping the SH link
/// makes read-increment-write atomic, so the counter must match exactly.
void TestConcurrentUpgradeStress() {
  const Protocol protocols[] = {Protocol::kBamboo, Protocol::kWoundWait,
                                Protocol::kWaitDie, Protocol::kNoWait};
  for (Protocol p : protocols) {
    Config cfg;
    cfg.protocol = p;
    cfg.num_threads = 4;
    Database db(cfg);
    Schema schema;
    schema.AddColumn("v", 8);
    Table* table = db.catalog()->CreateTable("t", schema);
    HashIndex* index = db.catalog()->CreateIndex("t_pk", 4);
    for (uint64_t k = 0; k < 4; k++) db.LoadRow(table, index, k);

    constexpr int kThreads = 4;
    constexpr uint64_t kCommitsPerThread = 150;
    std::atomic<uint64_t> total_commits{0};

    auto worker = [&](int id) {
      ThreadStats stats;
      TxnCB cb;
      cb.stats = &stats;
      TxnHandle h(&db, &cb);
      Rng rng(0xc0ffee + static_cast<uint64_t>(id));
      uint64_t committed = 0;
      bool retry = false;
      while (committed < kCommitsPerThread) {
        cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
        cb.ResetForAttempt(/*keep_ts=*/retry);
        db.cc()->Begin(&cb);
        cb.planned_ops = 2;
        uint64_t key = rng.Uniform(2);  // two hot rows: constant conflicts
        const char* rd = nullptr;
        char* wd = nullptr;
        bool ok = h.Read(index, key, &rd) == RC::kOk;
        uint64_t seen = 0;
        if (ok) {
          std::memcpy(&seen, rd, 8);
          ok = h.Update(index, key, &wd) == RC::kOk;
        }
        if (ok) {
          uint64_t next = seen + 1;
          std::memcpy(wd, &next, 8);
          h.WriteDone();
        }
        if (h.Commit(ok ? RC::kOk : RC::kAbort) == RC::kOk) {
          committed++;
          retry = false;
        } else {
          retry = true;  // keep the priority ts: the oldest wins eventually
          std::this_thread::yield();
        }
      }
      total_commits.fetch_add(committed);
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++) threads.emplace_back(worker, i);
    for (auto& t : threads) t.join();

    uint64_t total = 0;
    for (uint64_t k = 0; k < 4; k++) {
      Row* row = index->Get(k);
      CHECK_EQ(row->chain().size(), 0u);
      uint64_t v;
      std::memcpy(&v, row->base(), 8);
      total += v;
    }
    CHECK_EQ(total, total_commits.load());
    CHECK_EQ(total_commits.load(), kThreads * kCommitsPerThread);
  }
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestUpgradeSoleHolder);
  RUN_TEST(TestUpgradeThroughHandle);
  RUN_TEST(TestUpgradeWoundsSecondReaderWoundWait);
  RUN_TEST(TestUpgradeWaitDieDecision);
  RUN_TEST(TestUpgradeNoWaitAborts);
  RUN_TEST(TestWoundedMidUpgrade);
  RUN_TEST(TestBambooUpgradeBehindRetiredWriter);
  RUN_TEST(TestAcquireBlockedBehindPendingUpgrade);
  RUN_TEST(TestUpgradeYieldsToOlderWaiter);
  RUN_TEST(TestConcurrentUpgradeStress);
  return bamboo::test::Summary("lock_upgrade_test");
}
