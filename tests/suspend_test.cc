// Continuation-suspension coverage. The configs here never name a wait
// path: a handle whose TxnCB carries a susp_fire hook suspends, one
// without it parks its thread. With the hook, every blocking statement
// (Read, Update, UpdateRmw, ReadMany, UpdateRmwMany, and an SH->EX
// upgrade) must return RC::kSuspended instead of parking, the lock table's
// grant path must fire the continuation into a ResumeQueue, and
// ResumeSuspended + re-issuing the statement must complete the transaction
// -- under every waiting protocol (Bamboo, wound-wait, wait-die). Also: a
// transaction wounded *while* suspended resolves through the same
// continuation (wound-mid-suspend), and a commit blocked on a dirty-read
// dependency suspends and resumes to its final verdict.
//
// The suspension tests are single-threaded on purpose: the thread that
// issued the blocked statement keeps driving other transactions to
// completion while the suspended one is parked, which is exactly the
// "blocked transaction releases its worker" property the network server
// depends on. The one two-thread test checks the other side: without the
// hook, the same wait parks the calling thread.
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "src/db/database.h"
#include "src/db/suspend.h"
#include "src/db/txn_handle.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

void Bump(char* d, void*) {
  uint64_t v;
  std::memcpy(&v, d, 8);
  v++;
  std::memcpy(d, &v, 8);
}

/// The counter in a returned image; ~0 for a missing one (failed read).
uint64_t ImageValue(const char* img) {
  uint64_t v = ~0ull;
  if (img != nullptr) std::memcpy(&v, img, 8);
  return v;
}

uint64_t RowValue(HashIndex* idx, uint64_t key) {
  uint64_t v;
  std::memcpy(&v, idx->Get(key)->base(), 8);
  return v;
}

/// One transaction driver following the runner's per-attempt protocol.
/// With a queue it installs the continuation hook (suspending driver);
/// without one it is a plain thread driver that futex-parks.
struct Actor {
  TxnCB cb;
  TxnHandle h;
  ThreadStats stats;
  Actor(Database* db, ResumeQueue* rq) : h(db, &cb) {
    if (rq != nullptr) {
      cb.susp_fire = ResumeQueue::FireThunk;
      cb.susp_ctx = rq;
    }
    cb.stats = &stats;
  }
  void Begin(Database* db) {
    cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
    cb.ResetForAttempt(/*keep_ts=*/false);
    db->cc()->Begin(&cb);
  }
};

Config SuspendConfig(Protocol p) {
  Config cfg;
  cfg.protocol = p;
  // Timestamps in Begin order so the conflict outcomes below are
  // deterministic (no first-conflict dynamic assignment).
  cfg.dynamic_ts = false;
  return cfg;
}

/// Pop the single expected continuation off the queue.
TxnCB* PopOne(ResumeQueue* rq) {
  TxnCB* t = rq->PopAll();
  CHECK(t != nullptr);
  if (t != nullptr) CHECK(t->ready_next == nullptr);
  return t;
}

/// The statement that blocks in RunBlockResume. kUpgrade is an SH->EX
/// conversion: Read, then UpdateRmwMany on the same key.
enum class Stmt {
  kRead,
  kUpdate,
  kUpdateRmw,
  kReadMany,
  kUpdateRmwMany,
  kUpgrade
};

const Stmt kScalarAndBatch[] = {Stmt::kRead, Stmt::kUpdate, Stmt::kUpdateRmw,
                                Stmt::kReadMany, Stmt::kUpdateRmwMany};

std::unique_ptr<Database> MakeDb(const Config& cfg, HashIndex** idx,
                                 int rows) {
  auto db = std::make_unique<Database>(cfg);
  Schema s;
  s.AddColumn("val", 8);
  Table* tbl = db->catalog()->CreateTable("t", s);
  *idx = db->catalog()->CreateIndex("t_pk", 16);
  for (int k = 0; k < rows; k++) {
    std::memset(db->LoadRow(tbl, *idx, static_cast<uint64_t>(k))->base(), 0,
                8);
  }
  return db;
}

/// Issue the requester's blocking statement on key 0 (the batch forms also
/// touch keys 1 and 2). A resumed statement is re-issued by repeating the
/// exact call, as the server does with a frame's saved statement. Update
/// bumps through the image and calls WriteDone once it is granted.
RC Issue(Actor* a, HashIndex* idx, Stmt stmt, const char** out) {
  switch (stmt) {
    case Stmt::kRead:
      return a->h.Read(idx, 0, out);
    case Stmt::kUpdate: {
      char* d = nullptr;
      RC rc = a->h.Update(idx, 0, &d);
      if (rc == RC::kOk) {
        Bump(d, nullptr);
        a->h.WriteDone();
      }
      return rc;
    }
    case Stmt::kUpdateRmw:
      return a->h.UpdateRmw(idx, 0, Bump, nullptr);
    case Stmt::kReadMany: {
      const uint64_t keys[3] = {2, 0, 1};
      return a->h.ReadMany(idx, keys, 3, out);
    }
    case Stmt::kUpdateRmwMany: {
      // Key 0 twice: its coalesced grant must apply both bumps at resume.
      const uint64_t keys[4] = {2, 0, 1, 0};
      return a->h.UpdateRmwMany(idx, keys, 4, Bump, nullptr);
    }
    case Stmt::kUpgrade: {
      const uint64_t key = 0;
      return a->h.UpdateRmwMany(idx, &key, 1, Bump, nullptr);
    }
  }
  return RC::kAbort;
}

/// Holder takes key 0 (EX, or SH for kUpgrade) and sits on it; the
/// requester's `stmt` must suspend, the holder's release must fire the
/// continuation, and re-issuing the statement + commit must land it.
/// `requester_older` encodes who must out-rank whom for the requester to
/// *wait* (wound-wait: younger waits for older; wait-die: older waits for
/// younger).
void RunBlockResume(Protocol p, bool requester_older, Stmt stmt) {
  HashIndex* idx = nullptr;
  std::unique_ptr<Database> db = MakeDb(SuspendConfig(p), &idx, 3);

  ResumeQueue rq;
  Actor holder(db.get(), &rq);
  Actor requester(db.get(), &rq);
  if (requester_older) {
    requester.Begin(db.get());
    holder.Begin(db.get());
  } else {
    holder.Begin(db.get());
    requester.Begin(db.get());
  }

  const bool upgrade = stmt == Stmt::kUpgrade;
  const char* out[3] = {nullptr, nullptr, nullptr};
  if (upgrade) {
    // Both read key 0 (SH is shared); the requester's convert then waits
    // for the holder's read lock.
    CHECK(holder.h.Read(idx, 0, out) == RC::kOk);
    CHECK(requester.h.Read(idx, 0, out) == RC::kOk);
  } else {
    char* d = nullptr;
    CHECK(holder.h.Update(idx, 0, &d) == RC::kOk);
    Bump(d, nullptr);
  }

  // The conflicting statement suspends instead of parking this thread.
  RC rc = Issue(&requester, idx, stmt, out);
  CHECK(rc == RC::kSuspended);
  CHECK(requester.h.Suspended());
  CHECK_EQ(requester.stats.suspended_txns, 1ull);

  // This thread is free: it finishes the holder while the requester is
  // parked. The release grants the waiter and fires the continuation.
  if (!upgrade) holder.h.WriteDone();
  CHECK(holder.h.Commit(RC::kOk) == RC::kOk);

  // The pop is the proof the continuation fired (the continuations_fired
  // stat belongs to the driver -- the server's epoll loop -- which counts
  // it when it drains its queue, as this test is doing now).
  TxnCB* fired = PopOne(&rq);
  CHECK(fired == &requester.cb);

  // Statement wait resolved: re-issue just the blocked statement.
  rc = requester.h.ResumeSuspended();
  CHECK(rc == RC::kPending);
  CHECK(Issue(&requester, idx, stmt, out) == RC::kOk);
  CHECK(requester.h.Commit(RC::kOk) == RC::kOk);

  switch (stmt) {
    case Stmt::kRead:
      CHECK_EQ(ImageValue(out[0]), 1ull);  // the holder's write
      CHECK_EQ(RowValue(idx, 0), 1ull);
      break;
    case Stmt::kReadMany:
      CHECK_EQ(ImageValue(out[1]), 1ull);  // keys[1] == 0
      CHECK_EQ(ImageValue(out[0]), 0ull);
      CHECK_EQ(ImageValue(out[2]), 0ull);
      CHECK_EQ(RowValue(idx, 0), 1ull);
      break;
    case Stmt::kUpdate:
    case Stmt::kUpdateRmw:
      CHECK_EQ(RowValue(idx, 0), 2ull);
      break;
    case Stmt::kUpdateRmwMany:
      CHECK_EQ(RowValue(idx, 0), 3ull);
      CHECK_EQ(RowValue(idx, 1), 1ull);
      CHECK_EQ(RowValue(idx, 2), 1ull);
      break;
    case Stmt::kUpgrade:
      CHECK_EQ(RowValue(idx, 0), 1ull);  // the holder only read
      break;
  }
}

void TestBlockResumeBamboo() {
  // No kUpgrade: Bamboo's holder read retires at once, so the convert is
  // granted behind it (a commit barrier) instead of waiting.
  for (Stmt st : kScalarAndBatch) {
    RunBlockResume(Protocol::kBamboo, /*requester_older=*/false, st);
  }
}
void TestBlockResumeWoundWait() {
  for (Stmt st : kScalarAndBatch) {
    RunBlockResume(Protocol::kWoundWait, /*requester_older=*/false, st);
  }
  RunBlockResume(Protocol::kWoundWait, /*requester_older=*/false,
                 Stmt::kUpgrade);
}
void TestBlockResumeWaitDie() {
  for (Stmt st : kScalarAndBatch) {
    RunBlockResume(Protocol::kWaitDie, /*requester_older=*/true, st);
  }
  RunBlockResume(Protocol::kWaitDie, /*requester_older=*/true,
                 Stmt::kUpgrade);
}

/// Without a susp_fire hook the same wait parks the calling thread: a
/// second thread's plain handle blocks inside UpdateRmw behind the
/// holder's EX, never returns kSuspended, and gets kOk once the holder
/// commits. Same Database and config as the suspending tests -- only the
/// hook differs.
void TestNoHookParks() {
  HashIndex* idx = nullptr;
  std::unique_ptr<Database> db =
      MakeDb(SuspendConfig(Protocol::kBamboo), &idx, 1);
  ResumeQueue rq;
  Actor holder(db.get(), &rq);
  Actor blocked(db.get(), /*rq=*/nullptr);
  holder.Begin(db.get());
  blocked.Begin(db.get());  // younger: waits for the holder

  char* d = nullptr;
  CHECK(holder.h.Update(idx, 0, &d) == RC::kOk);
  Bump(d, nullptr);

  std::atomic<bool> returned{false};
  RC stmt_rc = RC::kAbort;
  RC commit_rc = RC::kAbort;
  std::thread t([&] {
    stmt_rc = blocked.h.UpdateRmw(idx, 0, Bump, nullptr);
    returned.store(true, std::memory_order_release);
    commit_rc = blocked.h.Commit(RC::kOk);
  });

  // Wait until the request is queued, then give a suspension ample time to
  // come back: a parked thread cannot return before the holder commits.
  Row* row = idx->Get(0);
  for (int i = 0; i < 10000 && db->cc()->locks()->WaiterCount(row) == 0;
       i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  CHECK_EQ(db->cc()->locks()->WaiterCount(row), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK(!returned.load(std::memory_order_acquire));

  holder.h.WriteDone();
  CHECK(holder.h.Commit(RC::kOk) == RC::kOk);
  t.join();

  CHECK(stmt_rc == RC::kOk);
  CHECK(commit_rc == RC::kOk);
  CHECK(!blocked.h.Suspended());
  CHECK_EQ(blocked.stats.suspended_txns, 0ull);
  CHECK(rq.Empty());
  CHECK_EQ(RowValue(idx, 0), 2ull);
}

/// A transaction wounded while suspended: B suspends waiting for A's key,
/// then an older transaction C wounds B over a key B holds. The wound must
/// fire B's continuation; the resumed statement reports the abort, and B's
/// rollback releases its key to C.
void TestWoundMidSuspend() {
  HashIndex* idx = nullptr;
  std::unique_ptr<Database> db =
      MakeDb(SuspendConfig(Protocol::kBamboo), &idx, 2);

  ResumeQueue rq;
  Actor c(db.get(), &rq);
  Actor a(db.get(), &rq);
  Actor b(db.get(), &rq);
  c.Begin(db.get());  // oldest: can wound b
  a.Begin(db.get());
  b.Begin(db.get());  // youngest

  char* d = nullptr;
  CHECK(a.h.Update(idx, 0, &d) == RC::kOk);  // a owns key 0
  Bump(d, nullptr);
  CHECK(b.h.Update(idx, 1, &d) == RC::kOk);  // b owns key 1
  CHECK(b.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kSuspended);
  CHECK(b.h.Suspended());

  // c wants key 1: older than b, so the wound path fires b's continuation
  // (c itself suspends waiting for b's rollback to release the key).
  RC rc_c = c.h.UpdateRmw(idx, 1, Bump, nullptr);
  CHECK(rc_c == RC::kSuspended);

  TxnCB* fired = PopOne(&rq);
  CHECK(fired == &b.cb);
  CHECK(b.cb.IsAborted());

  // b resumes into the abort; its rollback releases key 1, which grants c.
  CHECK(b.h.ResumeSuspended() == RC::kPending);
  CHECK(b.h.UpdateRmw(idx, 0, Bump, nullptr) == RC::kAbort);
  CHECK(b.h.Commit(RC::kOk) == RC::kAbort);

  fired = PopOne(&rq);
  CHECK(fired == &c.cb);
  CHECK(c.h.ResumeSuspended() == RC::kPending);
  CHECK(c.h.UpdateRmw(idx, 1, Bump, nullptr) == RC::kOk);
  CHECK(c.h.Commit(RC::kOk) == RC::kOk);

  a.h.WriteDone();
  CHECK(a.h.Commit(RC::kOk) == RC::kOk);

  CHECK_EQ(RowValue(idx, 0), 1ull);  // a's write only; b never landed
  CHECK_EQ(RowValue(idx, 1), 1ull);  // c's write; b rolled back
}

/// A commit blocked on a dirty-read dependency suspends (SuspKind::kCommit)
/// and resumes straight to its final verdict once the dependency commits.
void TestCommitSuspend() {
  Config cfg = SuspendConfig(Protocol::kBamboo);
  // Force a true dirty read (commit dependency): no Opt-3 snapshot serve,
  // and let the write retire even as the transaction's last operation.
  cfg.bb_opt_raw_read = false;
  cfg.bb_opt_no_retire_tail = false;
  HashIndex* idx = nullptr;
  std::unique_ptr<Database> db = MakeDb(cfg, &idx, 1);

  ResumeQueue rq;
  Actor writer(db.get(), &rq);
  Actor reader(db.get(), &rq);
  writer.Begin(db.get());
  reader.Begin(db.get());

  char* d = nullptr;
  CHECK(writer.h.Update(idx, 0, &d) == RC::kOk);
  Bump(d, nullptr);
  writer.h.WriteDone();  // retires: the dirty version becomes readable

  const char* img = nullptr;
  CHECK(reader.h.Read(idx, 0, &img) == RC::kOk);
  uint64_t seen;
  std::memcpy(&seen, img, 8);
  CHECK_EQ(seen, 1ull);  // the dirty read observed the retired write

  // The commit can't finish until the writer commits. It suspends at its
  // first check of the semaphore, with no spin on this thread: the writer
  // may be driven by this very thread (another connection of its loop).
  RC rc = reader.h.Commit(RC::kOk);
  CHECK(rc == RC::kSuspended);
  CHECK(reader.h.Suspended());

  CHECK(writer.h.Commit(RC::kOk) == RC::kOk);

  TxnCB* fired = PopOne(&rq);
  CHECK(fired == &reader.cb);
  // Commit wait resolved: the resume value is the final verdict.
  CHECK(reader.h.ResumeSuspended() == RC::kOk);
  CHECK(!reader.h.Suspended());

  CHECK_EQ(RowValue(idx, 0), 1ull);
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestBlockResumeBamboo);
  RUN_TEST(TestBlockResumeWoundWait);
  RUN_TEST(TestBlockResumeWaitDie);
  RUN_TEST(TestNoHookParks);
  RUN_TEST(TestWoundMidSuspend);
  RUN_TEST(TestCommitSuspend);
  return test::Summary("suspend_test");
}
