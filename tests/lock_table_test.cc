// Single-threaded semantics of the lock manager through the grant-token
// API: compatibility matrix, retire motion between queues, wake-up order,
// and the per-protocol conflict decisions (wound-wait / wait-die /
// no-wait). Tokens returned by Submit are threaded through Resume / Retire
// / Release exactly as TxnHandle does. Config::Validate's errors and
// warnings are checked here too.
#include <atomic>
#include <string>
#include <vector>

#include "src/db/lock_table.h"
#include "src/db/txn.h"
#include "src/storage/row.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

struct Fixture {
  explicit Fixture(Protocol p, bool raw_read = true) {
    cfg.protocol = p;
    // Knobs must be set before the LockManager exists -- it resolves its
    // policy descriptor in the ctor.
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
  AccessGrant ResumeSh(Row* row, TxnCB* t, GrantToken tok) {
    AccessRequest req;
    req.row = row;
    req.type = LockType::kSH;
    req.read_buf = buf;
    return lm->Resume(req, t, tok);
  }

  Config cfg;
  std::atomic<uint64_t> ts_counter{0};
  std::atomic<uint64_t> cts_counter{1};  // CTS authority starts at 1
  LockManager* lm;
  Row row{8};
  char buf[8];
};

TxnCB* MakeTxn(uint64_t ts) {
  TxnCB* t = new TxnCB();
  t->ts.store(ts);
  return t;
}

void TestSharedCompatible() {
  Fixture f(Protocol::kWoundWait);
  TxnCB* t1 = MakeTxn(1);
  TxnCB* t2 = MakeTxn(2);
  AccessGrant g1 = f.Sh(&f.row, t1);
  AccessGrant g2 = f.Sh(&f.row, t2);
  CHECK(g1.rc == AcqResult::kGranted);
  CHECK(g2.rc == AcqResult::kGranted);
  CHECK(g1.token != nullptr);
  CHECK(g2.token != nullptr);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 2u);
  f.lm->Release(&f.row, g1.token, true);
  f.lm->Release(&f.row, g2.token, true);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 0u);
  delete t1;
  delete t2;
}

void TestExclusiveConflictQueues() {
  Fixture f(Protocol::kWoundWait);
  TxnCB* older = MakeTxn(1);
  TxnCB* younger = MakeTxn(2);
  AccessGrant gh = f.Ex(&f.row, older);
  CHECK(gh.rc == AcqResult::kGranted);
  // Younger conflicting requester must wait, not wound. The kWait grant
  // still carries the waiter's token.
  AccessGrant gw = f.Sh(&f.row, younger);
  CHECK(gw.rc == AcqResult::kWait);
  CHECK(gw.token != nullptr);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 1u);
  CHECK(older->status.load() != TxnStatus::kAborted);
  older->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gh.token, true);
  // The waiter was promoted and flagged.
  CHECK_EQ(f.lm->OwnerCount(&f.row), 1u);
  CHECK_EQ(younger->lock_granted.load(), 1u);
  AccessGrant gr = f.ResumeSh(&f.row, younger, gw.token);
  CHECK(gr.rc == AcqResult::kGranted);
  f.lm->Release(&f.row, gr.token, true);
  delete older;
  delete younger;
}

void TestWoundWaitKillsYoungerOwner() {
  Fixture f(Protocol::kWoundWait);
  TxnCB* younger = MakeTxn(10);
  TxnCB* older = MakeTxn(5);
  AccessGrant gy = f.Ex(&f.row, younger);
  CHECK(gy.rc == AcqResult::kGranted);
  AccessGrant go = f.Sh(&f.row, older);
  CHECK(go.rc == AcqResult::kWait);
  // The older requester wounded the younger owner.
  CHECK(younger->status.load() == TxnStatus::kAborted);
  // Wounded owner rolls back; waiter takes over.
  f.lm->Release(&f.row, gy.token, false);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 1u);
  CHECK_EQ(older->lock_granted.load(), 1u);
  f.lm->Release(&f.row, go.token, true);
  delete younger;
  delete older;
}

void TestReleaseWakesInTimestampOrder() {
  Fixture f(Protocol::kWoundWait);
  TxnCB* holder = MakeTxn(1);
  TxnCB* mid = MakeTxn(7);
  TxnCB* late = MakeTxn(10);
  AccessGrant gh = f.Ex(&f.row, holder);
  CHECK(gh.rc == AcqResult::kGranted);
  // Enqueue out of timestamp order: late first, then mid.
  AccessGrant gl = f.Ex(&f.row, late);
  CHECK(gl.rc == AcqResult::kWait);
  AccessGrant gm = f.Ex(&f.row, mid);
  CHECK(gm.rc == AcqResult::kWait);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 2u);
  holder->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gh.token, true);
  // Oldest waiter (mid) wins; late keeps waiting.
  CHECK_EQ(mid->lock_granted.load(), 1u);
  CHECK_EQ(late->lock_granted.load(), 0u);
  mid->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gm.token, true);
  CHECK_EQ(late->lock_granted.load(), 1u);
  f.lm->Release(&f.row, gl.token, true);
  delete holder;
  delete mid;
  delete late;
}

void TestRetireMovesOwnerToRetired() {
  Fixture f(Protocol::kBamboo);
  TxnCB* t = MakeTxn(1);
  AccessGrant g = f.Ex(&f.row, t);
  CHECK(g.rc == AcqResult::kGranted);
  CHECK(g.write_data != nullptr);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 1u);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
  f.lm->Retire(&f.row, g.token);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 0u);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 1u);
  t->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, g.token, true);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
  delete t;
}

void TestBambooReadRetiresAtAcquire() {
  Fixture f(Protocol::kBamboo);  // Opt 1 on by default
  TxnCB* t = MakeTxn(1);
  AccessGrant g = f.Sh(&f.row, t);
  CHECK(g.rc == AcqResult::kGranted);
  CHECK(g.retired);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 0u);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 1u);
  f.lm->Release(&f.row, g.token, true);
  delete t;
}

void TestBambooAcquireBehindRetiredWriter() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);  // force dirty reads
  TxnCB* writer = MakeTxn(1);
  TxnCB* reader = MakeTxn(2);
  ThreadStats stats;
  reader->stats = &stats;
  AccessGrant gw = f.Ex(&f.row, writer);
  *reinterpret_cast<uint64_t*>(gw.write_data) = 42;
  f.lm->Retire(&f.row, gw.token);
  // Younger reader joins behind the retired writer: dirty read + dependency.
  AccessGrant gr = f.Sh(&f.row, reader);
  CHECK(gr.rc == AcqResult::kGranted);
  CHECK(gr.dirty);
  CHECK_EQ(*reinterpret_cast<uint64_t*>(f.buf), 42u);
  CHECK_EQ(reader->commit_semaphore.load(), 1);
  CHECK_EQ(stats.dirty_reads, 1u);
  writer->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gw.token, true);
  CHECK_EQ(reader->commit_semaphore.load(), 0);
  f.lm->Release(&f.row, gr.token, true);
  delete writer;
  delete reader;
}

void TestNoWaitAborts() {
  Fixture f(Protocol::kNoWait);
  TxnCB* t1 = MakeTxn(0);
  TxnCB* t2 = MakeTxn(0);
  AccessGrant g1 = f.Sh(&f.row, t1);
  CHECK(g1.rc == AcqResult::kGranted);
  AccessGrant g2 = f.Ex(&f.row, t2);
  CHECK(g2.rc == AcqResult::kAbort);
  CHECK(g2.token == nullptr);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 0u);
  f.lm->Release(&f.row, g1.token, true);
  delete t1;
  delete t2;
}

void TestWaitDieDecision() {
  Fixture f(Protocol::kWaitDie);
  TxnCB* holder = MakeTxn(10);
  TxnCB* older = MakeTxn(5);
  TxnCB* younger = MakeTxn(20);
  AccessGrant gh = f.Ex(&f.row, holder);
  CHECK(gh.rc == AcqResult::kGranted);
  // Older requester waits...
  AccessGrant go = f.Sh(&f.row, older);
  CHECK(go.rc == AcqResult::kWait);
  // ...the younger one dies.
  CHECK(f.Sh(&f.row, younger).rc == AcqResult::kAbort);
  CHECK(holder->status.load() != TxnStatus::kAborted);  // nobody wounds
  holder->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gh.token, true);
  CHECK_EQ(older->lock_granted.load(), 1u);
  f.lm->Release(&f.row, go.token, true);
  delete holder;
  delete older;
  delete younger;
}

/// Abandoning a wait releases the parked request through its token (the
/// rollback path for kWait grants): the waiter unlinks in O(1) and its
/// slot returns to the pool.
void TestWaiterTokenRelease() {
  Fixture f(Protocol::kWoundWait);
  TxnCB* holder = MakeTxn(1);
  TxnCB* waiter = MakeTxn(2);
  AccessGrant gh = f.Ex(&f.row, holder);
  CHECK(gh.rc == AcqResult::kGranted);
  AccessGrant gw = f.Ex(&f.row, waiter);
  CHECK(gw.rc == AcqResult::kWait);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 1u);
  CHECK_EQ(waiter->pool.live(), 1u);
  f.lm->Release(&f.row, gw.token, /*committed=*/false);
  CHECK_EQ(f.lm->WaiterCount(&f.row), 0u);
  CHECK_EQ(waiter->pool.live(), 0u);
  holder->status.store(TxnStatus::kCommitted);
  f.lm->Release(&f.row, gh.token, true);
  delete holder;
  delete waiter;
}

void TestValidateConfig() {
  {
    Config cfg;
    std::vector<std::string> warnings;
    CHECK(cfg.Validate(&warnings).empty());
    CHECK(warnings.empty());
  }
  {
    // Degenerate shard counts clamp (shard_routing_test pins the clamping
    // contract), so they warn instead of erroring.
    Config cfg;
    cfg.lock_shards = 0;
    std::vector<std::string> warnings;
    CHECK(cfg.Validate(&warnings).empty());
    CHECK(!warnings.empty());
  }
  {
    Config cfg;
    cfg.bb_delta = 1.5;
    CHECK(!cfg.Validate().empty());
  }
  {
    Config cfg;
    cfg.log_enabled = true;
    cfg.log_dir.clear();
    CHECK(!cfg.Validate().empty());
  }
  {
    // Silently-ignored combo: bb_opt_* under wound-wait warns but passes.
    Config cfg;
    cfg.protocol = Protocol::kWoundWait;
    std::vector<std::string> warnings;
    CHECK(cfg.Validate(&warnings).empty());
    CHECK(!warnings.empty());
  }
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestSharedCompatible);
  RUN_TEST(TestExclusiveConflictQueues);
  RUN_TEST(TestWoundWaitKillsYoungerOwner);
  RUN_TEST(TestReleaseWakesInTimestampOrder);
  RUN_TEST(TestRetireMovesOwnerToRetired);
  RUN_TEST(TestBambooReadRetiresAtAcquire);
  RUN_TEST(TestBambooAcquireBehindRetiredWriter);
  RUN_TEST(TestNoWaitAborts);
  RUN_TEST(TestWaitDieDecision);
  RUN_TEST(TestWaiterTokenRelease);
  RUN_TEST(TestValidateConfig);
  return bamboo::test::Summary("lock_table_test");
}
