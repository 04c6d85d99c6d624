// Coverage for the zero-allocation lock-table hot path: per-transaction
// request pools (slot reuse across retries), intrusive-queue unlink under
// cascading abort, the dependents inline -> spill -> shrink round trip,
// and assertion-backed "no heap allocations after warmup" checks on a
// synthetic hotspot, on a 1000-op scan through TxnHandle (the row-set
// dedup fallback), on the first write of a never-written row, and on a row
// with two overlapping writers. Runs under TSan/ASan via scripts/run_sanitizers.sh.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "src/db/database.h"
#include "src/db/lock_table.h"
#include "src/db/txn_handle.h"
#include "src/storage/row.h"
#include "tests/test_util.h"

// --- replaceable global allocator, counting every heap allocation ---------
//
// The zero-alloc tests warm the pools (request slots, dependent pages,
// version images, arena chunks, row-set slots), snapshot the counter, and
// assert the steady-state loop performs zero allocations. Counting stays on
// for the whole binary; only the assertions look at deltas.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// GCC inlines the sized delete (visible free()) into constructor-throw
// cleanups while leaving the replaced counting new uninlined, then flags
// the pair as mismatched. Every overload here routes through malloc /
// posix_memalign and free, so the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bamboo {
namespace {

struct Fixture {
  explicit Fixture(Protocol p, bool raw_read = true) {
    cfg.protocol = p;
    cfg.bb_opt_raw_read = raw_read;
    lm = new LockManager(cfg, &ts_counter, &cts_counter);
  }
  ~Fixture() { delete lm; }

  AccessGrant Acquire(Row* row, TxnCB* t, LockType type) {
    AccessRequest req;
    req.row = row;
    req.type = type;
    req.read_buf = buf;
    return lm->Submit(req, t);
  }
  AccessGrant Resume(Row* row, TxnCB* t, LockType type, GrantToken tok) {
    AccessRequest req;
    req.row = row;
    req.type = type;
    req.read_buf = buf;
    return lm->Resume(req, t, tok);
  }

  Config cfg;
  std::atomic<uint64_t> ts_counter{0};
  std::atomic<uint64_t> cts_counter{1};
  LockManager* lm;
  Row row{8};
  char buf[8];
};

void BeginAttempt(TxnCB* t, uint64_t ts) {
  t->txn_seq.fetch_add(1, std::memory_order_relaxed);
  t->ResetForAttempt(false);
  t->ts.store(ts, std::memory_order_relaxed);
}

/// A retrying transaction must cycle through the same pool slot: the pool
/// never grows past its inline capacity for a single-access footprint, and
/// every release returns the slot.
void TestSlotReuseAcrossRetries() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  TxnCB t;
  ThreadStats stats;
  t.stats = &stats;
  const uint32_t cap0 = t.pool.capacity();
  CHECK_EQ(t.pool.live(), 0u);
  for (int attempt = 0; attempt < 100; attempt++) {
    BeginAttempt(&t, 1);
    AccessGrant g = f.Acquire(&f.row, &t, LockType::kEX);
    CHECK(g.rc == AcqResult::kGranted);
    CHECK_EQ(t.pool.live(), 1u);
    // Half the attempts abort (the retry shape), half commit.
    bool commit = (attempt % 2) == 0;
    if (commit) t.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, g.token, commit);
    CHECK_EQ(t.pool.live(), 0u);
  }
  CHECK_EQ(t.pool.capacity(), cap0);
  CHECK_EQ(f.lm->OwnerCount(&f.row), 0u);
  CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
}

/// A waiter's slot is pooled too, and survives the waiters -> owners ->
/// release motion without the pool growing.
void TestWaiterSlotRoundTrip() {
  Fixture f(Protocol::kWoundWait);
  TxnCB holder, waiter;
  ThreadStats hs, ws;
  holder.stats = &hs;
  waiter.stats = &ws;
  const uint32_t cap0 = waiter.pool.capacity();
  for (int i = 0; i < 20; i++) {
    BeginAttempt(&holder, 1);
    BeginAttempt(&waiter, 2);
    AccessGrant gh = f.Acquire(&f.row, &holder, LockType::kEX);
    CHECK(gh.rc == AcqResult::kGranted);
    AccessGrant gw = f.Acquire(&f.row, &waiter, LockType::kSH);
    CHECK(gw.rc == AcqResult::kWait);
    CHECK_EQ(waiter.pool.live(), 1u);
    holder.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, gh.token, true);
    CHECK_EQ(waiter.lock_granted.load(), 1u);
    AccessGrant gr = f.Resume(&f.row, &waiter, LockType::kSH, gw.token);
    CHECK(gr.rc == AcqResult::kGranted);
    waiter.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, gr.token, true);
    CHECK_EQ(waiter.pool.live(), 0u);
    CHECK_EQ(holder.pool.live(), 0u);
  }
  CHECK_EQ(waiter.pool.capacity(), cap0);
}

/// Cascading abort across several rows: every dependent is wounded, every
/// request unlinks cleanly from whatever queue it sits in, and all slots
/// return to their pools.
void TestCascadeUnlinkReturnsSlots() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  Row rows[3] = {Row(8), Row(8), Row(8)};
  TxnCB writer;
  ThreadStats wstats;
  writer.stats = &wstats;
  constexpr int kReaders = 5;
  TxnCB readers[kReaders];
  ThreadStats rstats[kReaders];
  AccessGrant wgrants[3];
  AccessGrant rgrants[kReaders];

  BeginAttempt(&writer, 1);
  for (int i = 0; i < 3; i++) {
    wgrants[i] = f.Acquire(&rows[i], &writer, LockType::kEX);
    CHECK(wgrants[i].rc == AcqResult::kGranted);
    f.lm->Retire(&rows[i], wgrants[i].token);
  }
  CHECK_EQ(writer.pool.live(), 3u);
  for (int i = 0; i < kReaders; i++) {
    readers[i].stats = &rstats[i];
    BeginAttempt(&readers[i], 10 + static_cast<uint64_t>(i));
    rgrants[i] = f.Acquire(&rows[i % 3], &readers[i], LockType::kSH);
    CHECK(rgrants[i].rc == AcqResult::kGranted);
    CHECK(rgrants[i].dirty);
    CHECK_EQ(readers[i].commit_semaphore.load(), 1);
  }

  // The retired writer aborts: every dependent dies with it, on every row.
  int wounded = 0;
  for (int i = 0; i < 3; i++) {
    wounded += f.lm->Release(&rows[i], wgrants[i].token, false);
  }
  CHECK_EQ(wounded, kReaders);
  CHECK_EQ(writer.pool.live(), 0u);
  for (int i = 0; i < kReaders; i++) {
    CHECK(readers[i].IsAborted());
    CHECK(readers[i].abort_was_cascade.load());
    f.lm->Release(&rows[i % 3], rgrants[i].token, false);
    CHECK_EQ(readers[i].pool.live(), 0u);
  }
  for (Row& r : rows) {
    CHECK_EQ(f.lm->OwnerCount(&r), 0u);
    CHECK_EQ(f.lm->RetiredCount(&r), 0u);
    CHECK_EQ(f.lm->WaiterCount(&r), 0u);
    CHECK_EQ(r.chain().size(), 0u);
  }
}

/// Dependents overflow the inline array onto pooled spill pages, shrink
/// back as dependents release (scrub), and re-spill from recycled pages
/// without touching the allocator.
void TestDependentsSpillRoundTrip() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  constexpr uint32_t kReaders =
      LockReq::kInlineDeps + DepPage::kCap + 3;  // inline + 1.x pages
  TxnCB writer;
  ThreadStats wstats, rstats;
  writer.stats = &wstats;
  TxnCB readers[kReaders];
  AccessGrant rgrants[kReaders];

  BeginAttempt(&writer, 1);
  AccessGrant gw = f.Acquire(&f.row, &writer, LockType::kEX);
  CHECK(gw.rc == AcqResult::kGranted);
  f.lm->Retire(&f.row, gw.token);

  auto attach_readers = [&]() {
    for (uint32_t i = 0; i < kReaders; i++) {
      readers[i].stats = &rstats;
      BeginAttempt(&readers[i], 10 + static_cast<uint64_t>(i));
      rgrants[i] = f.Acquire(&f.row, &readers[i], LockType::kSH);
      CHECK(rgrants[i].rc == AcqResult::kGranted);
      CHECK(rgrants[i].dirty);
    }
  };
  attach_readers();
  CHECK_EQ(f.lm->DependentCount(&f.row, &writer), kReaders);
  // Page grabs happen at dependent indices kInlineDeps and
  // kInlineDeps + kCap: two spills.
  CHECK_EQ(rstats.pool_spills, 2u);

  // Shrink: all but three readers release; their records are scrubbed and
  // the now-empty tail pages return to the pool.
  for (uint32_t i = 3; i < kReaders; i++) {
    f.lm->Release(&f.row, rgrants[i].token, false);
  }
  CHECK_EQ(f.lm->DependentCount(&f.row, &writer), 3u);

  // Re-spill: a second wave of readers pushes past the inline array again,
  // reusing the recycled pages -- zero new heap allocations.
  for (uint32_t i = 3; i < kReaders; i++) {
    BeginAttempt(&readers[i], 10 + static_cast<uint64_t>(i));
  }
  uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (uint32_t i = 3; i < kReaders; i++) {
    rgrants[i] = f.Acquire(&f.row, &readers[i], LockType::kSH);
    CHECK(rgrants[i].rc == AcqResult::kGranted);
  }
  CHECK_EQ(g_allocs.load(std::memory_order_relaxed) - allocs_before, 0u);
  CHECK_EQ(f.lm->DependentCount(&f.row, &writer), kReaders);
  CHECK(rstats.pool_spills >= 4u);  // the re-spill grabbed pages again

  // Cleanup: the writer aborts; the whole wave cascades.
  f.lm->Release(&f.row, gw.token, false);
  for (uint32_t i = 0; i < kReaders; i++) {
    f.lm->Release(&f.row, rgrants[i].token, false);
  }
  CHECK_EQ(f.lm->RetiredCount(&f.row), 0u);
}

/// The acceptance gate: after a warmup that sizes every pool (request
/// slots, dependent pages, version images, arena chunks, scratch vectors),
/// the steady-state hotspot loop -- acquire, fused RMW retire, dirty read,
/// waiter promote, commit, release -- performs zero heap allocations.
void TestZeroAllocAfterWarmup() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.num_threads = 1;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("v", 8);
  Table* table = db.catalog()->CreateTable("t", schema);
  HashIndex* index = db.catalog()->CreateIndex("t_pk", 64);
  for (uint64_t k = 0; k < 64; k++) db.LoadRow(table, index, k);

  TxnCB wcb, rcb, ycb, zcb;
  ThreadStats stats;
  wcb.stats = &stats;
  rcb.stats = &stats;
  ycb.stats = &stats;
  zcb.stats = &stats;
  TxnHandle w(&db, &wcb), r(&db, &rcb);
  LockManager* lm = db.cc()->locks();
  Row* park_row = index->Get(63);
  char buf[8];

  auto begin = [&](TxnCB* cb) {
    cb->txn_seq.fetch_add(1, std::memory_order_relaxed);
    cb->ResetForAttempt(false);
    db.cc()->Begin(cb);
  };
  RmwFn bump = [](char* d, void*) {
    uint64_t v;
    std::memcpy(&v, d, 8);
    v++;
    std::memcpy(d, &v, 8);
  };
  auto acquire = [&](Row* row, TxnCB* cb, LockType type) {
    AccessRequest req;
    req.row = row;
    req.type = type;
    req.read_buf = buf;
    return lm->Submit(req, cb);
  };

  auto iteration = [&](uint64_t i) {
    // Writer RMW-retires the hotspot and reads cold rows; the reader
    // consumes the dirty hotspot value (dependent + commit semaphore) and
    // reads cold rows; the writer commits first, draining the reader.
    begin(&wcb);
    begin(&rcb);
    wcb.planned_ops = 4;
    rcb.planned_ops = 4;
    CHECK(w.UpdateRmw(index, 0, bump, nullptr) == RC::kOk);
    const char* d = nullptr;
    CHECK(w.Read(index, 1 + (i % 31), &d) == RC::kOk);
    CHECK(r.Read(index, 0, &d) == RC::kOk);
    CHECK(r.Read(index, 32 + (i % 31), &d) == RC::kOk);

    // Waiter path on a second row: a younger reader parks behind an EX
    // owner, gets promoted by the release, completes, releases.
    begin(&zcb);
    begin(&ycb);
    zcb.ts.store(100, std::memory_order_relaxed);
    ycb.ts.store(200, std::memory_order_relaxed);
    AccessGrant gz = acquire(park_row, &zcb, LockType::kEX);
    CHECK(gz.rc == AcqResult::kGranted);
    AccessGrant gy = acquire(park_row, &ycb, LockType::kSH);
    CHECK(gy.rc == AcqResult::kWait);
    zcb.status.store(TxnStatus::kCommitted);
    lm->Release(park_row, gz.token, true);
    CHECK_EQ(ycb.lock_granted.load(), 1u);
    AccessRequest resume_req;
    resume_req.row = park_row;
    resume_req.type = LockType::kSH;
    resume_req.read_buf = buf;
    AccessGrant gr = lm->Resume(resume_req, &ycb, gy.token);
    CHECK(gr.rc == AcqResult::kGranted);
    ycb.status.store(TxnStatus::kCommitted);
    lm->Release(park_row, gr.token, true);

    CHECK(w.Commit(RC::kOk) == RC::kOk);
    CHECK(r.Commit(RC::kOk) == RC::kOk);
  };

  for (uint64_t i = 0; i < 64; i++) iteration(i);  // warmup: size the pools

  uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 256; i++) iteration(i);
  uint64_t delta = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  CHECK_EQ(delta, 0u);
}

/// The executor-layer gate: a 1000-op scan through TxnHandle exceeds the
/// linear-dedup threshold, so it exercises the pooled RowSet fallback, the
/// arena, the access vector, the request pool's slab growth, and the
/// ReadMany batch scratch. After one warmup scan of each shape the
/// steady-state scans perform zero heap allocations -- the executor joins
/// the lock table's zero-allocation guarantee (the old unordered_set
/// fallback allocated a node per access, every attempt).
void TestZeroAllocLongScanThroughHandle() {
  constexpr uint64_t kRows = 1000;
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  // Pin a sharded table so the 1000-key ReadMany crosses shards: the batch
  // path's run splitting, per-run reservation, and shard-sorted release
  // must all stay inside the zero-allocation guarantee.
  cfg.lock_shards = 16;
  cfg.num_threads = 1;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("v", 8);
  Table* table = db.catalog()->CreateTable("t", schema);
  HashIndex* index = db.catalog()->CreateIndex("t_pk", kRows);
  for (uint64_t k = 0; k < kRows; k++) db.LoadRow(table, index, k);

  TxnCB cb;
  ThreadStats stats;
  cb.stats = &stats;
  TxnHandle h(&db, &cb);
  auto begin = [&]() {
    cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
    cb.ResetForAttempt(false);
    db.cc()->Begin(&cb);
  };

  static uint64_t keys[kRows];
  static const char* data_out[kRows];
  for (uint64_t k = 0; k < kRows; k++) keys[k] = k;

  auto scan_per_key = [&]() {
    begin();
    cb.planned_ops = static_cast<int>(kRows);
    for (uint64_t k = 0; k < kRows; k++) {
      const char* d = nullptr;
      CHECK(h.Read(index, k, &d) == RC::kOk);
    }
    CHECK(h.Commit(RC::kOk) == RC::kOk);
  };
  auto scan_batched = [&]() {
    begin();
    cb.planned_ops = static_cast<int>(kRows);
    CHECK(h.ReadMany(index, keys, static_cast<int>(kRows), data_out) ==
          RC::kOk);
    CHECK(h.Commit(RC::kOk) == RC::kOk);
  };

  // Warmup: one scan of each shape sizes every retained structure.
  scan_per_key();
  scan_batched();

  uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 4; rep++) {
    scan_per_key();
    scan_batched();
  }
  uint64_t delta = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  CHECK_EQ(delta, 0u);
}

/// A row's first write needs no allocation either: the version image, the
/// chain entry and the retained Opt-3 snapshot all live in the row's slab
/// slot. After the executor is warmed on other rows, a transaction that
/// RMWs a never-written row and commits performs zero heap allocations.
void TestZeroAllocFirstWriteOnFreshRow() {
  constexpr uint64_t kRows = 256;
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.num_threads = 1;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("v", 8);
  Table* table = db.catalog()->CreateTable("t", schema);
  HashIndex* index = db.catalog()->CreateIndex("t_pk", kRows);
  for (uint64_t k = 0; k < kRows; k++) db.LoadRow(table, index, k);

  TxnCB cb;
  ThreadStats stats;
  cb.stats = &stats;
  TxnHandle h(&db, &cb);
  RmwFn bump = [](char* d, void*) {
    uint64_t v;
    std::memcpy(&v, d, 8);
    v++;
    std::memcpy(d, &v, 8);
  };
  auto write_and_commit = [&](uint64_t key) {
    cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
    cb.ResetForAttempt(false);
    db.cc()->Begin(&cb);
    cb.planned_ops = 1;
    CHECK(h.UpdateRmw(index, key, bump, nullptr) == RC::kOk);
    CHECK(h.Commit(RC::kOk) == RC::kOk);
  };

  for (uint64_t k = 0; k < 16; k++) write_and_commit(k);  // warm the executor
  for (uint64_t k = 16; k < kRows; k++) {
    uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    write_and_commit(k);  // first write ever on row k
    CHECK_EQ(g_allocs.load(std::memory_order_relaxed) - allocs_before, 0u);
  }
  for (uint64_t k = 0; k < kRows; k++) {
    uint64_t v;
    std::memcpy(&v, index->Get(k)->base(), 8);
    CHECK_EQ(v, 1u);
  }
}

/// Two overlapping writers on one row: the second version image comes from
/// the row's pool (the in-slot spare is taken), and after the first round
/// both the pool and the grown chain are reused -- zero allocations.
void TestTwoWritersRecycleThroughPool() {
  Fixture f(Protocol::kBamboo, /*raw_read=*/false);
  TxnCB a, b;
  ThreadStats as, bs;
  a.stats = &as;
  b.stats = &bs;
  auto round = [&]() {
    BeginAttempt(&a, 1);
    BeginAttempt(&b, 2);
    AccessGrant ga = f.Acquire(&f.row, &a, LockType::kEX);
    CHECK(ga.rc == AcqResult::kGranted);
    f.lm->Retire(&f.row, ga.token);
    AccessGrant gb = f.Acquire(&f.row, &b, LockType::kEX);
    CHECK(gb.rc == AcqResult::kGranted);
    CHECK(gb.dirty);
    CHECK(gb.write_data != ga.write_data);
    CHECK_EQ(f.row.chain().size(), 2u);
    a.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, ga.token, true);
    b.status.store(TxnStatus::kCommitted);
    f.lm->Release(&f.row, gb.token, true);
    CHECK_EQ(f.row.chain().size(), 0u);
  };
  round();  // warmup: the pool and the chain grow once
  uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; i++) round();
  CHECK_EQ(g_allocs.load(std::memory_order_relaxed) - allocs_before, 0u);
}

/// The shard latch counters and the per-thread ThreadStats are two books
/// of the same contention events, written together by ShardGuard. With
/// detached (pipelined) commits in the mix -- where a foreign thread
/// performs the release on the owner's behalf -- the totals must still
/// agree exactly: a release charged to the wrong stats object, or charged
/// twice, breaks the equality.
void TestShardStatsAggregation() {
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.lock_shards = 16;
  cfg.num_threads = kThreads;
  Database db(cfg);
  Schema schema;
  schema.AddColumn("v", 8);
  Table* table = db.catalog()->CreateTable("t", schema);
  HashIndex* index = db.catalog()->CreateIndex("t_pk", 32);
  for (uint64_t k = 0; k < 16; k++) db.LoadRow(table, index, k);

  static ThreadStats stats[kThreads];
  RmwFn bump = [](char* d, void*) {
    uint64_t v;
    std::memcpy(&v, d, 8);
    v++;
    std::memcpy(d, &v, 8);
  };
  std::thread threads[kThreads];
  for (int t = 0; t < kThreads; t++) {
    threads[t] = std::thread([&, t] {
      TxnCB cb;
      cb.stats = &stats[t];
      std::atomic<uint32_t> wake{0};
      cb.owner_wake = &wake;
      TxnHandle h(&db, &cb);
      // One worker pipelines its commits: the release then runs on
      // whichever thread drains its barrier, exercising the detached
      // charge-to-executing-thread path.
      h.SetDetachAllowed(t == 0);
      for (int i = 0; i < kIters; i++) {
        cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
        cb.ResetForAttempt(false);
        db.cc()->Begin(&cb);
        cb.planned_ops = 2;
        RC rc = h.UpdateRmw(index, 0, bump, nullptr);  // hotspot
        if (rc == RC::kOk) {
          const char* d = nullptr;
          rc = h.Read(index, 1 + static_cast<uint64_t>(i) % 15, &d);
        }
        rc = h.Commit(rc == RC::kOk ? RC::kOk : RC::kAbort);
        if (rc == RC::kPending) {
          // The TxnCB is on loan to the completer until it publishes the
          // outcome; only then may the next attempt reset it.
          while (cb.detach_state.load(std::memory_order_acquire) == 1u) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  uint64_t shard_spins = 0, shard_waits = 0;
  db.cc()->locks()->ShardLatchTotals(&shard_spins, &shard_waits);
  uint64_t stat_spins = 0, stat_waits = 0;
  for (const ThreadStats& s : stats) {
    stat_spins += s.latch_spins;
    stat_waits += s.latch_waits;
  }
  CHECK_EQ(shard_spins, stat_spins);
  CHECK_EQ(shard_waits, stat_waits);
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestSlotReuseAcrossRetries);
  RUN_TEST(TestWaiterSlotRoundTrip);
  RUN_TEST(TestCascadeUnlinkReturnsSlots);
  RUN_TEST(TestDependentsSpillRoundTrip);
  RUN_TEST(TestZeroAllocAfterWarmup);
  RUN_TEST(TestZeroAllocLongScanThroughHandle);
  RUN_TEST(TestZeroAllocFirstWriteOnFreshRow);
  RUN_TEST(TestTwoWritersRecycleThroughPool);
  RUN_TEST(TestShardStatsAggregation);
  return bamboo::test::Summary("req_pool_test");
}
