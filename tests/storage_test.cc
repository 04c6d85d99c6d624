// Storage-layer coverage: the open-addressed HashIndex (collisions, missing
// keys, probes that wrap past the last slot), the slab-allocated Table (Row
// pointers stable across chunk boundaries, RowAt agreeing with CreateRow,
// publication to a concurrent reader), the in-slot images (zeroed, 8-byte
// aligned), and the version chain / image recycling of both slab rows and
// standalone Row(size) fixtures. Runs under TSan/ASan via
// scripts/run_sanitizers.sh.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/db/database.h"
#include "src/storage/row.h"
#include "src/storage/table.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

bool Aligned8(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & 7u) == 0;
}

bool AllZero(const char* p, uint32_t n) {
  for (uint32_t i = 0; i < n; i++) {
    if (p[i] != 0) return false;
  }
  return true;
}

Schema OneColumn(uint32_t bytes) {
  Schema s;
  s.AddColumn("v", bytes);
  return s;
}

/// Keys sharing a home slot probe onward; a run that starts in the last
/// slot wraps to slot 0. Lookups of absent keys stop at the first empty
/// slot, also after wrapping.
void TestHashIndexCollisionsAndWrap() {
  HashIndex idx(8);
  const uint64_t slots = idx.slot_count();
  CHECK_EQ(slots, 16u);
  // A key whose home is the last slot, and two more with the same home
  // (the multiplicative hash keeps the low bits: k and k + slots collide).
  uint64_t a = 0;
  while (idx.HomeSlot(a) != slots - 1) a++;
  const uint64_t b = a + slots;
  const uint64_t c = a + 2 * slots;
  const uint64_t absent = a + 3 * slots;
  CHECK_EQ(idx.HomeSlot(b), slots - 1);
  CHECK_EQ(idx.HomeSlot(c), slots - 1);
  CHECK_EQ(idx.HomeSlot(absent), slots - 1);

  Row ra(8), rb(8), rc(8), rc2(8);
  CHECK(idx.Get(a) == nullptr);  // empty index
  idx.Put(a, &ra);
  idx.Put(b, &rb);  // wraps to slot 0
  idx.Put(c, &rc);  // wraps to slot 1
  CHECK(idx.Get(a) == &ra);
  CHECK(idx.Get(b) == &rb);
  CHECK(idx.Get(c) == &rc);
  // Absent with the same home: probes slots-1, 0, 1 and stops at 2.
  CHECK(idx.Get(absent) == nullptr);
  // Absent with an empty home slot.
  uint64_t lonely = 0;
  while (idx.HomeSlot(lonely) != 5) lonely++;
  CHECK(idx.Get(lonely) == nullptr);
  // Re-putting a key replaces its row in place instead of adding a slot.
  idx.Put(c, &rc2);
  CHECK(idx.Get(c) == &rc2);
  CHECK(idx.Get(a) == &ra);
  CHECK(idx.Get(b) == &rb);
}

/// Rows keep their addresses while the table grows past slab chunk
/// boundaries, RowAt(i) is the pointer CreateRow returned, and each row
/// carries the WAL identity it was created with.
void TestSlabPointersStable() {
  const uint64_t n = 2 * Table::kChunkRows + 7;
  Table t("t", OneColumn(8));
  t.set_id(3);
  std::vector<Row*> created;
  for (uint64_t i = 0; i < n; i++) {
    created.push_back(t.CreateRow(1000 + i));
    // Earlier rows never move, also right after a new chunk was mapped.
    if (i == Table::kChunkRows || i == 2 * Table::kChunkRows) {
      for (uint64_t j = 0; j < i; j += 997) CHECK(t.RowAt(j) == created[j]);
    }
  }
  CHECK_EQ(t.row_count(), n);
  for (uint64_t i = 0; i < n; i++) {
    Row* r = t.RowAt(i);
    CHECK(r == created[i]);
    CHECK_EQ(r->wal_table_id(), 3u);
    CHECK_EQ(r->wal_key(), 1000 + i);
  }
  // Inside a chunk, slots are contiguous.
  const char* first = reinterpret_cast<const char*>(created[0]);
  const char* second = reinterpret_cast<const char*>(created[1]);
  CHECK_EQ(static_cast<uint64_t>(second - first), Row::SlotBytes(8));
  // Writes through one row stay inside its slot.
  for (uint64_t i = 0; i < n; i++) std::memcpy(created[i]->base(), &i, 8);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t v;
    std::memcpy(&v, t.RowAt(i)->base(), 8);
    CHECK_EQ(v, i);
  }
}

/// Every image a row hands out -- base, spare version, retained snapshot,
/// pooled overflow version -- starts 8-byte aligned, and fresh base images
/// are zeroed, for odd and even row sizes alike.
void TestImagesZeroedAndAligned() {
  const uint32_t sizes[] = {1, 5, 8, 13, 24, 100};
  for (uint32_t size : sizes) {
    Table t("t", OneColumn(size));
    for (uint64_t i = 0; i < 5; i++) {
      Row* r = t.CreateRow(i);
      CHECK_EQ(r->size(), size);
      CHECK(Aligned8(r));
      CHECK(Aligned8(r->base()));
      CHECK(AllZero(r->base(), size));
      CHECK(r->SnapData() == nullptr);
    }
    Row* r = t.RowAt(4);
    TxnCB w1, w2;
    char* v1 = r->PushVersion(&w1, 1);
    CHECK(Aligned8(v1));
    CHECK(AllZero(v1, size));
    std::memset(v1, 0x5a, size);
    char* v2 = r->PushVersion(&w2, 1);  // overlapping writer: pooled image
    CHECK(v2 != v1);
    CHECK(Aligned8(v2));
    CHECK_EQ(static_cast<unsigned char>(v2[size - 1]), 0x5au);
    r->CommitVersion(&w1, 1, /*cts=*/7, /*retain=*/true);
    CHECK(Aligned8(r->SnapData()));
    CHECK(AllZero(r->SnapData(), size));  // the overwritten load image
    CHECK_EQ(r->snap_cts(), 0u);
    CHECK_EQ(r->base_cts(), 7u);
    r->AbortVersion(&w2, 1);
    CHECK_EQ(r->chain().size(), 0u);
    // The neighbor slot was never touched.
    CHECK(AllZero(t.RowAt(3)->base(), size));
  }
}

/// Version chain semantics on a standalone Row(8) (the fixture the lock
/// manager tests use): the spare image serves one writer at a time,
/// overlapping writers spill to the pool and grow the chain, aborts remove
/// by identity, and commits install in order.
void TestStandaloneRowChain() {
  Row row(8);
  CHECK(Aligned8(row.base()));
  CHECK(AllZero(row.base(), 8));
  TxnCB a, b, c;
  uint64_t v = 11;
  for (int round = 0; round < 3; round++) {
    char* da = row.PushVersion(&a, 1);
    std::memcpy(da, &v, 8);
    char* db = row.PushVersion(&b, 1);  // seeded from a's dirty image
    char* dc = row.PushVersion(&c, 1);
    CHECK_EQ(row.chain().size(), 3u);
    CHECK(std::memcmp(db, &v, 8) == 0);
    CHECK(std::memcmp(dc, &v, 8) == 0);
    CHECK(row.FindVersion(&b, 1) == db);
    CHECK(row.FindVersion(&b, 2) == nullptr);
    CHECK(row.NewestData() == dc);
    row.AbortVersion(&b, 1);  // middle of the chain
    CHECK_EQ(row.chain().size(), 2u);
    CHECK(row.NewestData() == dc);
    row.CommitVersion(&a, 1, 0, /*retain=*/false);
    CHECK(std::memcmp(row.base(), &v, 8) == 0);
    CHECK_EQ(row.chain().size(), 1u);
    uint64_t w = v + 1;
    std::memcpy(dc, &w, 8);
    row.CommitVersion(&c, 1, 0, /*retain=*/false);
    CHECK(row.chain().empty());
    CHECK(row.NewestData() == row.base());
    CHECK(std::memcmp(row.base(), &w, 8) == 0);
    v = w + 1;
  }
  // Left dirty on purpose: the destructor frees the pooled images still in
  // the chain (ASan checks it).
  row.PushVersion(&a, 2);
  row.PushVersion(&b, 2);
}

/// RowAt / row_count read concurrently with CreateRow: every published row
/// is fully constructed and stamped (TSan checks the publication order).
void TestConcurrentScanDuringLoad() {
  const uint64_t n = 3 * Table::kChunkRows;
  Table t("t", OneColumn(8));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    uint64_t seen = 0;
    while (!done.load(std::memory_order_acquire) || seen < n) {
      const uint64_t count = t.row_count();
      for (uint64_t i = seen; i < count; i++) {
        if (t.RowAt(i)->wal_key() != i || t.RowAt(i)->size() != 8) bad++;
      }
      seen = count;
    }
  });
  for (uint64_t i = 0; i < n; i++) t.CreateRow(i);
  done.store(true, std::memory_order_release);
  reader.join();
  CHECK_EQ(bad.load(), 0u);
}

/// Catalog::table_count / TableAt read concurrently with CreateTable.
void TestConcurrentCatalogWalk() {
  constexpr int kTables = 40;  // several directory doublings
  Database db(Config{});
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const size_t n = db.catalog()->table_count();
      for (size_t i = 0; i < n; i++) {
        if (db.catalog()->TableAt(i)->id() != i) bad++;
      }
    }
  });
  for (int i = 0; i < kTables; i++) {
    Table* t = db.catalog()->CreateTable("t" + std::to_string(i),
                                         OneColumn(8));
    t->CreateRow(0);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  CHECK_EQ(bad.load(), 0u);
  CHECK_EQ(db.catalog()->table_count(), static_cast<size_t>(kTables));
  for (int i = 0; i < kTables; i++) {
    CHECK(db.catalog()->TableAt(i) ==
          db.catalog()->GetTable("t" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestHashIndexCollisionsAndWrap);
  RUN_TEST(TestSlabPointersStable);
  RUN_TEST(TestImagesZeroedAndAligned);
  RUN_TEST(TestStandaloneRowChain);
  RUN_TEST(TestConcurrentScanDuringLoad);
  RUN_TEST(TestConcurrentCatalogWalk);
  return bamboo::test::Summary("storage_test");
}
