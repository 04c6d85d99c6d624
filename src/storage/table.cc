#include "src/storage/table.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <new>
#include <stdexcept>

namespace bamboo {

namespace {

constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Map `bytes` (a page multiple) of zeroed memory at a 2 MiB boundary and,
/// with `huge`, ask for transparent huge pages. The advice only affects
/// this mapping; a kernel without THP refuses it and the chunk stays on
/// small pages.
char* MapChunk(size_t bytes, bool huge) {
  const size_t len = bytes + kHugePageBytes;
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t raw = reinterpret_cast<uintptr_t>(p);
  const uintptr_t start = (raw + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const size_t head = start - raw;
  if (head != 0) ::munmap(p, head);
  ::munmap(reinterpret_cast<char*>(start) + bytes, len - head - bytes);
  if (huge) ::madvise(reinterpret_cast<void*>(start), bytes, MADV_HUGEPAGE);
  return reinterpret_cast<char*>(start);
}

}  // namespace

uint32_t Schema::ColumnOffset(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return c.offset;
  }
  throw std::out_of_range("unknown column: " + name);
}

size_t Table::ChunkBytes() const {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return (kChunkRows * slot_bytes_ + page - 1) / page * page;
}

Table::~Table() {
  const uint64_t n = row_count();
  for (uint64_t i = 0; i < n; i++) RowAt(i)->~Row();
  for (size_t c = 0; c < chunks_.size(); c++) {
    ::munmap(chunks_[c], ChunkBytes());
  }
}

Row* Table::CreateRow(uint64_t key) {
  const uint64_t n = row_count_.load(std::memory_order_relaxed);
  // The first chunk stays on small pages: a table that never outgrows it
  // (TPC-C's warehouse and district tables, test fixtures) then costs the
  // pages its rows touch, not a 2 MiB huge page each.
  if (n % kChunkRows == 0) {
    chunks_.push_back(MapChunk(ChunkBytes(), /*huge=*/n > 0));
  }
  char* slot = chunks_[n / kChunkRows] + (n % kChunkRows) * slot_bytes_;
  Row* row = new (slot) Row(schema_.row_size(), slot + sizeof(Row));
  row->SetWalId(id_, key);
  row_count_.store(n + 1, std::memory_order_release);
  return row;
}

HashIndex::HashIndex(uint64_t capacity) {
  uint64_t slots = 16;
  while (slots < capacity * 2) slots <<= 1;
  mask_ = slots - 1;
  entries_.resize(slots);
}

void HashIndex::Put(uint64_t key, Row* row) {
  assert(key != kEmpty);
  uint64_t s = HomeSlot(key);
  while (entries_[s].key != kEmpty && entries_[s].key != key) {
    s = (s + 1) & mask_;
  }
  entries_[s] = {key, row};
}

Row* HashIndex::Get(uint64_t key) const {
  uint64_t s = HomeSlot(key);
  while (entries_[s].key != kEmpty) {
    if (entries_[s].key == key) return entries_[s].row;
    s = (s + 1) & mask_;
  }
  return nullptr;
}

}  // namespace bamboo
