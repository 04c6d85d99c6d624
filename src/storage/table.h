#ifndef BAMBOO_SRC_STORAGE_TABLE_H_
#define BAMBOO_SRC_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/row.h"

namespace bamboo {

/// Fixed-size columnar layout descriptor. Offsets are assigned in
/// AddColumn order; workloads address fields via ColumnOffset at load time
/// and cache the offsets.
class Schema {
 public:
  Schema& AddColumn(const std::string& name, uint32_t size) {
    columns_.push_back({name, row_size_, size});
    row_size_ += size;
    return *this;
  }

  uint32_t ColumnOffset(const std::string& name) const;
  uint32_t row_size() const { return row_size_ == 0 ? 1 : row_size_; }

 private:
  struct Column {
    std::string name;
    uint32_t offset;
    uint32_t size;
  };
  std::vector<Column> columns_;
  uint32_t row_size_ = 0;
};

/// Append-only pointer array with one writer and latch-free readers. The
/// size is published with a release store after the new slot is written,
/// and a full directory is replaced by a doubled copy while the old one
/// stays alive, so a reader never indexes storage the writer is growing.
template <typename T>
class PublishedArray {
 public:
  size_t size() const { return size_.load(std::memory_order_acquire); }
  /// Valid for i < size().
  T* operator[](size_t i) const {
    return dir_.load(std::memory_order_acquire)[i];
  }

  /// Writer only.
  void push_back(T* p) {
    const size_t n = size_.load(std::memory_order_relaxed);
    if (n == cap_) Grow();
    dirs_.back()[n] = p;
    size_.store(n + 1, std::memory_order_release);
  }

 private:
  void Grow() {
    const size_t ncap = cap_ == 0 ? 8 : cap_ * 2;
    std::unique_ptr<T*[]> nd(new T*[ncap]());
    if (cap_ != 0) {
      std::copy(dirs_.back().get(), dirs_.back().get() + cap_, nd.get());
    }
    dir_.store(nd.get(), std::memory_order_release);
    dirs_.push_back(std::move(nd));
    cap_ = ncap;
  }

  std::atomic<size_t> size_{0};
  std::atomic<T**> dir_{nullptr};
  size_t cap_ = 0;
  /// Every directory ever published, the current one last (writer only).
  std::vector<std::unique_ptr<T*[]>> dirs_;
};

/// Row container. Rows live in slab chunks of kChunkRows fixed-size slots
/// (Row::SlotBytes: the header plus its in-slot images), so a row is one
/// contiguous block and Row pointers stay stable for the Table's lifetime.
/// Chunks are 2 MiB aligned; all but the first are advised for transparent
/// huge pages.
/// Deletion is not supported (none of the workloads need it).
///
/// Concurrency: CreateRow has one writer (the loader); row_count and RowAt
/// may run concurrently with it (the checkpointer walks tables during
/// load). A row is published -- row_count bumped with a release store --
/// only once it is constructed and its WAL identity is stamped.
class Table {
 public:
  /// Rows per slab chunk (3.5 MiB for YCSB's 8-byte rows).
  static constexpr uint64_t kChunkRows = 16384;

  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        slot_bytes_(Row::SlotBytes(schema_.row_size())) {}
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Construct the next row (zeroed image), stamp its WAL identity
  /// (id(), key) and publish it.
  Row* CreateRow(uint64_t key);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t row_count() const {
    return row_count_.load(std::memory_order_acquire);
  }

  /// Positional access for whole-table scans (checkpointing). Valid for
  /// i < row_count().
  Row* RowAt(uint64_t i) const {
    return reinterpret_cast<Row*>(chunks_[i / kChunkRows] +
                                  (i % kChunkRows) * slot_bytes_);
  }

  /// Catalog-assigned position, stable for the Database's lifetime; WAL
  /// records name tables by this id (0 for tables created outside a
  /// Catalog, which are never logged).
  uint32_t id() const { return id_; }
  void set_id(uint32_t id) { id_ = id; }

 private:
  size_t ChunkBytes() const;

  std::string name_;
  Schema schema_;
  uint32_t id_ = 0;
  const size_t slot_bytes_;
  PublishedArray<char> chunks_;
  std::atomic<uint64_t> row_count_{0};
};

/// Fixed-capacity open-addressing hash index (linear probing). Built once
/// at load time from a single thread, then read-only and latch-free on the
/// query path. Keys and row pointers share one array, so a probe that
/// hits its home slot touches a single cache line.
class HashIndex {
 public:
  explicit HashIndex(uint64_t capacity);

  void Put(uint64_t key, Row* row);
  Row* Get(uint64_t key) const;

  /// Probe start for `key`; a collision probes onward, wrapping at
  /// slot_count() (exposed so tests can build collisions on purpose).
  uint64_t HomeSlot(uint64_t key) const {
    // Fibonacci hashing spreads dense key ranges across the table.
    return (key * 0x9e3779b97f4a7c15ull) & mask_;
  }
  uint64_t slot_count() const { return mask_ + 1; }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  struct Entry {
    uint64_t key = kEmpty;
    Row* row = nullptr;
  };

  uint64_t mask_;
  std::vector<Entry> entries_;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_STORAGE_TABLE_H_
