#ifndef BAMBOO_SRC_STORAGE_ROW_H_
#define BAMBOO_SRC_STORAGE_ROW_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/db/lock_table.h"

namespace bamboo {

struct TxnCB;

/// One dirty (uncommitted) version of a row. Versions form a chain on top
/// of the committed base image, oldest first; the chain order equals the
/// writers' dependency (and therefore commit) order. `data` belongs to the
/// row: it is the row's in-slot spare image or a buffer from its pool.
struct Version {
  TxnCB* writer = nullptr;
  uint64_t writer_seq = 0;
  char* data = nullptr;
};

/// The dirty-version chain: a small vector with one inline entry, so a row
/// written by one transaction at a time never allocates. Two or more
/// overlapping writers move it to a heap array, whose capacity the row
/// then keeps. Not copyable: `v_` may point at the inline entry.
class VersionChain {
 public:
  VersionChain() = default;
  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;
  ~VersionChain() {
    if (v_ != inline_) delete[] v_;
  }

  bool empty() const { return len_ == 0; }
  uint32_t size() const { return len_; }
  Version* begin() { return v_; }
  Version* end() { return v_ + len_; }
  const Version* begin() const { return v_; }
  const Version* end() const { return v_ + len_; }
  Version& front() { return v_[0]; }
  const Version& back() const { return v_[len_ - 1]; }

  void push_back(const Version& v) {
    if (len_ == cap_) Grow();
    v_[len_++] = v;
  }
  void erase(Version* it) {
    std::copy(it + 1, end(), it);
    len_--;
  }

 private:
  void Grow() {
    Version* n = new Version[cap_ * 2];
    std::copy(begin(), end(), n);
    if (v_ != inline_) delete[] v_;
    v_ = n;
    cap_ *= 2;
  }

  Version* v_ = inline_;
  uint32_t len_ = 0;
  uint32_t cap_ = 1;
  Version inline_[1];
};

/// A tuple: committed base image + dirty-version chain + the lock entry
/// with the owners/retired/waiters queues.
///
/// Storage: a Row lives in one contiguous slot (Table's slab chunks), the
/// header followed by three images of ImageStride() bytes each -- the
/// committed base, the retained Opt-3 snapshot and one spare version
/// image. Everything an uncontended grant reads (queue heads, size, WAL
/// identity, base pointer, base CTS, chain bounds) sits in the header's
/// first 128 bytes, so a cold access misses on at most two line pairs.
/// A standalone `Row(size)` (test fixtures) heap-allocates its images.
///
/// Commit-timestamp (CTS) bookkeeping for Opt-3 snapshot reads:
///   - `base_cts` is the commit timestamp of the base image (0 for
///     load-time data and for test-driven commits that never drew a CTS).
///   - One previous committed image is retained on install (the snapshot
///     image), so a raw reader whose snapshot predates the newest commit
///     can still be served the image that commit overwrote.
///
/// Concurrency contract: the version chain, base image and all CTS fields
/// are guarded by the lock entry's latch. Silo bypasses the chain and uses
/// the `silo_tid` seqlock word instead. IC3-style column-level locking is
/// modelled by vertical partitioning in the workload (one Row per column
/// group), not by extra lock entries here.
class Row {
 public:
  /// Standalone row owning heap images (zeroed).
  explicit Row(uint32_t size) : Row(size, new char[ImageBytes(size)]()) {
    owns_images_ = true;
  }
  /// Row over caller-provided zeroed image storage of ImageBytes(size)
  /// bytes, 8-byte aligned (a slab slot's tail).
  Row(uint32_t size, char* images) : size_(size), base_(images) {}
  Row(const Row&) = delete;
  Row& operator=(const Row&) = delete;
  ~Row() {
    for (const Version& v : chain_) {
      if (v.data != SpareImage()) delete[] v.data;
    }
    if (owns_images_) delete[] base_;
  }

  /// Image spacing inside a slot: images stay 8-byte aligned, which the
  /// word-wise CopyRowImage and the Silo seqlock copy rely on.
  static constexpr uint32_t ImageStride(uint32_t size) {
    return (size + 7u) & ~7u;
  }
  /// In-slot image bytes: base, retained snapshot, spare version.
  static constexpr size_t ImageBytes(uint32_t size) {
    return 3 * static_cast<size_t>(ImageStride(size));
  }
  /// Whole slot: header plus images.
  static constexpr size_t SlotBytes(uint32_t size) {
    return sizeof(Row) + ImageBytes(size);
  }

  uint32_t size() const { return size_; }
  char* base() { return base_; }
  const char* base() const { return base_; }

  LockEntry* Lock() { return &lock_; }

  const VersionChain& chain() const { return chain_; }

  /// Append a new dirty version seeded from the current newest image.
  /// Caller holds the lock-entry latch. The in-slot spare image serves the
  /// first writer; overlapping writers draw recycled buffers from this
  /// row's pool (filled by commits/aborts), so steady-state writes never
  /// touch the allocator. The pool's high-water mark is the row's maximum
  /// concurrent writer count minus one.
  char* PushVersion(TxnCB* writer, uint64_t seq) {
    char* img = nullptr;
    if (!spare_busy_) {
      img = SpareImage();
      spare_busy_ = true;
    } else if (!image_pool_.empty()) {
      img = image_pool_.back().release();
      image_pool_.pop_back();
    } else {
      img = new char[size_];
    }
    CopyRowImage(img, NewestData(), size_);
    chain_.push_back({writer, seq, img});
    return img;
  }

  /// Newest image regardless of commit status (the Bamboo dirty read).
  const char* NewestData() const {
    return chain_.empty() ? base_ : chain_.back().data;
  }

  char* FindVersion(const TxnCB* writer, uint64_t seq) {
    for (Version& v : chain_) {
      if (v.writer == writer && v.writer_seq == seq) return v.data;
    }
    return nullptr;
  }

  /// Commit `writer`'s version into the base image and stamp it with the
  /// writer's commit timestamp. Along a conflict chain commits happen in
  /// chain order, so when the writer has a version it must be the oldest.
  /// A writer that acquired EX but never wrote (no version pushed) commits
  /// as a no-op. With `retain` (Bamboo + Opt 3) the overwritten base image
  /// is kept in the in-slot snapshot image so a raw reader pinned before
  /// this commit can still be served.
  void CommitVersion(const TxnCB* writer, uint64_t seq, uint64_t cts,
                     bool retain) {
    if (!chain_.empty() && chain_.front().writer == writer &&
        chain_.front().writer_seq == seq) {
      if (retain && cts > base_cts_) {
        CopyRowImage(SnapImage(), base_, size_);
        snap_cts_ = base_cts_;
        has_snap_ = true;
      }
      CopyRowImage(base_, chain_.front().data, size_);
      RecycleImage(chain_.front().data);
      chain_.erase(chain_.begin());
      if (cts > base_cts_) base_cts_ = cts;
      return;
    }
    assert(FindVersion(writer, seq) == nullptr);  // never commit out of order
  }

  /// Drop `writer`'s version (abort). Removal by identity makes the
  /// operation order-independent when a whole cascade unwinds.
  void AbortVersion(const TxnCB* writer, uint64_t seq) {
    for (Version& v : chain_) {
      if (v.writer == writer && v.writer_seq == seq) {
        RecycleImage(v.data);
        chain_.erase(&v);
        return;
      }
    }
  }

  /// CTS of the committed base image (latch-guarded).
  uint64_t base_cts() const { return base_cts_; }

  // --- WAL identity and recovery (src/db/wal.h). The (table, key) pair is
  // stamped once by Database::LoadRow so commit logging can name the row
  // without an index lookup; RecoverInstall is single-threaded (recovery
  // runs before any worker starts).
  void SetWalId(uint32_t table_id, uint64_t key) {
    wal_table_id_ = table_id;
    wal_key_ = key;
  }
  uint32_t wal_table_id() const { return wal_table_id_; }
  uint64_t wal_key() const { return wal_key_; }

  /// Install a replayed after-image as the committed base. The caller has
  /// already checked `cts > base_cts()` (replay idempotence/ordering).
  void RecoverInstall(const char* image, uint64_t cts) {
    std::memcpy(base_, image, size_);
    base_cts_ = cts;
  }
  /// Retained previous committed image, or nullptr when none was kept.
  const char* SnapData() const { return has_snap_ ? SnapImage() : nullptr; }
  /// CTS of the retained image (meaningful only when SnapData() != nullptr).
  uint64_t snap_cts() const { return snap_cts_; }

  /// Silo TID word: bit 63 is the write lock, low bits the version counter.
  std::atomic<uint64_t>& silo_tid() { return silo_tid_; }
  static constexpr uint64_t kSiloLockBit = 1ull << 63;

 private:
  static void CheckLayout();

  char* SnapImage() const { return base_ + ImageStride(size_); }
  char* SpareImage() const { return base_ + 2 * ImageStride(size_); }

  /// Return a committed or aborted version's image: the spare goes back
  /// to its slot, any other buffer to the pool.
  void RecycleImage(char* img) {
    if (img == SpareImage()) {
      spare_busy_ = false;
    } else {
      image_pool_.emplace_back(img);
    }
  }

  // --- the uncontended grant's footprint: the first 128 bytes
  LockEntry lock_;
  uint32_t size_;
  uint32_t wal_table_id_ = 0;
  uint64_t wal_key_ = 0;
  char* base_;
  uint64_t base_cts_ = 0;  ///< latch-guarded, like the chain
  VersionChain chain_;     ///< bounds in the hot bytes, inline entry after

  // --- colder state
  std::atomic<uint64_t> silo_tid_{0};
  uint64_t snap_cts_ = 0;
  /// Recycled overflow version images (latch-guarded, like the chain).
  /// Only rows that saw two or more concurrent writers ever fill it.
  std::vector<std::unique_ptr<char[]>> image_pool_;
  bool has_snap_ = false;
  bool spare_busy_ = false;
  bool owns_images_ = false;
};

/// Layout guard: the fields an uncontended grant touches must stay inside
/// the first 128 bytes (two cache lines), and slots must keep the images
/// 8-byte aligned.
inline void Row::CheckLayout() {
  static_assert(std::is_standard_layout_v<Row>);
  static_assert(offsetof(Row, chain_) + 2 * sizeof(void*) <= 128,
                "hot Row fields must fit in the first 128 bytes");
  static_assert(sizeof(Row) % 8 == 0 && alignof(Row) == 8);
}

}  // namespace bamboo

#endif  // BAMBOO_SRC_STORAGE_ROW_H_
