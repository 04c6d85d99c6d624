#include "src/workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace bamboo {

void SyntheticWorkload::Load(Database* db) {
  Schema cold_schema;
  cold_schema.AddColumn("val", 8);
  Table* cold_tbl = db->catalog()->CreateTable("cold", cold_schema);
  cold_ = db->catalog()->CreateIndex("cold_pk", cfg_.synth_rows);
  for (uint64_t k = 0; k < cfg_.synth_rows; k++) {
    db->LoadRow(cold_tbl, cold_, k);
  }

  Schema hot_schema;
  hot_schema.AddColumn("counter", 8);
  Table* hot_tbl = db->catalog()->CreateTable("hot", hot_schema);
  const int hotspots = std::max(cfg_.synth_num_hotspots, 0);
  hot_ = db->catalog()->CreateIndex("hot_pk",
                                    static_cast<uint64_t>(hotspots) + 1);
  for (int h = 0; h < hotspots; h++) {
    db->LoadRow(hot_tbl, hot_, static_cast<uint64_t>(h));
  }

  // Map hotspot positions [0,1] onto op slots once; all transactions share
  // the access pattern (that is the point of the experiment).
  int ops = std::max(cfg_.synth_ops_per_txn, 1);
  for (int h = 0; h < hotspots && h < 2; h++) {
    int slot = static_cast<int>(
        std::lround(cfg_.synth_hotspot_pos[h] * static_cast<double>(ops - 1)));
    hot_op_[h] = std::min(std::max(slot, 0), ops - 1);
  }
  // Two hotspots mapped to the same slot: push the second one right.
  if (hotspots >= 2 && hot_op_[1] == hot_op_[0]) {
    hot_op_[1] = std::min(hot_op_[0] + 1, ops - 1);
    if (hot_op_[1] == hot_op_[0]) hot_op_[0] = std::max(0, hot_op_[1] - 1);
  }
}

RC SyntheticWorkload::RunTxn(TxnHandle* handle, Rng* rng) {
  if (cfg_.synth_batch_ops) return RunTxnBatched(handle, rng);
  int ops = std::max(cfg_.synth_ops_per_txn, 1);
  handle->txn()->planned_ops = ops;
  for (int i = 0; i < ops; i++) {
    int hotspot = -1;
    for (int h = 0; h < 2; h++) {
      if (hot_op_[h] == i && h < cfg_.synth_num_hotspots) hotspot = h;
    }
    if (hotspot >= 0) {
      // Fused RMW: the hotspot counter bump applies (and retires) inside
      // one latch hold.
      RmwFn bump = [](char* d, void*) {
        uint64_t v;
        std::memcpy(&v, d, 8);
        v++;
        std::memcpy(d, &v, 8);
      };
      if (handle->UpdateRmw(hot_, static_cast<uint64_t>(hotspot), bump,
                            nullptr) != RC::kOk) {
        return handle->Commit(RC::kOk);  // rolls back, reports kAbort
      }
    } else {
      const char* data = nullptr;
      if (handle->Read(cold_, rng->Uniform(cfg_.synth_rows), &data) !=
          RC::kOk) {
        return handle->Commit(RC::kOk);
      }
    }
  }
  return handle->Commit(RC::kOk);
}

RC SyntheticWorkload::RunTxnBatched(TxnHandle* handle, Rng* rng) {
  // Multi-key statement shape: the hotspot read-modify-writes go out as one
  // UpdateRmwMany (their configured positions collapse to the front, the
  // bench_single_hotspot configuration), the cold reads as ReadMany chunks.
  // Stack chunks keep the driver allocation-free for arbitrary txn lengths.
  int ops = std::max(cfg_.synth_ops_per_txn, 1);
  handle->txn()->planned_ops = ops;
  RmwFn bump = [](char* d, void*) {
    uint64_t v;
    std::memcpy(&v, d, 8);
    v++;
    std::memcpy(d, &v, 8);
  };

  int n_hot = std::min(std::max(cfg_.synth_num_hotspots, 0), 2);
  n_hot = std::min(n_hot, ops);
  if (n_hot > 0) {
    uint64_t hot_keys[2] = {0, 1};
    if (handle->UpdateRmwMany(hot_, hot_keys, n_hot, bump, nullptr) !=
        RC::kOk) {
      return handle->Commit(RC::kOk);  // rolls back, reports kAbort
    }
  }

  int n_cold = ops - n_hot;
  while (n_cold > 0) {
    constexpr int kChunk = 64;
    uint64_t keys[kChunk];
    const char* data[kChunk];
    int chunk = std::min(n_cold, kChunk);
    for (int i = 0; i < chunk; i++) keys[i] = rng->Uniform(cfg_.synth_rows);
    if (handle->ReadMany(cold_, keys, chunk, data) != RC::kOk) {
      return handle->Commit(RC::kOk);
    }
    n_cold -= chunk;
  }
  return handle->Commit(RC::kOk);
}

}  // namespace bamboo
