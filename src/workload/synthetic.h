#ifndef BAMBOO_SRC_WORKLOAD_SYNTHETIC_H_
#define BAMBOO_SRC_WORKLOAD_SYNTHETIC_H_

#include "src/workload/workload.h"

namespace bamboo {

/// The paper's Section 3/5.2 microbenchmark: each transaction performs
/// `synth_ops_per_txn` operations; up to two of them are read-modify-writes
/// on dedicated global hotspot rows at configurable positions, the rest are
/// uniform random reads over a cold table.
class SyntheticWorkload : public Workload {
 public:
  explicit SyntheticWorkload(const Config& cfg) : cfg_(cfg) {}

  void Load(Database* db) override;
  RC RunTxn(TxnHandle* handle, Rng* rng) override;

 private:
  /// Multi-key variant (cfg.synth_batch_ops): hotspot RMWs via
  /// UpdateRmwMany, cold reads via ReadMany.
  RC RunTxnBatched(TxnHandle* handle, Rng* rng);
  const Config& cfg_;
  HashIndex* cold_ = nullptr;
  HashIndex* hot_ = nullptr;
  int hot_op_[2] = {-1, -1};  ///< op index of each hotspot
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_WORKLOAD_SYNTHETIC_H_
