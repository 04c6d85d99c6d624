#ifndef BAMBOO_SRC_DB_POLICY_H_
#define BAMBOO_SRC_DB_POLICY_H_

#include <cstdint>

#include "src/common/config.h"

namespace bamboo {

// The contention-policy descriptor: every protocol decision of the lock
// manager is captured in a small vtable-free descriptor (the stmgc
// contention-manager shape: admission rule, retire eligibility, repair
// hook as plain data) instead of switches on Config::protocol. Each
// LockManager resolves one descriptor from its Config at construction and
// applies it to every row. The Opt-3 soundness gates (the pinned-raw-reader
// write abort, CTS observation/retention) are cached as flags in the lock
// manager; see DESIGN.md "Contention policy descriptor".

/// What to do with a conflicting holder (owner or uncommitted retired).
enum class ConflictRule : uint8_t {
  kAbort,         ///< no-wait: the requester aborts on any conflict
  kDieYounger,    ///< wait-die: requester dies unless older than all holders
  kWoundYounger,  ///< wound-wait/Bamboo: requester wounds younger holders
};

/// Whether owners may move to the retired list (early lock release).
enum class RetireMode : uint8_t {
  kNever,  ///< plain 2PL: locks are held to commit; no cascade bookkeeping
  kHonor,  ///< Bamboo: retire when the caller asks (Opt-2 tail writes skip)
};

/// Protocol descriptor. Plain data, compared and copied freely.
struct ContentionPolicy {
  ConflictRule conflict = ConflictRule::kWoundYounger;
  RetireMode retire = RetireMode::kHonor;
  /// Opt 1: shared grants are placed directly on the retired list.
  bool retire_reads = false;
  /// Opt 3: readers older than all uncommitted retired writers take the
  /// raw-snapshot branch instead of wounding.
  bool raw_read = false;
  /// Run the wait-die waiter-order repair hook after queue mutations.
  bool waitdie_repair = false;
};

/// Descriptor for a fixed protocol (what the deleted switch sites did).
/// kSilo never reaches the lock manager; it maps to the conservative
/// wound-wait shape so the path stays well-defined if ever hit.
inline ContentionPolicy FixedPolicy(const Config& cfg) {
  ContentionPolicy p;
  switch (cfg.protocol) {
    case Protocol::kBamboo:
      p.conflict = ConflictRule::kWoundYounger;
      p.retire = RetireMode::kHonor;
      p.retire_reads = cfg.bb_opt_read_retire;
      p.raw_read = cfg.bb_opt_raw_read;
      break;
    case Protocol::kWoundWait:
    case Protocol::kIc3:
    case Protocol::kSilo:
      p.conflict = ConflictRule::kWoundYounger;
      p.retire = RetireMode::kNever;
      break;
    case Protocol::kWaitDie:
      p.conflict = ConflictRule::kDieYounger;
      p.retire = RetireMode::kNever;
      p.waitdie_repair = true;
      break;
    case Protocol::kNoWait:
      p.conflict = ConflictRule::kAbort;
      p.retire = RetireMode::kNever;
      break;
  }
  return p;
}

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_POLICY_H_
