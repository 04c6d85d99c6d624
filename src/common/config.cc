#include "src/common/config.h"

#include <cstdlib>
#include <cstring>

namespace bamboo {

int DefaultLockShards() {
  // Latched once: every Config construction funnels through here, and the
  // knob must not change mid-process (LockManagers built from it coexist).
  static const int cached = [] {
    const char* v = std::getenv("BB_LOCK_SHARDS");
    if (v == nullptr) return 1024;
    char* end = nullptr;
    long parsed = std::strtol(v, &end, 10);
    if (end == v || parsed < 1) return 1024;
    return parsed > 65536 ? 65536 : static_cast<int>(parsed);
  }();
  return cached;
}

PolicyMode DefaultPolicyMode() {
  // Latched once, same reason as DefaultLockShards: the CI matrix sets
  // BB_POLICY_MODE per process, and mixing modes across Databases built
  // from default Configs would make test behavior depend on construction
  // order.
  static const PolicyMode cached = [] {
    const char* v = std::getenv("BB_POLICY_MODE");
    if (v != nullptr &&
        (std::strcmp(v, "adaptive") == 0 || std::strcmp(v, "ADAPTIVE") == 0)) {
      return PolicyMode::kAdaptive;
    }
    return PolicyMode::kFixed;
  }();
  return cached;
}

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kBamboo:
      return "BAMBOO";
    case Protocol::kWoundWait:
      return "WOUND_WAIT";
    case Protocol::kWaitDie:
      return "WAIT_DIE";
    case Protocol::kNoWait:
      return "NO_WAIT";
    case Protocol::kSilo:
      return "SILO";
    case Protocol::kIc3:
      return "IC3";
  }
  return "UNKNOWN";
}

const char* WalHealthName(WalHealth h) {
  switch (h) {
    case WalHealth::kHealthy:
      return "HEALTHY";
    case WalHealth::kDegraded:
      return "DEGRADED";
    case WalHealth::kReadOnly:
      return "READ_ONLY";
  }
  return "UNKNOWN";
}

const char* ProtocolName(const Config& cfg) {
  if (cfg.policy_mode == PolicyMode::kAdaptive &&
      cfg.protocol == Protocol::kBamboo) {
    return "ADAPTIVE";
  }
  return ProtocolName(cfg.protocol);
}

std::string Config::Validate(std::vector<std::string>* warnings) const {
  // Hard errors: configurations that cannot run correctly.
  if (num_threads < 0) return "num_threads must be >= 0";
  if (log_enabled && log_dir.empty()) {
    return "log_enabled requires a non-empty log_dir";
  }
  if (bb_delta < 0.0 || bb_delta > 1.0) {
    return "bb_delta must be within [0, 1]";
  }
  if (policy_warm_threshold >= policy_hot_threshold) {
    return "policy_warm_threshold must be < policy_hot_threshold";
  }
  if (log_retry_max < 0) return "log_retry_max must be >= 0";
  if (log_retry_backoff_us < 0.0) return "log_retry_backoff_us must be >= 0";
  if (ckpt_interval_us <= 0.0) return "ckpt_interval_us must be > 0";

  // Warnings: combos that are silently ignored/normalized. Database
  // construction prints each distinct warning once per process.
  auto warn = [warnings](std::string msg) {
    if (warnings != nullptr) warnings->push_back(std::move(msg));
  };
  const bool lock_based = protocol != Protocol::kSilo;
  if (protocol != Protocol::kBamboo && lock_based &&
      (bb_opt_read_retire || bb_opt_no_retire_tail || bb_opt_raw_read)) {
    warn(std::string("bb_opt_* switches are ignored under ") +
         ProtocolName(protocol) + " (retire/raw-read paths are Bamboo-only)");
  }
  if (policy_mode == PolicyMode::kAdaptive && protocol != Protocol::kBamboo) {
    warn(std::string("policy_mode=adaptive is normalized to fixed under ") +
         ProtocolName(protocol) +
         " (the adaptive selector only tiers Bamboo's retire machinery)");
  }
  if (log_enabled && protocol == Protocol::kSilo) {
    warn("log_enabled is ignored under SILO (the WAL rides the lock-based "
         "commit path)");
  }
  if (ckpt_enabled && !log_enabled) {
    warn("ckpt_enabled is ignored without log_enabled (checkpoints cover "
         "WAL epochs; there is nothing to truncate)");
  }
  if (lock_shards < 1) {
    warn("lock_shards < 1; the lock manager clamps it to 1");
  } else if ((lock_shards & (lock_shards - 1)) != 0) {
    warn("lock_shards is not a power of two; the lock manager rounds it up");
  }
  return "";
}

}  // namespace bamboo
