#include "src/db/database.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/db/checkpoint.h"
#include "src/db/wal.h"

namespace bamboo {

namespace {

/// Print each distinct Config warning once per process: benches construct
/// Databases for every protocol x knob combination, and repeating "bb_opt_*
/// ignored under WOUND_WAIT" per run would drown the tables it annotates.
void WarnOnce(const std::string& msg) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();
  std::lock_guard<std::mutex> g(mu);
  if (seen->insert(msg).second) {
    std::fprintf(stderr, "bamboo: config warning: %s\n", msg.c_str());
  }
}

}  // namespace

Database::Database(const Config& cfg) : cfg_(cfg), cc_(cfg_) {
  // Reject configurations that cannot run correctly (silent misbehavior
  // beats loudly aborting here only if nobody looks -- and nobody does);
  // flag silently-ignored combos once per process.
  std::vector<std::string> warnings;
  std::string err = cfg_.Validate(&warnings);
  if (!err.empty()) {
    std::fprintf(stderr, "bamboo: invalid Config: %s\n", err.c_str());
    std::abort();
  }
  for (const std::string& w : warnings) WarnOnce(w);
  // The Silo baseline commits through its seqlock path, which carries no
  // WAL hooks; logging is a lock-based-protocols feature.
  if (cfg_.log_enabled && !cfg_.log_dir.empty() &&
      cfg_.protocol != Protocol::kSilo) {
    wal_ = std::make_unique<Wal>(cfg_);
    if (!wal_->ok()) wal_.reset();
  }
  if (wal_ != nullptr) {
    // Let the lock manager reject new writers once the WAL degrades to
    // read-only: a write that can never be made durable should abort at
    // admission, not after doing work.
    cc_.locks()->SetWalHealth(wal_->health_word());
    if (cfg_.ckpt_enabled) {
      ckpt_ = std::make_unique<Checkpointer>(cfg_, this, wal_.get());
    }
  }
}

Database::~Database() = default;

Table* Catalog::CreateTable(const std::string& name, const Schema& schema) {
  tables_.push_back(std::make_unique<Table>(name, schema));
  Table* t = tables_.back().get();
  t->set_id(static_cast<uint32_t>(tables_.size() - 1));
  table_dir_.push_back(t);
  return t;
}

HashIndex* Catalog::CreateIndex(const std::string& name, uint64_t capacity) {
  indexes_.push_back(std::make_unique<HashIndex>(capacity));
  index_names_.push_back(name);
  return indexes_.back().get();
}

Table* Catalog::GetTable(const std::string& name) const {
  for (const auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

HashIndex* Catalog::GetIndex(const std::string& name) const {
  for (size_t i = 0; i < indexes_.size(); i++) {
    if (index_names_[i] == name) return indexes_[i].get();
  }
  return nullptr;
}

}  // namespace bamboo
