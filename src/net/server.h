#ifndef BAMBOO_SRC_NET_SERVER_H_
#define BAMBOO_SRC_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/common/stats.h"
#include "src/db/database.h"

namespace bamboo {

namespace net {
struct Loop;  // internal per-event-loop state (server.cc)
}

/// Interactive wire-protocol front-end: one acceptor thread plus
/// `Config::num_threads` epoll event loops, each multiplexing thousands of
/// connections over one engine worker thread. A connection's transaction
/// state machine is driven one frame at a time through the batch API (one
/// frame = one ReadMany/UpdateRmwMany round trip); a statement that blocks
/// suspends the transaction instead of the loop (every connection's TxnCB
/// carries the loop's susp_fire hook, which is what selects suspension):
/// the lock table's grant/wound paths push the continuation onto the
/// loop's ResumeQueue and poke its eventfd, and the loop re-issues the
/// frame's statement when it drains. This is what bounds the worker count:
/// 10k+ connections never need more threads than `num_threads + 1`.
///
/// The server owns a Database with one table "kv" of `rows` 8-byte-counter
/// rows keyed 0..rows-1. With logging enabled, a COMMIT response is gated
/// on the WAL's durable watermark covering the commit's ack epoch
/// (connections park on a per-loop durable list, drained on the epoll
/// tick); a write rejected by read-only degradation reports
/// Status::kReadOnly.
class NetServer {
 public:
  struct Options {
    uint64_t rows = 65536;     ///< keys 0..rows-1 in table "kv"
    uint16_t port = 0;         ///< 0: ephemeral; see port() after Start
    int max_conns = 65536;     ///< accept backstop per loop
  };

  /// `cfg.num_threads` is the event-loop (= engine worker) count.
  NetServer(const Config& cfg, const Options& opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen + spawn the acceptor and loop threads. Returns false
  /// when the socket setup fails (port in use).
  bool Start();
  /// Stop accepting, close every connection, join all threads.
  void Stop();

  uint16_t port() const { return port_; }
  Database* db() { return db_.get(); }

  /// Sum of per-loop stats (net_frames, net_bytes, commits, aborts,
  /// suspended_txns, continuations_fired, ...). Safe after Stop().
  ThreadStats StatsTotal() const;
  /// Frames rejected as malformed (corrupt crc/size/fields) so far.
  uint64_t ProtocolErrors() const {
    return proto_errors_.load(std::memory_order_relaxed);
  }

 private:
  friend struct net::Loop;
  void AcceptLoop();

  Config cfg_;
  Options opts_;
  std::unique_ptr<Database> db_;
  HashIndex* index_ = nullptr;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> proto_errors_{0};
  std::vector<std::unique_ptr<net::Loop>> loops_;
  std::vector<std::thread> threads_;
  std::thread acceptor_;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_NET_SERVER_H_
