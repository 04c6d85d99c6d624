// Networked interactive load generator: drives the epoll wire-protocol
// server (src/net) with thousands of simulated client connections
// multiplexed over a few mux threads, closed-loop
// BEGIN -> READ_MANY(16) -> UPDATE_RMW(4, hot range) -> COMMIT.
//
// The server sustains 10k+ connections with a bounded worker count
// (num_threads event loops + 1 acceptor), because a blocked statement
// suspends the *transaction*, never the loop: every connection's TxnCB
// carries its loop's continuation hook.
//
//   BB_NET_CONNS          simulated connections       (default 10000)
//   BB_NET_SERVER_THREADS server event loops          (default 8)
//   BB_NET_CLIENT_THREADS client mux threads          (default 4)
//   BB_NET_ROWS           table size                  (default 65536)
//   BB_NET_HOT            hot-range size for RMWs     (default 4096)
//   BB_BENCH_DURATION     measured seconds            (default 5)
//
// `--smoke` runs 1000 connections for ~2s and exits nonzero unless the
// server saw zero protocol errors and every connection committed work.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "src/net/proto.h"
#include "src/net/server.h"

namespace bamboo {
namespace {

using netproto::MsgType;
using netproto::Status;

constexpr int kReadKeys = 16;
constexpr int kRmwKeys = 4;

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

double EnvF(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : def;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-bucket latency histogram: 4 sub-buckets per power of two (~19%
/// resolution), single-writer per mux thread, merged at the end.
struct Histogram {
  static constexpr int kBuckets = 64 * 4;
  uint64_t count[kBuckets] = {};
  uint64_t total = 0;

  void Record(uint64_t ns) {
    if (ns == 0) ns = 1;
    int h = 63 - __builtin_clzll(ns);
    int sub = h >= 2 ? static_cast<int>((ns >> (h - 2)) & 3) : 0;
    count[h * 4 + sub]++;
    total++;
  }
  void Merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; i++) count[i] += o.count[i];
    total += o.total;
  }
  /// Upper edge of the bucket holding quantile `q`, in nanoseconds.
  uint64_t Quantile(double q) const {
    if (total == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; i++) {
      seen += count[i];
      if (seen > target) {
        int h = i / 4, sub = i % 4;
        uint64_t base = 1ull << h;
        return base + (base >> 2) * static_cast<uint64_t>(sub + 1);
      }
    }
    return ~0ull;
  }
};

/// One simulated connection inside a mux thread.
struct MuxConn {
  int fd = -1;
  int stage = 0;  ///< 0 idle, 1 BEGIN sent, 2 READ sent, 3 RMW sent, 4 COMMIT
  std::vector<char> in;
  size_t in_off = 0;
  std::vector<char> out;
  size_t out_off = 0;
  bool want_write = false;
  uint64_t txn_start_ns = 0;
};

struct MuxStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t readonly = 0;
  uint64_t transport_errors = 0;
  Histogram hist;
};

/// Closed-loop mux: owns `conns` connections on one epoll, keeps exactly
/// one request in flight per connection.
void MuxThread(uint16_t port, int nconns, uint64_t rows, uint64_t hot,
               uint64_t seed, const std::atomic<bool>* stop,
               const std::atomic<bool>* measuring, MuxStats* out) {
  int ep = epoll_create1(0);
  std::vector<MuxConn> conns(static_cast<size_t>(nconns));
  std::mt19937_64 rng(seed);
  MuxStats st;

  auto flush = [&](MuxConn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t w = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c->out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c->want_write) {
          c->want_write = true;
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.ptr = c;
          epoll_ctl(ep, EPOLL_CTL_MOD, c->fd, &ev);
        }
        return;
      }
      st.transport_errors++;
      return;
    }
    c->out.clear();
    c->out_off = 0;
    if (c->want_write) {
      c->want_write = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c;
      epoll_ctl(ep, EPOLL_CTL_MOD, c->fd, &ev);
    }
  };

  auto send_next = [&](MuxConn* c) {
    uint64_t keys[kReadKeys];
    switch (c->stage) {
      case 0: {
        c->txn_start_ns = NowNs();
        netproto::AppendRequest(&c->out, MsgType::kBegin, nullptr, 0, 0);
        c->stage = 1;
        break;
      }
      case 1: {
        for (int i = 0; i < kReadKeys; i++) keys[i] = rng() % rows;
        netproto::AppendRequest(&c->out, MsgType::kReadMany, keys, kReadKeys,
                                0);
        c->stage = 2;
        break;
      }
      case 2: {
        for (int i = 0; i < kRmwKeys; i++) keys[i] = rng() % hot;
        netproto::AppendRequest(&c->out, MsgType::kUpdateRmw, keys, kRmwKeys,
                                1);
        c->stage = 3;
        break;
      }
      case 3: {
        netproto::AppendRequest(&c->out, MsgType::kCommit, nullptr, 0, 0);
        c->stage = 4;
        break;
      }
    }
    flush(c);
  };

  auto on_resp = [&](MuxConn* c, const netproto::Frame& f) {
    Status s = static_cast<Status>(f.status);
    if (s == Status::kOk) {
      if (c->stage == 4) {
        if (measuring->load(std::memory_order_relaxed)) {
          st.commits++;
          st.hist.Record(NowNs() - c->txn_start_ns);
        }
        c->stage = 0;
      }
    } else {
      // Any non-OK verdict ends the transaction server-side; go straight
      // to the next BEGIN.
      if (measuring->load(std::memory_order_relaxed)) {
        if (s == Status::kReadOnly) st.readonly++;
        else st.aborts++;
      }
      c->stage = 0;
    }
    if (!stop->load(std::memory_order_relaxed)) send_next(c);
  };

  // Connect everyone first (blocking connects, then switch nonblocking).
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (auto& c : conns) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) close(fd);
      st.transport_errors++;
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int fl = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    c.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &c;
    epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  }

  for (auto& c : conns) {
    if (c.fd >= 0) send_next(&c);
  }

  epoll_event events[512];
  char buf[16384];
  while (!stop->load(std::memory_order_relaxed)) {
    int n = epoll_wait(ep, events, 512, 100);
    for (int i = 0; i < n; i++) {
      MuxConn* c = static_cast<MuxConn*>(events[i].data.ptr);
      if (c->fd < 0) continue;
      if ((events[i].events & EPOLLOUT) != 0) flush(c);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      for (;;) {
        ssize_t r = recv(c->fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c->in.insert(c->in.end(), buf, buf + r);
          if (r < static_cast<ssize_t>(sizeof(buf))) break;
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        st.transport_errors++;
        epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
        close(c->fd);
        c->fd = -1;
        break;
      }
      if (c->fd < 0) continue;
      netproto::Frame f;
      int64_t consumed;
      while ((consumed = netproto::Decode(c->in.data(), c->in.size(),
                                          c->in_off, &f)) > 0) {
        c->in_off += static_cast<size_t>(consumed);
        on_resp(c, f);
      }
      if (consumed < 0) {
        st.transport_errors++;
        epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
        close(c->fd);
        c->fd = -1;
        continue;
      }
      if (c->in_off > 4096 && c->in_off * 2 > c->in.size()) {
        c->in.erase(c->in.begin(),
                    c->in.begin() + static_cast<ptrdiff_t>(c->in_off));
        c->in_off = 0;
      }
    }
  }

  for (auto& c : conns) {
    if (c.fd >= 0) close(c.fd);
  }
  close(ep);
  *out = st;
}

void RaiseFdLimit() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }
}

/// Server child: run the NetServer, hand the port to the parent over
/// `port_pipe`, stop when `stop_pipe` hits EOF (parent exited or closed
/// it), then print the server-side stat block. Exit 2 on protocol errors
/// so the parent's smoke verdict can see them across the fork.
int RunServerChild(int port_pipe, int stop_pipe, int server_threads,
                   uint64_t rows) {
  Config cfg;
  cfg.num_threads = server_threads;

  NetServer::Options sopts;
  sopts.rows = rows;
  NetServer server(cfg, sopts);
  if (!server.Start()) {
    std::fprintf(stderr, "bench_net: server failed to start\n");
    return 1;
  }
  uint16_t port = server.port();
  if (write(port_pipe, &port, sizeof(port)) != sizeof(port)) return 1;
  close(port_pipe);

  char junk;
  while (read(stop_pipe, &junk, 1) > 0) {
  }
  server.Stop();

  ThreadStats sv = server.StatsTotal();
  std::printf("  suspended_txns   %llu\n",
              static_cast<unsigned long long>(sv.suspended_txns));
  std::printf("  continuations    %llu\n",
              static_cast<unsigned long long>(sv.continuations_fired));
  std::printf("  net_frames       %llu\n",
              static_cast<unsigned long long>(sv.net_frames));
  std::printf("  net_bytes        %llu\n",
              static_cast<unsigned long long>(sv.net_bytes));
  std::printf("  proto_errors     %llu\n",
              static_cast<unsigned long long>(server.ProtocolErrors()));
  std::fflush(stdout);
  return server.ProtocolErrors() != 0 ? 2 : 0;
}

int Run(bool smoke) {
  uint64_t nconns = EnvU64("BB_NET_CONNS", smoke ? 1000 : 10000);
  int server_threads =
      static_cast<int>(EnvU64("BB_NET_SERVER_THREADS", 8));
  int client_threads =
      static_cast<int>(EnvU64("BB_NET_CLIENT_THREADS", 4));
  uint64_t rows = EnvU64("BB_NET_ROWS", 65536);
  uint64_t hot = EnvU64("BB_NET_HOT", 4096);
  double duration = EnvF("BB_BENCH_DURATION", smoke ? 2.0 : 5.0);

  RaiseFdLimit();

  // The server runs in a forked child so 10k+ connections fit under the
  // per-process fd limit (each side holds one fd per connection).
  int port_pipe[2];
  int stop_pipe[2];
  if (pipe(port_pipe) != 0 || pipe(stop_pipe) != 0) return 1;
  pid_t child = fork();
  if (child < 0) return 1;
  if (child == 0) {
    close(port_pipe[0]);
    close(stop_pipe[1]);
    _exit(RunServerChild(port_pipe[1], stop_pipe[0], server_threads, rows));
  }
  close(port_pipe[1]);
  close(stop_pipe[0]);
  uint16_t sport = 0;
  if (read(port_pipe[0], &sport, sizeof(sport)) != sizeof(sport)) {
    std::fprintf(stderr, "bench_net: no port from server child\n");
    return 1;
  }
  close(port_pipe[0]);

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<MuxStats> stats(static_cast<size_t>(client_threads));
  std::vector<std::thread> muxes;
  int per = static_cast<int>(nconns) / client_threads;
  for (int t = 0; t < client_threads; t++) {
    int n = t == client_threads - 1
                ? static_cast<int>(nconns) - per * (client_threads - 1)
                : per;
    muxes.emplace_back(MuxThread, sport, n, rows, hot,
                       /*seed=*/0x9e3779b9u + static_cast<uint64_t>(t), &stop,
                       &measuring, &stats[static_cast<size_t>(t)]);
  }

  // Let the connect storm settle, then measure.
  std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 200 : 500));
  measuring.store(true);
  uint64_t t0 = NowNs();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration * 1000)));
  measuring.store(false);
  uint64_t elapsed_ns = NowNs() - t0;
  stop.store(true);
  for (auto& m : muxes) m.join();

  MuxStats total;
  for (const auto& s : stats) {
    total.commits += s.commits;
    total.aborts += s.aborts;
    total.readonly += s.readonly;
    total.transport_errors += s.transport_errors;
    total.hist.Merge(s.hist);
  }
  double secs = static_cast<double>(elapsed_ns) / 1e9;
  double tps = static_cast<double>(total.commits) / secs;

  std::printf("bench_net: networked interactive front-end\n");
  std::printf("  conns=%llu server_loops=%d mux_threads=%d rows=%llu "
              "hot=%llu\n",
              static_cast<unsigned long long>(nconns), server_threads,
              client_threads, static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(hot));
  std::printf("  txn/s            %.0f\n", tps);
  std::printf("  p50 latency      %.1f us\n",
              static_cast<double>(total.hist.Quantile(0.50)) / 1e3);
  std::printf("  p99 latency      %.1f us\n",
              static_cast<double>(total.hist.Quantile(0.99)) / 1e3);
  std::printf("  commits          %llu\n",
              static_cast<unsigned long long>(total.commits));
  std::printf("  aborts           %llu\n",
              static_cast<unsigned long long>(total.aborts));
  std::printf("  transport_errors %llu\n",
              static_cast<unsigned long long>(total.transport_errors));
  std::fflush(stdout);

  // EOF on the stop pipe tells the child to Stop() and print its half of
  // the stats (suspensions, continuations, frames, protocol errors).
  close(stop_pipe[1]);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  bool child_ok = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;

  if (smoke) {
    if (!child_ok) {
      std::fprintf(stderr,
                   "bench_net --smoke: server reported protocol errors or "
                   "failed (status %d)\n",
                   wstatus);
      return 1;
    }
    if (total.commits == 0) {
      std::fprintf(stderr, "bench_net --smoke: no commits\n");
      return 1;
    }
  }
  return child_ok ? 0 : 1;
}

}  // namespace
}  // namespace bamboo

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return bamboo::Run(smoke);
}
