#include "src/net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/db/suspend.h"
#include "src/db/txn_handle.h"
#include "src/db/wal.h"
#include "src/net/proto.h"
#include "src/storage/table.h"

namespace bamboo {
namespace net {

namespace {

void EventFdPoke(int fd) {
  uint64_t one = 1;
  // A full eventfd counter still wakes the reader; ignore short writes.
  ssize_t r = write(fd, &one, sizeof(one));
  (void)r;
}

void SetNonBlocking(int fd) {
  int fl = fcntl(fd, F_GETFL, 0);
  if (fl >= 0) fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

/// The one RMW the wire protocol carries: add the operand to the row's
/// 8-byte counter. Applied under the tuple latch (fused) or at resume.
void AddRmw(char* image, void* arg) {
  uint64_t v;
  std::memcpy(&v, image, 8);
  v += *static_cast<uint64_t*>(arg);
  std::memcpy(image, &v, 8);
}

}  // namespace

/// One client connection: buffers, the transaction machinery, and the
/// saved statement for suspension re-issue. Strictly request-response: at
/// most one frame is outstanding per connection; further input stays
/// buffered until the response ships.
struct Conn {
  explicit Conn(Database* db) : handle(db, &cb) {}

  int fd = -1;
  std::vector<char> in;
  size_t in_off = 0;  ///< consumed prefix of `in`
  std::vector<char> out;
  size_t out_off = 0;
  bool want_write = false;  ///< EPOLLOUT armed

  TxnCB cb;
  TxnHandle handle;
  bool in_txn = false;
  bool suspended = false;        ///< statement or commit continuation armed
  bool awaiting_durable = false; ///< COMMIT response gated on the WAL
  bool closing = false;          ///< peer gone; finish/wound then destroy
  uint64_t durable_epoch = 0;

  // The statement the suspended transaction re-issues on resume. The arg
  // lives here (not on a stack frame) because a fused RMW's operand must
  // survive the suspension.
  netproto::MsgType pend_type = netproto::MsgType::kBegin;
  int pend_nkeys = 0;
  uint64_t pend_keys[netproto::kMaxKeys];
  uint64_t pend_arg = 0;

  std::vector<const char*> read_out;  ///< ReadMany scratch
};

/// One epoll event loop: owns its connections outright (every handler for
/// a connection runs on this thread, including continuation resumes -- the
/// lock table only pushes the TxnCB onto rqueue and pokes the eventfd).
struct Loop {
  NetServer* server = nullptr;
  int id = 0;
  int epfd = -1;
  int efd = -1;  ///< eventfd: resume-queue pushes, new conns, stop
  ResumeQueue rqueue;
  ThreadStats stats;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::deque<Conn*> durable_waiters;
  size_t suspended_count = 0;

  std::mutex pending_mu;
  std::vector<int> pending_fds;  ///< accepted sockets awaiting adoption

  void Run();
  void AdoptPending();
  void DrainResumes();
  void DrainDurable(bool failed_final);
  void OnReadable(Conn* c);
  void OnWritable(Conn* c);
  void ProcessFrames(Conn* c);
  void ExecStatement(Conn* c);
  void FinishCommit(Conn* c, RC rc);
  void Respond(Conn* c, netproto::Status st, const char* rows, int nrows,
               uint32_t row_size);
  void FlushOut(Conn* c);
  void Destroy(Conn* c);
  void CloseOrPark(Conn* c);
};

void Loop::Respond(Conn* c, netproto::Status st, const char* rows, int nrows,
                   uint32_t row_size) {
  size_t before = c->out.size();
  netproto::AppendResponse(&c->out, st, rows, nrows, row_size);
  stats.net_frames++;
  stats.net_bytes += c->out.size() - before;
  FlushOut(c);
}

void Loop::FlushOut(Conn* c) {
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
        ev.data.fd = c->fd;
        epoll_ctl(epfd, EPOLL_CTL_MOD, c->fd, &ev);
      }
      return;
    }
    CloseOrPark(c);  // peer reset
    return;
  }
  c->out.clear();
  c->out_off = 0;
  if (c->want_write) {
    c->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    epoll_ctl(epfd, EPOLL_CTL_MOD, c->fd, &ev);
  }
}

void Loop::Destroy(Conn* c) {
  if (c->in_txn) {
    // Roll back whatever footprint the connection still holds so its locks
    // cannot strand other connections' transactions.
    c->handle.Commit(RC::kUserAbort);
    c->in_txn = false;
  }
  int fd = c->fd;
  epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  conns.erase(fd);
}

void Loop::CloseOrPark(Conn* c) {
  if (c->suspended || c->awaiting_durable) {
    // A parked continuation (or durable ack) still references this Conn;
    // wound the transaction so the continuation fires promptly and the
    // resume path finishes the teardown.
    c->closing = true;
    if (c->suspended) c->cb.Wound(/*cascade=*/false);
    return;
  }
  Destroy(c);
}

void Loop::ExecStatement(Conn* c) {
  HashIndex* index = server->index_;
  RC rc;
  int nrows = 0;
  uint32_t row_size = 0;
  const char* rows = nullptr;
  std::vector<char> row_buf;
  if (c->pend_type == netproto::MsgType::kUpdateRmw) {
    rc = c->handle.UpdateRmwMany(index, c->pend_keys, c->pend_nkeys, AddRmw,
                                 &c->pend_arg);
  } else {
    c->read_out.resize(static_cast<size_t>(c->pend_nkeys));
    rc = c->handle.ReadMany(index, c->pend_keys, c->pend_nkeys,
                            c->read_out.data());
    if (rc == RC::kOk && c->pend_nkeys > 0) {
      Row* r = index->Get(c->pend_keys[0]);
      row_size = r != nullptr ? r->size() : 0;
      row_buf.reserve(static_cast<size_t>(c->pend_nkeys) * row_size);
      for (int i = 0; i < c->pend_nkeys; i++) {
        row_buf.insert(row_buf.end(), c->read_out[static_cast<size_t>(i)],
                       c->read_out[static_cast<size_t>(i)] + row_size);
      }
      rows = row_buf.data();
      nrows = c->pend_nkeys;
    }
  }
  if (rc == RC::kSuspended) {
    if (!c->suspended) {
      c->suspended = true;
      suspended_count++;
    }
    return;  // response ships when the continuation resolves
  }
  bool was_suspended = c->suspended;
  if (was_suspended) {
    c->suspended = false;
    suspended_count--;
  }
  if (c->closing) {
    Destroy(c);
    return;
  }
  if (rc == RC::kOk) {
    Respond(c, netproto::Status::kOk, rows, nrows, row_size);
    return;
  }
  // Statement-level abort: complete the rollback here so the client can
  // go straight to the next BEGIN (no extra ABORT round trip).
  RC fin = c->handle.Commit(RC::kOk);
  c->in_txn = false;
  Respond(c,
          fin == RC::kReadOnlyMode ? netproto::Status::kReadOnly
                                   : netproto::Status::kAborted,
          nullptr, 0, 0);
}

void Loop::FinishCommit(Conn* c, RC rc) {
  if (rc == RC::kSuspended) {
    if (!c->suspended) {
      c->suspended = true;
      suspended_count++;
    }
    return;
  }
  if (c->suspended) {
    c->suspended = false;
    suspended_count--;
  }
  c->in_txn = false;
  if (c->closing) {
    Destroy(c);
    return;
  }
  if (rc == RC::kOk) {
    Wal* wal = server->db_->wal();
    uint64_t e = c->cb.log_ack_epoch;
    if (wal != nullptr && e != 0 && wal->durable_epoch() < e) {
      // Durable-ack gating: the commit is applied, but the client is not
      // told kOk until the group-commit watermark covers its epoch.
      c->awaiting_durable = true;
      c->durable_epoch = e;
      durable_waiters.push_back(c);
      return;
    }
    Respond(c, netproto::Status::kOk, nullptr, 0, 0);
    return;
  }
  Respond(c,
          rc == RC::kReadOnlyMode ? netproto::Status::kReadOnly
                                  : netproto::Status::kAborted,
          nullptr, 0, 0);
}

void Loop::ProcessFrames(Conn* c) {
  using netproto::MsgType;
  using netproto::Status;
  while (!c->suspended && !c->awaiting_durable) {
    netproto::Frame f;
    int64_t consumed =
        netproto::Decode(c->in.data(), c->in.size(), c->in_off, &f);
    if (consumed == 0) break;  // torn tail: wait for more bytes
    if (consumed < 0 || f.type == MsgType::kResp) {
      // Corrupt or nonsensical frame: the stream cannot be re-synced.
      server->proto_errors_.fetch_add(1, std::memory_order_relaxed);
      CloseOrPark(c);
      return;
    }
    c->in_off += static_cast<size_t>(consumed);
    stats.net_frames++;
    stats.net_bytes += static_cast<uint64_t>(consumed);

    switch (f.type) {
      case MsgType::kBegin: {
        if (c->in_txn) {
          server->proto_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseOrPark(c);
          return;
        }
        c->cb.txn_seq.fetch_add(1, std::memory_order_relaxed);
        c->cb.ResetForAttempt(/*keep_ts=*/false);
        server->db_->cc()->Begin(&c->cb);
        c->in_txn = true;
        Respond(c, Status::kOk, nullptr, 0, 0);
        break;
      }
      case MsgType::kRead:
      case MsgType::kReadMany:
      case MsgType::kUpdateRmw: {
        if (!c->in_txn ||
            (f.type == MsgType::kRead && f.nkeys != 1)) {
          server->proto_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseOrPark(c);
          return;
        }
        c->pend_type = f.type == MsgType::kRead ? MsgType::kReadMany : f.type;
        c->pend_nkeys = f.nkeys;
        for (int i = 0; i < f.nkeys; i++) {
          c->pend_keys[i] = netproto::PayloadKey(f, i);
        }
        c->pend_arg = f.arg;
        ExecStatement(c);
        break;
      }
      case MsgType::kCommit: {
        if (!c->in_txn) {
          server->proto_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseOrPark(c);
          return;
        }
        FinishCommit(c, c->handle.Commit(RC::kOk));
        break;
      }
      case MsgType::kAbort: {
        if (!c->in_txn) {
          server->proto_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseOrPark(c);
          return;
        }
        RC rc = c->handle.Commit(RC::kUserAbort);
        c->in_txn = false;
        Respond(c,
                rc == RC::kUserAbort ? Status::kUserAbort : Status::kAborted,
                nullptr, 0, 0);
        break;
      }
      case MsgType::kResp:
        break;  // handled above
    }
    if (conns.find(c->fd) == conns.end()) return;  // destroyed mid-loop
  }
  // Compact the consumed prefix once it dominates the buffer.
  if (c->in_off > 4096 && c->in_off * 2 > c->in.size()) {
    c->in.erase(c->in.begin(),
                c->in.begin() + static_cast<ptrdiff_t>(c->in_off));
    c->in_off = 0;
  }
}

void Loop::OnReadable(Conn* c) {
  char buf[16384];
  for (;;) {
    ssize_t r = recv(c->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      c->in.insert(c->in.end(), buf, buf + r);
      if (r < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseOrPark(c);  // EOF or error
    return;
  }
  ProcessFrames(c);
}

void Loop::OnWritable(Conn* c) { FlushOut(c); }

void Loop::AdoptPending() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> g(pending_mu);
    fds.swap(pending_fds);
  }
  for (int fd : fds) {
    auto c = std::make_unique<Conn>(server->db_.get());
    c->fd = fd;
    c->cb.stats = &stats;
    c->cb.susp_fire = ResumeQueue::FireThunk;
    c->cb.susp_ctx = &rqueue;
    c->cb.susp_user = c.get();
    c->handle.SetDetachAllowed(false);
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns.emplace(fd, std::move(c));
  }
}

void Loop::DrainResumes() {
  TxnCB* t = rqueue.PopAll();
  while (t != nullptr) {
    TxnCB* next = t->ready_next;  // resume may re-arm and re-push
    Conn* c = static_cast<Conn*>(t->susp_user);
    stats.continuations_fired++;
    RC rc = c->handle.ResumeSuspended();
    if (rc == RC::kSuspended) {
      t = next;
      continue;  // spurious: re-armed
    }
    if (rc == RC::kPending) {
      // A statement wait resolved: re-issue exactly the blocked statement
      // (the server drives one statement per frame).
      ExecStatement(c);
    } else {
      // A commit wait resolved; rc is the final commit verdict.
      FinishCommit(c, rc);
    }
    t = next;
  }
}

void Loop::DrainDurable(bool failed_final) {
  if (durable_waiters.empty()) return;
  Wal* wal = server->db_->wal();
  uint64_t d = wal != nullptr ? wal->durable_epoch() : ~0ull;
  bool failed = failed_final || (wal != nullptr && wal->failed());
  size_t n = durable_waiters.size();
  for (size_t i = 0; i < n; i++) {
    Conn* c = durable_waiters.front();
    durable_waiters.pop_front();
    if (c->durable_epoch <= d) {
      c->awaiting_durable = false;
      if (c->closing) {
        Destroy(c);
      } else {
        Respond(c, netproto::Status::kOk, nullptr, 0, 0);
        ProcessFrames(c);  // frames buffered while the ack was pending
      }
    } else if (failed) {
      // The log degraded before covering this epoch: the commit applied
      // in memory but was never acknowledged durable.
      c->awaiting_durable = false;
      if (c->closing) {
        Destroy(c);
      } else {
        Respond(c, netproto::Status::kReadOnly, nullptr, 0, 0);
        ProcessFrames(c);
      }
    } else {
      durable_waiters.push_back(c);
    }
  }
}

void Loop::Run() {
  epoll_event events[256];
  while (true) {
    bool stopping = server->stop_.load(std::memory_order_acquire);
    if (stopping && conns.empty()) break;
    if (stopping) {
      // Tear down: wound every suspended transaction (their continuations
      // fire into rqueue) and destroy every idle connection. Suspended or
      // durability-parked ones finish through the drains below.
      std::vector<Conn*> snapshot;
      snapshot.reserve(conns.size());
      for (auto& [fd, c] : conns) snapshot.push_back(c.get());
      for (Conn* c : snapshot) {
        if (c->suspended) {
          c->closing = true;
          c->cb.Wound(/*cascade=*/false);
        } else if (c->awaiting_durable) {
          c->closing = true;
        } else {
          Destroy(c);
        }
      }
      DrainResumes();
      DrainDurable(/*failed_final=*/true);
      if (conns.empty()) break;
    }
    int timeout_ms = !durable_waiters.empty() || stopping ? 2 : 200;
    int nready = epoll_wait(epfd, events, 256, timeout_ms);
    for (int i = 0; i < nready; i++) {
      int fd = events[i].data.fd;
      if (fd == efd) {
        uint64_t junk;
        ssize_t r = read(efd, &junk, sizeof(junk));
        (void)r;
        rqueue.ClearEventPending();
        continue;  // the drains below handle the work
      }
      auto it = conns.find(fd);
      if (it == conns.end()) continue;  // destroyed by an earlier event
      Conn* c = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseOrPark(c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) OnWritable(c);
      if (conns.find(fd) == conns.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) OnReadable(c);
    }
    AdoptPending();
    DrainResumes();
    DrainDurable(/*failed_final=*/false);
  }
  // epfd/efd are closed by NetServer::Stop after the join: Stop's shutdown
  // Kick may write the eventfd at any point up to then, and a write racing
  // a close (with possible fd-number reuse) is undefined.
}

}  // namespace net

NetServer::NetServer(const Config& cfg, const Options& opts)
    : cfg_(cfg), opts_(opts) {
  // The network provides the real round trips; the simulated-RTT sleep is
  // for in-process interactive benchmarks only.
  cfg_.mode = ExecMode::kStoredProcedure;
  if (cfg_.num_threads <= 0) cfg_.num_threads = 1;
  db_ = std::make_unique<Database>(cfg_);
  Schema schema;
  schema.AddColumn("counter", 8);
  Table* tbl = db_->catalog()->CreateTable("kv", schema);
  index_ = db_->catalog()->CreateIndex("kv_pk", opts_.rows);
  for (uint64_t k = 0; k < opts_.rows; k++) db_->LoadRow(tbl, index_, k);
}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 1024) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t alen = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  for (int i = 0; i < cfg_.num_threads; i++) {
    auto loop = std::make_unique<net::Loop>();
    loop->server = this;
    loop->id = i;
    loop->epfd = epoll_create1(0);
    loop->efd = eventfd(0, EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->efd;
    epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->efd, &ev);
    loop->rqueue.SetEventFd(loop->efd, net::EventFdPoke);
    loops_.push_back(std::move(loop));
  }
  for (auto& l : loops_) {
    threads_.emplace_back([lp = l.get()] { lp->Run(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void NetServer::AcceptLoop() {
  size_t next = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen,
                     SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking accept: nap briefly instead of dedicating an epoll
        // to the listen socket -- connection setup is not latency-critical.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      break;  // listen socket closed (Stop) or fatal
    }
    net::Loop* l = loops_[next % loops_.size()].get();
    next++;
    {
      std::lock_guard<std::mutex> g(l->pending_mu);
      l->pending_fds.push_back(fd);
    }
    l->rqueue.Kick();  // pokes the loop's eventfd
  }
}

void NetServer::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // The acceptor re-checks stop_ at least every accept nap, so it exits on
  // its own; shutdown just fails a pending accept immediately. The fd is
  // closed only after the join -- closing it while the acceptor might be
  // inside accept4 would race the close (and a reused fd number could be
  // accepted on).
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& l : loops_) l->rqueue.Kick();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& l : loops_) {
    if (l->epfd >= 0) close(l->epfd);
    if (l->efd >= 0) close(l->efd);
    l->epfd = l->efd = -1;
  }
}

ThreadStats NetServer::StatsTotal() const {
  ThreadStats total;
  for (const auto& l : loops_) total.Add(l->stats);
  return total;
}

}  // namespace bamboo
