// End-to-end loopback coverage of the wire-protocol server: the full
// BEGIN / READ_MANY / UPDATE_RMW / COMMIT round trip with value
// verification, user aborts rolling back, protocol-state violations and
// malformed frames closing the connection (and counting in
// ProtocolErrors), a commit that must park on a dirty dependency without
// stalling its event loop, and a small concurrent-client run that must
// finish with zero protocol errors.
#include "src/net/server.h"

#include <poll.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/net/proto.h"
#include "tests/test_util.h"

namespace bamboo {
namespace {

using net::BlockingClient;
using netproto::MsgType;
using netproto::Status;

Config ServerConfig() {
  Config cfg;
  cfg.protocol = Protocol::kBamboo;
  cfg.num_threads = 2;
  return cfg;
}

void TestHappyPath() {
  NetServer::Options opts;
  opts.rows = 64;
  NetServer server(ServerConfig(), opts);
  CHECK(server.Start());

  BlockingClient cli;
  CHECK(cli.Connect(server.port()));

  Status st;
  CHECK(cli.Begin(&st));
  CHECK(st == Status::kOk);

  // Rows start zeroed: read four of them, expect four 8-byte images.
  uint64_t keys[4] = {1, 2, 3, 2};
  std::vector<char> rows;
  uint32_t row_size = 0;
  CHECK(cli.Call(MsgType::kReadMany, keys, 4, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  CHECK_EQ(row_size, 8u);
  CHECK_EQ(rows.size(), 32u);
  for (int i = 0; i < 4; i++) {
    uint64_t v;
    std::memcpy(&v, rows.data() + i * 8, 8);
    CHECK_EQ(v, 0ull);
  }

  // Fused add-5 over two keys (one duplicated: applied once per occurrence).
  uint64_t wkeys[3] = {2, 3, 2};
  CHECK(cli.Call(MsgType::kUpdateRmw, wkeys, 3, 5, &st));
  CHECK(st == Status::kOk);
  CHECK(cli.Commit(&st));
  CHECK(st == Status::kOk);

  // A second transaction observes the committed counters.
  CHECK(cli.Begin(&st));
  CHECK(st == Status::kOk);
  uint64_t rkeys[3] = {1, 2, 3};
  CHECK(cli.Call(MsgType::kReadMany, rkeys, 3, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  uint64_t v1, v2, v3;
  std::memcpy(&v1, rows.data(), 8);
  std::memcpy(&v2, rows.data() + 8, 8);
  std::memcpy(&v3, rows.data() + 16, 8);
  CHECK_EQ(v1, 0ull);
  CHECK_EQ(v2, 10ull);  // key 2 appeared twice in the RMW
  CHECK_EQ(v3, 5ull);
  CHECK(cli.Commit(&st));
  CHECK(st == Status::kOk);

  // Single-key READ is the nkeys==1 special case.
  CHECK(cli.Begin(&st));
  uint64_t one = 2;
  CHECK(cli.Call(MsgType::kRead, &one, 1, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  CHECK_EQ(rows.size(), 8u);
  CHECK(cli.Commit(&st));

  cli.Close();
  server.Stop();
  CHECK_EQ(server.ProtocolErrors(), 0ull);
  ThreadStats total = server.StatsTotal();
  CHECK(total.net_frames > 0);
  CHECK(total.net_bytes > 0);
}

void TestUserAbort() {
  NetServer::Options opts;
  opts.rows = 16;
  NetServer server(ServerConfig(), opts);
  CHECK(server.Start());

  BlockingClient cli;
  CHECK(cli.Connect(server.port()));
  Status st;
  CHECK(cli.Begin(&st));
  uint64_t k = 7;
  CHECK(cli.Call(MsgType::kUpdateRmw, &k, 1, 100, &st));
  CHECK(st == Status::kOk);
  CHECK(cli.Abort(&st));
  CHECK(st == Status::kUserAbort);

  // The write rolled back.
  std::vector<char> rows;
  uint32_t row_size = 0;
  CHECK(cli.Begin(&st));
  CHECK(cli.Call(MsgType::kRead, &k, 1, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  uint64_t v;
  std::memcpy(&v, rows.data(), 8);
  CHECK_EQ(v, 0ull);
  CHECK(cli.Commit(&st));

  cli.Close();
  server.Stop();
  CHECK_EQ(server.ProtocolErrors(), 0ull);
}

void TestStateViolationClosesConnection() {
  NetServer::Options opts;
  opts.rows = 16;
  NetServer server(ServerConfig(), opts);
  CHECK(server.Start());

  // READ with no transaction open: the server drops the connection.
  {
    BlockingClient cli;
    CHECK(cli.Connect(server.port()));
    Status st;
    uint64_t k = 1;
    CHECK(!cli.Call(MsgType::kRead, &k, 1, 0, &st));
  }
  // BEGIN inside an open transaction: same.
  {
    BlockingClient cli;
    CHECK(cli.Connect(server.port()));
    Status st;
    CHECK(cli.Begin(&st));
    CHECK(!cli.Begin(&st));
  }
  // A client must never send kResp.
  {
    BlockingClient cli;
    CHECK(cli.Connect(server.port()));
    Status st;
    CHECK(!cli.Call(MsgType::kResp, nullptr, 0, 0, &st));
  }
  server.Stop();
  CHECK(server.ProtocolErrors() >= 3);
}

void TestMalformedFrameClosesConnection() {
  NetServer::Options opts;
  opts.rows = 16;
  NetServer server(ServerConfig(), opts);
  CHECK(server.Start());

  BlockingClient cli;
  CHECK(cli.Connect(server.port()));
  Status st;
  CHECK(cli.Begin(&st));
  CHECK(st == Status::kOk);

  // A frame-sized blob of garbage: the crc rejects it, the server closes.
  char garbage[32];
  for (size_t i = 0; i < sizeof(garbage); i++) {
    garbage[i] = static_cast<char>(0xa5u + i * 29u);
  }
  CHECK(net::WriteFull(cli.fd(), garbage, sizeof(garbage)));
  // The next call fails on the closed socket (either the write or the
  // response read, depending on timing).
  uint64_t k = 1;
  (void)cli.Call(MsgType::kRead, &k, 1, 0, &st, nullptr, nullptr);
  char byte;
  CHECK(!net::ReadFull(cli.fd(), &byte, 1));  // EOF: connection is gone

  cli.Close();
  server.Stop();
  CHECK(server.ProtocolErrors() >= 1);
}

/// Wait up to `timeout_ms` for `fd` to become readable.
bool Readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return poll(&p, 1, timeout_ms) == 1 && (p.revents & POLLIN) != 0;
}

/// Read one response frame off `fd` (the second half of
/// BlockingClient::Call, for a request that was written raw).
bool ReadResponse(int fd, Status* st) {
  std::vector<char> rx(8);  // crc + size prefix, then the remainder
  if (!net::ReadFull(fd, rx.data(), 8)) return false;
  uint32_t size;
  std::memcpy(&size, rx.data() + 4, 4);
  if (size > netproto::kMaxFrame) return false;
  rx.resize(8 + size);
  if (!net::ReadFull(fd, rx.data() + 8, size)) return false;
  netproto::Frame f;
  if (netproto::Decode(rx.data(), rx.size(), 0, &f) <= 0 ||
      f.type != MsgType::kResp) {
    return false;
  }
  *st = static_cast<Status>(f.status);
  return true;
}

// A COMMIT that depends on another connection's uncommitted write parks
// its continuation and frees the loop: with a single event loop the writer
// can only commit if the dependent's commit wait does not hold the thread.
void TestCommitSuspendsOnDirtyDependency() {
  Config cfg = ServerConfig();
  cfg.num_threads = 1;  // writer and reader share a loop
  NetServer::Options opts;
  opts.rows = 16;
  NetServer server(cfg, opts);
  CHECK(server.Start());

  BlockingClient a, b;
  CHECK(a.Connect(server.port()));
  CHECK(b.Connect(server.port()));
  const uint64_t hot = 3, cold = 9;
  Status st;

  // A writes the hot key; with no planned op count the write retires at
  // once, so B's RMW consumes A's uncommitted version.
  CHECK(a.Begin(&st));
  CHECK(a.Call(MsgType::kUpdateRmw, &hot, 1, 1, &st));
  CHECK(st == Status::kOk);
  CHECK(b.Begin(&st));
  CHECK(b.Call(MsgType::kUpdateRmw, &hot, 1, 1, &st));
  CHECK(st == Status::kOk);

  // B's COMMIT goes out raw: its reply must wait for A's commit.
  std::vector<char> tx;
  netproto::AppendRequest(&tx, MsgType::kCommit, nullptr, 0, 0);
  CHECK(net::WriteFull(b.fd(), tx.data(), tx.size()));

  // The loop keeps serving A while B is parked. B's frame reached the
  // server before A's READ did, so the loop processed it no later than the
  // batch that answered the READ.
  std::vector<char> rows;
  uint32_t row_size = 0;
  CHECK(a.Call(MsgType::kRead, &cold, 1, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  CHECK(!Readable(b.fd(), 50));  // B stays unanswered while A is open

  CHECK(a.Commit(&st));
  CHECK(st == Status::kOk);
  st = Status::kAborted;
  const bool replied = Readable(b.fd(), 10000) && ReadResponse(b.fd(), &st);
  CHECK(replied);
  CHECK(st == Status::kOk);

  // Both increments landed.
  CHECK(a.Begin(&st));
  CHECK(a.Call(MsgType::kRead, &hot, 1, 0, &st, &rows, &row_size));
  CHECK(st == Status::kOk);
  CHECK_EQ(rows.size(), 8u);
  uint64_t v = 0;
  if (rows.size() == 8) std::memcpy(&v, rows.data(), 8);
  CHECK_EQ(v, 2ull);
  CHECK(a.Commit(&st));

  a.Close();
  b.Close();
  server.Stop();
  ThreadStats total = server.StatsTotal();
  CHECK(total.suspended_txns >= 1);
  CHECK(total.continuations_fired >= 1);
  CHECK_EQ(server.ProtocolErrors(), 0ull);
}

void TestConcurrentClients() {
  NetServer::Options opts;
  opts.rows = 32;  // small: force contention and suspensions
  NetServer server(ServerConfig(), opts);
  CHECK(server.Start());

  const int kClients = 4;
  const int kTxnsEach = 50;
  std::atomic<uint64_t> commits{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      BlockingClient cli;
      if (!cli.Connect(server.port())) {
        transport_errors.fetch_add(1);
        return;
      }
      for (int t = 0; t < kTxnsEach; t++) {
        Status st;
        if (!cli.Begin(&st) || st != Status::kOk) {
          transport_errors.fetch_add(1);
          return;
        }
        uint64_t keys[4];
        for (int i = 0; i < 4; i++) {
          keys[i] = static_cast<uint64_t>((c * 7 + t * 3 + i) %
                                          static_cast<int>(opts.rows));
        }
        if (!cli.Call(MsgType::kUpdateRmw, keys, 4, 1, &st)) {
          transport_errors.fetch_add(1);
          return;
        }
        if (st != Status::kOk) continue;  // aborted: next BEGIN retries
        if (!cli.Commit(&st)) {
          transport_errors.fetch_add(1);
          return;
        }
        if (st == Status::kOk) commits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();

  CHECK_EQ(transport_errors.load(), 0);
  CHECK(commits.load() > 0);
  CHECK_EQ(server.ProtocolErrors(), 0ull);
  // The sum of committed add-1 RMWs must equal the sum over all counters:
  // nothing double-applied, nothing lost. (A txn the client saw abort
  // applied nothing; an acked commit applied all 4.)
  HashIndex* idx = server.db()->catalog()->GetIndex("kv_pk");
  uint64_t sum = 0;
  for (uint64_t k = 0; k < opts.rows; k++) {
    uint64_t v;
    std::memcpy(&v, idx->Get(k)->base(), 8);
    sum += v;
  }
  CHECK_EQ(sum, commits.load() * 4);
}

}  // namespace
}  // namespace bamboo

int main() {
  using namespace bamboo;
  RUN_TEST(TestHappyPath);
  RUN_TEST(TestUserAbort);
  RUN_TEST(TestStateViolationClosesConnection);
  RUN_TEST(TestMalformedFrameClosesConnection);
  RUN_TEST(TestCommitSuspendsOnDirtyDependency);
  RUN_TEST(TestConcurrentClients);
  return test::Summary("net_server_test");
}
