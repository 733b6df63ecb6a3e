// Unit + integration tests for simulated TCP sockets and the NIO-style
// Poller: connection lifecycle, streaming, flow control, readiness
// semantics, timeouts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "tcpsim/poller.hpp"
#include "tcpsim/tcp.hpp"

namespace rubin::tcpsim {
namespace {

using sim::Task;
using sim::Time;

class TcpTest : public ::testing::Test {
 protected:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~TcpTest() override { sim.terminate_processes(); }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  TcpNetwork net{fabric};
};

// ------------------------------------------------------------ lifecycle --

TEST_F(TcpTest, HandshakeEstablishesBothEnds) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  EXPECT_EQ(client->state(), TcpSocket::State::kConnecting);
  std::shared_ptr<TcpSocket> server;
  sim.run();
  server = listener->accept();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->state(), TcpSocket::State::kEstablished);
  EXPECT_EQ(server->state(), TcpSocket::State::kEstablished);
  EXPECT_EQ(server->remote(), client->local());
  EXPECT_EQ(client->remote(), server->local());
}

TEST_F(TcpTest, ConnectToUnboundPortIsRefused) {
  auto client = net.connect(0, {1, 9999});
  sim.run();
  EXPECT_EQ(client->state(), TcpSocket::State::kClosed);
}

TEST_F(TcpTest, DuplicatePortThrows) {
  auto listener = net.listen(1, 7000);
  EXPECT_THROW(net.listen(1, 7000), std::invalid_argument);
}

TEST_F(TcpTest, AcceptReturnsNullWhenNonePending) {
  auto listener = net.listen(1, 7000);
  EXPECT_EQ(listener->accept(), nullptr);
}

TEST_F(TcpTest, MultipleConnectionsQueueOnListener) {
  auto listener = net.listen(1, 7000);
  auto c1 = net.connect(0, {1, 7000});
  auto c2 = net.connect(2, {1, 7000});
  auto c3 = net.connect(3, {1, 7000});
  sim.run();
  EXPECT_EQ(listener->pending(), 3u);
  EXPECT_NE(listener->accept(), nullptr);
  EXPECT_NE(listener->accept(), nullptr);
  EXPECT_NE(listener->accept(), nullptr);
  EXPECT_EQ(listener->accept(), nullptr);
}

// ------------------------------------------------------------ transfer ---

TEST_F(TcpTest, BytesArriveIntactAndInOrder) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  const Bytes msg = patterned_bytes(10'000, 77);
  Bytes received;
  bool sent_all = false;

  sim.spawn([](std::shared_ptr<TcpSocket> c, const Bytes& msg, bool& done) -> Task<> {
    std::size_t off = 0;
    while (off < msg.size()) {
      off += co_await c->write(ByteView(msg).subspan(off));
    }
    done = true;
  }(client, msg, sent_all));

  sim.spawn([](std::shared_ptr<TcpSocket> s, Bytes& out) -> Task<> {
    Bytes buf(4096);
    while (out.size() < 10'000) {
      const std::size_t n = co_await s->read(buf);
      out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }(server, received));

  sim.run();
  EXPECT_TRUE(sent_all);
  EXPECT_EQ(received, msg);
}

TEST_F(TcpTest, ReadReturnsZeroWhenNothingBuffered) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  std::size_t got = 1;
  sim.spawn([](std::shared_ptr<TcpSocket> s, std::size_t& got) -> Task<> {
    Bytes buf(64);
    got = co_await s->read(buf);
  }(server, got));
  sim.run();
  EXPECT_EQ(got, 0u);
  EXPECT_FALSE(server->eof());
}

TEST_F(TcpTest, WriteBeforeEstablishedReturnsZero) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  std::size_t wrote = 99;
  sim.spawn([](std::shared_ptr<TcpSocket> c, std::size_t& wrote) -> Task<> {
    wrote = co_await c->write(to_bytes("early"));
  }(client, wrote));
  // Run only the spawn, not the handshake frames: write goes first because
  // spawn was queued before any fabric frame arrives.
  sim.run();
  EXPECT_EQ(wrote, 0u);
}

TEST_F(TcpTest, FlowControlCapsUnreadBytes) {
  net.set_buffer_capacity(8 * 1024);
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  // Writer pushes 64 KB; reader never reads. At most capacity bytes may
  // accumulate at the receiver (plus nothing in flight once idle).
  const Bytes msg = patterned_bytes(64 * 1024, 5);
  std::size_t written = 0;
  sim.spawn([](std::shared_ptr<TcpSocket> c, const Bytes& msg, std::size_t& off) -> Task<> {
    // A single non-blocking write pass: take what the buffers allow.
    for (int attempts = 0; attempts < 100 && off < msg.size(); ++attempts) {
      off += co_await c->write(ByteView(msg).subspan(off));
    }
  }(client, msg, written));
  sim.run();
  EXPECT_LE(server->readable_bytes(), 8 * 1024u);
  EXPECT_LT(written, msg.size());

  // Draining the receiver unblocks the remaining bytes.
  Bytes sink;
  sim.spawn([](std::shared_ptr<TcpSocket> s, Bytes& sink) -> Task<> {
    Bytes buf(4096);
    for (int i = 0; i < 200; ++i) {
      const std::size_t n = co_await s->read(buf);
      sink.insert(sink.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }(server, sink));
  sim.run();
  EXPECT_GT(sink.size(), 8 * 1024u);
}

TEST_F(TcpTest, LatencyScalesWithPayload) {
  auto run_transfer = [&](std::size_t size, sim::Simulator& s) -> Time {
    net::Fabric f{s, net::CostModel::roce_10g(), 2};
    TcpNetwork n{f};
    auto listener = n.listen(1, 7000);
    auto client = n.connect(0, {1, 7000});
    s.run();
    auto server = listener->accept();
    Time done = -1;
    s.spawn([](std::shared_ptr<TcpSocket> c, std::size_t size) -> Task<> {
      const Bytes msg = patterned_bytes(size, 1);
      std::size_t off = 0;
      while (off < size) off += co_await c->write(ByteView(msg).subspan(off));
    }(client, size));
    s.spawn([](sim::Simulator& s2, std::shared_ptr<TcpSocket> srv, std::size_t size,
               Time& done) -> Task<> {
      Bytes buf(16 * 1024);
      std::size_t got = 0;
      while (got < size) got += co_await srv->read(buf);
      done = s2.now();
    }(s, server, size, done));
    s.run();
    return done;
  };
  sim::Simulator s1;
  sim::Simulator s2;
  const Time t_small = run_transfer(1024, s1);
  const Time t_large = run_transfer(100 * 1024, s2);
  ASSERT_GT(t_small, 0);
  ASSERT_GT(t_large, 0);
  // 100 KB must cost several times 1 KB (wire + copies + segments), but
  // less than 100x (fixed costs amortize).
  EXPECT_GT(t_large, 3 * t_small);
  EXPECT_LT(t_large, 100 * t_small);
}

// ---------------------------------------------------------------- close --

TEST_F(TcpTest, CloseSignalsEofAfterDrain) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();

  sim.spawn([](std::shared_ptr<TcpSocket> c) -> Task<> {
    (void)co_await c->write(to_bytes("bye"));
    c->close();
  }(client));
  sim.run();

  EXPECT_FALSE(server->eof());  // 3 bytes still buffered
  Bytes buf(16);
  std::size_t n = 0;
  sim.spawn([](std::shared_ptr<TcpSocket> s, Bytes& buf, std::size_t& n) -> Task<> {
    n = co_await s->read(buf);
  }(server, buf, n));
  sim.run();
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(server->eof());
}

// --------------------------------------------------------------- poller --

TEST_F(TcpTest, PollerReportsAccept) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  poller.register_listener(listener, kOpAccept, 42);
  auto client = net.connect(0, {1, 7000});

  std::size_t nready = 0;
  std::uint64_t att = 0;
  sim.spawn([](Poller& p, std::size_t& nready, std::uint64_t& att) -> Task<> {
    nready = co_await p.select();
    att = p.selected().front()->attachment();
  }(poller, nready, att));
  sim.run();
  EXPECT_EQ(nready, 1u);
  EXPECT_EQ(att, 42u);
  EXPECT_TRUE(poller.selected().front()->is_acceptable());
}

TEST_F(TcpTest, PollerReportsConnectOnce) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  auto client = net.connect(0, {1, 7000});
  poller.register_socket(client, kOpConnect | kOpRead);

  int connect_events = 0;
  sim.spawn([](Poller& p, int& events) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      const std::size_t n = co_await p.select(sim::microseconds(200));
      for (std::size_t k = 0; k < n; ++k) {
        if (p.selected()[k]->is_connectable()) ++events;
      }
    }
  }(poller, connect_events));
  sim.run();
  EXPECT_EQ(connect_events, 1);  // kOpConnect is edge-like: reported once
}

TEST_F(TcpTest, PollerReportsReadOnArrival) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  Poller poller(net);
  poller.register_socket(server, kOpRead);

  Time ready_at = -1;
  sim.spawn([](sim::Simulator& s, Poller& p, Time& t) -> Task<> {
    (void)co_await p.select();
    t = s.now();
  }(sim, poller, ready_at));
  sim.spawn([](std::shared_ptr<TcpSocket> c) -> Task<> {
    (void)co_await c->write(to_bytes("x"));
  }(client));
  sim.run();
  EXPECT_GT(ready_at, 0);
}

TEST_F(TcpTest, PollerTimeoutReturnsZero) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  poller.register_listener(listener, kOpAccept);
  std::size_t n = 99;
  Time returned_at = -1;
  sim.spawn([](sim::Simulator& s, Poller& p, std::size_t& n, Time& t) -> Task<> {
    n = co_await p.select(sim::microseconds(100));
    t = s.now();
  }(sim, poller, n, returned_at));
  sim.run();
  EXPECT_EQ(n, 0u);
  EXPECT_GE(returned_at, sim::microseconds(100));
}

TEST_F(TcpTest, PollerZeroTimeoutPolls) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  poller.register_listener(listener, kOpAccept);
  std::size_t n = 99;
  sim.spawn([](Poller& p, std::size_t& n) -> Task<> {
    n = co_await p.select(0);
  }(poller, n));
  sim.run();
  EXPECT_EQ(n, 0u);
}

TEST_F(TcpTest, WakeupUnblocksSelect) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  poller.register_listener(listener, kOpAccept);
  std::size_t n = 99;
  Time returned_at = -1;
  sim.spawn([](sim::Simulator& s, Poller& p, std::size_t& n, Time& t) -> Task<> {
    n = co_await p.select();  // no timeout: only wakeup can end this
    t = s.now();
  }(sim, poller, n, returned_at));
  sim.schedule_after(sim::microseconds(300), [&] { poller.wakeup(); });
  sim.run();
  EXPECT_EQ(n, 0u);
  EXPECT_GE(returned_at, sim::microseconds(300));
}

TEST_F(TcpTest, SelectConsumesWakeupWhenReturningReadyKeys) {
  // Java semantics: one selection consumes a wakeup. A select that
  // returns on a ready key while a wakeup is pending must clear it, or
  // the stale wakeup ends the next select at once.
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  ASSERT_EQ(listener->pending(), 1u);
  Poller poller(net);
  poller.register_listener(listener, kOpAccept);
  std::size_t n1 = 99;
  std::size_t n2 = 99;
  Time waited = -1;
  sim.spawn([](sim::Simulator& s, Poller& p, std::shared_ptr<TcpListener> l,
               std::size_t& n1, std::size_t& n2, Time& waited) -> Task<> {
    p.wakeup();
    n1 = co_await p.select();
    (void)l->accept();  // the listener is no longer acceptable
    const Time t1 = s.now();
    n2 = co_await p.select(sim::microseconds(100));
    waited = s.now() - t1;
  }(sim, poller, listener, n1, n2, waited));
  sim.run();
  EXPECT_EQ(n1, 1u);
  EXPECT_EQ(n2, 0u);
  EXPECT_GE(waited, sim::microseconds(100));
}

TEST_F(TcpTest, InterestOpsFilterReadiness) {
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  Poller poller(net);
  // Interested in writes only: incoming data must not wake us.
  auto* key = poller.register_socket(server, kOpWrite);
  std::size_t n = 0;
  sim.spawn([](Poller& p, std::size_t& n) -> Task<> {
    n = co_await p.select(sim::microseconds(50));
  }(poller, n));
  sim.run();
  ASSERT_EQ(n, 1u);
  EXPECT_TRUE(key->is_writable());
  EXPECT_FALSE(key->is_readable());
}

TEST_F(TcpTest, CancelledKeyIsSwept) {
  auto listener = net.listen(1, 7000);
  Poller poller(net);
  auto* key = poller.register_listener(listener, kOpAccept);
  EXPECT_EQ(poller.key_count(), 1u);
  key->cancel();
  std::size_t n = 99;
  sim.spawn([](Poller& p, std::size_t& n) -> Task<> {
    n = co_await p.select(0);
  }(poller, n));
  sim.run();
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(poller.key_count(), 0u);
}

TEST_F(TcpTest, EchoThroughPollerSingleThread) {
  // A miniature of the paper's echo server: one selector thread serving a
  // client with request/response round trips.
  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  constexpr int kRounds = 20;
  int echoed = 0;

  // Server: selector loop, echoes everything it reads.
  sim.spawn([](TcpNetwork& net, std::shared_ptr<TcpSocket> s, int& echoed) -> Task<> {
    Poller poller(net);
    poller.register_socket(s, kOpRead);
    Bytes buf(1024);
    while (echoed < kRounds) {
      const std::size_t nready = co_await poller.select(sim::milliseconds(100));
      if (nready == 0) co_return;  // give up on stall — test will fail below
      std::size_t n = co_await s->read(buf);
      while (n > 0) {
        std::size_t off = 0;
        while (off < n) {
          off += co_await s->write(ByteView(buf).subspan(off, n - off));
        }
        ++echoed;
        n = co_await s->read(buf);
      }
    }
  }(net, server, echoed));

  // Client: ping, await pong, repeat.
  bool all_ok = false;
  sim.spawn([](std::shared_ptr<TcpSocket> c, bool& ok) -> Task<> {
    Bytes buf(1024);
    for (int i = 0; i < kRounds; ++i) {
      const Bytes msg = patterned_bytes(128, static_cast<std::uint64_t>(i));
      std::size_t off = 0;
      while (off < msg.size()) off += co_await c->write(ByteView(msg).subspan(off));
      std::size_t got = 0;
      while (got < msg.size()) {
        got += co_await c->read(MutByteView(buf).subspan(got, msg.size() - got));
      }
      if (!check_pattern(ByteView(buf).first(msg.size()), static_cast<std::uint64_t>(i))) {
        co_return;
      }
    }
    ok = true;
  }(client, all_ok));

  sim.run();
  EXPECT_TRUE(all_ok);
  EXPECT_GE(echoed, kRounds);
}

}  // namespace
}  // namespace rubin::tcpsim
