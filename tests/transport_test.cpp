// Transport-layer tests (below PBFT, above sockets/channels),
// parameterized over both backends: mesh bring-up, framing, ordering,
// broadcast, batching, and the shared stack-cost accounting.
#include <gtest/gtest.h>

#include "common/counters.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

class TransportTest : public ::testing::TestWithParam<Backend> {
 public:
  struct BringUp {
    int started = 0;
    bool done = false;
  };

  /// Runs `body(transports)` after all transports started. A node whose
  /// own start() is already finished must keep polling while the rest of
  /// the mesh dials in (the CM delivers connect requests through poll —
  /// exactly how the replica main loop behaves in production), so each
  /// start is followed by a pump loop until the whole mesh is up. The
  /// pumping also drains the identification hellos.
  template <typename Body>
  void with_mesh(std::uint32_t replicas, std::uint32_t clients, Body body) {
    BftHarness h(GetParam(), replicas, clients);
    std::vector<std::unique_ptr<Transport>> ts;
    for (std::uint32_t i = 0; i < replicas + clients; ++i) {
      ts.push_back(h.make_transport(i));
    }
    BringUp ctl;
    for (auto& t : ts) {
      h.sim().spawn([](Transport& t, BringUp& ctl) -> Task<> {
        co_await t.start();
        ++ctl.started;
        while (!ctl.done) {
          (void)co_await t.poll(sim::microseconds(100));
        }
      }(*t, ctl));
    }
    while (ctl.started < static_cast<int>(ts.size())) {
      h.sim().run_until(h.sim().now() + sim::milliseconds(1));
      ASSERT_LT(h.sim().now(), sim::seconds(5)) << "mesh bring-up stalled";
    }
    ctl.done = true;  // pumps exit on their next poll return
    h.sim().run_until(h.sim().now() + sim::milliseconds(2));
    body(h, ts);
  }

  struct RawDial {
    std::vector<InboundMsg> got;  // what replica 0's poll() surfaced
    bool closed = false;          // replica 0 closed the connection
  };

  /// Dials replica 0 from the client's host (node 2 of a 2-replica,
  /// 1-client mesh) with a bare socket or channel, sends `hello` and then
  /// one protocol frame, and reports what replica 0 made of them.
  RawDial raw_dial(const Bytes& hello) {
    RawDial r;
    with_mesh(2, 1, [&](BftHarness& h, auto& ts) {
      const SharedBytes frame = SharedBytes::copy_of(patterned_bytes(64, 3));
      bool done = false;
      h.sim().spawn([](Transport& t, bool& done,
                       std::vector<InboundMsg>& got) -> Task<> {
        while (!done) {
          for (InboundMsg& m : co_await t.poll(sim::microseconds(100))) {
            got.push_back(std::move(m));
          }
        }
      }(*ts[0], done, r.got));
      if (GetParam() == Backend::kNio) {
        h.sim().spawn([](BftHarness& h, const Bytes& hello,
                         const SharedBytes& frame, bool& closed) -> Task<> {
          auto sock = h.tcp().connect(
              h.layout().hosts[2], {h.layout().hosts[0], h.layout().base_port});
          while (sock->state() == tcpsim::TcpSocket::State::kConnecting) {
            co_await h.sim().sleep(sim::microseconds(10));
          }
          Bytes wire;
          for (const ByteView f : {ByteView(hello), frame.view()}) {
            for (int i = 0; i < 4; ++i) {
              wire.push_back(static_cast<std::uint8_t>(f.size() >> (8 * i)));
            }
            wire.insert(wire.end(), f.begin(), f.end());
          }
          std::size_t off = 0;
          while (off < wire.size()) {
            off += co_await sock->write(ByteView(wire).subspan(off));
          }
          co_await h.sim().sleep(sim::milliseconds(2));
          closed = sock->eof();
        }(h, hello, frame, r.closed));
      } else {
        h.sim().spawn([](BftHarness& h, const Bytes& hello,
                         const SharedBytes& frame, bool& closed) -> Task<> {
          auto ch = h.context(2).connect(h.layout().hosts[0],
                                         h.layout().base_port,
                                         RubinTransport::default_config());
          while (ch->state() == nio::RdmaChannel::State::kConnecting) {
            co_await h.sim().sleep(sim::microseconds(10));
          }
          EXPECT_GT(co_await ch->write(SharedBytes::copy_of(hello)), 0u);
          EXPECT_GT(co_await ch->write(frame), 0u);
          co_await h.sim().sleep(sim::milliseconds(2));
          closed = ch->state() == nio::RdmaChannel::State::kClosed;
        }(h, hello, frame, r.closed));
      }
      h.sim().run_until(h.sim().now() + sim::milliseconds(3));
      done = true;
      h.sim().run_until(h.sim().now() + sim::milliseconds(1));
    });
    return r;
  }
};

Bytes hello_naming(NodeId id, std::size_t size = 4) {
  Bytes b(size);
  for (std::size_t i = 0; i < 4; ++i) {
    b[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  return b;
}

TEST_P(TransportTest, MeshBringUpConnectsEveryPair) {
  with_mesh(4, 2, [](BftHarness&, auto& ts) {
    for (NodeId r = 0; r < 4; ++r) {
      for (NodeId o = 0; o < 6; ++o) {
        if (o == r) continue;
        if (o < 4 || ts[o]->layout().is_replica(o) == false) {
          // replica <-> replica and client -> replica links exist.
          if (o < 4) {
            EXPECT_TRUE(ts[r]->connected(o) || ts[o]->connected(r))
                << r << "<->" << o;
          }
        }
      }
    }
  });
}

TEST_P(TransportTest, FrameRoundTripBothDirections) {
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    const SharedBytes ping = SharedBytes::copy_of(patterned_bytes(300, 1));
    const SharedBytes pong = SharedBytes::copy_of(patterned_bytes(700, 2));
    bool ok0 = false;
    bool ok1 = false;
    h.sim().spawn([](Transport& t, const SharedBytes& ping, const SharedBytes& pong,
                     bool& ok) -> Task<> {
      t.send(1, ping);
      for (;;) {
        const auto msgs = co_await t.poll(sim::milliseconds(5));
        for (const auto& m : msgs) {
          if (m.peer == 1 && m.frame == pong) {
            ok = true;
            co_return;
          }
        }
        if (msgs.empty()) co_return;
      }
    }(*ts[0], ping, pong, ok0));
    h.sim().spawn([](Transport& t, const SharedBytes& ping, const SharedBytes& pong,
                     bool& ok) -> Task<> {
      for (;;) {
        const auto msgs = co_await t.poll(sim::milliseconds(5));
        for (const auto& m : msgs) {
          if (m.peer == 0 && m.frame == ping) {
            ok = true;
            t.send(0, pong);
            (void)co_await t.poll(0);  // flush
            co_return;
          }
        }
        if (msgs.empty()) co_return;
      }
    }(*ts[1], ping, pong, ok1));
    h.sim().run_until(h.sim().now() + sim::milliseconds(20));
    EXPECT_TRUE(ok0);
    EXPECT_TRUE(ok1);
  });
}

TEST_P(TransportTest, BroadcastReachesEveryOtherReplica) {
  with_mesh(4, 0, [](BftHarness& h, auto& ts) {
    const SharedBytes frame = SharedBytes::copy_of(patterned_bytes(512, 9));
    ts[0]->broadcast_replicas(frame);
    std::array<int, 4> got{};
    for (NodeId r = 1; r < 4; ++r) {
      h.sim().spawn([](Transport& t, const SharedBytes& frame, int& got) -> Task<> {
        const auto msgs = co_await t.poll(sim::milliseconds(5));
        for (const auto& m : msgs) {
          if (m.peer == 0 && m.frame == frame) ++got;
        }
      }(*ts[r], frame, got[r]));
    }
    // Sender flush.
    h.sim().spawn([](Transport& t) -> Task<> {
      (void)co_await t.poll(0);
    }(*ts[0]));
    h.sim().run_until(h.sim().now() + sim::milliseconds(20));
    EXPECT_EQ(got[1], 1);
    EXPECT_EQ(got[2], 1);
    EXPECT_EQ(got[3], 1);
    EXPECT_EQ(ts[0]->stats().frames_sent, 3u);
  });
}

TEST_P(TransportTest, LargeAndTinyFramesKeepBoundariesAndOrder) {
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    std::vector<std::size_t> sizes{1, 90'000, 17, 64'000, 5, 100'000};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ts[0]->send(1, SharedBytes::copy_of(patterned_bytes(sizes[i], i)));
    }
    std::vector<std::size_t> got;
    bool intact = true;
    h.sim().spawn([](sim::Simulator& s, Transport& t,
                     std::vector<std::size_t>& got, bool& intact,
                     std::size_t expect) -> Task<> {
      // Stream transports may wake mid-frame (readable bytes but no
      // complete frame yet), so an empty poll is not the end — only the
      // deadline is.
      const sim::Time deadline = s.now() + sim::milliseconds(40);
      while (got.size() < expect && s.now() < deadline) {
        const auto msgs = co_await t.poll(sim::milliseconds(1));
        for (const auto& m : msgs) {
          intact = intact && check_pattern(m.frame, got.size());
          got.push_back(m.frame.size());
        }
      }
    }(h.sim(), *ts[1], got, intact, sizes.size()));
    h.sim().spawn([](Transport& t) -> Task<> {
      for (int i = 0; i < 40; ++i) (void)co_await t.poll(sim::microseconds(100));
    }(*ts[0]));
    h.sim().run_until(h.sim().now() + sim::milliseconds(50));
    EXPECT_EQ(got, sizes);
    EXPECT_TRUE(intact);
  });
}

TEST_P(TransportTest, PollTimeoutOnIdleMesh) {
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    bool empty = false;
    sim::Time waited = 0;
    h.sim().spawn([](sim::Simulator& s, Transport& t, bool& empty,
                     sim::Time& waited) -> Task<> {
      const sim::Time t0 = s.now();
      const auto msgs = co_await t.poll(sim::microseconds(300));
      empty = msgs.empty();
      waited = s.now() - t0;
    }(h.sim(), *ts[0], empty, waited));
    h.sim().run_until(h.sim().now() + sim::milliseconds(5));
    EXPECT_TRUE(empty);
    EXPECT_GE(waited, sim::microseconds(300));
  });
}

TEST_P(TransportTest, SendWhileOwnerParkedWakesTheSelect) {
  // A frame queued by another coroutine while the owner is parked in
  // poll(1 ms) wakes the select, so it leaves on the owner's next poll
  // instead of after the timeout.
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    const SharedBytes frame = SharedBytes::copy_of(patterned_bytes(256, 5));
    bool done = false;
    sim::Time sent_at = -1;
    sim::Time got_at = -1;
    counters::reset();
    h.sim().spawn([](Transport& t, bool& done) -> Task<> {
      while (!done) (void)co_await t.poll(sim::milliseconds(1));
    }(*ts[0], done));
    h.sim().spawn([](sim::Simulator& s, Transport& t, const SharedBytes& frame,
                     sim::Time& sent_at) -> Task<> {
      co_await s.sleep(sim::microseconds(100));  // the owner is parked now
      sent_at = s.now();
      t.send(1, frame);
    }(h.sim(), *ts[0], frame, sent_at));
    h.sim().spawn([](sim::Simulator& s, Transport& t, const SharedBytes& frame,
                     bool& done, sim::Time& got_at) -> Task<> {
      while (got_at < 0) {
        const auto msgs = co_await t.poll(sim::milliseconds(5));
        for (const auto& m : msgs) {
          if (m.peer == 0 && m.frame == frame) got_at = s.now();
        }
      }
      done = true;
    }(h.sim(), *ts[1], frame, done, got_at));
    h.sim().run_until(h.sim().now() + sim::milliseconds(5));
    ASSERT_GE(got_at, 0);
    EXPECT_LT(got_at - sent_at, sim::microseconds(20));
    EXPECT_EQ(counters::value("transport.send_wakeup"), 1u);
  });
}

TEST_P(TransportTest, ValidHelloIdentifiesTheDialer) {
  // Control for the rejections below: the same bare dialer, with a
  // well-formed hello, gets its frame through as node 2.
  const RawDial r = raw_dial(hello_naming(2));
  ASSERT_EQ(r.got.size(), 1u);
  EXPECT_EQ(r.got[0].peer, 2u);
  EXPECT_FALSE(r.closed);
}

// An invalid hello identifies nobody: the acceptor closes the connection
// and no frame behind the hello surfaces.
void expect_rejected(const TransportTest::RawDial& r) {
  EXPECT_TRUE(r.got.empty()) << r.got.size() << " frame(s), first from "
                             << (r.got.empty() ? 0 : r.got[0].peer);
  EXPECT_TRUE(r.closed);
}

TEST_P(TransportTest, HelloNamingANodeOutsideTheLayoutIsRejected) {
  expect_rejected(raw_dial(hello_naming(99)));
}

TEST_P(TransportTest, HelloNamingTheAcceptorIsRejected) {
  expect_rejected(raw_dial(hello_naming(0)));
}

TEST_P(TransportTest, HelloOfTheWrongSizeIsRejected) {
  expect_rejected(raw_dial(hello_naming(2, 6)));
}

TEST_P(TransportTest, BacklogCapsThePollWait) {
  // The peer does not read, so the frames below fill the NIO kernel
  // buffers or the RUBIN send queue and backpressure holds the rest back.
  // poll() then waits at most 200 µs before it flushes again, whatever
  // timeout it was given.
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    const SharedBytes frame =
        SharedBytes::copy_of(patterned_bytes(32 * 1024, 7));
    for (int i = 0; i < 256; ++i) ts[0]->send(1, frame);
    sim::Time waited = -1;
    h.sim().spawn([](sim::Simulator& s, Transport& t,
                     sim::Time& waited) -> Task<> {
      (void)co_await t.poll(0);  // the first flush fills the wire
      const sim::Time t0 = s.now();
      (void)co_await t.poll(sim::milliseconds(10));
      waited = s.now() - t0;
    }(h.sim(), *ts[0], waited));
    h.sim().run_until(h.sim().now() + sim::milliseconds(20));
    EXPECT_LT(ts[0]->stats().frames_sent, 256u);
    EXPECT_GE(waited, sim::microseconds(200));
    EXPECT_LT(waited, sim::microseconds(300));
  });
}

TEST_P(TransportTest, BatchingAmortizesFlushes) {
  with_mesh(2, 0, [](BftHarness& h, auto& ts) {
    for (int i = 0; i < 20; ++i) ts[0]->send(1, SharedBytes::copy_of(patterned_bytes(256, i)));
    h.sim().spawn([](Transport& t) -> Task<> {
      for (int i = 0; i < 10; ++i) (void)co_await t.poll(sim::microseconds(100));
    }(*ts[0]));
    int received = 0;
    h.sim().spawn([](Transport& t, int& received) -> Task<> {
      while (received < 20) {
        const auto msgs = co_await t.poll(sim::milliseconds(5));
        if (msgs.empty()) co_return;
        received += static_cast<int>(msgs.size());
      }
    }(*ts[1], received));
    h.sim().run_until(h.sim().now() + sim::milliseconds(30));
    EXPECT_EQ(received, 20);
    // 20 queued frames must not cost 20 separate flush batches.
    EXPECT_LT(ts[0]->stats().flush_batches, 20u);
    EXPECT_EQ(ts[0]->stats().frames_sent, 20u);
  });
}

TEST_P(TransportTest, StackCostSlowsTheStack) {
  auto run_with = [&](sim::Time per_msg) {
    sim::Time elapsed = 0;
    with_mesh(2, 0, [&](BftHarness& h, auto& ts) {
      StackCost sc;
      sc.per_message = per_msg;
      ts[0]->set_stack_cost(sc);
      ts[1]->set_stack_cost(sc);
      for (int i = 0; i < 10; ++i) ts[0]->send(1, SharedBytes::copy_of(patterned_bytes(128, i)));
      int received = 0;
      const sim::Time t0 = h.sim().now();
      h.sim().spawn([](Transport& t) -> Task<> {
        for (int i = 0; i < 5; ++i) (void)co_await t.poll(sim::microseconds(100));
      }(*ts[0]));
      sim::Time done_at = 0;
      h.sim().spawn([](sim::Simulator& s, Transport& t, int& received,
                       sim::Time& done_at) -> Task<> {
        while (received < 10) {
          const auto msgs = co_await t.poll(sim::milliseconds(5));
          if (msgs.empty()) co_return;
          received += static_cast<int>(msgs.size());
        }
        done_at = s.now();
      }(h.sim(), *ts[1], received, done_at));
      h.sim().run_until(h.sim().now() + sim::milliseconds(50));
      EXPECT_EQ(received, 10);
      elapsed = done_at - t0;
    });
    return elapsed;
  };
  const sim::Time cheap = run_with(0);
  const sim::Time costly = run_with(sim::microseconds(10));
  // 10 messages x 10 us per stage; tx and rx stages pipeline across the
  // two hosts, so the end-to-end delta is roughly one stage's worth.
  EXPECT_GT(costly, cheap + sim::microseconds(90));
}

// RUBIN-only: a transport whose *accepted* connections use a leaner
// channel config than its dialed ones (the PopLab receive-state
// economics applied to the protocol stack). Bring-up and both frame
// directions must still work when ingress pools are a fraction of the
// mesh config's size.
TEST(RubinTransportAcceptConfig, LeanerIngressPoolsStillServeTraffic) {
  BftHarness h(Backend::kRubin, 2, 0);
  nio::ChannelConfig lean = RubinTransport::default_config();
  lean.buffer_count = 8;
  lean.buffer_size = 4096;
  std::vector<std::unique_ptr<Transport>> ts;
  for (NodeId id = 0; id < 2; ++id) {
    ts.push_back(std::make_unique<RubinTransport>(
        h.context(id), h.layout(), id, RubinTransport::default_config(),
        /*batch_limit=*/10, lean));
  }
  int started = 0;
  bool done = false;
  for (auto& t : ts) {
    h.sim().spawn([](Transport& t, int& started, bool& done) -> Task<> {
      co_await t.start();
      ++started;
      while (!done) (void)co_await t.poll(sim::microseconds(100));
    }(*t, started, done));
  }
  while (started < 2) {
    h.sim().run_until(h.sim().now() + sim::milliseconds(1));
    ASSERT_LT(h.sim().now(), sim::seconds(5)) << "bring-up stalled";
  }
  done = true;
  h.sim().run_until(h.sim().now() + sim::milliseconds(2));
  EXPECT_TRUE(ts[0]->connected(1) || ts[1]->connected(0));

  // Both directions cross a lean ingress pool exactly once: whichever
  // side accepted receives through it, and the reply exercises the
  // other side's (full-size) dialed pool. Frames must fit `lean`.
  const SharedBytes ping = SharedBytes::copy_of(patterned_bytes(1500, 3));
  const SharedBytes pong = SharedBytes::copy_of(patterned_bytes(3000, 4));
  bool ok0 = false;
  bool ok1 = false;
  h.sim().spawn([](Transport& t, const SharedBytes& ping,
                   const SharedBytes& pong, bool& ok) -> Task<> {
    t.send(1, ping);
    for (;;) {
      const auto msgs = co_await t.poll(sim::milliseconds(5));
      for (const auto& m : msgs) {
        if (m.peer == 1 && m.frame == pong) {
          ok = true;
          co_return;
        }
      }
      if (msgs.empty()) co_return;
    }
  }(*ts[0], ping, pong, ok0));
  h.sim().spawn([](Transport& t, const SharedBytes& ping,
                   const SharedBytes& pong, bool& ok) -> Task<> {
    for (;;) {
      const auto msgs = co_await t.poll(sim::milliseconds(5));
      for (const auto& m : msgs) {
        if (m.peer == 0 && m.frame == ping) {
          ok = true;
          t.send(0, pong);
          (void)co_await t.poll(0);  // flush
          co_return;
        }
      }
      if (msgs.empty()) co_return;
    }
  }(*ts[1], ping, pong, ok1));
  h.sim().run_until(h.sim().now() + sim::milliseconds(20));
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportTest,
                         ::testing::Values(Backend::kNio, Backend::kRubin),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace rubin::reptor
