// Edge-case tests for the RUBIN selector and channels, plus tcpsim and
// verbs corner cases that the main suites do not reach: runtime interest
// mutation, multiple selectors, closed-channel semantics, exact select
// times on both selector backends, empty posts, CQ rebinding, and socket
// end-of-life behaviour.
#include <gtest/gtest.h>

#include "common/audit.hpp"
#include "net/fabric.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/poller.hpp"
#include "tcpsim/tcp.hpp"
#include "verbs/cm.hpp"

namespace rubin {
namespace {

using sim::Task;

class EdgeTest : public ::testing::Test {
 public:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~EdgeTest() override { sim.terminate_processes(); }

  /// Builds an established RUBIN channel pair.
  std::pair<std::shared_ptr<nio::RdmaChannel>, std::shared_ptr<nio::RdmaChannel>>
  make_pair() {
    auto listener = ctx_b.listen(next_port_);
    auto client = ctx_a.connect(1, next_port_, {});
    ++next_port_;
    sim.run_until(sim.now() + sim::microseconds(50));
    auto server = listener->accept();
    sim.run_until(sim.now() + sim::microseconds(50));
    listeners_.push_back(std::move(listener));
    return {std::move(client), std::move(server)};
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  verbs::Device dev_a{fabric, 0};
  verbs::Device dev_b{fabric, 1};
  verbs::ConnectionManager cm{fabric};
  nio::RubinContext ctx_a{dev_a, cm};
  nio::RubinContext ctx_b{dev_b, cm};
  std::uint16_t next_port_ = 5000;
  std::vector<std::shared_ptr<nio::RdmaServerChannel>> listeners_;
};

// --------------------------------------------------------- rubin selector -

TEST_F(EdgeTest, InterestMutationStopsReporting) {
  auto [client, server] = make_pair();
  nio::RdmaSelector selector(ctx_b);
  auto* key = selector.register_channel(server, nio::kOpReceive);

  const Bytes m = patterned_bytes(128, 1);  // outlives the zero-copy WR
  sim.spawn([](std::shared_ptr<nio::RdmaChannel> c, const Bytes& m) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await c->write(m);
  }(client, m));

  std::size_t first = 0;
  std::size_t second = 99;
  sim.spawn([](nio::RdmaSelector& sel, nio::RdmaSelectionKey* key,
               std::size_t& first, std::size_t& second) -> Task<> {
    first = co_await sel.select(sim::milliseconds(1));
    // Lose interest without consuming the message: the same condition
    // must no longer be reported.
    key->set_interest_ops(0);
    second = co_await sel.select(sim::microseconds(200));
  }(selector, key, first, second));
  sim.run();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(server->readable_messages(), 1u);  // still pending
}

TEST_F(EdgeTest, CancelledKeyIsSweptAndAudited) {
  auto [client, server] = make_pair();
  nio::RdmaSelector selector(ctx_b);
  auto* key = selector.register_channel(server, nio::kOpReceive);

  const Bytes m = patterned_bytes(128, 7);  // outlives the zero-copy WR
  sim.spawn([](std::shared_ptr<nio::RdmaChannel> c, const Bytes& m) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await c->write(m);
  }(client, m));

  key->cancel();

  if constexpr (audit::kEnabled) {
    // Interest mutation after cancel() is a lifecycle bug the audit layer
    // flags (captured here instead of aborting). Must happen before any
    // select(): the sweep there frees the key, and touching it afterwards
    // would be use-after-free, not merely an audit trip.
    audit::ScopedCapture cap;
    key->set_interest_ops(nio::kOpSend);
    EXPECT_TRUE(cap.saw("set_interest_ops on a cancelled key"));
    key->set_interest_ops(nio::kOpReceive);
  }

  std::size_t reported = 99;
  sim.spawn([](nio::RdmaSelector& sel, std::size_t& reported) -> Task<> {
    // The sweep at the top of select() removes the key before the scan;
    // the pending message must not surface through a cancelled key.
    reported = co_await sel.select(sim::microseconds(500));
  }(selector, reported));
  sim.run();
  EXPECT_EQ(reported, 0u);
}

TEST_F(EdgeTest, TwoSelectorsSplitChannels) {
  auto [c1, s1] = make_pair();
  auto [c2, s2] = make_pair();
  nio::RdmaSelector sel_x(ctx_b);
  nio::RdmaSelector sel_y(ctx_b);
  sel_x.register_channel(s1, nio::kOpReceive, 111);
  sel_y.register_channel(s2, nio::kOpReceive, 222);

  const Bytes m = patterned_bytes(64, 0);  // outlives the zero-copy WRs
  sim.spawn([](std::shared_ptr<nio::RdmaChannel> c1,
               std::shared_ptr<nio::RdmaChannel> c2, const Bytes& m) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await c1->write(m);
    n = 0;
    while (n == 0) n = co_await c2->write(m);
  }(c1, c2, m));

  std::uint64_t x_att = 0;
  std::uint64_t y_att = 0;
  sim.spawn([](nio::RdmaSelector& sel, std::uint64_t& att) -> Task<> {
    if (co_await sel.select(sim::milliseconds(2)) > 0) {
      att = sel.selected().front()->attachment();
    }
  }(sel_x, x_att));
  sim.spawn([](nio::RdmaSelector& sel, std::uint64_t& att) -> Task<> {
    if (co_await sel.select(sim::milliseconds(2)) > 0) {
      att = sel.selected().front()->attachment();
    }
  }(sel_y, y_att));
  sim.run();
  EXPECT_EQ(x_att, 111u);  // each selector saw only its own channel
  EXPECT_EQ(y_att, 222u);
}

TEST_F(EdgeTest, ClosedChannelReportsReceiveReadiness) {
  auto [client, server] = make_pair();
  nio::RdmaSelector selector(ctx_b);
  selector.register_channel(server, nio::kOpReceive);
  client->close();

  std::size_t nready = 0;
  std::size_t read_result = 99;
  sim.spawn([](nio::RdmaSelector& sel, std::shared_ptr<nio::RdmaChannel> s,
               std::size_t& nready, std::size_t& read_result) -> Task<> {
    nready = co_await sel.select(sim::milliseconds(2));
    Bytes rx(256);
    read_result = co_await s->read(rx);
  }(selector, server, nready, read_result));
  sim.run();
  EXPECT_EQ(nready, 1u);  // closed => kOpReceive so the app notices
  EXPECT_EQ(read_result, 0u);
  EXPECT_EQ(server->state(), nio::RdmaChannel::State::kClosed);
}

TEST_F(EdgeTest, ServerChannelCloseDropsPendingRequests) {
  auto listener = ctx_b.listen(4999);
  auto client = ctx_a.connect(1, 4999, {});
  sim.run_until(sim.now() + sim::microseconds(50));
  ASSERT_EQ(listener->pending_requests(), 1u);
  listener->close();
  EXPECT_EQ(listener->pending_requests(), 0u);
  EXPECT_EQ(listener->accept(), nullptr);
}

TEST_F(EdgeTest, SelectZeroTimeoutNeverParks) {
  auto [client, server] = make_pair();
  nio::RdmaSelector selector(ctx_b);
  selector.register_channel(server, nio::kOpReceive);
  sim::Time elapsed = -1;
  sim.spawn([](sim::Simulator& s, nio::RdmaSelector& sel,
               sim::Time& elapsed) -> Task<> {
    const sim::Time t0 = s.now();
    (void)co_await sel.select(0);
    elapsed = s.now() - t0;
  }(sim, selector, elapsed));
  sim.run();
  ASSERT_GE(elapsed, 0);
  EXPECT_LT(elapsed, sim::microseconds(5));  // entry cost only
}

// ------------------------------------------------- select timing pins --
//
// Exact virtual times of one select() on each backend. RUBIN pays
// rubin_select_entry plus rubin_event_dispatch per notification queued
// since the last select; NIO pays one kernel_crossing. Both pay
// thread_wakeup whenever the selector thread parked.

struct SelectPins {
  sim::Time idle = -1;   // nothing ready, select(100 µs)
  sim::Time woken = -1;  // parked select(1 ms), wakeup() 30 µs in
  sim::Time ready = -1;  // a message delivered before the call
  std::size_t idle_n = 99, woken_n = 99, ready_n = 0;
};

/// Runs the three pinned selects in order; `send` delivers one message
/// to the registered channel.
template <typename Selector, typename Send>
Task<> run_select_pins(sim::Simulator& s, Selector& sel, Send send,
                       SelectPins& p) {
  sim::Time t0 = s.now();
  p.idle_n = co_await sel.select(sim::microseconds(100));
  p.idle = s.now() - t0;

  t0 = s.now();
  s.schedule_after(sim::microseconds(30), [&sel] { sel.wakeup(); });
  p.woken_n = co_await sel.select(sim::milliseconds(1));
  p.woken = s.now() - t0;

  co_await send();
  co_await s.sleep(sim::microseconds(50));
  t0 = s.now();
  p.ready_n = co_await sel.select(sim::milliseconds(1));
  p.ready = s.now() - t0;
}

TEST_F(EdgeTest, RubinSelectTimesArePinned) {
  auto [client, server] = make_pair();
  nio::RdmaSelector selector(ctx_b);
  selector.register_channel(server, nio::kOpReceive);
  const Bytes m = patterned_bytes(128, 3);  // outlives the zero-copy WR
  auto send = [&client, &m]() -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await client->write(m);
  };
  SelectPins p;
  sim.spawn(run_select_pins(sim, selector, send, p));
  sim.run();
  const auto& c = fabric.cost();
  EXPECT_EQ(p.idle_n, 0u);
  EXPECT_EQ(p.idle,
            c.rubin_select_entry + sim::microseconds(100) + c.thread_wakeup);
  EXPECT_EQ(p.woken_n, 0u);
  EXPECT_EQ(p.woken, sim::microseconds(30) + c.thread_wakeup);
  EXPECT_EQ(p.ready_n, 1u);
  // The message queued the only notification of the run.
  EXPECT_EQ(selector.events_dispatched(), 1u);
  EXPECT_EQ(p.ready, c.rubin_select_entry + c.rubin_event_dispatch);
}

TEST_F(EdgeTest, NioSelectTimesArePinned) {
  tcpsim::TcpNetwork net(fabric);
  auto listener = net.listen(1, 6102);
  auto client = net.connect(0, {1, 6102});
  sim.run();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);
  tcpsim::Poller poller(net);
  poller.register_socket(server, tcpsim::kOpRead);
  auto send = [&client]() -> Task<> {
    (void)co_await client->write(to_bytes("ping"));
  };
  SelectPins p;
  sim.spawn(run_select_pins(sim, poller, send, p));
  sim.run();
  const auto& c = fabric.cost();
  EXPECT_EQ(p.idle_n, 0u);
  EXPECT_EQ(p.idle,
            c.kernel_crossing + sim::microseconds(100) + c.thread_wakeup);
  EXPECT_EQ(p.woken_n, 0u);
  EXPECT_EQ(p.woken, sim::microseconds(30) + c.thread_wakeup);
  EXPECT_EQ(p.ready_n, 1u);
  EXPECT_EQ(p.ready, c.kernel_crossing);
}

// --------------------------------------------------------------- tcpsim --

TEST_F(EdgeTest, SocketWriteAfterCloseReturnsZero) {
  tcpsim::TcpNetwork net(fabric);
  auto listener = net.listen(1, 6100);
  auto client = net.connect(0, {1, 6100});
  sim.run();
  client->close();
  std::size_t n = 99;
  sim.spawn([](std::shared_ptr<tcpsim::TcpSocket> c, std::size_t& n) -> Task<> {
    n = co_await c->write(to_bytes("late"));
  }(client, n));
  sim.run();
  EXPECT_EQ(n, 0u);
}

TEST_F(EdgeTest, EofIsStickyAcrossReads) {
  tcpsim::TcpNetwork net(fabric);
  auto listener = net.listen(1, 6101);
  auto client = net.connect(0, {1, 6101});
  sim.run();
  auto server = listener->accept();
  client->close();
  sim.run();
  int zero_reads = 0;
  sim.spawn([](std::shared_ptr<tcpsim::TcpSocket> s, int& zeros) -> Task<> {
    Bytes buf(16);
    for (int i = 0; i < 3; ++i) {
      if (co_await s->read(buf) == 0 && s->eof()) ++zeros;
    }
  }(server, zero_reads));
  sim.run();
  EXPECT_EQ(zero_reads, 3);
}

// ---------------------------------------------------------------- verbs --

TEST_F(EdgeTest, EmptyPostBatchesAreNoOps) {
  verbs::ProtectionDomain pd;
  auto* scq = dev_a.create_cq(8);
  auto* rcq = dev_a.create_cq(8);
  auto qp = dev_a.create_qp(pd, *scq, *rcq);
  qp->connect(dev_b, 12345);
  verbs::PostResult sr{};
  verbs::PostResult rr{};
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp, verbs::PostResult& sr,
               verbs::PostResult& rr) -> Task<> {
    sr = co_await qp->post_send(std::vector<verbs::SendWr>{});
    rr = co_await qp->post_recv(std::vector<verbs::RecvWr>{});
  }(qp, sr, rr));
  sim.run();
  EXPECT_EQ(sr, verbs::PostResult::kOk);
  EXPECT_EQ(rr, verbs::PostResult::kOk);
  EXPECT_EQ(qp->send_slots_free(), qp->config().max_send_wr);
}

TEST_F(EdgeTest, FindQpAfterDestructionReturnsNull) {
  verbs::ProtectionDomain pd;
  auto* scq = dev_a.create_cq(8);
  auto* rcq = dev_a.create_cq(8);
  std::uint32_t qpn = 0;
  {
    auto qp = dev_a.create_qp(pd, *scq, *rcq);
    qpn = qp->qp_num();
    EXPECT_NE(dev_a.find_qp(qpn), nullptr);
  }
  EXPECT_EQ(dev_a.find_qp(qpn), nullptr);
}

TEST_F(EdgeTest, CqChannelRebinding) {
  auto* ch1 = dev_a.create_channel();
  auto* ch2 = dev_a.create_channel();
  auto* cq = dev_a.create_cq(8, ch1);
  cq->req_notify();
  cq->push(verbs::Completion{});
  sim.run();
  EXPECT_EQ(ch1->events().size(), 1u);
  cq->set_channel(ch2);
  cq->req_notify();
  cq->push(verbs::Completion{});
  sim.run();
  EXPECT_EQ(ch1->events().size(), 1u);  // unchanged
  EXPECT_EQ(ch2->events().size(), 1u);  // rebind took effect
}

TEST_F(EdgeTest, WatchdogBreaksWedgedQp) {
  // A send whose frames vanish (partition) must error the QP within the
  // transport-retry budget instead of hanging forever.
  verbs::ProtectionDomain pd_a;
  verbs::ProtectionDomain pd_b;
  auto* scq_a = dev_a.create_cq(16);
  auto* rcq_a = dev_a.create_cq(16);
  auto* scq_b = dev_b.create_cq(16);
  auto* rcq_b = dev_b.create_cq(16);
  verbs::QpConfig qc;
  qc.transport_retry_timeout_ns = sim::milliseconds(1);
  auto qp_a = dev_a.create_qp(pd_a, *scq_a, *rcq_a, qc);
  auto qp_b = dev_b.create_qp(pd_b, *scq_b, *rcq_b, qc);
  qp_a->connect(dev_b, qp_b->qp_num());
  qp_b->connect(dev_a, qp_a->qp_num());

  Bytes buf(1024);
  auto* mr = pd_a.register_memory(buf, 0);
  fabric.set_partitioned(0, 1, true);
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp,
               verbs::MemoryRegion* mr) -> Task<> {
    verbs::SendWr wr;
    wr.wr_id = 7;
    wr.sg_list = verbs::Sge{mr->addr(), 512, mr->lkey()};
    (void)co_await qp->post_send_one(wr);
  }(qp_a, mr));
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(qp_a->state(), verbs::QpState::kError);
  const auto wcs = scq_a->poll(4);
  ASSERT_GE(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, verbs::WcStatus::kTransportRetryExceeded);
}

TEST_F(EdgeTest, WatchdogBreaksEachQpOnceAtItsPinnedInstant) {
  // Two QPs on one device, with 1 ms and 2 ms transport-retry budgets,
  // post interleaved WRs into a partition. Each breaks exactly once, one
  // budget after its first WR was posted (at 160 ns and 320 ns). A third
  // QP destroyed with WRs outstanding completes nothing.
  verbs::ProtectionDomain pd_a;
  verbs::ProtectionDomain pd_b;
  auto* scq1 = dev_a.create_cq(16);
  auto* scq2 = dev_a.create_cq(16);
  auto* scq3 = dev_a.create_cq(16);
  auto* rcq_a = dev_a.create_cq(16);
  auto* cq_b = dev_b.create_cq(16);
  std::vector<std::shared_ptr<verbs::QueuePair>> peers;
  const auto make = [&](sim::Time budget, verbs::CompletionQueue& scq) {
    verbs::QpConfig qc;
    qc.transport_retry_timeout_ns = budget;
    auto qp = dev_a.create_qp(pd_a, scq, *rcq_a, qc);
    auto peer = dev_b.create_qp(pd_b, *cq_b, *cq_b, qc);
    qp->connect(dev_b, peer->qp_num());
    peer->connect(dev_a, qp->qp_num());
    peers.push_back(std::move(peer));
    return qp;
  };
  auto qp1 = make(sim::milliseconds(1), *scq1);
  auto qp2 = make(sim::milliseconds(2), *scq2);
  auto qp3 = make(sim::milliseconds(1), *scq3);

  Bytes buf(1024);
  auto* mr = pd_a.register_memory(buf, 0);
  fabric.set_partitioned(0, 1, true);
  sim.spawn([](sim::Simulator& s, verbs::QueuePair* a, verbs::QueuePair* b,
               verbs::QueuePair* c, verbs::MemoryRegion* mr) -> Task<> {
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (verbs::QueuePair* qp : {a, b, c}) {
        verbs::SendWr wr;
        wr.wr_id = round;
        wr.sg_list = verbs::Sge{mr->addr(), 256, mr->lkey()};
        (void)co_await qp->post_send_one(wr);
      }
      if (round < 2) co_await s.sleep(sim::microseconds(200));
    }
  }(sim, qp1.get(), qp2.get(), qp3.get(), mr));
  sim.run_until(sim::microseconds(500));
  const std::uint32_t qpn3 = qp3->qp_num();
  qp3.reset();
  EXPECT_EQ(dev_a.find_qp(qpn3), nullptr);

  for (const auto& [cq, at] :
       {std::pair{scq1, sim::Time{1'000'160}},
        std::pair{scq2, sim::Time{2'000'320}}}) {
    SCOPED_TRACE("due at " + std::to_string(at));
    sim.run_until(at - 1);
    EXPECT_TRUE(cq->poll(4).empty());
    sim.run_until(at);
    const auto wcs = cq->poll(4);
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::kTransportRetryExceeded);
  }
  sim.run_until(sim::milliseconds(10));
  EXPECT_TRUE(scq1->poll(4).empty());
  EXPECT_TRUE(scq2->poll(4).empty());
  EXPECT_TRUE(scq3->poll(4).empty());
  EXPECT_EQ(qp1->state(), verbs::QpState::kError);
  EXPECT_EQ(qp2->state(), verbs::QpState::kError);
  EXPECT_TRUE(sim.validate_heap());
}

TEST_F(EdgeTest, DeviceDestroyedWithItsWatchdogArmed) {
  // The watchdog's simulator entry outlives its device; when it comes due
  // it must find the device gone and do nothing.
  verbs::ProtectionDomain pd_c;
  verbs::ProtectionDomain pd_b;
  auto dev_c = std::make_unique<verbs::Device>(fabric, 2);
  auto* cq_c = dev_c->create_cq(16);
  auto* cq_b = dev_b.create_cq(16);
  verbs::QpConfig qc;
  qc.transport_retry_timeout_ns = sim::milliseconds(1);
  auto qp = dev_c->create_qp(pd_c, *cq_c, *cq_c, qc);
  auto peer = dev_b.create_qp(pd_b, *cq_b, *cq_b, qc);
  qp->connect(dev_b, peer->qp_num());
  peer->connect(*dev_c, qp->qp_num());

  Bytes buf(1024);
  auto* mr = pd_c.register_memory(buf, 0);
  fabric.set_partitioned(2, 1, true);
  sim.spawn([](verbs::QueuePair* q, verbs::MemoryRegion* mr) -> Task<> {
    for (std::uint64_t i = 0; i < 2; ++i) {
      verbs::SendWr wr;
      wr.wr_id = i;
      wr.sg_list = verbs::Sge{mr->addr(), 256, mr->lkey()};
      (void)co_await q->post_send_one(wr);
    }
  }(qp.get(), mr));
  sim.run_until(sim::microseconds(100));
  qp.reset();
  dev_c.reset();
  sim.run_until(sim::milliseconds(5));
  EXPECT_TRUE(cq_b->poll(4).empty());
  EXPECT_TRUE(sim.validate_heap());
}

}  // namespace
}  // namespace rubin
