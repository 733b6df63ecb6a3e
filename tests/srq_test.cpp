// Shared-receive-queue tests: arrival-order consumption across QPs,
// completion routing (including after QP teardown with the DMA in
// flight), exhaustion/backpressure under burst arrivals, limit-watermark
// events and re-arm, and the per-QP-vs-SRQ posting rules.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "verbs/device.hpp"

namespace rubin::verbs {
namespace {

using sim::Task;

/// Two sender hosts, one receiver host whose two QPs share one SRQ and
/// one receive CQ — the mux shape, reduced to its verbs essentials.
class SrqTest : public ::testing::Test {
 public:  // accessed from parameter-passing coroutine lambdas
  ~SrqTest() override { sim.terminate_processes(); }

  void SetUp() override {
    counters::reset();
    srq = dev_b.create_srq(SrqConfig{16, 0});

    scq_a = dev_a.create_cq(64);
    rcq_a = dev_a.create_cq(64);
    scq_c = dev_c.create_cq(64);
    rcq_c = dev_c.create_cq(64);
    scq_b = dev_b.create_cq(64);
    rcq_b = dev_b.create_cq(64);  // shared by both receiver QPs

    qp_a = dev_a.create_qp(pd_a, *scq_a, *rcq_a);
    qp_c = dev_c.create_qp(pd_c, *scq_c, *rcq_c);
    QpConfig bc;
    bc.srq = srq;
    qp_b1 = dev_b.create_qp(pd_b, *scq_b, *rcq_b, bc);
    qp_b2 = dev_b.create_qp(pd_b, *scq_b, *rcq_b, bc);

    qp_a->connect(dev_b, qp_b1->qp_num());
    qp_b1->connect(dev_a, qp_a->qp_num());
    qp_c->connect(dev_b, qp_b2->qp_num());
    qp_b2->connect(dev_c, qp_c->qp_num());

    buf_a.resize(kBuf);
    buf_b.resize(kBuf);
    buf_c.resize(kBuf);
    mr_a = pd_a.register_memory(buf_a, kAccessLocalWrite);
    mr_b = pd_b.register_memory(buf_b, kAccessLocalWrite);
    mr_c = pd_c.register_memory(buf_c, kAccessLocalWrite);
  }

  Sge sge_of(const MemoryRegion* mr, std::size_t off, std::uint32_t len) {
    return Sge{mr->addr() + off, len, mr->lkey()};
  }

  /// A signaled SEND of `len` bytes from the start of `mr`.
  SendWr send_of(std::uint64_t wr_id, const MemoryRegion* mr,
                 std::uint32_t len = 128) {
    SendWr wr;
    wr.wr_id = wr_id;
    wr.sg_list = sge_of(mr, 0, len);
    return wr;
  }

  /// Posts `n` SRQ receives of `len` bytes each, wr_ids base, base+1, …
  void post_srq(std::uint64_t base, std::uint32_t n, std::uint32_t len) {
    std::vector<RecvWr> wrs;
    for (std::uint32_t i = 0; i < n; ++i) {
      wrs.push_back(RecvWr{base + i,
                           sge_of(mr_b, (base + i) * 1024, len),
                           /*capture_payload=*/false});
    }
    ASSERT_EQ(srq->post_now(std::move(wrs)), PostResult::kOk);
  }

  static constexpr std::size_t kBuf = 64 * 1024;
  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 3};
  Device dev_a{fabric, 0};
  Device dev_b{fabric, 1};
  Device dev_c{fabric, 2};
  ProtectionDomain pd_a;
  ProtectionDomain pd_b;
  ProtectionDomain pd_c;
  SharedReceiveQueue* srq = nullptr;
  CompletionQueue* scq_a = nullptr;
  CompletionQueue* rcq_a = nullptr;
  CompletionQueue* scq_b = nullptr;
  CompletionQueue* rcq_b = nullptr;
  CompletionQueue* scq_c = nullptr;
  CompletionQueue* rcq_c = nullptr;
  std::shared_ptr<QueuePair> qp_a;
  std::shared_ptr<QueuePair> qp_b1;
  std::shared_ptr<QueuePair> qp_b2;
  std::shared_ptr<QueuePair> qp_c;
  Bytes buf_a;
  Bytes buf_b;
  Bytes buf_c;
  MemoryRegion* mr_a = nullptr;
  MemoryRegion* mr_b = nullptr;
  MemoryRegion* mr_c = nullptr;
};

TEST_F(SrqTest, TwoQpsInterleaveAndCompletionsRouteByQpNum) {
  post_srq(0, 6, 512);
  EXPECT_EQ(srq->posted(), 6u);
  EXPECT_EQ(srq->receive_state_bytes(), 6u * 512u);

  sim.spawn([](SrqTest& t) -> Task<> {
    // Alternate senders; RC delivery is in per-sender order and the SRQ
    // consumes in arrival order across both.
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(10 + i, t.mr_a, 256)),
                PostResult::kOk);
      EXPECT_EQ(co_await t.qp_c->post_send_one(t.send_of(20 + i, t.mr_c, 256)),
                PostResult::kOk);
    }
  }(*this));
  sim.run();

  const auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 6u);
  std::size_t via_b1 = 0;
  std::size_t via_b2 = 0;
  for (const Completion& c : rc) {
    EXPECT_EQ(c.status, WcStatus::kSuccess);
    EXPECT_EQ(c.byte_len, 256u);
    if (c.qp_num == qp_b1->qp_num()) ++via_b1;
    if (c.qp_num == qp_b2->qp_num()) ++via_b2;
  }
  // Routing: the shared CQ disambiguates by qp_num, three messages each.
  EXPECT_EQ(via_b1, 3u);
  EXPECT_EQ(via_b2, 3u);
  EXPECT_EQ(srq->posted(), 0u);
  EXPECT_EQ(srq->taken(), 6u);
  EXPECT_EQ(srq->receive_state_bytes(), 0u);
  EXPECT_EQ(counters::value("verbs.srq.posted"), 6u);
  EXPECT_EQ(counters::value("verbs.srq.stolen"), 6u);
}

// An arriving SEND that finds a posted SRQ receive skips the QP's
// parked-inbound ring, so a QP whose SRQ keeps up never allocates it.
TEST_F(SrqTest, SendsThatFindAReceiveNeverAllocateTheParkedRing) {
  std::uint64_t received = 0;
  sim.spawn([](SrqTest& t, std::uint64_t& received) -> Task<> {
    std::vector<Completion> polled;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const RecvWr wr{i, t.sge_of(t.mr_b, 0, 256), /*capture_payload=*/false};
      EXPECT_EQ(t.srq->post_now(std::span<const RecvWr>(&wr, 1)),
                PostResult::kOk);
      (void)co_await t.qp_a->post_send_one(t.send_of(i, t.mr_a));
      co_await t.sim.sleep(sim::microseconds(20));
      t.scq_a->poll(polled, 4);
      t.rcq_b->poll(polled, 4);
      for (const Completion& c : polled) {
        if (c.status == WcStatus::kSuccess && c.wr_id == i) ++received;
      }
    }
  }(*this, received));
  sim.run();
  EXPECT_EQ(received, 1000u);
  EXPECT_EQ(qp_b1->inbound_capacity(), 0u);
  EXPECT_EQ(counters::value("verbs.srq.rnr_backpressure"), 0u);
}

TEST_F(SrqTest, BurstExhaustionParksThenRefillRedrains) {
  post_srq(0, 1, 512);

  sim.spawn([](SrqTest& t) -> Task<> {
    // Burst of three while only one WR is posted: two park under RNR
    // backpressure.
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(i, t.mr_a)),
                PostResult::kOk);
    }
    // Refill well inside the RNR retry budget; the parked messages drain
    // in arrival order without breaking the QP.
    co_await t.sim.sleep(sim::microseconds(150));
    t.post_srq(1, 2, 512);
  }(*this));
  sim.run();

  const auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 3u);
  for (std::size_t i = 0; i < rc.size(); ++i) {
    EXPECT_EQ(rc[i].status, WcStatus::kSuccess);
    EXPECT_EQ(rc[i].wr_id, i);  // arrival order == posting order
  }
  EXPECT_EQ(qp_b1->state(), QpState::kReadyToSend);
  const auto sc = scq_a->poll(16);
  ASSERT_EQ(sc.size(), 3u);
  for (const Completion& c : sc) EXPECT_EQ(c.status, WcStatus::kSuccess);
  EXPECT_GE(counters::value("verbs.srq.rnr_backpressure"), 2u);
}

TEST_F(SrqTest, RefillRedrainsParkedQpsInAttachOrderBeforeTheRnrTimer) {
  // The refills below are the SRQ's second and third posts: a refill must
  // keep re-draining parked QPs after the first one, and must deliver a
  // parked message well before any RNR retry could.
  post_srq(0, 1, 512);
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(1, t.mr_a)),
              PostResult::kOk);
  }(*this));
  sim.run();
  ASSERT_EQ(rcq_b->poll(16).size(), 1u);
  ASSERT_EQ(srq->posted(), 0u);

  // The drained SRQ parks b2's message, then b1's.
  const sim::Time parked_from = sim.now();
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_c->post_send_one(t.send_of(2, t.mr_c)),
              PostResult::kOk);
    co_await t.sim.sleep(sim::microseconds(5));
    EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(3, t.mr_a)),
              PostResult::kOk);
  }(*this));
  sim.run_until(parked_from + sim::microseconds(20));
  EXPECT_EQ(counters::value("verbs.srq.rnr_backpressure"), 2u);
  EXPECT_TRUE(rcq_b->poll(16).empty());

  // One WR per refill: b1 (attached first) wins the first although b2
  // parked first; the next refill serves b2.
  post_srq(1, 1, 512);
  sim.run_until(sim.now() + sim::microseconds(10));
  auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc[0].wr_id, 1u);
  EXPECT_EQ(rc[0].qp_num, qp_b1->qp_num());

  post_srq(2, 1, 512);
  sim.run_until(sim.now() + sim::microseconds(10));
  rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc[0].wr_id, 2u);
  EXPECT_EQ(rc[0].qp_num, qp_b2->qp_num());

  // Both deliveries beat the earliest RNR tick (one timeout after the
  // first park), so neither waited for the timer.
  EXPECT_LT(sim.now(), parked_from + QpConfig{}.rnr_timeout_ns);
  sim.run();
  EXPECT_EQ(qp_b1->state(), QpState::kReadyToSend);
  EXPECT_EQ(qp_b2->state(), QpState::kReadyToSend);
}

TEST_F(SrqTest, EmptySrqBeyondRetryBudgetBreaksQp) {
  // Nothing posted, nothing refilled: the full RNR budget expires and the
  // connection breaks exactly like a never-provisioned per-QP ring.
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(1, t.mr_a)),
              PostResult::kOk);
  }(*this));
  sim.run();

  const auto sc = scq_a->poll(16);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(qp_b1->state(), QpState::kError);
  // The SRQ survives its consumer: the other QP still receives.
  post_srq(0, 1, 512);
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_c->post_send_one(t.send_of(2, t.mr_c)),
              PostResult::kOk);
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc[0].qp_num, qp_b2->qp_num());
}

TEST_F(SrqTest, LimitEventFiresOnceAndRearms) {
  std::vector<std::uint32_t> events;  // posted() at each event
  srq->set_limit_handler([&] { events.push_back(srq->posted()); });
  srq->arm_limit(3);
  EXPECT_TRUE(srq->limit_armed());
  post_srq(0, 4, 512);

  sim.spawn([](SrqTest& t) -> Task<> {
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(i, t.mr_a)),
                PostResult::kOk);
      co_await t.sim.sleep(sim::microseconds(50));
    }
  }(*this));
  sim.run();

  // 4 -> 3 crosses below nothing (3 is not < 3); 3 -> 2 fires, then the
  // disarmed watermark stays silent for 2 -> 1 -> 0.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], 2u);
  EXPECT_FALSE(srq->limit_armed());

  // Re-arm + refill: the next crossing fires again.
  srq->arm_limit(2);
  post_srq(4, 2, 512);
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_c->post_send_one(t.send_of(9, t.mr_c)),
              PostResult::kOk);
  }(*this));
  sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], 1u);
  (void)rcq_b->poll(16);
  EXPECT_EQ(counters::value("verbs.srq.limit_events"), 2u);
}

TEST_F(SrqTest, TeardownWithInFlightWrFlushCompletesOnOwningCq) {
  post_srq(0, 3, 48 * 1024);

  sim.spawn([](SrqTest& t) -> Task<> {
    // Large payload: the receive-side DMA takes microseconds, leaving a
    // window where the WR is taken from the SRQ but not yet completed.
    EXPECT_EQ(co_await t.qp_a->post_send_one(t.send_of(1, t.mr_a, 32 * 1024)),
              PostResult::kOk);
    while (t.srq->taken() == 0) co_await t.sim.sleep(100);
    t.qp_b1->set_error();  // DMA in flight right now
  }(*this));
  sim.run();

  // The taken WR flush-completes on the dead QP's CQ (routing survives
  // teardown); the two untaken WRs stay posted — SRQ WRs are not flushed.
  const auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].wr_id, 0u);
  EXPECT_EQ(rc[0].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(rc[0].qp_num, qp_b1->qp_num());
  EXPECT_EQ(srq->posted(), 2u);

  // The surviving QP drains the remaining WRs untouched.
  sim.spawn([](SrqTest& t) -> Task<> {
    EXPECT_EQ(co_await t.qp_c->post_send_one(t.send_of(2, t.mr_c)),
              PostResult::kOk);
  }(*this));
  sim.run();
  const auto rc2 = rcq_b->poll(16);
  ASSERT_EQ(rc2.size(), 1u);
  EXPECT_EQ(rc2[0].wr_id, 1u);
  EXPECT_EQ(rc2[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc2[0].qp_num, qp_b2->qp_num());
}

TEST_F(SrqTest, PostingRulesAndCapacity) {
  // An SRQ-attached QP rejects per-QP receives.
  RecvWr wr{1, sge_of(mr_b, 0, 512), false};
  EXPECT_EQ(qp_b1->post_recv_now(std::span<const RecvWr>(&wr, 1)),
            PostResult::kInvalidState);
  // Capacity is enforced at the SRQ.
  post_srq(0, 16, 512);
  std::vector<RecvWr> one{RecvWr{99, sge_of(mr_b, 17 * 1024, 512), false}};
  EXPECT_EQ(srq->post_now(std::move(one)), PostResult::kQueueFull);
  EXPECT_EQ(srq->posted(), 16u);
  EXPECT_EQ(srq->attached_qps(), 2u);
}

}  // namespace
}  // namespace rubin::verbs
