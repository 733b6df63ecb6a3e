// Tests for the software RDMA verbs library: memory protection, two-sided
// send/receive, one-sided read/write, selective signaling, RNR handling,
// completion queues/channels, and the connection manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "verbs/cm.hpp"
#include "verbs/device.hpp"

namespace rubin::verbs {
namespace {

using sim::Task;
using sim::Time;

/// A work request with every other field at its default (aggregate
/// initialization would leave the trailing fields unnamed).
SendWr wr_of(std::uint64_t wr_id, Opcode opcode, SgeList sg_list,
             bool signaled = true) {
  SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = opcode;
  wr.sg_list = std::move(sg_list);
  wr.signaled = signaled;
  return wr;
}

/// Two connected hosts with one QP pair, CQs, and registered buffers —
/// the scaffolding every data-path test needs.
class VerbsTest : public ::testing::Test {
 public:  // accessed from parameter-passing coroutine lambdas
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~VerbsTest() override { sim.terminate_processes(); }

  void SetUp() override {
    scq_a = dev_a.create_cq(256);
    rcq_a = dev_a.create_cq(256);
    scq_b = dev_b.create_cq(256);
    rcq_b = dev_b.create_cq(256);
    qp_a = dev_a.create_qp(pd_a, *scq_a, *rcq_a);
    qp_b = dev_b.create_qp(pd_b, *scq_b, *rcq_b);
    qp_a->connect(dev_b, qp_b->qp_num());
    qp_b->connect(dev_a, qp_a->qp_num());

    buf_a.resize(kBuf);
    buf_b.resize(kBuf);
    mr_a = pd_a.register_memory(buf_a, kAccessLocalWrite);
    mr_b = pd_b.register_memory(buf_b, kAccessLocalWrite);
  }

  Sge sge_of(const MemoryRegion* mr, std::size_t off, std::uint32_t len) {
    return Sge{mr->addr() + off, len, mr->lkey()};
  }

  static constexpr std::size_t kBuf = 128 * 1024;
  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 2};
  Device dev_a{fabric, 0};
  Device dev_b{fabric, 1};
  ProtectionDomain pd_a;
  ProtectionDomain pd_b;
  CompletionQueue* scq_a = nullptr;
  CompletionQueue* rcq_a = nullptr;
  CompletionQueue* scq_b = nullptr;
  CompletionQueue* rcq_b = nullptr;
  std::shared_ptr<QueuePair> qp_a;
  std::shared_ptr<QueuePair> qp_b;
  Bytes buf_a;
  Bytes buf_b;
  MemoryRegion* mr_a = nullptr;
  MemoryRegion* mr_b = nullptr;
};

// -------------------------------------------------------------- memory ---

TEST_F(VerbsTest, RegisterAssignsDistinctKeys) {
  EXPECT_NE(mr_a->lkey(), mr_a->rkey());
  auto* mr2 = pd_a.register_memory(buf_a, kAccessRemoteRead);
  EXPECT_NE(mr2->lkey(), mr_a->lkey());
  EXPECT_NE(mr2->rkey(), mr_a->rkey());
}

TEST_F(VerbsTest, ContainsChecksBounds) {
  EXPECT_TRUE(mr_a->contains(mr_a->addr(), kBuf));
  EXPECT_TRUE(mr_a->contains(mr_a->addr() + kBuf, 0));
  EXPECT_FALSE(mr_a->contains(mr_a->addr() + 1, kBuf));
  EXPECT_FALSE(mr_a->contains(mr_a->addr() - 1, 1));
}

TEST_F(VerbsTest, CheckLocalRejectsWrongKeyAndBounds) {
  EXPECT_NE(pd_a.check_local(sge_of(mr_a, 0, 16), false), nullptr);
  EXPECT_EQ(pd_a.check_local(Sge{mr_a->addr(), 16, 0xdead}, false), nullptr);
  EXPECT_EQ(pd_a.check_local(sge_of(mr_a, kBuf - 8, 16), false), nullptr);
}

TEST_F(VerbsTest, CheckRemoteEnforcesAccessFlags) {
  auto* ro = pd_b.register_memory(buf_b, kAccessRemoteRead);
  EXPECT_NE(pd_b.check_remote(ro->rkey(), ro->addr(), 8, kAccessRemoteRead),
            nullptr);
  EXPECT_EQ(pd_b.check_remote(ro->rkey(), ro->addr(), 8, kAccessRemoteWrite),
            nullptr);
}

TEST_F(VerbsTest, DeregisterInvalidatesKeys) {
  const std::uint32_t rkey = mr_b->rkey();
  pd_b.deregister(mr_b);
  EXPECT_EQ(pd_b.check_remote(rkey, 0, 0, 0), nullptr);
  EXPECT_EQ(pd_b.region_count(), 0u);
}

// ---------------------------------------------------------- send/recv ----

TEST_F(VerbsTest, SendRecvDeliversPayload) {
  const Bytes msg = patterned_bytes(4096, 11);
  std::copy(msg.begin(), msg.end(), buf_a.begin());

  bool sent = false;
  sim.spawn([](VerbsTest& t, bool& sent) -> Task<> {
    EXPECT_EQ(co_await t.qp_b->post_recv_one(RecvWr{7, t.sge_of(t.mr_b, 0, 8192)}),
              PostResult::kOk);
    EXPECT_EQ(co_await t.qp_a->post_send_one(
                  wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 4096))),
              PostResult::kOk);
    sent = true;
  }(*this, sent));
  sim.run();
  ASSERT_TRUE(sent);

  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].wr_id, 7u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc[0].byte_len, 4096u);
  EXPECT_TRUE(check_pattern(ByteView(buf_b).first(4096), 11));

  const auto sc = scq_a->poll(8);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].wr_id, 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kSuccess);
}

TEST_F(VerbsTest, InlineSendDoesNotTouchBufferAfterPost) {
  const Bytes msg = patterned_bytes(128, 3);
  std::copy(msg.begin(), msg.end(), buf_a.begin());
  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_b->post_recv_one(RecvWr{1, t.sge_of(t.mr_b, 0, 1024)});
    SendWr wr = wr_of(2, Opcode::kSend, t.sge_of(t.mr_a, 0, 128));
    wr.inline_data = true;
    (void)co_await t.qp_a->post_send_one(wr);
    // Clobber the source immediately: an inline send must be immune.
    std::fill(t.buf_a.begin(), t.buf_a.end(), 0xFF);
  }(*this));
  sim.run();
  ASSERT_EQ(rcq_b->poll(1).size(), 1u);
  EXPECT_TRUE(check_pattern(ByteView(buf_b).first(128), 3));
}

TEST_F(VerbsTest, InlineOverLimitRejected) {
  PostResult r{};
  sim.spawn([](VerbsTest& t, PostResult& r) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 4096));
    wr.inline_data = true;  // 4096 > max_inline (256)
    r = co_await t.qp_a->post_send_one(wr);
  }(*this, r));
  sim.run();
  EXPECT_EQ(r, PostResult::kTooLarge);
}

TEST_F(VerbsTest, NonInlineSendSnapshotsAtNicTime) {
  // The payload is fetched by DMA shortly after post; mutating the buffer
  // *before the NIC reads it* is a race on real hardware. Here we mutate
  // long after (one sim step ordering ensures DMA happened), and verify
  // the receiver saw the pre-mutation content.
  const Bytes msg = patterned_bytes(1024, 9);
  std::copy(msg.begin(), msg.end(), buf_a.begin());
  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_b->post_recv_one(RecvWr{1, t.sge_of(t.mr_b, 0, 2048)});
    (void)co_await t.qp_a->post_send_one(
        wr_of(2, Opcode::kSend, t.sge_of(t.mr_a, 0, 1024)));
    co_await t.sim.sleep(sim::milliseconds(1));  // long after completion
    std::fill(t.buf_a.begin(), t.buf_a.end(), 0xFF);
  }(*this));
  sim.run();
  EXPECT_TRUE(check_pattern(ByteView(buf_b).first(1024), 9));
}

TEST_F(VerbsTest, RecvBufferTooSmallFailsBothSides) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_b->post_recv_one(RecvWr{1, t.sge_of(t.mr_b, 0, 64)});
    (void)co_await t.qp_a->post_send_one(
        wr_of(2, Opcode::kSend, t.sge_of(t.mr_a, 0, 1024)));
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kRecvBufferTooSmall);
  const auto sc = scq_a->poll(8);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kRemoteOperationError);
  EXPECT_EQ(qp_b->state(), QpState::kError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(VerbsTest, MessagesDeliveredInOrder) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    std::vector<RecvWr> recvs;
    for (std::uint64_t i = 0; i < 8; ++i) {
      recvs.push_back(RecvWr{i, t.sge_of(t.mr_b, i * 1024, 1024)});
    }
    (void)co_await t.qp_b->post_recv(std::move(recvs));
    for (std::uint64_t i = 0; i < 8; ++i) {
      const Bytes msg = patterned_bytes(512, i);
      std::copy(msg.begin(), msg.end(),
                t.buf_a.begin() + static_cast<std::ptrdiff_t>(i * 1024));
      (void)co_await t.qp_a->post_send_one(
          wr_of(100 + i, Opcode::kSend, t.sge_of(t.mr_a, i * 1024, 512)));
    }
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(16);
  ASSERT_EQ(rc.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rc[i].wr_id, i) << "completion order";
    EXPECT_TRUE(check_pattern(
        ByteView(buf_b).subspan(i * 1024, 512), i))
        << "payload " << i;
  }
}

// ------------------------------------------------------------- signaling -

TEST_F(VerbsTest, UnsignaledSendProducesNoCqe) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    std::vector<RecvWr> recvs;
    recvs.push_back(RecvWr{1, t.sge_of(t.mr_b, 0, 1024)});
    recvs.push_back(RecvWr{2, t.sge_of(t.mr_b, 1024, 1024)});
    (void)co_await t.qp_b->post_recv(std::move(recvs));
    SendWr unsignaled = wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 64), false);
    SendWr signaled = wr_of(2, Opcode::kSend, t.sge_of(t.mr_a, 64, 64));
    std::vector<SendWr> batch;
    batch.push_back(unsignaled);
    batch.push_back(signaled);
    (void)co_await t.qp_a->post_send(std::move(batch));
  }(*this));
  sim.run();
  const auto sc = scq_a->poll(8);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].wr_id, 2u);
  // Both messages were delivered regardless.
  EXPECT_EQ(rcq_b->poll(8).size(), 2u);
}

TEST_F(VerbsTest, SignaledCompletionReclaimsUnsignaledSlots) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    std::vector<RecvWr> recvs;
    for (std::uint64_t i = 0; i < 64; ++i) {
      recvs.push_back(RecvWr{i, t.sge_of(t.mr_b, i * 128, 128)});
    }
    (void)co_await t.qp_b->post_recv(std::move(recvs));
    std::vector<SendWr> batch;
    for (std::uint64_t i = 0; i < 32; ++i) {
      batch.push_back(wr_of(i, Opcode::kSend,
                            t.sge_of(t.mr_a, 0, 64), /*signaled=*/i == 31));
    }
    (void)co_await t.qp_a->post_send(std::move(batch));
  }(*this));
  sim.run();
  EXPECT_EQ(scq_a->poll(64).size(), 1u);
  // All 32 slots must be free again after the one signaled completion.
  EXPECT_EQ(qp_a->send_slots_free(), qp_a->config().max_send_wr);
}

TEST_F(VerbsTest, AllUnsignaledEventuallyFillsSendQueue) {
  // Classic verbs bug RUBIN avoids by signaling every Nth WR.
  PostResult last{};
  sim.spawn([](VerbsTest& t, PostResult& last) -> Task<> {
    std::vector<RecvWr> recvs;
    for (std::uint64_t i = 0; i < t.qp_b->config().max_recv_wr; ++i) {
      recvs.push_back(RecvWr{i, t.sge_of(t.mr_b, 0, 128)});
    }
    (void)co_await t.qp_b->post_recv(std::move(recvs));
    for (std::uint64_t i = 0; i < 200; ++i) {
      SendWr wr = wr_of(i, Opcode::kSend,
                        t.sge_of(t.mr_a, 0, 64), /*signaled=*/false);
      last = co_await t.qp_a->post_send_one(wr);
      if (last != PostResult::kOk) break;
      co_await t.sim.sleep(sim::microseconds(50));  // let everything finish
    }
  }(*this, last));
  sim.run();
  EXPECT_EQ(last, PostResult::kQueueFull);
  EXPECT_EQ(qp_a->send_slots_free(), 0u);
}

// ------------------------------------------------------------------ RNR --

TEST_F(VerbsTest, SendWaitsForLateRecv) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    const Bytes msg = patterned_bytes(256, 21);
    std::copy(msg.begin(), msg.end(), t.buf_a.begin());
    (void)co_await t.qp_a->post_send_one(
        wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 256)));
    co_await t.sim.sleep(sim::microseconds(300));  // 3 RNR timeouts
    (void)co_await t.qp_b->post_recv_one(RecvWr{9, t.sge_of(t.mr_b, 0, 1024)});
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(4);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_TRUE(check_pattern(ByteView(buf_b).first(256), 21));
  EXPECT_EQ(qp_a->state(), QpState::kReadyToSend);
}

TEST_F(VerbsTest, RnrRetriesExhaustBreakTheConnection) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_a->post_send_one(
        wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 64)));
  }(*this));
  sim.run();  // receiver never posts a receive
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(qp_b->state(), QpState::kError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

// A SEND that finds a posted receive skips the parked-inbound ring, so a
// QP whose receives keep up never allocates it.
TEST_F(VerbsTest, SendsThatFindAReceiveNeverAllocateTheParkedRing) {
  std::uint64_t received = 0;
  sim.spawn([](VerbsTest& t, std::uint64_t& received) -> Task<> {
    std::vector<Completion> polled;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      (void)co_await t.qp_b->post_recv_one(RecvWr{i, t.sge_of(t.mr_b, 0, 256)});
      (void)co_await t.qp_a->post_send_one(
          wr_of(i, Opcode::kSend, t.sge_of(t.mr_a, 0, 128)));
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
  EXPECT_EQ(qp_b->inbound_capacity(), 0u);
}

// A SEND that arrives while earlier ones are parked queues behind them: a
// receive posted in between goes to the oldest parked message, and the
// late arrival completes after every earlier one (RC order).
TEST_F(VerbsTest, ArrivalBehindParkedMessagesCompletesInOrder) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    auto send = [&t](std::uint64_t i) {
      const Bytes msg = patterned_bytes(256, i);
      std::copy(msg.begin(), msg.end(),
                t.buf_a.begin() + static_cast<std::ptrdiff_t>(i * 1024));
      return t.qp_a->post_send_one(
          wr_of(i, Opcode::kSend, t.sge_of(t.mr_a, i * 1024, 256)));
    };
    for (std::uint64_t i = 0; i < 3; ++i) (void)co_await send(i);
    co_await t.sim.sleep(sim::microseconds(20));  // all three parked
    EXPECT_GT(t.qp_b->inbound_capacity(), 0u);
    // Message 0 takes this receive; 1 and 2 stay parked.
    (void)co_await t.qp_b->post_recv_one(RecvWr{0, t.sge_of(t.mr_b, 0, 1024)});
    (void)co_await send(3);
    co_await t.sim.sleep(sim::microseconds(20));
    std::vector<RecvWr> recvs;
    for (std::uint64_t i = 1; i < 4; ++i) {
      recvs.push_back(RecvWr{i, t.sge_of(t.mr_b, i * 1024, 1024)});
    }
    (void)co_await t.qp_b->post_recv(std::move(recvs));
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rc[i].wr_id, i);
    EXPECT_EQ(rc[i].status, WcStatus::kSuccess);
    EXPECT_TRUE(check_pattern(ByteView(buf_b).subspan(i * 1024, 256), i))
        << "message " << i << " landed out of order";
  }
  EXPECT_EQ(qp_b->state(), QpState::kReadyToSend);
}

TEST_F(VerbsTest, RnrExhaustedHeadBreaksTheQpAndNaksTheMessagesBehindIt) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    for (std::uint64_t i = 0; i < 3; ++i) {
      (void)co_await t.qp_a->post_send_one(
          wr_of(i, Opcode::kSend, t.sge_of(t.mr_a, 0, 64)));
    }
  }(*this));
  sim.run();  // receiver never posts a receive
  const auto sc = scq_a->poll(8);
  ASSERT_EQ(sc.size(), 3u);
  EXPECT_EQ(sc[0].wr_id, 0u);
  EXPECT_EQ(sc[0].status, WcStatus::kRnrRetryExceeded);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(sc[i].wr_id, i);
    EXPECT_EQ(sc[i].status, WcStatus::kRemoteOperationError);
  }
  EXPECT_EQ(qp_b->state(), QpState::kError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
  EXPECT_EQ(rcq_b->depth(), 0u);
}

// ------------------------------------------------------------ one-sided --

TEST_F(VerbsTest, RdmaWriteLandsWithoutResponderCompletion) {
  auto* target = pd_b.register_memory(buf_b, kAccessRemoteWrite);
  const Bytes msg = patterned_bytes(2048, 5);
  std::copy(msg.begin(), msg.end(), buf_a.begin());
  sim.spawn([](VerbsTest& t, MemoryRegion* target) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kRdmaWrite, t.sge_of(t.mr_a, 0, 2048));
    wr.remote_addr = target->addr() + 4096;
    wr.rkey = target->rkey();
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this, target));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kSuccess);
  EXPECT_TRUE(check_pattern(ByteView(buf_b).subspan(4096, 2048), 5));
  // One-sided: responder CPU saw nothing.
  EXPECT_EQ(rcq_b->poll(4).size(), 0u);
  EXPECT_EQ(qp_b->recv_wrs_posted(), 0u);
}

TEST_F(VerbsTest, RdmaWriteWithBadRkeyFails) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kRdmaWrite, t.sge_of(t.mr_a, 0, 64));
    wr.remote_addr = t.mr_b->addr();
    wr.rkey = 0xBADBAD;
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(VerbsTest, RdmaWriteRequiresRemoteWriteAccess) {
  // mr_b was registered with kAccessLocalWrite only.
  sim.spawn([](VerbsTest& t) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kRdmaWrite, t.sge_of(t.mr_a, 0, 64));
    wr.remote_addr = t.mr_b->addr();
    wr.rkey = t.mr_b->rkey();
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this));
  sim.run();
  ASSERT_EQ(scq_a->poll(4).size(), 1u);
}

TEST_F(VerbsTest, RdmaReadFetchesRemoteData) {
  auto* src = pd_b.register_memory(buf_b, kAccessRemoteRead);
  const Bytes msg = patterned_bytes(1024, 33);
  std::copy(msg.begin(), msg.end(), buf_b.begin() + 512);
  sim.spawn([](VerbsTest& t, MemoryRegion* src) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kRdmaRead, t.sge_of(t.mr_a, 0, 1024));
    wr.remote_addr = src->addr() + 512;
    wr.rkey = src->rkey();
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this, src));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(sc[0].byte_len, 1024u);
  EXPECT_TRUE(check_pattern(ByteView(buf_a).first(1024), 33));
}

TEST_F(VerbsTest, RdmaReadWithoutRemoteReadAccessFails) {
  auto* wr_only = pd_b.register_memory(buf_b, kAccessRemoteWrite);
  sim.spawn([](VerbsTest& t, MemoryRegion* m) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kRdmaRead, t.sge_of(t.mr_a, 0, 64));
    wr.remote_addr = m->addr();
    wr.rkey = m->rkey();
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this, wr_only));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kRemoteAccessError);
}

// ----------------------------------------------------------- error paths -

TEST_F(VerbsTest, BadLocalLkeyFailsAsynchronously) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_a->post_send_one(
        wr_of(1, Opcode::kSend, Sge{t.mr_a->addr(), 64, 0xBEEF}));
  }(*this));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kLocalProtectionError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(VerbsTest, PostToErroredQpRejected) {
  qp_a->set_error();
  PostResult r{};
  sim.spawn([](VerbsTest& t, PostResult& r) -> Task<> {
    r = co_await t.qp_a->post_send_one(
        wr_of(1, Opcode::kSend, t.sge_of(t.mr_a, 0, 64)));
  }(*this, r));
  sim.run();
  EXPECT_EQ(r, PostResult::kInvalidState);
}

TEST_F(VerbsTest, SetErrorFlushesPostedReceives) {
  sim.spawn([](VerbsTest& t) -> Task<> {
    std::vector<RecvWr> recvs;
    recvs.push_back(RecvWr{1, t.sge_of(t.mr_b, 0, 64)});
    recvs.push_back(RecvWr{2, t.sge_of(t.mr_b, 64, 64)});
    (void)co_await t.qp_b->post_recv(std::move(recvs));
    t.qp_b->set_error();
  }(*this));
  sim.run();
  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc[0].status, WcStatus::kWorkRequestFlushed);
  EXPECT_EQ(rc[1].status, WcStatus::kWorkRequestFlushed);
}

TEST_F(VerbsTest, FindQpKnowsOnlyLiveQpsItNumbered) {
  // QPNs are dense from 1 on each device; 0 is never handed out.
  EXPECT_EQ(qp_b->qp_num(), 1u);
  EXPECT_EQ(dev_b.find_qp(1), qp_b);
  EXPECT_EQ(dev_b.find_qp(0), nullptr);
  EXPECT_EQ(dev_b.find_qp(2), nullptr);
  EXPECT_EQ(dev_b.find_qp(0xffffffffu), nullptr);

  auto extra = dev_b.create_qp(pd_b, *scq_b, *rcq_b);
  const std::uint32_t qpn = extra->qp_num();
  EXPECT_EQ(qpn, 2u);
  EXPECT_EQ(dev_b.find_qp(qpn), extra);
  extra.reset();  // destroyed: its number is not reused and finds nothing
  EXPECT_EQ(dev_b.find_qp(qpn), nullptr);
  EXPECT_EQ(dev_b.create_qp(pd_b, *scq_b, *rcq_b)->qp_num(), 3u);
}

TEST_F(VerbsTest, InjectQpErrorsWalksLiveQpsInQpnOrder) {
  // Four QPs on dev_b share rcq_b, each with one posted receive: the
  // flushed receives land in the order inject_qp_errors faults the QPs.
  std::vector<std::shared_ptr<QueuePair>> qps{qp_b};
  for (int i = 0; i < 3; ++i) {
    qps.push_back(dev_b.create_qp(pd_b, *scq_b, *rcq_b));
  }
  for (std::size_t i = 0; i < qps.size(); ++i) {
    const RecvWr wr{100 + i, sge_of(mr_b, 64 * i, 64)};
    ASSERT_EQ(qps[i]->post_recv_now(std::span<const RecvWr>(&wr, 1)),
              PostResult::kOk);
  }
  const std::uint32_t gone = qps[1]->qp_num();
  qps[1].reset();            // destroyed: skipped
  qps[3]->set_error();       // already in error: flushed now, not counted
  ASSERT_EQ(rcq_b->poll(8).size(), 1u);

  EXPECT_EQ(dev_b.inject_qp_errors(), 2u);
  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc[0].qp_num, qp_b->qp_num());
  EXPECT_EQ(rc[0].wr_id, 100u);
  EXPECT_EQ(rc[1].qp_num, qps[2]->qp_num());
  EXPECT_EQ(rc[1].wr_id, 102u);
  for (const Completion& c : rc) {
    EXPECT_EQ(c.status, WcStatus::kWorkRequestFlushed);
    EXPECT_NE(c.qp_num, gone);
  }
  EXPECT_EQ(dev_b.inject_qp_errors(), 0u);
}

TEST(QpnIndexTest, UnsetQpnsReadNone) {
  QpnIndex index;
  EXPECT_EQ(index.find(0), QpnIndex::kNone);
  EXPECT_EQ(index.find(1), QpnIndex::kNone);
  index.set(1, 0);
  index.set(3, 1);  // QPN 2 belongs to someone else
  EXPECT_EQ(index.find(1), 0u);
  EXPECT_EQ(index.find(2), QpnIndex::kNone);
  EXPECT_EQ(index.find(3), 1u);
  EXPECT_EQ(index.find(0), QpnIndex::kNone);
  EXPECT_EQ(index.find(4), QpnIndex::kNone);
  EXPECT_EQ(index.find(0xffffffffu), QpnIndex::kNone);
}

TEST_F(VerbsTest, SendQueueFullRejectsBatch) {
  PostResult r{};
  sim.spawn([](VerbsTest& t, PostResult& r) -> Task<> {
    std::vector<SendWr> too_many;
    for (std::uint64_t i = 0; i < t.qp_a->config().max_send_wr + 1; ++i) {
      too_many.push_back(
          wr_of(i, Opcode::kSend, t.sge_of(t.mr_a, 0, 16)));
    }
    r = co_await t.qp_a->post_send(std::move(too_many));
  }(*this, r));
  sim.run();
  EXPECT_EQ(r, PostResult::kQueueFull);
}

// ------------------------------------------------------- multi-SGE sends --

TEST_F(VerbsTest, MultiSgeSendConcatenatesSlices) {
  // Three disjoint slices of the sender's MR travel as ONE message: one
  // WR, one completion, one receive consumed, payload in list order.
  std::fill(buf_a.begin() + 100, buf_a.begin() + 108, 0xA1);
  std::fill(buf_a.begin() + 5000, buf_a.begin() + 6000, 0xB2);
  std::fill(buf_a.begin() + 9000, buf_a.begin() + 11048, 0xC3);

  sim.spawn([](VerbsTest& t) -> Task<> {
    (void)co_await t.qp_b->post_recv_one(RecvWr{7, t.sge_of(t.mr_b, 0, 8192)});
    SendWr wr = wr_of(1, Opcode::kSend, {});
    wr.sg_list.push_back(t.sge_of(t.mr_a, 100, 8));
    wr.sg_list.push_back(t.sge_of(t.mr_a, 5000, 1000));
    wr.sg_list.push_back(t.sge_of(t.mr_a, 9000, 2048));
    EXPECT_EQ(co_await t.qp_a->post_send_one(wr), PostResult::kOk);
  }(*this));
  sim.run();

  const auto rc = rcq_b->poll(8);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(rc[0].byte_len, 8u + 1000u + 2048u);
  const auto* rx = buf_b.data();
  EXPECT_TRUE(std::all_of(rx, rx + 8, [](std::uint8_t b) { return b == 0xA1; }));
  EXPECT_TRUE(std::all_of(rx + 8, rx + 1008,
                          [](std::uint8_t b) { return b == 0xB2; }));
  EXPECT_TRUE(std::all_of(rx + 1008, rx + 3056,
                          [](std::uint8_t b) { return b == 0xC3; }));
  ASSERT_EQ(scq_a->poll(4).size(), 1u);
}

TEST_F(VerbsTest, MultiSgeSliceSpanningMrBoundaryFails) {
  // The second element runs past the end of the MR: local protection
  // error at DMA time, exactly as a single bad SGE would fail.
  sim.spawn([](VerbsTest& t) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kSend, {});
    wr.sg_list.push_back(t.sge_of(t.mr_a, 0, 64));
    wr.sg_list.push_back(t.sge_of(t.mr_a, kBuf - 16, 64));  // 48 B past end
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kLocalProtectionError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(VerbsTest, MultiSgeLkeyMismatchOnNthSliceFails) {
  // Every element is protection-checked, not just the first: a stale
  // lkey on the last slice poisons the whole WR.
  sim.spawn([](VerbsTest& t) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kSend, {});
    wr.sg_list.push_back(t.sge_of(t.mr_a, 0, 64));
    wr.sg_list.push_back(t.sge_of(t.mr_a, 64, 64));
    wr.sg_list.push_back(Sge{t.mr_a->addr() + 128, 64, 0xBEEF});
    (void)co_await t.qp_a->post_send_one(wr);
  }(*this));
  sim.run();
  const auto sc = scq_a->poll(4);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_EQ(sc[0].status, WcStatus::kLocalProtectionError);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(VerbsTest, EmptySgeListRejected) {
  PostResult r{};
  sim.spawn([](VerbsTest& t, PostResult& r) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kSend, {});  // no elements
    r = co_await t.qp_a->post_send_one(wr);
  }(*this, r));
  sim.run();
  EXPECT_EQ(r, PostResult::kInvalidSge);
}

TEST_F(VerbsTest, SgeCountAboveQpCapRejected) {
  // A QP advertising max_sge == 2 must EINVAL a three-element list —
  // never silently clamp or flatten it.
  QpConfig qc;
  qc.max_sge = 2;
  auto qp_c = dev_a.create_qp(pd_a, *scq_a, *rcq_a, qc);
  auto qp_d = dev_b.create_qp(pd_b, *scq_b, *rcq_b);
  qp_c->connect(dev_b, qp_d->qp_num());
  qp_d->connect(dev_a, qp_c->qp_num());

  PostResult r{};
  sim.spawn([](VerbsTest& t, QueuePair& qp, PostResult& r) -> Task<> {
    SendWr wr = wr_of(1, Opcode::kSend, {});
    wr.sg_list.push_back(t.sge_of(t.mr_a, 0, 16));
    wr.sg_list.push_back(t.sge_of(t.mr_a, 16, 16));
    wr.sg_list.push_back(t.sge_of(t.mr_a, 32, 16));
    r = co_await qp.post_send_one(wr);
  }(*this, *qp_c, r));
  sim.run();
  EXPECT_EQ(r, PostResult::kInvalidSge);
}

namespace {

/// One send/recv exchange of `slice_lens` (as a scatter/gather list) on a
/// fresh pair of hosts; returns the virtual time at which the simulation
/// quiesced. Used to pin the accounting contract: charges are a function
/// of the WR's *total* length, so any slicing of the same bytes finishes
/// at the identical instant.
sim::Time quiesce_time_for_slicing(const std::vector<std::uint32_t>& slice_lens) {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 2};
  Device dev_a{fabric, 0};
  Device dev_b{fabric, 1};
  ProtectionDomain pd_a;
  ProtectionDomain pd_b;
  auto* scq_a = dev_a.create_cq(64);
  auto* rcq_a = dev_a.create_cq(64);
  auto* scq_b = dev_b.create_cq(64);
  auto* rcq_b = dev_b.create_cq(64);
  auto qp_a = dev_a.create_qp(pd_a, *scq_a, *rcq_a);
  auto qp_b = dev_b.create_qp(pd_b, *scq_b, *rcq_b);
  qp_a->connect(dev_b, qp_b->qp_num());
  qp_b->connect(dev_a, qp_a->qp_num());
  Bytes buf_a(16 * 1024);
  Bytes buf_b(16 * 1024);
  auto* mr_a = pd_a.register_memory(buf_a, kAccessLocalWrite);
  auto* mr_b = pd_b.register_memory(buf_b, kAccessLocalWrite);

  sim.spawn([](sim::Simulator&, QueuePair& qa, QueuePair& qb,
               MemoryRegion& ma, MemoryRegion& mb,
               const std::vector<std::uint32_t>& lens) -> Task<> {
    (void)co_await qb.post_recv_one(
        RecvWr{7, Sge{mb.addr(), 8192, mb.lkey()}});
    SendWr wr = wr_of(1, Opcode::kSend, {});
    std::uint64_t off = 0;
    for (const std::uint32_t len : lens) {
      wr.sg_list.push_back(Sge{ma.addr() + off, len, ma.lkey()});
      off += len;
    }
    EXPECT_EQ(co_await qa.post_send_one(wr), PostResult::kOk);
  }(sim, *qp_a, *qp_b, *mr_a, *mr_b, slice_lens));
  sim.run();
  EXPECT_EQ(rcq_b->poll(4).size(), 1u);
  return sim.now();
}

}  // namespace

TEST_F(VerbsTest, MultiSgeChargesMatchFlattenedEquivalent) {
  // The bit-identity contract the determinism pins rely on: DMA, wire,
  // and CQE charges are computed once over the total, never per slice,
  // so 1×4096 and 8+2040+2048 quiesce at the same virtual instant.
  const sim::Time flat = quiesce_time_for_slicing({4096});
  const sim::Time split = quiesce_time_for_slicing({8, 2040, 2048});
  EXPECT_EQ(flat, split);
  // And a different slicing of the same total agrees too.
  EXPECT_EQ(flat, quiesce_time_for_slicing({1024, 1024, 1024, 1024}));
}

// ------------------------------------------------------------------- CQ --

TEST_F(VerbsTest, CqOverflowLatchesFlag) {
  auto* tiny = dev_a.create_cq(2);
  for (int i = 0; i < 5; ++i) {
    Completion c;
    c.wr_id = static_cast<std::uint64_t>(i);
    tiny->push(c);
  }
  EXPECT_TRUE(tiny->overflowed());
  EXPECT_EQ(tiny->poll(10).size(), 2u);
}

// A CQ is a bounded FIFO whose ring grows on demand up to its capacity.
TEST(CompletionQueue, AcceptsExactlyCapacityThenOverflows) {
  sim::Simulator sim;
  CompletionQueue cq(sim, 3, nullptr, 0);
  for (std::uint64_t i = 0; i < 3; ++i) {
    cq.push(Completion{i, Opcode::kSend, WcStatus::kSuccess, 0, 0, {}});
    EXPECT_FALSE(cq.overflowed());
  }
  cq.push(Completion{99, Opcode::kSend, WcStatus::kSuccess, 0, 0, {}});
  EXPECT_TRUE(cq.overflowed());
  EXPECT_EQ(cq.depth(), 3u);
  const auto cs = cq.poll(8);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs.back().wr_id, 2u);  // the fourth was dropped
}

TEST(CompletionQueue, ZeroCapacityOverflowsOnFirstPush) {
  sim::Simulator sim;
  CompletionQueue cq(sim, 0, nullptr, 0);
  cq.push(Completion{});
  EXPECT_TRUE(cq.overflowed());
  EXPECT_EQ(cq.depth(), 0u);
  EXPECT_TRUE(cq.poll(4).empty());
}

TEST(CompletionQueue, FifoAcrossGrowthAndWrapAround) {
  sim::Simulator sim;
  CompletionQueue cq(sim, 100, nullptr, 0);
  std::vector<Completion> polled;
  std::uint64_t pushed = 0;
  std::uint64_t next = 0;
  // Push 7 and poll at most 5 per round: the ring grows past its first
  // 8 slots and its head wraps many times.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 7 && cq.depth() < 100; ++i) {
      Completion c;
      c.wr_id = pushed++;
      cq.push(c);
    }
    const std::size_t n = cq.poll(polled, 5);
    EXPECT_EQ(n, polled.size());
    EXPECT_EQ(n, std::min<std::size_t>(5, pushed - next));
    for (const Completion& c : polled) EXPECT_EQ(c.wr_id, next++);
  }
  while (cq.poll(polled, 5) > 0) {
    for (const Completion& c : polled) EXPECT_EQ(c.wr_id, next++);
  }
  EXPECT_EQ(next, pushed);
  EXPECT_FALSE(cq.overflowed());
}

TEST(CompletionQueue, DepthTracksWhatIsQueued) {
  sim::Simulator sim;
  CompletionQueue cq(sim, 16, nullptr, 0);
  EXPECT_EQ(cq.depth(), 0u);
  for (int i = 0; i < 5; ++i) cq.push(Completion{});
  EXPECT_EQ(cq.depth(), 5u);
  std::vector<Completion> polled;
  EXPECT_EQ(cq.poll(polled, 2), 2u);
  EXPECT_EQ(cq.depth(), 3u);
  EXPECT_EQ(cq.poll(polled, 8), 3u);
  EXPECT_EQ(cq.depth(), 0u);
  EXPECT_EQ(cq.poll(polled, 8), 0u);
  EXPECT_TRUE(polled.empty());  // poll clears the buffer first
}

TEST_F(VerbsTest, ArmedCqDeliversOneChannelEvent) {
  auto* channel = dev_b.create_channel();
  auto* cq = dev_b.create_cq(16, channel);
  cq->req_notify();
  cq->push(Completion{});
  cq->push(Completion{});  // second CQE must not re-notify (disarmed)
  sim.run();
  EXPECT_EQ(channel->events().size(), 1u);
  EXPECT_EQ(channel->events().try_pop().value(), cq);
}

TEST_F(VerbsTest, UnarmedCqStaysSilent) {
  auto* channel = dev_b.create_channel();
  auto* cq = dev_b.create_cq(16, channel);
  cq->push(Completion{});
  sim.run();
  EXPECT_TRUE(channel->events().empty());
}

TEST_F(VerbsTest, ChannelSinkRedirectsEvents) {
  auto* channel = dev_b.create_channel();
  auto* cq = dev_b.create_cq(16, channel);
  int sunk = 0;
  channel->set_sink([&](CompletionQueue*) { ++sunk; });
  cq->req_notify();
  cq->push(Completion{});
  sim.run();
  EXPECT_EQ(sunk, 1);
  EXPECT_TRUE(channel->events().empty());
}

// ------------------------------------------------------------------- CM --

class CmTest : public ::testing::Test {
 protected:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~CmTest() override { sim.terminate_processes(); }

  std::shared_ptr<QueuePair> make_qp(Device& dev, ProtectionDomain& pd) {
    auto* scq = dev.create_cq(64);
    auto* rcq = dev.create_cq(64);
    return dev.create_qp(pd, *scq, *rcq);
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 2};
  Device dev_a{fabric, 0};
  Device dev_b{fabric, 1};
  ProtectionDomain pd_a;
  ProtectionDomain pd_b;
  ConnectionManager cm{fabric};
  std::uint64_t reject_id_ = 0;
  CmListener* listener_ptr_ = nullptr;
};

TEST_F(CmTest, HandshakeEstablishesBothSides) {
  std::vector<CmEvent> server_events;
  std::vector<CmEvent> client_events;
  auto server_qp = make_qp(dev_b, pd_b);
  auto listener = cm.listen(1, 4711, [&](const CmEvent& e) {
    server_events.push_back(e);
    if (e.type == CmEventType::kConnectRequest) {
      listener_ptr_->accept(e.conn_id, server_qp);
    }
  });
  listener_ptr_ = listener.get();

  auto client_qp = make_qp(dev_a, pd_a);
  cm.connect(client_qp, 1, 4711,
             [&](const CmEvent& e) { client_events.push_back(e); });
  sim.run();

  ASSERT_EQ(client_events.size(), 1u);
  EXPECT_EQ(client_events[0].type, CmEventType::kEstablished);
  ASSERT_EQ(server_events.size(), 2u);
  EXPECT_EQ(server_events[0].type, CmEventType::kConnectRequest);
  EXPECT_EQ(server_events[1].type, CmEventType::kEstablished);

  EXPECT_EQ(client_qp->state(), QpState::kReadyToSend);
  EXPECT_EQ(server_qp->state(), QpState::kReadyToSend);
  EXPECT_EQ(client_qp->remote_host(), 1u);
  EXPECT_EQ(server_qp->remote_host(), 0u);
}

TEST_F(CmTest, ConnectToUnboundPortRejected) {
  std::vector<CmEvent> events;
  auto client_qp = make_qp(dev_a, pd_a);
  cm.connect(client_qp, 1, 9999, [&](const CmEvent& e) { events.push_back(e); });
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, CmEventType::kRejected);
  EXPECT_EQ(client_qp->state(), QpState::kInit);
}

TEST_F(CmTest, ExplicitRejectReachesClient) {
  auto listener = cm.listen(1, 4711, [&](const CmEvent& e) {
    if (e.type == CmEventType::kConnectRequest) reject_id_ = e.conn_id;
  });
  std::vector<CmEvent> events;
  auto client_qp = make_qp(dev_a, pd_a);
  cm.connect(client_qp, 1, 4711, [&](const CmEvent& e) { events.push_back(e); });
  // Let the request arrive, then reject it.
  sim.run();
  listener->reject(reject_id_);
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, CmEventType::kRejected);
}

TEST_F(CmTest, DisconnectNotifiesPeerAndBreaksQps) {
  auto server_qp = make_qp(dev_b, pd_b);
  std::uint64_t conn_id = 0;
  std::vector<CmEvent> client_events;
  auto listener = cm.listen(1, 4711, [&](const CmEvent& e) {
    if (e.type == CmEventType::kConnectRequest) listener_ptr_->accept(e.conn_id, server_qp);
  });
  listener_ptr_ = listener.get();
  auto client_qp = make_qp(dev_a, pd_a);
  conn_id = cm.connect(client_qp, 1, 4711,
                       [&](const CmEvent& e) { client_events.push_back(e); });
  sim.run();
  ASSERT_EQ(client_events.size(), 1u);

  cm.disconnect(conn_id);
  sim.run();
  EXPECT_EQ(client_qp->state(), QpState::kError);
  EXPECT_EQ(server_qp->state(), QpState::kError);
  ASSERT_EQ(client_events.size(), 2u);
  EXPECT_EQ(client_events[1].type, CmEventType::kDisconnected);
}

TEST_F(CmTest, DuplicateListenThrows) {
  auto l = cm.listen(1, 4711, [](const CmEvent&) {});
  EXPECT_THROW(cm.listen(1, 4711, [](const CmEvent&) {}), std::invalid_argument);
}

TEST_F(CmTest, DataFlowsAfterCmHandshake) {
  Bytes buf_a(4096);
  Bytes buf_b(4096);
  auto* mr_a = pd_a.register_memory(buf_a, kAccessLocalWrite);
  auto* mr_b = pd_b.register_memory(buf_b, kAccessLocalWrite);
  auto* scq_a = dev_a.create_cq(16);
  auto* rcq_a = dev_a.create_cq(16);
  auto* scq_b = dev_b.create_cq(16);
  auto* rcq_b = dev_b.create_cq(16);
  auto client_qp = dev_a.create_qp(pd_a, *scq_a, *rcq_a);
  auto server_qp = dev_b.create_qp(pd_b, *scq_b, *rcq_b);

  auto listener = cm.listen(1, 4711, [&](const CmEvent& e) {
    if (e.type == CmEventType::kConnectRequest) {
      listener_ptr_->accept(e.conn_id, server_qp);
    }
  });
  listener_ptr_ = listener.get();

  bool established = false;
  cm.connect(client_qp, 1, 4711, [&](const CmEvent& e) {
    established = e.type == CmEventType::kEstablished;
  });
  sim.run();
  ASSERT_TRUE(established);

  const Bytes msg = patterned_bytes(512, 55);
  std::copy(msg.begin(), msg.end(), buf_a.begin());
  sim.spawn([](std::shared_ptr<QueuePair> sqp, std::shared_ptr<QueuePair> cqp,
               MemoryRegion* mra, MemoryRegion* mrb) -> Task<> {
    (void)co_await sqp->post_recv_one(RecvWr{1, Sge{mrb->addr(), 4096, mrb->lkey()}});
    (void)co_await cqp->post_send_one(
        wr_of(2, Opcode::kSend, Sge{mra->addr(), 512, mra->lkey()}));
  }(server_qp, client_qp, mr_a, mr_b));
  sim.run();
  ASSERT_EQ(rcq_b->poll(4).size(), 1u);
  EXPECT_TRUE(check_pattern(ByteView(buf_b).first(512), 55));
}

}  // namespace
}  // namespace rubin::verbs
