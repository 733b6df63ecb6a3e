// Tests for the one-sided (RDMA WRITE) channel — the design the paper
// rejects for replica communication (§III-A) — including the security
// demonstration from §III-C: remotely writable rings can be corrupted by
// anyone holding the rkey, and only the BFT layer's MACs catch it.
#include <gtest/gtest.h>

#include <cstring>

#include "common/counters.hpp"
#include "net/fabric.hpp"
#include "reptor/messages.hpp"
#include "rubin/decision_log.hpp"
#include "rubin/write_channel.hpp"
#include "sim/simulator.hpp"
#include "verbs/cm.hpp"

namespace rubin::nio {
namespace {

using sim::Task;

class OneSidedTest : public ::testing::Test {
 public:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~OneSidedTest() override { sim.terminate_processes(); }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 3};
  verbs::Device dev_a{fabric, 0};
  verbs::Device dev_b{fabric, 1};
  verbs::Device dev_evil{fabric, 2};
  verbs::ConnectionManager cm{fabric};
  RubinContext ctx_a{dev_a, cm};
  RubinContext ctx_b{dev_b, cm};
  RubinContext ctx_evil{dev_evil, cm};
};

TEST_F(OneSidedTest, MessageRoundTrip) {
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b);
  const Bytes msg = patterned_bytes(4096, 7);
  std::size_t got = 0;
  Bytes rx(128 * 1024);
  sim.spawn([](OneSidedChannel& a, const Bytes& msg) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await a.write(msg);
  }(*a, msg));
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& got) -> Task<> {
    got = co_await b.read_await(rx);
  }(*b, rx, got));
  sim.run();
  ASSERT_EQ(got, 4096u);
  EXPECT_TRUE(check_pattern(ByteView(rx).first(got), 7));
  EXPECT_EQ(a->stats().messages_sent, 1u);
  EXPECT_EQ(b->stats().messages_received, 1u);
}

TEST_F(OneSidedTest, ManyMessagesInOrderBothDirections) {
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b);
  int ok = 0;
  // a sends 100 to b; b echoes each back; a verifies.
  sim.spawn([](OneSidedChannel& b) -> Task<> {
    Bytes rx(128 * 1024);
    for (int i = 0; i < 100; ++i) {
      const std::size_t n = co_await b.read_await(rx);
      std::size_t w = 0;
      while (w == 0) w = co_await b.write(ByteView(rx).first(n));
    }
  }(*b));
  sim.spawn([](OneSidedChannel& a, int& ok) -> Task<> {
    Bytes rx(128 * 1024);
    for (int i = 0; i < 100; ++i) {
      const Bytes msg = patterned_bytes(100 + 37 * i, static_cast<std::uint64_t>(i));
      std::size_t w = 0;
      while (w == 0) w = co_await a.write(msg);
      const std::size_t n = co_await a.read_await(rx);
      if (n == msg.size() &&
          check_pattern(ByteView(rx).first(n), static_cast<std::uint64_t>(i))) {
        ++ok;
      }
    }
  }(*a, ok));
  sim.run();
  EXPECT_EQ(ok, 100);
}

TEST_F(OneSidedTest, CreditsPreventOverwritingUnconsumedSlots) {
  OneSidedConfig cfg;
  cfg.slot_count = 4;
  cfg.credit_interval = 2;
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b, cfg);

  // Fire-and-forget 20 messages while the receiver reads nothing: writes
  // beyond the 4 credits must be refused, not overwrite live slots (the
  // §III-A read/write race).
  int accepted = 0;
  int rejected = 0;
  sim.spawn([](OneSidedChannel& a, int& accepted, int& rejected) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      const Bytes msg = patterned_bytes(64, static_cast<std::uint64_t>(i));
      const std::size_t n = co_await a.write(msg);
      (n > 0 ? accepted : rejected) += 1;
    }
  }(*a, accepted, rejected));
  sim.run();
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 16);
  EXPECT_EQ(a->stats().no_credit_stalls, 16u);

  // Draining frees credits and the data is intact (first 4 messages).
  int verified = 0;
  sim.spawn([](OneSidedChannel& b, int& verified) -> Task<> {
    Bytes rx(1024);
    for (int i = 0; i < 4; ++i) {
      const std::size_t n = co_await b.read_await(rx);
      if (check_pattern(ByteView(rx).first(n), static_cast<std::uint64_t>(i))) {
        ++verified;
      }
    }
  }(*b, verified));
  sim.run();
  EXPECT_EQ(verified, 4);
}

TEST_F(OneSidedTest, StolenRkeyCorruptsTheRing) {
  // Paper §III-C: "An adversary might get access to a buffer with STag
  // enabled access… She can now read or modify the contents of this
  // buffer." The evil host, holding only b's ring rkey, overwrites the
  // message in flight — and the receiver cannot tell at the transport
  // level.
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b);

  // The attacker wires a QP to b and writes into b's exposed ring.
  verbs::ProtectionDomain pd_evil;
  auto* scq = dev_evil.create_cq(16);
  auto* rcq = dev_evil.create_cq(16);
  auto evil_qp = dev_evil.create_qp(pd_evil, *scq, *rcq);
  // (Any QP wired at the device level reaches b's memory in our model —
  // the rkey is the only protection, as on real RoCE.)
  auto* bq = dev_b.create_cq(16);
  auto* bq2 = dev_b.create_cq(16);
  auto victim_side = dev_b.create_qp(ctx_b.pd(), *bq, *bq2);
  evil_qp->connect(dev_b, victim_side->qp_num());
  victim_side->connect(dev_evil, evil_qp->qp_num());

  Bytes payload = patterned_bytes(64, 999);  // attacker's forged payload
  Bytes evil_src(16 + 64);
  std::memcpy(evil_src.data() + 16, payload.data(), 64);
  std::uint32_t len = 64;
  std::memcpy(evil_src.data(), &len, 4);
  const std::uint64_t seq = 1;
  std::memcpy(evil_src.data() + 8, &seq, 8);
  auto* evil_mr = pd_evil.register_memory(evil_src, 0);

  std::size_t got = 0;
  Bytes rx(1024);
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp,
               verbs::MemoryRegion* mr, OneSidedChannel& victim) -> Task<> {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.sg_list = verbs::Sge{mr->addr(), 16 + 64, mr->lkey()};
    wr.remote_addr = victim.ring_addr();  // slot 0
    wr.rkey = victim.ring_rkey();         // the stolen STag
    (void)co_await qp->post_send_one(wr);
  }(evil_qp, evil_mr, *b));
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& got) -> Task<> {
    got = co_await b.read_await(rx);
  }(*b, rx, got));
  sim.run();

  // The victim "received" a message nobody legitimate sent.
  ASSERT_EQ(got, 64u);
  EXPECT_TRUE(check_pattern(ByteView(rx).first(64), 999));
  EXPECT_EQ(a->stats().messages_sent, 0u);

  // …but the BFT layer's authenticator rejects it: forged frames do not
  // verify, so the Byzantine write only costs availability, not safety.
  const KeyTable keys(1, 4, to_bytes("group"));
  EXPECT_FALSE(reptor::decode_verified(ByteView(rx).first(64), keys).has_value());
}

TEST_F(OneSidedTest, WrongRkeyIsRejectedByTheNic) {
  // Without the right rkey the NIC refuses remote access — RDMA's own
  // protection (paper §III-C "Protection Domains and access permissions").
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b);
  verbs::ProtectionDomain pd_evil;
  auto* scq = dev_evil.create_cq(16);
  auto* rcq = dev_evil.create_cq(16);
  auto evil_qp = dev_evil.create_qp(pd_evil, *scq, *rcq);
  auto* bq = dev_b.create_cq(16);
  auto* bq2 = dev_b.create_cq(16);
  auto victim_side = dev_b.create_qp(ctx_b.pd(), *bq, *bq2);
  evil_qp->connect(dev_b, victim_side->qp_num());
  victim_side->connect(dev_evil, evil_qp->qp_num());

  Bytes junk(80, 0xEE);
  auto* evil_mr = pd_evil.register_memory(junk, 0);
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp, verbs::MemoryRegion* mr,
               OneSidedChannel& victim) -> Task<> {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.sg_list = verbs::Sge{mr->addr(), 80, mr->lkey()};
    wr.remote_addr = victim.ring_addr();
    wr.rkey = 0xBAD5EED;  // guessed wrong
    (void)co_await qp->post_send_one(wr);
  }(evil_qp, evil_mr, *b));
  sim.run();
  const auto wcs = scq->poll(4);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, verbs::WcStatus::kRemoteAccessError);
  // The victim's ring is untouched: no message surfaces.
  Bytes rx(1024);
  std::size_t got = 99;
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& got) -> Task<> {
    got = co_await b.read(rx);
  }(*b, rx, got));
  sim.run();
  EXPECT_EQ(got, 0u);
}

TEST_F(OneSidedTest, ForgedCreditIsCountedAndNeverUnblocksWrites) {
  // The credit cell is the *other* remotely writable word (§III-C): a
  // peer holding its rkey can claim consumption that never happened. A
  // forged credit ahead of what we sent must be flagged and must not let
  // the sender overwrite unconsumed slots.
  OneSidedConfig cfg;
  cfg.slot_count = 4;
  cfg.credit_interval = 2;
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b, cfg);
  counters::reset();

  // Exhaust a's credits with the receiver asleep.
  sim.spawn([](OneSidedChannel& a) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await a.write(patterned_bytes(64, static_cast<std::uint64_t>(i)));
    }
  }(*a));
  sim.run();
  ASSERT_EQ(a->stats().messages_sent, 4u);

  // The attacker wires a QP to a's device and writes "you sent 1000 and I
  // consumed them all" into a's credit cell.
  verbs::ProtectionDomain pd_evil;
  auto* scq = dev_evil.create_cq(16);
  auto* rcq = dev_evil.create_cq(16);
  auto evil_qp = dev_evil.create_qp(pd_evil, *scq, *rcq);
  auto* aq = dev_a.create_cq(16);
  auto* aq2 = dev_a.create_cq(16);
  auto victim_side = dev_a.create_qp(ctx_a.pd(), *aq, *aq2);
  evil_qp->connect(dev_a, victim_side->qp_num());
  victim_side->connect(dev_evil, evil_qp->qp_num());

  Bytes forged(8);
  const std::uint64_t lie = 1000;
  std::memcpy(forged.data(), &lie, 8);
  auto* evil_mr = pd_evil.register_memory(forged, 0);
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp, verbs::MemoryRegion* mr,
               OneSidedChannel& victim) -> Task<> {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.sg_list = verbs::Sge{mr->addr(), 8, mr->lkey()};
    wr.remote_addr = victim.credit_addr();
    wr.rkey = victim.credit_rkey();
    (void)co_await qp->post_send_one(wr);
  }(evil_qp, evil_mr, *a));
  sim.run();

  // The forged credit is rejected: the write is still refused (the gate
  // treats an implausible counter conservatively) and the counter
  // records the forgery attempt.
  std::size_t n = 99;
  sim.spawn([](OneSidedChannel& a, std::size_t& n) -> Task<> {
    n = co_await a.write(patterned_bytes(64, 77));
  }(*a, n));
  sim.run();
  EXPECT_EQ(n, 0u);
  EXPECT_GE(a->stats().no_credit_stalls, 1u);
  EXPECT_GE(counters::value("onesided.implausible_credit"), 1u);

  // Legitimate consumption still recovers the channel: b drains the ring
  // (returning real credits) and a's next write goes through.
  sim.spawn([](OneSidedChannel& b) -> Task<> {
    Bytes rx(1024);
    for (int i = 0; i < 4; ++i) (void)co_await b.read_await(rx);
  }(*b));
  sim.run();
  sim.spawn([](OneSidedChannel& a, std::size_t& n) -> Task<> {
    n = co_await a.write(patterned_bytes(64, 78));
  }(*a, n));
  sim.run();
  EXPECT_EQ(n, 64u);
}

TEST_F(OneSidedTest, ReplayedSlotIsNotDeliveredTwice) {
  // Duplicate delivery: an attacker (or a retransmitting NIC) re-writes a
  // slot the receiver already consumed. The per-slot sequence header is
  // the dedup discipline — a stale sequence number never surfaces again.
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b);

  const Bytes msg = patterned_bytes(64, 5);
  std::size_t got = 0;
  Bytes rx(1024);
  sim.spawn([](OneSidedChannel& a, const Bytes& msg) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await a.write(msg);
  }(*a, msg));
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& got) -> Task<> {
    got = co_await b.read_await(rx);
  }(*b, rx, got));
  sim.run();
  ASSERT_EQ(got, 64u);
  ASSERT_EQ(b->stats().messages_received, 1u);

  // Replay: write the identical frame (seq = 1) back into slot 0 of b's
  // ring, exactly as the original RDMA WRITE placed it.
  verbs::ProtectionDomain pd_evil;
  auto* scq = dev_evil.create_cq(16);
  auto* rcq = dev_evil.create_cq(16);
  auto evil_qp = dev_evil.create_qp(pd_evil, *scq, *rcq);
  auto* bq = dev_b.create_cq(16);
  auto* bq2 = dev_b.create_cq(16);
  auto victim_side = dev_b.create_qp(ctx_b.pd(), *bq, *bq2);
  evil_qp->connect(dev_b, victim_side->qp_num());
  victim_side->connect(dev_evil, evil_qp->qp_num());

  Bytes replay(16 + 64);
  const std::uint32_t len = 64;
  std::memcpy(replay.data(), &len, 4);
  const std::uint64_t seq = 1;  // already consumed
  std::memcpy(replay.data() + 8, &seq, 8);
  std::memcpy(replay.data() + 16, msg.data(), 64);
  auto* evil_mr = pd_evil.register_memory(replay, 0);
  sim.spawn([](std::shared_ptr<verbs::QueuePair> qp, verbs::MemoryRegion* mr,
               OneSidedChannel& victim) -> Task<> {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.sg_list = verbs::Sge{mr->addr(), 16 + 64, mr->lkey()};
    wr.remote_addr = victim.ring_addr();  // slot 0 again
    wr.rkey = victim.ring_rkey();
    (void)co_await qp->post_send_one(wr);
  }(evil_qp, evil_mr, *b));
  sim.run();

  // The receiver polls and sees nothing: seq 1 < expected 2.
  std::size_t dup = 99;
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& dup) -> Task<> {
    dup = co_await b.read(rx);
  }(*b, rx, dup));
  sim.run();
  EXPECT_EQ(dup, 0u);
  EXPECT_EQ(b->stats().messages_received, 1u);

  // …and the channel is not wedged: the next legitimate message (seq 2)
  // lands in slot 1 and is delivered normally.
  sim.spawn([](OneSidedChannel& a) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await a.write(patterned_bytes(32, 6));
  }(*a));
  sim.spawn([](OneSidedChannel& b, Bytes& rx, std::size_t& got) -> Task<> {
    got = co_await b.read_await(rx);
  }(*b, rx, got));
  sim.run();
  EXPECT_EQ(got, 32u);
  EXPECT_TRUE(check_pattern(ByteView(rx).first(32), 6));
  EXPECT_EQ(b->stats().messages_received, 2u);
}

TEST_F(OneSidedTest, ExposedFootprintGrowsPerPeer) {
  // The paper's scalability objection (§III-A): every peer needs its own
  // exposed ring. Quantify it.
  OneSidedConfig cfg;
  auto [a, b] = OneSidedChannel::create_pair(ctx_a, ctx_b, cfg);
  const std::size_t per_peer = a->exposed_bytes();
  EXPECT_GE(per_peer, cfg.slot_count * (cfg.slot_payload + 16));
  // A 10-replica group (paper §I: blockchain-scale) would pin ~9x that
  // per node just for inbound rings:
  EXPECT_GT(9 * per_peer, 36u * 1024 * 1024);  // tens of MB at 128KB slots
}

// ===========================================================================
// DecisionLog — the one-sided fast-path commit substrate (DESIGN.md §12).
// These are the adversarial tests the fallback contract rests on: every
// way a Byzantine primary can abuse a remotely writable decision ring —
// forged slots, torn writes, replays, misplaced writes, revoked-rkey
// probes — must be classified exactly as SlotStatus promises.

class DecisionLogTest : public ::testing::Test {
 public:
  static constexpr std::uint32_t kN = 4;  // n = 3f + 1, f = 1

  ~DecisionLogTest() override { sim.terminate_processes(); }

  KeyTable keys(std::uint32_t id) const {
    // One extra id (kN) plays the client inside test batches.
    return KeyTable(id, kN + 1, to_bytes("bft-group-secret"));
  }

  /// An authentic decision record: the encoded PRE-PREPARE frame node
  /// `signer` would dual-send for (view, seq).
  SharedBytes signed_record(std::uint32_t signer, std::uint64_t view,
                            std::uint64_t seq, reptor::PrePrepare* out = nullptr) {
    reptor::Request rq;
    rq.client = kN;
    rq.id = seq;
    rq.op = patterned_bytes(48, seq);
    reptor::PrePrepare pp;
    pp.view = view;
    pp.seq = seq;
    pp.batch.push_back(std::move(rq));
    pp.digest = reptor::batch_digest(pp.batch);
    if (out != nullptr) *out = pp;
    return reptor::encode_for_replicas(
        reptor::Envelope{signer, reptor::Message{pp}}, keys(signer), kN);
  }

  static std::uint64_t tag_of(const Digest& d) {
    std::uint64_t tag = 0;
    std::memcpy(&tag, d.data(), sizeof(tag));
    return tag;
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), kN};
  verbs::Device dev0{fabric, 0};
  verbs::Device dev1{fabric, 1};
  verbs::Device dev2{fabric, 2};
  verbs::Device dev3{fabric, 3};
  verbs::ConnectionManager cm{fabric};
  RubinContext c0{dev0, cm};
  RubinContext c1{dev1, cm};
  RubinContext c2{dev2, cm};
  RubinContext c3{dev3, cm};
  std::vector<RubinContext*> ctxs{&c0, &c1, &c2, &c3};
};

TEST_F(DecisionLogTest, PublishPollAckQuorumFlow) {
  // The fault-free fast path end to end: the primary writes one record
  // into every follower ring, each follower authenticates it and
  // endorses by ack cell, and the resulting endorsement count clears the
  // 2f + 1 commit rule.
  auto logs = DecisionLog::create_group(ctxs);
  counters::reset();

  reptor::PrePrepare pp;
  SharedBytes rec = signed_record(0, 0, 1, &pp);
  std::uint32_t written = 0;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(1, 0, 0, std::move(rec));
  }(*logs[0], rec, written));
  sim.run();
  EXPECT_EQ(written, 3u);
  EXPECT_EQ(logs[0]->stats().records_published, 3u);
  EXPECT_EQ(counters::value("transport.onesided.write"), 3u);

  int authenticated = 0;
  const std::uint64_t tag = tag_of(pp.digest);
  for (std::uint32_t r = 1; r < kN; ++r) {
    sim.spawn([](DecisionLogTest& t, DecisionLog& l, std::uint32_t self,
                 std::uint64_t tag, int& ok) -> Task<> {
      DecisionRecord out;
      if (co_await l.poll_slot(1, 0, out) != SlotStatus::kReady) co_return;
      const auto env = reptor::decode_verified(out.record.view(), t.keys(self));
      if (!env || env->sender != 0) co_return;
      ++ok;
      co_await l.ack(1, tag);
    }(*this, *logs[r], r, tag, authenticated));
  }
  sim.run();
  EXPECT_EQ(authenticated, 3);
  // 3 remote endorsements + the primary's own = 4 >= 2f + 1 = 3.
  EXPECT_EQ(logs[0]->acks_for(1, tag), 3u);
  // Placement + content authentication: a different tag matches nothing.
  EXPECT_EQ(logs[0]->acks_for(1, ~tag), 0u);
}

TEST_F(DecisionLogTest, ForgedSlotPassesFramingButFailsMacAuthentication) {
  // A well-formed frame around garbage: the transport *cannot* reject it
  // (framing is valid), and must not — the MAC layer is the authority. A
  // replica that polls it gets kReady and then decode_verified says no.
  auto logs = DecisionLog::create_group(ctxs);

  const Bytes garbage = patterned_bytes(128, 99);
  SharedBytes slot = DecisionLog::make_slot(1, 0, 0, garbage);
  sim.spawn([](DecisionLog& evil, std::uint64_t off, SharedBytes slot,
               std::uint32_t rkey) -> Task<> {
    (void)co_await evil.raw_write(1, off, std::move(slot), rkey);
  }(*logs[3], logs[1]->slot_offset(1), slot, logs[1]->ring_rkey()));
  sim.run();

  SlotStatus st = SlotStatus::kEmpty;
  DecisionRecord out;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(1, 0, out);
  }(*logs[1], st, out));
  sim.run();
  ASSERT_EQ(st, SlotStatus::kReady);
  EXPECT_FALSE(reptor::decode_verified(out.record.view(), keys(1)).has_value());
}

TEST_F(DecisionLogTest, TornWriteIsTreatedAsNotArrived) {
  // Header landed, canary did not: the record is in flight (or torn on
  // purpose). It must be *invisible* — neither consumed half-written nor
  // fatal — and a complete rewrite of the same slot must then deliver.
  auto logs = DecisionLog::create_group(ctxs);
  counters::reset();

  SharedBytes rec = signed_record(0, 0, 1);
  SharedBytes torn = DecisionLog::make_slot(
      1, 0, 0, ByteView(rec.data(), rec.size()), /*valid_canary=*/false);
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s,
               std::uint32_t rkey) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s), rkey);
  }(*logs[0], logs[1]->slot_offset(1), torn, logs[1]->ring_rkey()));
  sim.run();

  SlotStatus st = SlotStatus::kEmpty;
  DecisionRecord out;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(1, 0, out);
  }(*logs[1], st, out));
  sim.run();
  EXPECT_EQ(st, SlotStatus::kTorn);
  EXPECT_EQ(logs[1]->stats().torn_slots, 1u);
  EXPECT_GE(counters::value("decision_log.torn"), 1u);

  // The complete write repairs the slot.
  SharedBytes whole = DecisionLog::make_slot(1, 0, 0,
                                             ByteView(rec.data(), rec.size()));
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s,
               std::uint32_t rkey) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s), rkey);
  }(*logs[0], logs[1]->slot_offset(1), whole, logs[1]->ring_rkey()));
  sim.run();
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(1, 0, out);
  }(*logs[1], st, out));
  sim.run();
  EXPECT_EQ(st, SlotStatus::kReady);
}

TEST_F(DecisionLogTest, ReplayedSlotFromOldViewIsStale) {
  // A record replayed from before a view change carries the old view in
  // its header — and the canary binds (seq, view), so rewriting just the
  // header would tear the canary instead. Either way it never surfaces.
  auto logs = DecisionLog::create_group(ctxs);
  counters::reset();

  SharedBytes rec = signed_record(0, 0, 5);
  SharedBytes replay = DecisionLog::make_slot(5, 0, 0,
                                              ByteView(rec.data(), rec.size()));
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s,
               std::uint32_t rkey) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s), rkey);
  }(*logs[0], logs[1]->slot_offset(5), replay, logs[1]->ring_rkey()));
  sim.run();

  // The group has since moved to view 1; replica 1 polls as of view 1.
  SlotStatus st = SlotStatus::kEmpty;
  DecisionRecord out;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(5, 1, out);
  }(*logs[1], st, out));
  sim.run();
  EXPECT_EQ(st, SlotStatus::kStale);
  EXPECT_EQ(logs[1]->stats().stale_slots, 1u);
  EXPECT_GE(counters::value("decision_log.stale"), 1u);
}

TEST_F(DecisionLogTest, MisplacedSlotIsBadFrame) {
  // An out-of-window / misplaced write: slot index of seq 5 holding a
  // record claiming seq 3. No honest primary produces it (3 and 5 do not
  // share a slot), so the poller must flag it — this is what suspends
  // the replica's fast path rather than being silently skipped.
  auto logs = DecisionLog::create_group(ctxs);

  SharedBytes rec = signed_record(0, 0, 3);
  SharedBytes misplaced = DecisionLog::make_slot(
      3, 0, 0, ByteView(rec.data(), rec.size()));
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s,
               std::uint32_t rkey) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s), rkey);
  }(*logs[0], logs[1]->slot_offset(5), misplaced, logs[1]->ring_rkey()));
  sim.run();

  SlotStatus st = SlotStatus::kEmpty;
  DecisionRecord out;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(5, 0, out);
  }(*logs[1], st, out));
  sim.run();
  EXPECT_EQ(st, SlotStatus::kBadFrame);

  // The benign cousin: the untouched leftover of the previous ring lap
  // (same slot, holding exactly seq - slot_count) reads as empty, not as
  // an attack. Overwrite the slot with a legitimate seq-5 record first.
  SharedBytes rec5 = signed_record(0, 0, 5);
  SharedBytes legit = DecisionLog::make_slot(
      5, 0, 0, ByteView(rec5.data(), rec5.size()));
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s,
               std::uint32_t rkey) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s), rkey);
  }(*logs[0], logs[1]->slot_offset(5), legit, logs[1]->ring_rkey()));
  sim.run();
  SlotStatus wrapped = SlotStatus::kBadFrame;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(5 + l.config().slot_count, 0, out);
  }(*logs[1], wrapped, out));
  sim.run();
  EXPECT_EQ(wrapped, SlotStatus::kEmpty);
}

TEST_F(DecisionLogTest, ViewFlipRevokesBeforeGranting) {
  // "Revoke before grant" as an observable schedule: while any replica's
  // flip for the new view is in flight, a publish for that view bypasses
  // the one-sided path entirely (grant_for is nullopt) — the message
  // path carries those sequences. Once every flip completes, the new
  // view's writes flow.
  auto logs = DecisionLog::create_group(ctxs);
  counters::reset();

  for (std::uint32_t r = 0; r < kN; ++r) {
    sim.spawn([](DecisionLog& l) -> Task<> { co_await l.enter_view(1); }(*logs[r]));
  }
  // New primary (node 1) publishes for view 1 at t = 0 — mid-flip.
  SharedBytes rec = signed_record(1, 1, 1);
  std::uint32_t mid_flip = 99;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(1, 1, 0, std::move(rec));
  }(*logs[1], rec, mid_flip));
  sim.run();
  EXPECT_EQ(mid_flip, 0u);
  EXPECT_GE(logs[1]->stats().bypasses, 3u);
  EXPECT_GE(counters::value("transport.onesided.bypass"), 3u);
  EXPECT_EQ(counters::value("decision_log.permission_flip"),
            static_cast<std::uint64_t>(kN));

  // Flips have completed (sim.run drained them): the same publish lands.
  for (std::uint32_t r = 0; r < kN; ++r) {
    EXPECT_EQ(logs[r]->granted_view(), 1u);
    EXPECT_EQ(logs[r]->stats().permission_flips, 1u);
  }
  SharedBytes rec2 = signed_record(1, 1, 1);
  std::uint32_t after = 0;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(1, 1, 0, std::move(rec));
  }(*logs[1], rec2, after));
  sim.run();
  EXPECT_EQ(after, 3u);
}

TEST_F(DecisionLogTest, DeposedPrimaryWriteNaksOnRevokedRkey) {
  // The Aguilera et al. mechanism this subsystem exists for: after the
  // flip, the deposed primary's cached rkey is dead. Its next write
  // completes with kRemoteAccessError, the record never lands, and its
  // QP to the victim breaks — permissions, not message counting, bound
  // the damage.
  auto logs = DecisionLog::create_group(ctxs);

  // View 0: primary 0 publishes seq 1 legitimately (caching the grants).
  SharedBytes rec = signed_record(0, 0, 1);
  std::uint32_t w0 = 0;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(1, 0, 0, std::move(rec));
  }(*logs[0], rec, w0));
  sim.run();
  ASSERT_EQ(w0, 3u);
  const std::uint32_t stale_rkey = logs[0]->cached_grant(1);

  // Replica 1 flips to view 1; the old rkey is revoked.
  sim.spawn([](DecisionLog& l) -> Task<> { co_await l.enter_view(1); }(*logs[1]));
  sim.run();
  ASSERT_EQ(logs[1]->granted_view(), 1u);
  ASSERT_NE(logs[1]->ring_rkey(), stale_rkey);

  // The deposed primary keeps writing through the cached grant.
  counters::reset();
  SharedBytes forged = DecisionLog::make_slot(2, 0, 0,
                                              ByteView(rec.data(), rec.size()));
  sim.spawn([](DecisionLog& l, std::uint64_t off, SharedBytes s) -> Task<> {
    (void)co_await l.raw_write(1, off, std::move(s));  // default: cached rkey
  }(*logs[0], logs[1]->slot_offset(2), forged));
  sim.run();

  // The NIC NAKed it: a kRemoteAccessError completion on the sender...
  EXPECT_GE(logs[0]->drain_completions(), 1u);
  EXPECT_GE(logs[0]->stats().write_naks, 1u);
  EXPECT_GE(counters::value("decision_log.write_nak"), 1u);
  // ...and nothing landed in the victim's ring.
  SlotStatus st = SlotStatus::kReady;
  DecisionRecord out;
  sim.spawn([](DecisionLog& l, SlotStatus& st, DecisionRecord& out) -> Task<> {
    st = co_await l.poll_slot(2, 1, out);
  }(*logs[1], st, out));
  sim.run();
  EXPECT_EQ(st, SlotStatus::kEmpty);
}

TEST_F(DecisionLogTest, AckCreditsGateSlotReuse) {
  // Ack cells double as flow control: slot s is reused for seq only
  // after the target acked seq - slot_count in that same cell. A primary
  // that outruns its followers bypasses (message path carries the seq)
  // instead of overwriting unconsumed records.
  DecisionLogConfig cfg;
  cfg.slot_count = 4;
  auto logs = DecisionLog::create_group(ctxs, cfg);

  // Fill the first lap: seqs 1..4 always have credit.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    SharedBytes rec = signed_record(0, 0, seq);
    std::uint32_t w = 0;
    sim.spawn([](DecisionLog& l, std::uint64_t seq, SharedBytes rec,
                 std::uint32_t& w) -> Task<> {
      w = co_await l.publish(seq, 0, 0, std::move(rec));
    }(*logs[0], seq, rec, w));
    sim.run();
    ASSERT_EQ(w, 3u) << "seq " << seq;
  }

  // Seq 5 reuses slot 1, whose occupant (seq 1) nobody acked: refused.
  SharedBytes rec5 = signed_record(0, 0, 5);
  std::uint32_t w5 = 99;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(5, 0, 0, std::move(rec));
  }(*logs[0], rec5, w5));
  sim.run();
  EXPECT_EQ(w5, 0u);
  EXPECT_GE(logs[0]->stats().bypasses, 3u);

  // Followers ack seq 1 (tag content is irrelevant to flow control).
  for (std::uint32_t r = 1; r < kN; ++r) {
    sim.spawn([](DecisionLog& l) -> Task<> { co_await l.ack(1, 0x7a61); }(*logs[r]));
  }
  sim.run();

  // Credit restored: seq 5 now writes everywhere.
  SharedBytes rec5b = signed_record(0, 0, 5);
  std::uint32_t w5b = 0;
  sim.spawn([](DecisionLog& l, SharedBytes rec, std::uint32_t& w) -> Task<> {
    w = co_await l.publish(5, 0, 0, std::move(rec));
  }(*logs[0], rec5b, w5b));
  sim.run();
  EXPECT_EQ(w5b, 3u);
}

TEST_F(DecisionLogTest, ExposedSurfaceIsRingPlusAckTables) {
  // §III-C exposure accounting for the fast path: one ring (written by
  // the current primary) plus one ack region per peer. Everything else —
  // staging, QPs, CQs — stays local-only.
  auto logs = DecisionLog::create_group(ctxs);
  const std::size_t stride = logs[0]->slot_stride();
  const DecisionLogConfig cfg;
  EXPECT_EQ(logs[0]->exposed_bytes(),
            cfg.slot_count * stride +
                (kN - 1) * cfg.slot_count * DecisionLog::kAckCellBytes);
}

}  // namespace
}  // namespace rubin::nio
