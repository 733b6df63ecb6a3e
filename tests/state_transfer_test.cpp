// State transfer + partition recovery: snapshot/restore units, the
// catch-up sub-protocol, and the full partition → heal → state-transfer
// integration over the RUBIN transport (exercising the RC transport-retry
// watchdog and the transport's reconnection path on the way).
#include <gtest/gtest.h>

#include <algorithm>

#include "chain/blockchain.hpp"
#include "common/codec.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

// ------------------------------------------------------ snapshot units ---

TEST(Snapshot, CounterRoundTrip) {
  CounterApp a;
  (void)a.execute(to_bytes("add:41"));
  (void)a.execute(to_bytes("add:1"));
  CounterApp b;
  EXPECT_TRUE(b.restore(a.snapshot(), a.state_digest()));
  EXPECT_EQ(b.value(), 42u);
  EXPECT_EQ(b.state_digest(), a.state_digest());
}

TEST(Snapshot, CounterRejectsWrongDigest) {
  CounterApp a;
  (void)a.execute(to_bytes("add:7"));
  CounterApp b;
  (void)b.execute(to_bytes("add:999"));
  Digest wrong = a.state_digest();
  wrong[0] ^= 1;
  EXPECT_FALSE(b.restore(a.snapshot(), wrong));
  EXPECT_EQ(b.value(), 999u);  // untouched on failure
}

TEST(Snapshot, CounterRejectsGarbage) {
  CounterApp b;
  EXPECT_FALSE(b.restore(to_bytes("xx"), b.state_digest()));
  EXPECT_FALSE(b.restore(patterned_bytes(64, 1), b.state_digest()));
}

TEST(Snapshot, BlockchainRoundTrip) {
  chain::Blockchain a(2);
  for (int i = 0; i < 7; ++i) {
    (void)a.execute(to_bytes("put k" + std::to_string(i) + " v" +
                             std::to_string(i)));
  }
  chain::Blockchain b(2);
  ASSERT_TRUE(b.restore(a.snapshot(), a.state_digest()));
  EXPECT_EQ(b.height(), a.height());
  EXPECT_EQ(b.tip(), a.tip());
  EXPECT_EQ(b.executed(), a.executed());
  EXPECT_EQ(b.get("k3"), "v3");
  EXPECT_TRUE(b.verify_chain());
  // The restored instance keeps executing identically.
  EXPECT_EQ(a.execute(to_bytes("put x y")), b.execute(to_bytes("put x y")));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(Snapshot, BlockchainRejectsTamperedSnapshot) {
  chain::Blockchain a(2);
  for (int i = 0; i < 4; ++i) (void)a.execute(to_bytes("put k v"));
  Bytes snap = a.snapshot();
  snap[snap.size() / 2] ^= 0x40;
  chain::Blockchain b(2);
  EXPECT_FALSE(b.restore(snap, a.state_digest()));
  EXPECT_EQ(b.executed(), 0u);
}

TEST(Snapshot, BlockchainRejectsABrokenLinkTheDigestCannotSee) {
  // Block 1's prev_hash is the genesis hash. Altering it changes block
  // 1's recomputed hash but not block 2's (its own stored prev_hash is
  // untouched), so the tip and the state digest still match: only the
  // chain linkage can catch it.
  chain::Blockchain a(2);
  for (int i = 0; i < 4; ++i) (void)a.execute(to_bytes("put k v"));
  ASSERT_EQ(a.height(), 2u);
  Bytes snap = a.snapshot();
  const Digest genesis = Sha256::hash(ByteView{});
  const auto at = std::search(snap.begin(), snap.end(), genesis.begin(),
                              genesis.end());
  ASSERT_NE(at, snap.end());
  *at ^= 0x01;
  chain::Blockchain b(2);
  EXPECT_FALSE(b.restore(snap, a.state_digest()));
  EXPECT_EQ(b.executed(), 0u);
  EXPECT_TRUE(b.restore(a.snapshot(), a.state_digest()));  // control
}

// ------------------------------------------------------------- codec -----

TEST(Snapshot, StateMessagesRoundTrip) {
  KeyTable k0(0, 6, to_bytes("s"));
  KeyTable k1(1, 6, to_bytes("s"));
  {
    const SharedBytes frame = encode_for_peer(
        Envelope{1, Message{StateRequest{42}}}, k1, 0);
    const auto env = decode_verified(frame, k0);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(std::get<StateRequest>(env->msg).have_seq, 42u);
  }
  {
    StateResponse resp;
    resp.seq = 64;
    resp.app_snapshot = patterned_bytes(500, 9);
    resp.client_table = patterned_bytes(80, 3);
    const SharedBytes frame =
        encode_for_peer(Envelope{0, Message{resp}}, k0, 1);
    const auto env = decode_verified(frame, k1);
    ASSERT_TRUE(env.has_value());
    const auto& out = std::get<StateResponse>(env->msg);
    EXPECT_EQ(out.seq, 64u);
    EXPECT_EQ(out.app_snapshot, resp.app_snapshot);
    EXPECT_EQ(out.client_table, resp.client_table);
  }
}

TEST(Snapshot, CheckpointCarriesBothDigests) {
  KeyTable k0(0, 6, to_bytes("s"));
  KeyTable k2(2, 6, to_bytes("s"));
  Checkpoint cp{128, Sha256::hash(to_bytes("state")),
                Sha256::hash(to_bytes("clients"))};
  const SharedBytes frame = encode_for_replicas(Envelope{0, Message{cp}}, k0, 4);
  const auto env = decode_verified(frame, k2);
  ASSERT_TRUE(env.has_value());
  const auto& out = std::get<Checkpoint>(env->msg);
  EXPECT_EQ(out.state, cp.state);
  EXPECT_EQ(out.clients, cp.clients);
}

// ----------------------------------------------------- partition + heal --

class PartitionTest : public ::testing::Test {
 protected:
  static ReplicaConfig cfg() {
    ReplicaConfig c;
    c.batch_timeout = sim::microseconds(50);
    c.batch_size = 1;                  // sequence numbers advance quickly
    c.checkpoint_interval = 4;         // frequent certified checkpoints
    c.view_change_timeout = sim::milliseconds(50);  // no VC noise here
    c.state_transfer_retry = sim::milliseconds(1);
    return c;
  }

  static void drive(BftHarness& h, Client& client, int count, int& done) {
    h.sim().spawn([](Client& c, int count, int& done) -> Task<> {
      co_await c.start();
      for (int i = 0; i < count; ++i) {
        (void)co_await c.invoke(to_bytes("add:1"));
        ++done;
      }
    }(client, count, done));
  }
};

TEST_F(PartitionTest, LaggedReplicaCatchesUpViaStateTransfer) {
  BftHarness h(Backend::kRubin, 4, 1);
  // Short RC retry budget so partitioned QPs break (and reconnect) fast.
  nio::ChannelConfig ccfg = RubinTransport::default_config();
  ccfg.transport_retry_timeout_ns = sim::milliseconds(1);
  // Rebuild transports with the custom channel config.
  ReplicaConfig c = cfg();
  for (NodeId r = 0; r < 4; ++r) {
    c.self = r;
    h.add_replica_with_channel_config(r, c, ccfg);
  }
  auto& client = h.add_client(4);
  int done = 0;
  drive(h, client, 60, done);

  // Phase 1: healthy group makes some progress.
  while (done < 10) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  const auto exec_before =
      h.replica(3).last_executed();

  // Phase 2: cut replica 3 off from everyone.
  for (net::HostId peer = 0; peer < 3; ++peer) {
    h.fabric().set_partitioned(3, peer, true);
  }
  h.fabric().set_partitioned(3, 4, true);  // and from the client
  while (done < 40) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  // The group of three keeps committing; replica 3 is frozen.
  EXPECT_LE(h.replica(3).last_executed(), exec_before + 2);
  EXPECT_GE(h.replica(0).last_executed(), 40u);

  // Phase 3: heal. Replica 3 must reconnect, learn a newer certified
  // checkpoint, fetch a snapshot, and rejoin ordering.
  for (net::HostId peer = 0; peer < 3; ++peer) {
    h.fabric().set_partitioned(3, peer, false);
  }
  h.fabric().set_partitioned(3, 4, false);
  while (done < 60) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  h.sim().run_until(h.sim().now() + sim::milliseconds(30));

  EXPECT_EQ(done, 60);
  EXPECT_GT(h.replica(3).stats().state_transfers, 0u)
      << "replica 3 should have installed a snapshot";
  // After catch-up the straggler is within one checkpoint interval of the
  // group and its state digest matches.
  EXPECT_GE(h.replica(3).last_executed() + 8, h.replica(0).last_executed());
  EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(3).app()).state_digest(),
            dynamic_cast<const CounterApp&>(h.replica(0).app()).state_digest());
  h.stop_all();
}

TEST_F(PartitionTest, GroupSurvivesMinorityPartitionWithoutTransfer) {
  // Partition a backup briefly — short enough that it stays inside the
  // checkpoint window and catches up from retained log entries alone.
  BftHarness h(Backend::kRubin, 4, 1);
  ReplicaConfig c = cfg();
  c.checkpoint_interval = 64;  // window never moves past the straggler
  h.add_replicas({}, c);
  auto& client = h.add_client(4);
  int done = 0;
  drive(h, client, 30, done);

  while (done < 5) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  for (net::HostId peer = 0; peer < 3; ++peer) {
    h.fabric().set_partitioned(3, peer, true);
  }
  while (done < 20) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  for (net::HostId peer = 0; peer < 3; ++peer) {
    h.fabric().set_partitioned(3, peer, false);
  }
  while (done < 30) h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  h.sim().run_until(h.sim().now() + sim::milliseconds(30));

  EXPECT_EQ(done, 30);
  EXPECT_GE(h.replica(0).last_executed(), 30u);
  h.stop_all();
}

}  // namespace
}  // namespace rubin::reptor
