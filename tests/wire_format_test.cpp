// Golden wire vectors and truncation sweeps for every byte layout the
// tree puts on a wire or into a digest: the ten PBFT frames (with a full
// authenticator and with a single MAC), the client table, the two
// application snapshots, a decision-log slot image, and the NIO stream
// (hello + length-prefixed frame). The hex strings are the contract: an
// encoder rewrite that moves one byte fails here before it moves a
// digest, a MAC or a pinned virtual output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "reptor/messages.hpp"
#include "reptor/state_machine.hpp"
#include "rubin/decision_log.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

KeyTable keys_for(NodeId self) { return KeyTable(self, 6, to_bytes("secret")); }

/// Single-MAC frames go to this client; it sends none of the samples.
constexpr NodeId kPeer = 5;

std::vector<Request> sample_batch() {
  return {Request{4, 7, to_bytes("add:5"), false},
          Request{5, 2, to_bytes("get"), true}};
}

PrePrepare sample_pre_prepare(std::uint64_t view) {
  PrePrepare pp{view, 42, {}, sample_batch()};
  pp.digest = batch_digest(pp.batch);
  return pp;
}

struct Sample {
  const char* name;
  Envelope env;
  const char* body;           // type | sender | payload
  const char* authenticator;  // u8 count | four MACs
  const char* mac;            // u8 count | the MAC for kPeer
};

std::vector<Sample> samples() {
  const Digest d = batch_digest(sample_batch());
  return {
      {"REQUEST",
       {4, Request{4, 9, to_bytes("add:1"), false}},
       "0104000000040000000900000000000000050000006164643a3100",
       "042e21bc4a331d7171961d7006a87b2cc572368d10af6a29cbf83c7fc4c332627f",
       "012173c16ec0ff89f7"},
      {"PRE-PREPARE",
       {3, sample_pre_prepare(3)},
       "020300000003000000000000002a00000000000000b24b5aee454244817a29c6"
       "bf42bf524a2840ccef86f892a53e6c5ad7921569fa0200000004000000070000"
       "0000000000050000006164643a35000500000002000000000000000300000067"
       "657401",
       "04528e2ec6b5c2328a410986af9a32404f3b9a5b9605424561af91ebbebbf59961",
       "016eb3542bb665ddab"},
      {"PREPARE",
       {1, Prepare{3, 42, d}},
       "030100000003000000000000002a00000000000000b24b5aee454244817a29c6"
       "bf42bf524a2840ccef86f892a53e6c5ad7921569fa",
       "04debec716c14daef9f08389e3d66f6aa45377daa0ff153da8abe9e51b2de76b86",
       "014b67e63faeed3468"},
      {"COMMIT",
       {2, Commit{3, 42, d}},
       "040200000003000000000000002a00000000000000b24b5aee454244817a29c6"
       "bf42bf524a2840ccef86f892a53e6c5ad7921569fa",
       "044b754ee9568f10cd11b4893df42b25be169e7b9f1efc6db6fb00d8e6bb25e533",
       "015d1a646e89e66819"},
      {"REPLY",
       {1, Reply{3, 4, 7, to_bytes("five")}},
       "0501000000030000000000000004000000070000000000000004000000666976"
       "65",
       "04658ee0cd767e151e501f5332eaf4df05dbc3b2a570e6505e89ecf5cd7e4373c5",
       "01a8407384921e955c"},
      {"CHECKPOINT",
       {2, Checkpoint{64, Sha256::hash(to_bytes("state")),
                  Sha256::hash(to_bytes("clients"))}},
       "060200000040000000000000004ba69735ca53765ed6a709edb56c6ea236b719"
       "3a3b29a6b390c346f0f4340e4e8f4d9088121acfab37f4a5875ef93c8a89e148"
       "9f1fc3b4367a1ce950a44f23e8",
       "045e77ea67bbe1d22d0479421a01d38cec44d2be95cb524a8f7d5c01f6798e7d91",
       "01858b69720191aeb6"},
      {"VIEW-CHANGE",
       {1, ViewChange{4, 32, {PreparedProof{3, 42, d, sample_batch()}}}},
       "0701000000040000000000000020000000000000000100000003000000000000"
       "002a00000000000000b24b5aee454244817a29c6bf42bf524a2840ccef86f892"
       "a53e6c5ad7921569fa0200000004000000070000000000000005000000616464"
       "3a35000500000002000000000000000300000067657401",
       "04f953194d7b2d30fda040d7b7b52cfea9811ae2f55013a3e942eac2cdf9bbd5c7",
       "017bd31f25e48870e3"},
      {"NEW-VIEW",
       {0, NewView{4, {0, 1, 3}, {sample_pre_prepare(4)}}},
       "0800000000040000000000000003000000000000000100000003000000010000"
       "0004000000000000002a00000000000000b24b5aee454244817a29c6bf42bf52"
       "4a2840ccef86f892a53e6c5ad7921569fa020000000400000007000000000000"
       "00050000006164643a35000500000002000000000000000300000067657401",
       "045201aa8daa1c4c009a5219bf8ddc50442abfbc07bcecd6a9a899803999d08ef9",
       "01714c56c7f1baa700"},
      {"STATE-REQUEST",
       {2, StateRequest{31}},
       "09020000001f00000000000000",
       "047d97dfff667d6727f7fe400704b865803eb72047df97ed8d556ef0a6e01f6af8",
       "012200ea8382e02921"},
      {"STATE-RESPONSE",
       {0, StateResponse{64, to_bytes("app"), to_bytes("clients")}},
       "0a0000000040000000000000000300000061707007000000636c69656e7473",
       "04ada9aa5e3e00a419f7336b62a42be47e3a1bf2be779cf638a57d9c9943eb3952",
       "0116ba72b35b7400c8"},
  };
}

/// A receiver in the replica group other than the sender.
NodeId receiver_for(NodeId sender) { return sender == 0 ? 1 : 0; }

TEST(WireFormat, GoldenFramesPinEveryMessageType) {
  for (const Sample& s : samples()) {
    EXPECT_STREQ(type_name(s.env.msg), s.name);
    const KeyTable keys = keys_for(s.env.sender);
    EXPECT_EQ(to_hex(encode_for_replicas(s.env, keys, 4)),
              std::string(s.body) + s.authenticator)
        << s.name;
    EXPECT_EQ(to_hex(encode_for_peer(s.env, keys, kPeer)),
              std::string(s.body) + s.mac)
        << s.name;
  }
}

TEST(WireFormat, EveryFrameRoundTripsAndEveryStrictPrefixIsRejected) {
  for (const Sample& s : samples()) {
    const KeyTable keys = keys_for(s.env.sender);
    const struct {
      SharedBytes frame;
      NodeId receiver;
    } cases[] = {
        {encode_for_replicas(s.env, keys, 4), receiver_for(s.env.sender)},
        {encode_for_peer(s.env, keys, kPeer), kPeer},
    };
    for (const auto& c : cases) {
      const KeyTable rx = keys_for(c.receiver);
      EXPECT_EQ(decode_verified(c.frame, rx), s.env) << s.name;
      const auto parsed = parse_frame(c.frame);
      ASSERT_TRUE(parsed.has_value()) << s.name;
      EXPECT_EQ(parsed->env, s.env) << s.name;
      const ByteView frame = c.frame;
      for (std::size_t len = 0; len < frame.size(); ++len) {
        EXPECT_FALSE(parse_frame(frame.first(len)).has_value())
            << s.name << " prefix " << len;
        EXPECT_FALSE(decode_verified(frame.first(len), rx).has_value())
            << s.name << " prefix " << len;
      }
    }
  }
}

ClientTable sample_client_table() {
  ClientTable t;
  t[4] = ClientRecord{7, Reply{3, 4, 7, to_bytes("five")}};
  t[5] = ClientRecord{2, std::nullopt};
  return t;
}

chain::Blockchain sample_chain() {
  chain::Blockchain bc(2);  // seals one block, leaves one pending tx
  for (const char* op : {"put a 1", "put b 2", "del a"}) {
    (void)bc.execute(to_bytes(op));
  }
  return bc;
}

TEST(WireFormat, GoldenSnapshots) {
  EXPECT_EQ(to_hex(encode_client_table(sample_client_table())),
            "0200000004000000070000000000000001030000000000000004000000070000"
            "0000000000040000006669766505000000020000000000000000");

  CounterApp counter;
  (void)counter.execute(to_bytes("add:5"));
  EXPECT_EQ(to_hex(counter.snapshot()), "0500000000000000");

  EXPECT_EQ(to_hex(sample_chain().snapshot()),
            "0300000000000000010000000100000062010000003201000000010000000000"
            "0000e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852"
            "b8550200000000000000000000000700000070757420612031020000006f6b01"
            "000000000000000700000070757420622032020000006f6b0100000002000000"
            "000000000500000064656c2061020000006f6b");
}

TEST(WireFormat, SnapshotsRoundTripAndEveryStrictPrefixIsRejected) {
  const ClientTable table = sample_client_table();
  const Bytes table_bytes = encode_client_table(table);
  EXPECT_EQ(decode_client_table(table_bytes), table);
  for (std::size_t len = 0; len < table_bytes.size(); ++len) {
    EXPECT_FALSE(decode_client_table(ByteView(table_bytes).first(len)))
        << "client table prefix " << len;
  }

  CounterApp counter;
  (void)counter.execute(to_bytes("add:5"));
  const Bytes counter_snap = counter.snapshot();
  for (std::size_t len = 0; len < counter_snap.size(); ++len) {
    CounterApp fresh;
    EXPECT_FALSE(fresh.restore(ByteView(counter_snap).first(len),
                               counter.state_digest()))
        << "counter prefix " << len;
  }
  CounterApp restored;
  ASSERT_TRUE(restored.restore(counter_snap, counter.state_digest()));
  EXPECT_EQ(restored.value(), counter.value());

  const chain::Blockchain bc = sample_chain();
  const Bytes chain_snap = bc.snapshot();
  for (std::size_t len = 0; len < chain_snap.size(); ++len) {
    chain::Blockchain fresh(2);
    EXPECT_FALSE(
        fresh.restore(ByteView(chain_snap).first(len), bc.state_digest()))
        << "blockchain prefix " << len;
  }
  chain::Blockchain copy(2);
  ASSERT_TRUE(copy.restore(chain_snap, bc.state_digest()));
  EXPECT_EQ(copy.snapshot(), chain_snap);
  EXPECT_EQ(copy.state_digest(), bc.state_digest());
  EXPECT_EQ(copy.height(), bc.height());
  EXPECT_EQ(copy.get("b"), bc.get("b"));
}

TEST(WireFormat, GoldenDecisionLogSlot) {
  const SharedBytes slot = nio::DecisionLog::make_slot(
      5, 2, sim::microseconds(123), to_bytes("record"));
  EXPECT_EQ(to_hex(slot),
            "0500000000000000020000000000000078e00100000000000600000000000000"
            "7265636f72649329c08cefd054fd");
}

/// What a NIO client puts on a fresh connection to replica 0: its hello,
/// then one protocol frame, each behind a u32 length prefix. A bare
/// listener stands in for the replica and records the stream.
TEST(WireFormat, GoldenNioStream) {
  BftHarness h(Backend::kNio, 1, 1);
  auto listener = h.tcp().listen(h.layout().hosts[0], h.layout().base_port);
  auto client = h.make_transport(1);
  Bytes wire;
  h.sim().spawn([](Transport& t) -> sim::Task<> {
    co_await t.start();
    t.send(0, SharedBytes::copy_of(to_bytes("frame")));
    (void)co_await t.poll(sim::microseconds(100));
  }(*client));
  h.sim().spawn([](BftHarness& h, tcpsim::TcpListener& l,
                   Bytes& wire) -> sim::Task<> {
    std::shared_ptr<tcpsim::TcpSocket> sock;
    while ((sock = l.accept()) == nullptr) {
      co_await h.sim().sleep(sim::microseconds(10));
    }
    Bytes buf(256);
    for (int i = 0; i < 100; ++i) {
      const std::size_t n = co_await sock->read(buf);
      wire.insert(wire.end(), buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(n));
      co_await h.sim().sleep(sim::microseconds(10));
    }
  }(h, *listener, wire));
  h.sim().run_until(sim::milliseconds(5));
  EXPECT_EQ(to_hex(wire), "0400000001000000050000006672616d65");
}

}  // namespace
}  // namespace rubin::reptor
