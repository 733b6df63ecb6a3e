// Unit tests for PBFT message encoding + authenticators.
#include <gtest/gtest.h>

#include "reptor/messages.hpp"

namespace rubin::reptor {
namespace {

KeyTable keys_for(NodeId self) { return KeyTable(self, 6, to_bytes("secret")); }

Request make_request(NodeId client, std::uint64_t id, std::size_t op_size) {
  return Request{client, id, patterned_bytes(op_size, id)};
}

TEST(Messages, RequestRoundTrip) {
  const Request req = make_request(4, 7, 100);
  const SharedBytes frame =
      encode_for_replicas(Envelope{4, Message{req}}, keys_for(4), 4);
  const auto env = decode_verified(frame, keys_for(2));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->sender, 4u);
  ASSERT_TRUE(std::holds_alternative<Request>(env->msg));
  EXPECT_EQ(std::get<Request>(env->msg), req);
}

TEST(Messages, PrePrepareRoundTripWithBatch) {
  PrePrepare pp;
  pp.view = 3;
  pp.seq = 42;
  pp.batch = {make_request(4, 1, 64), make_request(5, 9, 256)};
  pp.digest = batch_digest(pp.batch);
  const SharedBytes frame =
      encode_for_replicas(Envelope{0, Message{pp}}, keys_for(0), 4);
  const auto env = decode_verified(frame, keys_for(1));
  ASSERT_TRUE(env.has_value());
  const auto& out = std::get<PrePrepare>(env->msg);
  EXPECT_EQ(out.view, 3u);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.digest, pp.digest);
  ASSERT_EQ(out.batch.size(), 2u);
  EXPECT_EQ(out.batch[1], pp.batch[1]);
}

TEST(Messages, PrepareCommitReplyCheckpointRoundTrip) {
  const Digest d = Sha256::hash(to_bytes("x"));
  for (Message m : {Message{Prepare{1, 2, d}}, Message{Commit{1, 2, d}},
                    Message{Checkpoint{64, d}}}) {
    const SharedBytes frame =
        encode_for_replicas(Envelope{2, m}, keys_for(2), 4);
    const auto env = decode_verified(frame, keys_for(0));
    ASSERT_TRUE(env.has_value()) << type_name(m);
    EXPECT_STREQ(type_name(env->msg), type_name(m));
  }
  Reply r{5, 4, 99, to_bytes("result")};
  const SharedBytes frame = encode_for_peer(Envelope{1, Message{r}}, keys_for(1), 4);
  const auto env = decode_verified(frame, keys_for(4));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(std::get<Reply>(env->msg).result, to_bytes("result"));
}

TEST(Messages, ViewChangeCarriesBatches) {
  ViewChange vc;
  vc.new_view = 2;
  vc.stable_seq = 10;
  PreparedProof proof;
  proof.view = 1;
  proof.seq = 12;
  proof.batch = {make_request(4, 3, 128)};
  proof.digest = batch_digest(proof.batch);
  vc.prepared.push_back(proof);
  const SharedBytes frame =
      encode_for_replicas(Envelope{3, Message{vc}}, keys_for(3), 4);
  const auto env = decode_verified(frame, keys_for(0));
  ASSERT_TRUE(env.has_value());
  const auto& out = std::get<ViewChange>(env->msg);
  ASSERT_EQ(out.prepared.size(), 1u);
  EXPECT_EQ(out.prepared[0].digest, proof.digest);
  ASSERT_EQ(out.prepared[0].batch.size(), 1u);
  EXPECT_EQ(out.prepared[0].batch[0], proof.batch[0]);
}

TEST(Messages, NewViewRoundTrip) {
  NewView nv;
  nv.view = 2;
  nv.voters = {1, 2, 3};
  PrePrepare pp;
  pp.view = 2;
  pp.seq = 5;
  pp.digest = batch_digest(pp.batch);
  nv.pre_prepares.push_back(pp);
  const SharedBytes frame =
      encode_for_replicas(Envelope{2, Message{nv}}, keys_for(2), 4);
  const auto env = decode_verified(frame, keys_for(1));
  ASSERT_TRUE(env.has_value());
  const auto& out = std::get<NewView>(env->msg);
  EXPECT_EQ(out.voters, nv.voters);
  ASSERT_EQ(out.pre_prepares.size(), 1u);
  EXPECT_TRUE(out.pre_prepares[0].batch.empty());
}

TEST(Messages, TamperedPayloadFailsVerification) {
  SharedBytes frame = encode_for_replicas(
      Envelope{0, Message{Prepare{1, 2, Sha256::hash(to_bytes("x"))}}},
      keys_for(0), 4);
  frame.mutable_data()[6] ^= 0x01;  // flip a payload bit (sole owner)
  EXPECT_FALSE(decode_verified(frame, keys_for(1)).has_value());
  // The structural parse still accepts it (structure intact).
  EXPECT_TRUE(parse_frame(frame).has_value());
}

TEST(Messages, WrongClaimedSenderFailsVerification) {
  // Node 2 encodes but claims to be node 1.
  const SharedBytes frame = encode_for_replicas(
      Envelope{1, Message{Prepare{0, 1, Digest{}}}}, keys_for(2), 4);
  EXPECT_FALSE(decode_verified(frame, keys_for(3)).has_value());
}

TEST(Messages, PartialAuthenticatorAttack) {
  // A Byzantine sender corrupts the MAC slot of replica 2 only: replica 1
  // accepts the message, replica 2 rejects it.
  SharedBytes frame = encode_for_replicas(
      Envelope{0, Message{Commit{0, 1, Digest{}}}}, keys_for(0), 4);
  const std::size_t macs_off = frame.size() - 4 * sizeof(Mac);
  frame.mutable_data()[macs_off + 2 * sizeof(Mac)] ^= 0xFF;
  EXPECT_TRUE(decode_verified(frame, keys_for(1)).has_value());
  EXPECT_FALSE(decode_verified(frame, keys_for(2)).has_value());
}

TEST(Messages, TruncatedFrameRejected) {
  const SharedBytes frame = encode_for_replicas(
      Envelope{0, Message{Prepare{1, 2, Digest{}}}}, keys_for(0), 4);
  for (std::size_t cut : {1ul, 8ul, frame.size() / 2, frame.size() - 1}) {
    EXPECT_FALSE(
        decode_verified(frame.view().first(cut), keys_for(1)).has_value())
        << "cut at " << cut;
  }
}

TEST(Messages, GarbageRejected) {
  const Bytes junk = patterned_bytes(200, 99);
  EXPECT_FALSE(decode_verified(junk, keys_for(0)).has_value());
  EXPECT_FALSE(parse_frame(junk).has_value());
}

TEST(Messages, BatchDigestIsOrderSensitive) {
  const Request a = make_request(4, 1, 32);
  const Request b = make_request(5, 2, 32);
  EXPECT_NE(batch_digest({a, b}), batch_digest({b, a}));
  EXPECT_EQ(batch_digest({a, b}), batch_digest({a, b}));
  EXPECT_NE(batch_digest({}), batch_digest({a}));
}

TEST(Messages, SingleMacFrameOnlyVerifiesAtTarget) {
  const SharedBytes frame = encode_for_peer(
      Envelope{1, Message{Reply{0, 4, 1, to_bytes("r")}}}, keys_for(1), 4);
  EXPECT_TRUE(decode_verified(frame, keys_for(4)).has_value());
  EXPECT_FALSE(decode_verified(frame, keys_for(5)).has_value());
}

TEST(Messages, ZeroMacCountFrameIsRejected) {
  // A frame that declares no MACs and carries no trailer passes the
  // trailer length check; the verified decoder must reject it, not read
  // a MAC that is not there.
  const SharedBytes frame = encode_for_peer(
      Envelope{1, Message{Reply{0, 4, 1, to_bytes("r")}}}, keys_for(1), 4);
  Bytes forged(frame.view().begin(),
               frame.view().end() - static_cast<std::ptrdiff_t>(1 + sizeof(Mac)));
  forged.push_back(0);
  EXPECT_FALSE(decode_verified(forged, keys_for(4)).has_value());
  EXPECT_TRUE(parse_frame(forged).has_value());
}

}  // namespace
}  // namespace rubin::reptor
