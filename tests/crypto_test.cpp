// Unit tests for src/crypto: SHA-256 and HMAC-SHA-256 against published
// vectors (FIPS 180-4 examples, RFC 4231), a differential test of the
// scalar and SHA-NI compression kernels, plus the PBFT authenticator key
// table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"

namespace rubin {
namespace {

std::string sha256_hex(std::string_view msg) {
  return to_hex(Sha256::hash(to_bytes(msg)));
}

// ------------------------------------------------------------- SHA-256 ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactlyOneBlock) {
  // 64 bytes: forces the padding into a second block.
  const std::string m(64, 'a');
  EXPECT_EQ(sha256_hex(m),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits padding in one block; 56 does not — both boundary cases.
  EXPECT_EQ(sha256_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk = to_bytes(std::string(1000, 'a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = patterned_bytes(10000, 42);
  Sha256 h;
  // Deliberately awkward chunking across block boundaries.
  std::size_t off = 0;
  std::size_t step = 1;
  while (off < msg.size()) {
    const std::size_t take = std::min(step, msg.size() - off);
    h.update(ByteView(msg).subspan(off, take));
    off += take;
    step = step * 2 + 1;
  }
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha256::hash(to_bytes("a")), Sha256::hash(to_bytes("b")));
}

// ------------------------------------------------- compression kernels ---
// The scalar kernel is the reference. Each kernel hashes through a
// test-side one-shot padder, so the two paths are compared directly and
// not through the dispatcher. The SHA-NI legs skip on CPUs without it;
// the scalar legs always run, so the fallback stays covered on hosts
// that dispatch to SHA-NI.

using sha256_detail::CompressFn;

CompressFn shani_or_null() {
#if defined(__x86_64__) || defined(__i386__)
  if (sha256_detail::shani_available()) return sha256_detail::compress_shani;
#endif
  return nullptr;
}

/// FIPS 180-4 padding, then every block in one kernel call.
Digest hash_with(CompressFn kernel, ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(h, padded.data(), padded.size() / 64);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void expect_fips_vectors(CompressFn kernel) {
  struct Vector {
    std::string msg;
    const char* hex;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(to_hex(hash_with(kernel, to_bytes(v.msg))), v.hex)
        << v.msg.size() << "-byte vector";
  }
}

TEST(Sha256Kernels, ScalarMatchesFipsVectors) {
  expect_fips_vectors(sha256_detail::compress_scalar);
}

TEST(Sha256Kernels, ShaniMatchesFipsVectors) {
  const CompressFn shani = shani_or_null();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI; scalar leg only";
  expect_fips_vectors(shani);
}

TEST(Sha256Kernels, DispatchPicksShaniWhenAvailable) {
  const CompressFn shani = shani_or_null();
  EXPECT_EQ(sha256_detail::compress(),
            shani != nullptr ? shani : sha256_detail::compress_scalar);
}

/// Every length 0..4200 (so 55/56/63/64/65 and each block boundary), in
/// random bytes copied to a random misalignment.
template <typename F>
void for_each_random_input(std::uint64_t seed, F&& check) {
  Rng rng(seed);
  Bytes storage(4200 + 16);
  for (std::size_t len = 0; len <= 4200; ++len) {
    const std::size_t skew = rng.next_below(16);
    for (std::size_t i = 0; i < len; ++i) {
      storage[skew + i] = static_cast<std::uint8_t>(rng.next());
    }
    check(ByteView(storage).subspan(skew, len), rng);
  }
}

TEST(Sha256Kernels, ShaniMatchesScalarOnRandomInputs) {
  const CompressFn shani = shani_or_null();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI; scalar leg only";
  for_each_random_input(7, [&](ByteView msg, Rng&) {
    ASSERT_EQ(hash_with(shani, msg),
              hash_with(sha256_detail::compress_scalar, msg))
        << "length " << msg.size();
  });
}

TEST(Sha256Kernels, StreamingMatchesScalarReference) {
  // Sha256 (the dispatched kernel) fed at random update() split points
  // must equal the scalar one-shot.
  for_each_random_input(8, [&](ByteView msg, Rng& rng) {
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = 1 + rng.next_below(std::min<std::size_t>(
                                       msg.size() - off, 200));
      h.update(msg.subspan(off, take));
      off += take;
    }
    ASSERT_EQ(h.finish(), hash_with(sha256_detail::compress_scalar, msg))
        << "length " << msg.size();
  });
}

// ---------------------------------------------------------------- HMAC ---
// Vectors from RFC 4231.

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest d = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Digest d = hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  // Key longer than one block must be hashed down first.
  const Bytes key(131, 0xaa);
  const Digest d = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  const Digest d = hmac_sha256(
      key,
      to_bytes("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."));
  EXPECT_EQ(to_hex(d),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, TruncatedMacIsPrefix) {
  const Bytes key = to_bytes("k");
  const Bytes msg = to_bytes("m");
  const Digest full = hmac_sha256(key, msg);
  const Mac mac = truncated_mac(key, msg);
  EXPECT_TRUE(std::equal(mac.begin(), mac.end(), full.begin()));
}

// ------------------------------------------------- HMAC midstate cache ---
// The cached ipad/opad midstates must be bit-identical to a from-scratch
// keyed hash — checked against the same RFC 4231 vectors as above.

TEST(HmacKey, MidstateMatchesRfc4231Vectors) {
  struct Case {
    Bytes key;
    Bytes msg;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There")},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?")},
      {Bytes(20, 0xaa), Bytes(50, 0xdd)},
      // Long key: hashed down before the pads — the midstates must bake
      // in the hashed key, not the raw one.
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First")},
  };
  for (const Case& c : cases) {
    const HmacKey cached(c.key);
    EXPECT_EQ(to_hex(cached.mac(c.msg)), to_hex(hmac_sha256(c.key, c.msg)));
    const Mac t = cached.truncated(c.msg);
    const Mac ref = truncated_mac(c.key, c.msg);
    EXPECT_TRUE(std::equal(t.begin(), t.end(), ref.begin()));
  }
}

TEST(HmacKey, ReusableAcrossMessages) {
  // One cached key, many messages: each MAC must be independent of the
  // previous one (the midstates are copied, never mutated).
  const Bytes key = to_bytes("k");
  const HmacKey k(key);
  const Digest first = k.mac(to_bytes("one"));
  (void)k.mac(to_bytes("two"));
  EXPECT_EQ(to_hex(k.mac(to_bytes("one"))), to_hex(first));
  EXPECT_EQ(to_hex(first), to_hex(hmac_sha256(key, to_bytes("one"))));
}

// The PBFT MAC rule: first 8 bytes of HMAC-SHA-256(k, SHA-256(body)).
// Pinned against a from-scratch keyed hash over the digest, for mac_for
// and for every slot of an authenticator.

TEST(KeyTable, CachedMacMatchesFromScratch) {
  const Bytes secret = to_bytes("group-secret");
  const KeyTable t(0, 4, secret);
  const Bytes msg = patterned_bytes(128, 9);
  for (std::uint32_t peer = 0; peer < 4; ++peer) {
    const Mac cached = t.mac_for(peer, msg);
    const Mac scratch = truncated_mac(t.key_for(peer), Sha256::hash(msg));
    EXPECT_TRUE(std::equal(cached.begin(), cached.end(), scratch.begin()))
        << "peer " << peer;
  }
}

TEST(KeyTable, AuthenticatorSlotsMatchFromScratch) {
  const KeyTable t(2, 6, to_bytes("group-secret"));
  const Bytes msg = patterned_bytes(1000, 4);
  const auto auth = t.authenticator(msg);
  ASSERT_EQ(auth.size(), 6u);
  for (std::uint32_t peer = 0; peer < 6; ++peer) {
    const Mac scratch = truncated_mac(t.key_for(peer), Sha256::hash(msg));
    EXPECT_TRUE(std::equal(auth[peer].begin(), auth[peer].end(),
                           scratch.begin()))
        << "slot " << peer;
  }
  // A replica-only authenticator is the prefix of the full one.
  const auto replicas = t.authenticator(msg, 4);
  ASSERT_EQ(replicas.size(), 4u);
  for (std::uint32_t peer = 0; peer < 4; ++peer) {
    EXPECT_EQ(replicas[peer], auth[peer]) << "slot " << peer;
  }
}

// ------------------------------------------------------------ KeyTable ---

TEST(KeyTable, PairwiseKeysAreSymmetric) {
  const Bytes secret = to_bytes("group-secret");
  KeyTable a(0, 4, secret);
  KeyTable b(1, 4, secret);
  EXPECT_EQ(to_hex(a.key_for(1)), to_hex(b.key_for(0)));
  EXPECT_NE(to_hex(a.key_for(1)), to_hex(a.key_for(2)));
}

TEST(KeyTable, MacVerifiesAcrossNodes) {
  const Bytes secret = to_bytes("s");
  KeyTable sender(2, 4, secret);
  KeyTable receiver(3, 4, secret);
  const Bytes msg = to_bytes("PRE-PREPARE v=0 n=1");
  const Mac mac = sender.mac_for(3, msg);
  EXPECT_TRUE(receiver.verify_from(2, msg, mac));
}

TEST(KeyTable, TamperedMessageFailsVerification) {
  const Bytes secret = to_bytes("s");
  KeyTable sender(0, 4, secret);
  KeyTable receiver(1, 4, secret);
  const Mac mac = sender.mac_for(1, to_bytes("original"));
  EXPECT_FALSE(receiver.verify_from(0, to_bytes("tampered"), mac));
}

TEST(KeyTable, WrongClaimedSenderFailsVerification) {
  const Bytes secret = to_bytes("s");
  KeyTable sender(0, 4, secret);
  KeyTable receiver(2, 4, secret);
  const Bytes msg = to_bytes("m");
  const Mac mac = sender.mac_for(2, msg);
  // Receiver checks the MAC as if it came from node 1 — must fail.
  EXPECT_FALSE(receiver.verify_from(1, msg, mac));
}

TEST(KeyTable, AuthenticatorHasOneMacPerMember) {
  KeyTable kt(1, 4, to_bytes("s"));
  const auto auth = kt.authenticator(to_bytes("m"));
  ASSERT_EQ(auth.size(), 4u);
  // Each receiver's slot verifies with its own key table.
  for (std::uint32_t j = 0; j < 4; ++j) {
    KeyTable other(j, 4, to_bytes("s"));
    EXPECT_TRUE(other.verify_from(1, to_bytes("m"), auth[j])) << "slot " << j;
  }
}

TEST(KeyTable, ByzantineSenderCanForgePartialAuthenticator) {
  // The attack PBFT's view-change machinery must tolerate: a faulty sender
  // puts a valid MAC for replica 2 and garbage for replica 3.
  KeyTable faulty(0, 4, to_bytes("s"));
  auto auth = faulty.authenticator(to_bytes("m"));
  auth[3] = Mac{};  // garbage slot
  KeyTable r2(2, 4, to_bytes("s"));
  KeyTable r3(3, 4, to_bytes("s"));
  EXPECT_TRUE(r2.verify_from(0, to_bytes("m"), auth[2]));
  EXPECT_FALSE(r3.verify_from(0, to_bytes("m"), auth[3]));
}

TEST(KeyTable, SelfIndexOutOfRangeThrows) {
  EXPECT_THROW(KeyTable(4, 4, to_bytes("s")), std::invalid_argument);
}

TEST(KeyTable, PeerOutOfRangeThrows) {
  KeyTable kt(0, 4, to_bytes("s"));
  EXPECT_THROW(kt.key_for(4), std::out_of_range);
}

TEST(KeyTable, DifferentGroupSecretsDiverge) {
  KeyTable a(0, 4, to_bytes("alpha"));
  KeyTable b(0, 4, to_bytes("beta"));
  EXPECT_NE(to_hex(a.key_for(1)), to_hex(b.key_for(1)));
}

}  // namespace
}  // namespace rubin
