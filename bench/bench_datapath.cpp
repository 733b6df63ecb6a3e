// Wall-clock microbenchmarks of the zero-copy data plane (google-
// benchmark): SharedBytes handle traffic vs physical copies, the SHA-256
// compression kernels (scalar reference vs the dispatched one), HMAC with
// cached ipad/opad midstates vs from-scratch keyed hashing, and the
// multicast frame-encode path that combines them. Real time is the right
// metric here — these paths run on the host for every simulated message,
// so they bound how fast the big benches execute.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/shared_bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_detail.hpp"
#include "reptor/messages.hpp"
#include "verbs/types.hpp"

namespace {

using namespace rubin;

void BM_PayloadCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const SharedBytes src = SharedBytes::copy_of(patterned_bytes(n, 1));
  for (auto _ : state) {
    SharedBytes copy = SharedBytes::copy_of(src.view());
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PayloadCopy)->Arg(1024)->Arg(65536);

void BM_PayloadShare(benchmark::State& state) {
  // The zero-copy counterpart of BM_PayloadCopy: what a broadcast hop
  // costs per peer once payloads travel by handle.
  const auto n = static_cast<std::size_t>(state.range(0));
  const SharedBytes src = SharedBytes::copy_of(patterned_bytes(n, 1));
  for (auto _ : state) {
    SharedBytes ref = src;
    benchmark::DoNotOptimize(ref.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PayloadShare)->Arg(1024)->Arg(65536);

void BM_SharedBytesSlice(benchmark::State& state) {
  const SharedBytes src = SharedBytes::copy_of(patterned_bytes(65536, 2));
  std::size_t off = 0;
  for (auto _ : state) {
    SharedBytes s = src.slice(off, 4096);
    benchmark::DoNotOptimize(s.data());
    off = (off + 4096) % 61440;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedBytesSlice);

void BM_Sha256_4KiB(benchmark::State& state,
                    sha256_detail::CompressFn kernel) {
  // 64 blocks in one kernel call, as Sha256::update hands them over.
  // `dispatched` is what Sha256 runs on this CPU (SHA-NI when present).
  const Bytes msg = patterned_bytes(4096, 4);
  std::uint32_t h[8] = {};
  for (auto _ : state) {
    kernel(h, msg.data(), msg.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.size()));
}
BENCHMARK_CAPTURE(BM_Sha256_4KiB, scalar, sha256_detail::compress_scalar);
BENCHMARK_CAPTURE(BM_Sha256_4KiB, dispatched, sha256_detail::compress());

void BM_HmacFromScratch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes key = to_bytes("session-key");
  const Bytes msg = patterned_bytes(n, 3);
  for (auto _ : state) {
    Digest d = hmac_sha256(key, msg);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HmacFromScratch)->Arg(64)->Arg(1024);

void BM_HmacMidstate(benchmark::State& state) {
  // Cached ipad/opad midstates: each MAC skips the two key-block
  // compressions. The win is largest on the short messages PBFT
  // authenticators actually cover.
  const auto n = static_cast<std::size_t>(state.range(0));
  const HmacKey key(to_bytes("session-key"));
  const Bytes msg = patterned_bytes(n, 3);
  for (auto _ : state) {
    Digest d = key.mac(msg);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HmacMidstate)->Arg(64)->Arg(1024);

FrameVec multi_slice_frame(std::size_t total) {
  // A typical protocol frame: an 8-byte header slice plus the payload
  // split across the remaining inline slice slots.
  const std::size_t body = total - 8;
  FrameVec fv;
  fv.append(SharedBytes::copy_of(patterned_bytes(8, 7)));
  fv.append(SharedBytes::copy_of(patterned_bytes(body / 2, 8)));
  fv.append(SharedBytes::copy_of(patterned_bytes(body - body / 2, 9)));
  return fv;
}

void BM_FramePostFlattened(benchmark::State& state) {
  // What the pre-PR send path did with a multi-slice frame: gather every
  // slice into one contiguous staging buffer before posting (the
  // datapath.copy_bytes memcpy).
  const auto n = static_cast<std::size_t>(state.range(0));
  const FrameVec frame = multi_slice_frame(n);
  Bytes staging(n);
  for (auto _ : state) {
    const std::size_t copied = frame.copy_to(MutByteView(staging));
    benchmark::DoNotOptimize(staging.data());
    benchmark::DoNotOptimize(copied);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FramePostFlattened)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_FramePostMultiSge(benchmark::State& state) {
  // The scatter/gather post path: build one SGE per slice (address +
  // length into registered space) and let the refcounted handles ride the
  // WR. No byte of payload is touched — this is the whole replacement
  // for the gather above, at any payload size.
  const auto n = static_cast<std::size_t>(state.range(0));
  const FrameVec frame = multi_slice_frame(n);
  for (auto _ : state) {
    verbs::SgeList sges;
    std::uint64_t addr = 0x1000;
    for (const SharedBytes& s : frame) {
      sges.push_back(verbs::Sge{addr, static_cast<std::uint32_t>(s.size()), 1});
      addr += s.size();
    }
    FrameVec ride = frame;  // the WR's payload references (refcount bumps)
    benchmark::DoNotOptimize(sges.total_length());
    benchmark::DoNotOptimize(ride.slice_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FramePostMultiSge)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_EncodeForReplicas(benchmark::State& state) {
  // The PRE-PREPARE multicast encode: serialize once, hash the body once,
  // MAC the digest per peer with cached midstates, return one refcounted
  // frame shared by every send.
  const auto payload = static_cast<std::size_t>(state.range(0));
  const KeyTable keys(0, 4, to_bytes("group-secret"));
  reptor::PrePrepare pp;
  pp.view = 1;
  pp.seq = 7;
  pp.batch.push_back(reptor::Request{4, 1, patterned_bytes(payload, 5)});
  pp.digest = reptor::batch_digest(pp.batch);
  const reptor::Envelope env{0, reptor::Message{pp}};
  for (auto _ : state) {
    SharedBytes frame = reptor::encode_for_replicas(env, keys, 4);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeForReplicas)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
