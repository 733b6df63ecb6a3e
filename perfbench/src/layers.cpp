// Counter snapshots, percentile helpers, the counter-derived per-layer
// metrics, and the timed probes of the crypto and counter layers.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.hpp"
#include "common/audit.hpp"
#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace perfbench {

Counters snapshot_counters() {
  Counters out;
  for (const auto& [name, v] : rubin::stats::counters_snapshot()) {
    out["stats/" + name] = v;
  }
  for (const auto& [name, v] : rubin::audit::counters()) {
    out["audit/" + name] = v;
  }
  return out;
}

void reset_counters() {
  rubin::stats::reset_counters();
  rubin::audit::reset_counters();
}

namespace {

std::uint64_t counter(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

/// Nearest-rank percentile (q in [0, 1]) of `v`, which it sorts.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace

double shown_p99(double samples, double p99) {
  // The highest percentile reported is the one with at least ten samples
  // beyond it; with fewer, p99 would be a single outlier's value.
  return samples - std::ceil(0.99 * samples) >= 10 ? p99 : 0.0;
}

void add_latency(Values& out, const std::string& prefix,
                 std::vector<double> samples_us) {
  const auto n = static_cast<double>(samples_us.size());
  out[prefix + "_samples"] = n;
  out[prefix + "_p50_us"] = percentile(samples_us, 0.5);
  out[prefix + "_p99_us"] = shown_p99(n, percentile(samples_us, 0.99));
}

void add_counter_layers(Values& out, const Counters& c, double ops) {
  const auto a = [&c](const std::string& name) {
    return static_cast<double>(counter(c, "audit/" + name));
  };
  const auto put = [&out](const std::string& name, double v) {
    out[name] = rubin::audit::enabled() ? v : kAbsent;
  };
  const double uf_heap = a("sim.uf.heap");
  put("sim.uf_heap_share", ratio(uf_heap, uf_heap + a("sim.uf.inline")));
  const double reuse = a("sim.frame_pool.reuse");
  put("common.frame_pool_reuse_share",
      ratio(reuse, reuse + a("sim.frame_pool.fresh")));
  put("common.copy_bytes_per_op", ratio(a("datapath.copy_bytes"), ops));
  put("common.recv_copy_bytes_per_op",
      ratio(a("datapath.recv_copy_bytes"), ops));

  const char* kinds[] = {"inline", "send_recv", "write", "read"};
  double picks = 0;
  for (const char* k : kinds) picks += a(std::string("transport.pick.") + k);
  for (const char* k : kinds) {
    put(std::string("rubin.pick_share.") + k,
        ratio(a(std::string("transport.pick.") + k), picks));
  }

  put("verbs.srq.stolen_per_op", ratio(a("verbs.srq.stolen"), ops));
  put("verbs.srq.rnr_backpressure_per_op",
      ratio(a("verbs.srq.rnr_backpressure"), ops));
  put("verbs.srq.limit_events", a("verbs.srq.limit_events"));
}

namespace {

/// Probe results land here so the optimizer cannot drop the probed calls.
volatile std::uint64_t g_probe_sink = 0;

/// Fastest over `batches` of the ns per unit of `body`, which runs `reps`
/// times per batch and does `units` units of work each time.
template <typename F>
double probe_ns(int batches, int reps, double units, F&& body) {
  double best = 0;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) body(i);
    const double ns = seconds_since(t0) * 1e9 / (reps * units);
    best = b == 0 ? ns : std::min(best, ns);
  }
  return best;
}

}  // namespace

void add_probes(Values& out) {
  // Inputs at the pbft workload's sizes: 4 KiB for the hash, 1 KiB for
  // the MACs, and the 8-node group (4 replicas + 4 clients) for the
  // authenticator vector.
  rubin::Bytes msg4k(4096);
  rubin::Bytes msg1k(1024);
  for (std::size_t i = 0; i < msg4k.size(); ++i) {
    msg4k[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t i = 0; i < msg1k.size(); ++i) msg1k[i] = msg4k[i];
  std::uint64_t sink = 0;

  // 4096 bytes are 64 blocks plus one padding block.
  out["crypto.sha256_ns_per_block"] =
      probe_ns(5, 400, 65, [&](int i) {
        msg4k[0] = static_cast<std::uint8_t>(i);
        sink += rubin::Sha256::hash(msg4k)[0];
      });
  const rubin::HmacKey key(rubin::to_bytes("perfbench-probe-key"));
  out["crypto.mac_ns_1k"] = probe_ns(5, 2000, 1, [&](int i) {
    msg1k[0] = static_cast<std::uint8_t>(i);
    sink += key.truncated(msg1k)[0];
  });
  const rubin::KeyTable keys(0, 8, rubin::to_bytes("bft-group-secret"));
  out["crypto.authenticator_ns_1k"] = probe_ns(5, 300, 1, [&](int i) {
    msg1k[0] = static_cast<std::uint8_t>(i);
    sink += keys.authenticator(msg1k)[1][0];
  });

  // One audit::count plus one stats::counter_add per rep, on names the
  // workloads tick, in the registries as the workload left them.
  out["common.counter_ns"] = probe_ns(5, 100000, 2, [](int) {
    rubin::audit::count("sim.schedule.resume");
    rubin::stats::counter_add("fabric.frames_dropped");
  });
  reset_counters();
  g_probe_sink = sink;
}

}  // namespace perfbench
