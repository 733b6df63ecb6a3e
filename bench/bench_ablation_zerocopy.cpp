// Ablation A3 (paper §IV + §VII): buffer copies on the channel's data
// path. Three send/receive strategies:
//   copy      — copy into the pooled send buffer; receive-side copy
//               (the fully-copying baseline)
//   zc-send   — register the application send buffer (the paper's
//               implemented optimization); receive-side copy remains
//   zc-both   — additionally hand the receive pool buffer to the app
//               without a copy (the paper's *planned* future work)
// The paper: copy for <=256 B messages, register beyond; and the receive
// copy is the measured large-message degradation in Figs. 3/4.
#include <cstdio>

#include "bench_util.hpp"
#include "common/codec.hpp"
#include "workloads/bft_harness.hpp"
#include "workloads/echo_kit.hpp"

using namespace rubin;
using namespace rubin::bench;
using namespace rubin::workloads;

namespace {

/// Mean request latency of a 4-replica PBFT group with the deployment
/// flag applied to every transport in the group (replicas and clients).
double run_bft_zerocopy(std::size_t request_size, bool zero_copy_receive) {
  reptor::BftHarness h(reptor::Backend::kRubin, 4, 1);
  nio::ChannelConfig ccfg = h.channel_config();
  ccfg.zero_copy_receive = zero_copy_receive;
  h.set_channel_config(ccfg);
  reptor::ReplicaConfig cfg;
  cfg.batch_size = 8;
  cfg.batch_timeout = sim::microseconds(100);
  cfg.checkpoint_interval = 32;
  h.add_replicas({}, cfg);
  auto& client = h.add_client(4);
  int done = 0;
  h.sim().spawn([](reptor::Client& cl, std::size_t size,
                   int& done) -> sim::Task<> {
    co_await cl.start();
    std::string op = "add:1";
    op.resize(std::max(op.size(), size), 'x');
    for (int i = 0; i < 60; ++i) (void)co_await cl.invoke(to_bytes(op));
    ++done;
  }(client, request_size, done));
  while (done < 1 && h.sim().now() < sim::seconds(20)) {
    h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  }
  h.stop_all();
  return h.client(0).latencies().mean();
}

}  // namespace

int main() {
  print_header("Ablation A3 — copy vs register (RDMA channel echo)",
               "send: pool-copy vs registered app buffer; recv: copy vs zero-copy");

  print_row({"payload", "copy", "zc-send", "zc-both", "send-gain", "recv-gain"});
  for (std::size_t payload :
       {std::size_t{256}, std::size_t{1024}, std::size_t{4096},
        std::size_t{16 * 1024}, std::size_t{64 * 1024},
        std::size_t{100 * 1024}}) {
    EchoParams p;
    p.payload = payload;
    p.messages = 500;

    nio::ChannelConfig copy = default_channel_config(payload);
    copy.zero_copy_send = false;
    copy.inline_threshold = 0;  // isolate the copy question
    nio::ChannelConfig zc_send = copy;
    zc_send.zero_copy_send = true;
    nio::ChannelConfig zc_both = zc_send;
    zc_both.zero_copy_receive = true;

    const double l_copy = run_channel_echo(p, copy).latency_us;
    const double l_send = run_channel_echo(p, zc_send).latency_us;
    const double l_both = run_channel_echo(p, zc_both).latency_us;
    print_row({kb(payload), fmt(l_copy), fmt(l_send), fmt(l_both),
               fmt(100.0 * (1.0 - l_send / l_copy)) + "%",
               fmt(100.0 * (1.0 - l_both / l_send)) + "%"});
  }
  std::printf(
      "\nsend-gain: registering the app buffer instead of copying (paper: done);\n"
      "recv-gain: removing the receive-side copy (paper: future work, §VII).\n"
      "Small messages gain little (fixed costs dominate; paper keeps copying\n"
      "below 256B and inlines them instead); large messages gain the most.\n");

  // The deployment opt-in, end to end: the zero_copy_receive flag plumbed
  // through the harness reaches every transport of a PBFT group, so this
  // measures what a *deployment* gains by flipping it — agreement compute
  // dilutes the per-frame copy saving the echo rows isolate.
  std::printf("\n--- deployment opt-in: PBFT f=1 request latency, "
              "zero_copy_receive off vs on ---\n");
  print_row({"req-size", "copy-recv", "zc-recv", "gain"});
  for (std::size_t size : {std::size_t{1024}, std::size_t{16 * 1024},
                           std::size_t{64 * 1024}}) {
    const double off = run_bft_zerocopy(size, false);
    const double on = run_bft_zerocopy(size, true);
    print_row({kb(size), fmt(off), fmt(on),
               fmt(100.0 * (1.0 - on / off)) + "%"});
  }
  return 0;
}
