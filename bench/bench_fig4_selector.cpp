// Reproduces Fig. 4 (a: latency, b: throughput): an echo server on the
// Reptor communication stack — window size 30, batching 10 — comparing
// the Java-NIO-style Poller/TCP backend against the RUBIN selector/RDMA
// backend. Both sides run the same Transport code; only the selector and
// wire change.
//
// Acceptance shape (paper §V):
//   * RUBIN latency ~19 % below TCP at 1 KB and ~20 % below at 100 KB,
//     with a weaker stretch in the 20-80 KB range (receive-side copy);
//   * RDMA throughput 25 % (100 KB) to 38 % (20 KB) above TCP.
#include <cstdio>

#include "bench_util.hpp"
#include "net/fabric.hpp"
#include "reptor/echo_stack.hpp"
#include "reptor/transport_nio.hpp"
#include "reptor/transport_rubin.hpp"
#include "rubin/context.hpp"
#include "tcpsim/tcp.hpp"
#include "verbs/cm.hpp"

using namespace rubin;
using namespace rubin::bench;
using namespace rubin::reptor;

namespace {

/// The swept series: the paper's two backends. kRubinSge (informational
/// section) keeps the RUBIN stack but posts each client message as a
/// two-slice FrameVec (id header + payload), exercising the
/// scatter/gather path end-to-end.
enum class Stack { kTcp, kRubin, kRubinSge };

EchoResult run_stack(Stack which, std::size_t payload, std::uint64_t messages) {
  const bool use_rubin = which != Stack::kTcp;
  sim::Simulator sim;
  net::Fabric fabric(sim, net::CostModel::roce_10g(), 2);
  GroupLayout layout;
  layout.replica_count = 1;  // the echo server plays "replica 0"
  layout.hosts = {0, 1};

  std::unique_ptr<tcpsim::TcpNetwork> tcp;
  std::unique_ptr<verbs::ConnectionManager> cm;
  std::vector<std::unique_ptr<verbs::Device>> devs;
  std::vector<std::unique_ptr<nio::RubinContext>> ctxs;

  std::unique_ptr<Transport> server_t;
  std::unique_ptr<Transport> client_t;
  if (use_rubin) {
    cm = std::make_unique<verbs::ConnectionManager>(fabric);
    for (net::HostId h = 0; h < 2; ++h) {
      devs.push_back(std::make_unique<verbs::Device>(fabric, h));
      ctxs.push_back(std::make_unique<nio::RubinContext>(*devs.back(), *cm));
    }
    nio::ChannelConfig ccfg;
    ccfg.buffer_count = 64;
    ccfg.buffer_size = 128 * 1024;
    // Reptor integration (paper §IV): the transport's frames are
    // transient, so the send path copies into the pool; the receive side
    // copies too. Zero-copy send stays off — exactly the configuration
    // the paper measured through Reptor.
    ccfg.zero_copy_send = false;
    server_t = std::make_unique<RubinTransport>(*ctxs[0], layout, 0, ccfg,
                                                /*batch_limit=*/10);
    client_t = std::make_unique<RubinTransport>(*ctxs[1], layout, 1, ccfg,
                                                /*batch_limit=*/10);
  } else {
    tcp = std::make_unique<tcpsim::TcpNetwork>(fabric);
    server_t = std::make_unique<NioTransport>(*tcp, layout, 0);
    client_t = std::make_unique<NioTransport>(*tcp, layout, 1);
  }

  // The Reptor stack's own per-message CPU (Java message objects,
  // serialization, queues) — identical for both backends, calibrated to
  // land absolute throughput near the paper's 10^4..10^5 rps band.
  StackCost stack;
  stack.per_message = sim::microseconds(1.5);
  stack.gbps = 40.0;  // ~5 GB/s serialization/deserialization
  server_t->set_stack_cost(stack);
  client_t->set_stack_cost(stack);

  auto server = std::make_unique<EchoServer>(sim, std::move(server_t));
  EchoClientConfig ecfg;
  ecfg.payload = payload;
  ecfg.window = 30;   // paper: window size 30
  ecfg.messages = messages;
  ecfg.multi_slice = which == Stack::kRubinSge;
  auto client = std::make_unique<EchoClient>(sim, std::move(client_t), ecfg);

  sim.spawn(server->run());
  sim.spawn(client->run());
  sim.run_until(sim::seconds(120));
  server->stop();
  sim.run_until(sim.now() + sim::milliseconds(10));
  return client->result();
}

}  // namespace

int main() {
  print_header("Fig. 4 — RUBIN vs Java NIO selector (Reptor echo stack)",
               "window=30, batching=10, 1000 msgs per payload");

  struct Row {
    std::size_t payload;
    EchoResult tcp, rubin;
  };
  std::vector<Row> rows;
  for (std::size_t payload : paper_payloads()) {
    rows.push_back(Row{payload, run_stack(Stack::kTcp, payload, 1000),
                       run_stack(Stack::kRubin, payload, 1000)});
  }

  std::printf("--- Fig. 4a: latency (us, mean; window-induced queueing included) ---\n");
  print_row({"payload", "TCP(NIO)", "Rubin(RDMA)", "rubin-vs-tcp"});
  for (const Row& r : rows) {
    print_row({kb(r.payload), fmt(r.tcp.mean_latency_us),
               fmt(r.rubin.mean_latency_us),
               fmt(100.0 * (1.0 - r.rubin.mean_latency_us / r.tcp.mean_latency_us)) + "%"});
  }

  std::printf("\n--- Fig. 4b: throughput (requests/s) ---\n");
  print_row({"payload", "TCP(NIO)", "Rubin(RDMA)", "rdma-vs-tcp"});
  for (const Row& r : rows) {
    print_row({kb(r.payload), fmt(r.tcp.requests_per_second, 0),
               fmt(r.rubin.requests_per_second, 0),
               fmt(100.0 * (r.rubin.requests_per_second /
                                r.tcp.requests_per_second - 1.0)) + "%"});
  }

  std::printf("\n--- shape checks vs. paper claims ---\n");
  const Row& small = rows.front();
  const Row& large = rows.back();
  print_ratio("RUBIN latency below TCP @1KB   (paper ~19 %)",
              100.0 * (1.0 - small.rubin.mean_latency_us / small.tcp.mean_latency_us));
  print_ratio("RUBIN latency below TCP @100KB (paper ~20 %)",
              100.0 * (1.0 - large.rubin.mean_latency_us / large.tcp.mean_latency_us));
  print_ratio("RDMA throughput above TCP @100KB (paper ~25 %)",
              100.0 * (large.rubin.requests_per_second /
                           large.tcp.requests_per_second - 1.0));
  double best = 0;
  std::size_t best_payload = 0;
  for (const Row& r : rows) {
    const double gain = 100.0 * (r.rubin.requests_per_second /
                                     r.tcp.requests_per_second - 1.0);
    if (gain > best) {
      best = gain;
      best_payload = r.payload;
    }
  }
  std::printf("  peak RDMA throughput gain: %.1f %% at %s (paper: ~38 %% at 20KB)\n",
              best, kb(best_payload).c_str());

  std::printf("\n--- multi-slice SGE client frames (informational) ---\n");
  // Same stack, but the client posts two-slice FrameVecs: the staging
  // gather memcpy (charge and physical copy) disappears from the send path. End-to-end the echo loop is wire/stack-bound, so the
  // virtual-time effect is a wash (small payloads can even shift batching
  // phase); the eliminated copy shows up as host CPU in bench_datapath
  // and as datapath.copy_bytes staying flat.
  print_row({"payload", "1-slice", "2-slice SGE", "delta"});
  for (const std::size_t payload : {std::size_t{1024}, std::size_t{102400}}) {
    const EchoResult flat = run_stack(Stack::kRubin, payload, 1000);
    const EchoResult sge = run_stack(Stack::kRubinSge, payload, 1000);
    print_row({kb(payload), fmt(flat.mean_latency_us), fmt(sge.mean_latency_us),
               fmt(100.0 * (sge.mean_latency_us / flat.mean_latency_us - 1.0)) +
                   "%"});
  }
}
