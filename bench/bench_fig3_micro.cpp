// Reproduces Fig. 3 (a: latency, b: throughput): client-server echo with
// 1000 messages per payload size over TCP, raw RDMA Send/Receive, raw
// RDMA Read/Write, and the RUBIN RDMA Channel with its §IV optimizations.
//
// Acceptance shape (paper §V):
//   * Read/Write lowest latency: ~46 % below Send/Receive (small msgs),
//     TCP 53-79 % above Read/Write;
//   * RDMA Channel 33-43 % below TCP across the sweep;
//   * Channel beats Send/Receive by up to ~30 % below 16 KB (selective
//     signaling), degrades above (receive-side copy).
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/echo_kit.hpp"

using namespace rubin;
using namespace rubin::bench;
using namespace rubin::workloads;

int main() {
  print_header("Fig. 3 — RDMA Channel micro-benchmark (echo, 1000 msgs)",
               "TCP vs RDMA Send/Recv vs RDMA Read/Write vs RDMA Channel");
  std::printf("(virtual time; deterministic, so one run == the paper's 5-run average)\n\n");

  struct Row {
    std::size_t payload;
    EchoPoint tcp, sr, rw, chan;
  };
  std::vector<Row> rows;

  for (std::size_t payload : paper_payloads()) {
    EchoParams p;
    p.payload = payload;
    p.messages = 1000;
    Row row{payload,
            run_tcp_echo(p),
            run_sendrecv_echo(p),
            run_readwrite_echo(p),
            run_channel_echo(p, default_channel_config(payload))};
    rows.push_back(row);
  }

  std::printf("--- Fig. 3a: latency (us, mean round trip) ---\n");
  print_row({"payload", "TCP", "Send/Recv", "Read/Write", "RDMA-Channel"});
  for (const Row& r : rows) {
    print_row({kb(r.payload), fmt(r.tcp.latency_us), fmt(r.sr.latency_us),
               fmt(r.rw.latency_us), fmt(r.chan.latency_us)});
  }

  std::printf("\n--- Fig. 3b: throughput (krps, closed loop) ---\n");
  print_row({"payload", "TCP", "Send/Recv", "Read/Write", "RDMA-Channel"});
  for (const Row& r : rows) {
    print_row({kb(r.payload), fmt(r.tcp.krps, 2), fmt(r.sr.krps, 2),
               fmt(r.rw.krps, 2), fmt(r.chan.krps, 2)});
  }

  std::printf("\n--- shape checks vs. paper claims ---\n");
  auto pct_below = [](double a, double b) { return 100.0 * (1.0 - a / b); };
  const Row& small = rows.front();           // 1 KB
  const Row& large = rows.back();            // 100 KB
  print_ratio("R/W below Send/Recv @1KB   (paper ~46 %)",
              pct_below(small.rw.latency_us, small.sr.latency_us));
  print_ratio("TCP above R/W @1KB         (paper 53-79 %; ours overshoots)",
              100.0 * (small.tcp.latency_us / small.rw.latency_us - 1.0));
  print_ratio("TCP above R/W @100KB       (paper 53-79 %)",
              100.0 * (large.tcp.latency_us / large.rw.latency_us - 1.0));
  print_ratio("Channel below TCP @1KB     (paper 33-43 %)",
              pct_below(small.chan.latency_us, small.tcp.latency_us));
  print_ratio("Channel below TCP @100KB   (paper 33-43 %)",
              pct_below(large.chan.latency_us, large.tcp.latency_us));
  print_ratio("Channel below Send/Recv @1KB (paper: up to ~30 % below 16KB)",
              pct_below(small.chan.latency_us, small.sr.latency_us));
  print_ratio("Channel vs Send/Recv @100KB (paper: degraded; negative = worse)",
              pct_below(large.chan.latency_us, large.sr.latency_us));
  // Crossover: where the receive-side copy starts to beat the selective-
  // signaling gain (paper: around 16 KB).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].chan.latency_us > rows[i].sr.latency_us) {
      std::printf("  channel/Send-Recv crossover at %s (paper: ~16KB)\n",
                  kb(rows[i].payload).c_str());
      break;
    }
  }
}
