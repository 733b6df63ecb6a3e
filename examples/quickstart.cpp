// Quickstart: the RUBIN public API in ~100 lines.
//
// Builds a two-host simulated RoCE fabric, opens an RDMA channel through
// the connection manager, and runs a selector-driven echo server against
// a simple client — the minimal version of what the paper's Fig. 3
// measures. Everything is deterministic virtual time.
//
//   $ ./quickstart
#include <algorithm>
#include <cstdio>

#include "net/fabric.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"
#include "sim/simulator.hpp"
#include "verbs/cm.hpp"

using namespace rubin;

namespace {

// The echo server: one selector thread multiplexing accepts and reads —
// the Java-NIO programming model the paper recreates over RDMA (§III).
sim::Task<> echo_server(nio::RubinContext& ctx,
                        std::shared_ptr<nio::RdmaServerChannel> listener,
                        int expected_messages) {
  nio::RdmaSelector selector(ctx);
  selector.register_server(listener, nio::kOpConnect | nio::kOpAccept);

  Bytes buffer(64 * 1024);
  int echoed = 0;
  while (echoed < expected_messages) {
    const std::size_t ready = co_await selector.select(sim::milliseconds(10));
    if (ready == 0) break;  // idle timeout
    for (nio::RdmaSelectionKey* key : selector.selected()) {
      if (key->is_connectable()) {
        (void)listener->accept();  // complete the CM handshake
      }
      if (key->is_acceptable()) {
        while (auto channel = listener->next_established()) {
          std::printf("[server] accepted channel %llu from host %u\n",
                      static_cast<unsigned long long>(channel->id()),
                      channel->remote_host());
          selector.register_channel(std::move(channel), nio::kOpReceive);
        }
      }
      if (key->is_receivable() && key->channel()) {
        const std::size_t n = co_await key->channel()->read(buffer);
        if (n == 0) continue;
        std::size_t sent = 0;
        while (sent == 0) {
          sent = co_await key->channel()->write(ByteView(buffer).first(n));
        }
        ++echoed;
      }
    }
  }
  // Let the last posted echo leave the NIC before tearing the QPs down.
  co_await ctx.simulator().sleep(sim::milliseconds(1));
}

sim::Task<> echo_client(nio::RubinContext& ctx, int messages) {
  auto channel = ctx.connect(/*remote host=*/1, /*port=*/4711);
  while (channel->state() == nio::RdmaChannel::State::kConnecting) {
    co_await ctx.simulator().sleep(sim::microseconds(10));
  }
  std::printf("[client] connected, channel %llu\n",
              static_cast<unsigned long long>(channel->id()));

  // The channel registers raw send buffers by address (a DiSNI-style
  // cache), so the app sends from one long-lived buffer: a fresh heap
  // buffer per message would make the registration charge depend on
  // where malloc happens to put it.
  Bytes tx(64 * 1024);
  Bytes rx(64 * 1024);
  for (int i = 0; i < messages; ++i) {
    const std::size_t size = 1024 << (i % 4);  // 1, 2, 4, 8 KB
    const Bytes msg = patterned_bytes(size, static_cast<std::uint64_t>(i));
    std::copy(msg.begin(), msg.end(), tx.begin());
    const sim::Time t0 = ctx.simulator().now();

    std::size_t sent = 0;
    while (sent == 0) sent = co_await channel->write(ByteView(tx).first(size));
    const std::size_t n = co_await channel->read_await(rx);

    const bool intact =
        n == size && check_pattern(ByteView(rx).first(n), static_cast<std::uint64_t>(i));
    std::printf("[client] echo %2d: %5zu bytes in %6.1f us  %s\n", i, n,
                sim::to_us(ctx.simulator().now() - t0),
                intact ? "ok" : "CORRUPT");
  }
  const auto& stats = channel->stats();
  std::printf(
      "[client] channel stats: %llu sent (%llu inline, %llu zero-copy), "
      "%llu signaled completions, %llu doorbells\n",
      static_cast<unsigned long long>(stats.messages_sent),
      static_cast<unsigned long long>(stats.inline_sends),
      static_cast<unsigned long long>(stats.zero_copy_sends),
      static_cast<unsigned long long>(stats.signaled_completions),
      static_cast<unsigned long long>(stats.doorbells));
  channel->close();
}

}  // namespace

int main() {
  std::printf("RUBIN quickstart: RDMA-channel echo on a simulated 10G RoCE fabric\n\n");

  sim::Simulator sim;
  net::Fabric fabric(sim, net::CostModel::roce_10g(), /*hosts=*/2);
  verbs::Device client_dev(fabric, 0);
  verbs::Device server_dev(fabric, 1);
  verbs::ConnectionManager cm(fabric);
  nio::RubinContext client_ctx(client_dev, cm);
  nio::RubinContext server_ctx(server_dev, cm);

  constexpr int kMessages = 8;
  auto listener = server_ctx.listen(4711);
  sim.spawn(echo_server(server_ctx, listener, kMessages));
  sim.spawn(echo_client(client_ctx, kMessages));
  sim.run();

  std::printf("\ndone: %llu frames crossed the fabric, %.1f KB on the wire\n",
              static_cast<unsigned long long>(fabric.frames_delivered()),
              static_cast<double>(fabric.bytes_on_wire()) / 1024.0);
  return 0;
}
