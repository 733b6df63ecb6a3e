// "Java NIO" backend of the Reptor transport: tcpsim sockets multiplexed
// by the epoll-style Poller. TCP is a byte stream, so protocol frames are
// length-prefixed (u32) and reassembled per connection — the classic
// framing code RDMA's message orientation makes unnecessary.
#pragma once

#include <memory>

#include "reptor/transport.hpp"
#include "tcpsim/poller.hpp"
#include "tcpsim/tcp.hpp"

namespace rubin::reptor {

class NioTransport final : public Transport {
 public:
  NioTransport(tcpsim::TcpNetwork& net, GroupLayout layout, NodeId self);

  bool connected(NodeId peer) const override;
  sim::Task<void> start() override;

 private:
  sim::Task<void> flush() override;
  /// Frames queued, or encoded bytes the kernel buffer has not taken yet.
  bool backlog() const override;
  sim::Task<std::size_t> select(sim::Time timeout) override {
    return poller_.select(timeout);
  }
  sim::Task<void> drain_selected(std::vector<InboundMsg>& out) override;
  void wakeup() override { poller_.wakeup(); }

  struct Conn {
    std::shared_ptr<tcpsim::TcpSocket> socket;
    Bytes rx_acc;       // reassembly buffer
    Bytes tx_pending;   // encoded-but-unsent bytes (partial writes)
    std::size_t tx_off = 0;
    bool identified = false;
  };

  sim::Task<void> drain_socket(Conn& conn);
  /// Moves every complete frame out of `conn.rx_acc`. On an unidentified
  /// connection the first frame is the hello, which rewrites `attachment`
  /// to the peer it names; false when that hello is invalid.
  bool extract_frames(Conn& conn, std::uint64_t& attachment,
                      std::vector<InboundMsg>& out);

  tcpsim::TcpNetwork* net_;
  tcpsim::Poller poller_;
  std::shared_ptr<tcpsim::TcpListener> listener_;
  std::map<NodeId, Conn> conns_;
  /// Accepted sockets whose hello has not arrived yet, keyed by a
  /// temporary id carried in the poller attachment.
  std::map<std::uint64_t, Conn> unidentified_;
  std::uint64_t next_temp_ = 0;
  Bytes rx_buf_;
};

}  // namespace rubin::reptor
