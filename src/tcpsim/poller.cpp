#include "tcpsim/poller.hpp"

namespace rubin::tcpsim {

std::uint32_t Poller::ready_of(TcpSocket& s) {
  std::uint32_t ready = 0;
  if (s.readable_bytes() > 0 || s.eof()) ready |= kOpRead;
  if (s.state() == TcpSocket::State::kEstablished && s.writable_bytes() > 0) {
    ready |= kOpWrite;
  }
  if (s.state() != TcpSocket::State::kConnecting) ready |= kOpConnect;
  return ready;
}

std::uint32_t Poller::ready_of(TcpListener& l) {
  return l.pending() > 0 ? std::uint32_t{kOpAccept} : 0;
}

}  // namespace rubin::tcpsim
