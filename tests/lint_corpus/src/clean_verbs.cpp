// Corpus: clean twins of verbs-discarded-post — every send post's result
// is looked at, and a discarded receive post or channel write is not a
// send post. rubinlint must stay silent on every line of this file.
namespace corpus {

sim::Task<bool> ack_all(verbs::QueuePair& qp, verbs::SendWr wr) {
  wr.signaled = qp.needs_signal();
  co_return co_await qp.post_send_one(wr) == verbs::PostResult::kOk;
}

sim::Task<> burst(verbs::QueuePair& qp, std::span<verbs::SendWr> wrs) {
  const auto r = co_await qp.post_send(wrs);
  if (r != verbs::PostResult::kOk) co_return;
  (void)co_await qp.post_recv_one(verbs::RecvWr{});
}

sim::Task<> push(nio::OneSidedChannel& wc, const Bytes& frame) {
  (void)co_await wc.write(frame);
}

sim::Task<> probe(verbs::QueuePair& qp, verbs::SendWr wr) {
  // rubinlint:allow(verbs-discarded-post) the probe only charges CPU time
  (void)co_await qp.post_send_one(wr);
}

}  // namespace corpus
