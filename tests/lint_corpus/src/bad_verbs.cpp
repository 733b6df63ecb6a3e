// Corpus: verbs-discarded-post. A send post whose PostResult is cast away
// loses kQueueFull and kInvalidState without a trace — the shape of an ack
// path that never signaled, filled its send queue and went quiet.
namespace corpus {

sim::Task<> ack_all(verbs::QueuePair& qp, verbs::SendWr wr) {
  wr.signaled = false;
  (void)co_await qp.post_send_one(wr);  // lint-expect(verbs-discarded-post)
}

sim::Task<> burst(std::shared_ptr<verbs::QueuePair> qp,
                  std::span<verbs::SendWr> wrs) {
  (void)co_await qp->post_send(  // lint-expect(verbs-discarded-post)
      wrs);
}

}  // namespace corpus
