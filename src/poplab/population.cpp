#include "poplab/population.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/audit.hpp"
#include "common/counters.hpp"

namespace rubin::poplab {

namespace {

/// wr_id of inline request sends — nothing to release at completion.
constexpr std::uint64_t kInlineWr = ~0ULL;
/// Staging-slot wr_ids are offset by one: wr_id 0 is reserved for the
/// transport-retry watchdog's synthetic completion (same rule as the mux).
constexpr std::uint64_t kSlotBase = 1;

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// ArrivalStream

ArrivalStream::ArrivalStream(const CohortSpec& spec, std::uint64_t seed,
                             sim::Time horizon)
    : spec_(spec),
      rng_(seed),
      ops_(spec.op_space, spec.zipf_theta),
      payload_(spec.payload_lo, spec.payload_hi, spec.payload_alpha),
      horizon_(horizon) {
  switch (spec_.arrival.kind) {
    case ArrivalSchedule::Kind::kSteady:
      peak_rps_ = spec_.arrival.base_rps;
      break;
    case ArrivalSchedule::Kind::kRamp:
    case ArrivalSchedule::Kind::kStep:
    case ArrivalSchedule::Kind::kBurst:
      peak_rps_ = std::max(spec_.arrival.base_rps, spec_.arrival.peak_rps);
      break;
  }
}

std::optional<Arrival> ArrivalStream::next() {
  if (peak_rps_ <= 0.0) return std::nullopt;
  // Non-homogeneous Poisson by thinning: candidate arrivals at the peak
  // rate, each accepted with probability rate_at/peak. Every candidate
  // consumes exactly two uniform draws, so the stream's draw sequence —
  // and therefore the schedule — is a pure function of (spec, seed).
  const double mean_gap_ns = 1e9 / peak_rps_;
  for (;;) {
    const auto gap = static_cast<sim::Time>(exponential(rng_, mean_gap_ns));
    elapsed_ += gap > 0 ? gap : 1;
    if (elapsed_ >= horizon_) return std::nullopt;
    const double accept = rng_.next_double() * peak_rps_;
    if (accept < spec_.arrival.rate_at(elapsed_)) break;
  }
  Arrival a;
  a.at = elapsed_;
  a.client = static_cast<std::uint32_t>(rng_.next_below(spec_.clients));
  a.op = static_cast<std::uint16_t>(ops_.sample(rng_));
  a.bytes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(payload_.sample_size(rng_), 1ULL << 20));
  return a;
}

// ---------------------------------------------------------------------------
// Population

std::uint32_t Population::host_count(const PopulationSpec& spec,
                                     const PopulationConfig& cfg) {
  const std::uint32_t total = spec.total_clients();
  const std::uint32_t machines =
      (total + cfg.clients_per_host - 1) / cfg.clients_per_host;
  return machines + 1;
}

Population::Population(net::Fabric& fabric, PopulationSpec spec,
                       PopulationConfig cfg)
    : fabric_(&fabric),
      sim_(&fabric.simulator()),
      spec_(std::move(spec)),
      cfg_(cfg),
      cm_(fabric),
      all_connected_(*sim_) {
  if (spec_.cohorts.empty()) {
    throw std::invalid_argument("Population: spec has no cohorts");
  }
  const std::uint32_t total = spec_.total_clients();
  const std::uint32_t machines =
      (total + cfg_.clients_per_host - 1) / cfg_.clients_per_host;
  const std::size_t last_host = cfg_.first_client_host + machines - 1;
  if (cfg_.server_host >= fabric.host_count() ||
      last_host >= fabric.host_count()) {
    throw std::invalid_argument(
        "Population: fabric too small for the placement (see host_count)");
  }
  if (cfg_.inline_threshold > fabric.cost().max_inline) {
    throw std::invalid_argument(
        "Population: inline_threshold exceeds the device max_inline");
  }
  start_server();
  build_hosts();
}

Population::~Population() = default;

void Population::start_server() {
  server_dev_ = std::make_unique<verbs::Device>(*fabric_, cfg_.server_host);
  server_ctx_ = std::make_unique<nio::RubinContext>(*server_dev_, cm_);

  nio::MuxConfig mc;
  mc.use_srq = cfg_.use_srq;
  const std::uint32_t total = spec_.total_clients();
  // Cap the SRQ depth at half the per-QP baseline's aggregate ring space:
  // shared receive state stays strictly below the baseline at every
  // population size, which is the invariant the scalability bench gates.
  mc.srq_depth = std::min(
      cfg_.srq_depth, std::max(64u, total * cfg_.per_conn_recv / 2));
  mc.srq_limit = std::max(1u, std::min(cfg_.srq_limit, mc.srq_depth / 4));
  mc.refill_batch = std::max(16u, mc.srq_depth / 64);
  mc.per_conn_recv = cfg_.per_conn_recv;
  mc.buffer_size = cfg_.buffer_size;
  mc.send_pool_slots = cfg_.server_send_slots;
  mc.inline_threshold = cfg_.inline_threshold;
  mc.cq_depth =
      std::max<std::size_t>(8192, 2 * static_cast<std::size_t>(mc.srq_depth));
  mux_ = nio::MuxAcceptor::listen(*server_ctx_, cfg_.port, mc);
}

verbs::RecvWr Population::ack_wr(nio::BufferPool& pool,
                                 std::uint32_t slot) const {
  return verbs::RecvWr{
      slot, pool.sge(slot, static_cast<std::uint32_t>(cfg_.ack_slot_size)),
      /*capture_payload=*/true};
}

void Population::build_hosts() {
  const std::uint32_t total = spec_.total_clients();
  const std::uint32_t machines =
      (total + cfg_.clients_per_host - 1) / cfg_.clients_per_host;

  hosts_.reserve(machines);
  qpn_to_client_.resize(machines);
  for (std::uint32_t h = 0; h < machines; ++h) {
    auto host = std::make_unique<ClientHost>();
    host->dev = std::make_unique<verbs::Device>(
        *fabric_, static_cast<net::HostId>(cfg_.first_client_host + h));
    host->chan = host->dev->create_channel();
    // Same capping rule as the server mux: the host's ack SRQ never
    // provisions more than half the per-QP aggregate ring space for the
    // clients it actually carries, so the client-side memory invariant
    // holds at every population size too.
    const std::uint32_t host_clients = std::min(
        cfg_.clients_per_host, total - h * cfg_.clients_per_host);
    const std::uint32_t srq_depth = std::min(
        cfg_.client_srq_depth, std::max(32u, host_clients * cfg_.window / 2));
    const std::size_t cq_depth =
        2 * static_cast<std::size_t>(cfg_.clients_per_host) * cfg_.window +
        srq_depth;
    host->scq = host->dev->create_cq(cq_depth, host->chan);
    host->rcq = host->dev->create_cq(cq_depth, host->chan);
    host->send_pool = std::make_unique<nio::BufferPool>(
        host->pd, cfg_.client_send_slots, cfg_.buffer_size, 0u);
    if (cfg_.use_srq) {
      host->srq = host->dev->create_srq(verbs::SrqConfig{srq_depth, 0});
      host->ack_pool = std::make_unique<nio::BufferPool>(
          host->pd, srq_depth, cfg_.ack_slot_size, verbs::kAccessLocalWrite);
      std::vector<verbs::RecvWr> wrs;
      wrs.reserve(srq_depth);
      for (std::uint32_t slot = 0; slot < srq_depth; ++slot) {
        wrs.push_back(ack_wr(*host->ack_pool, slot));
      }
      (void)host->srq->post_now(std::move(wrs));
    }
    host->chan->set_sink(
        [this, h](verbs::CompletionQueue*) { pump_host(h); });
    host->scq->req_notify();
    host->rcq->req_notify();
    hosts_.push_back(std::move(host));
  }

  clients_.reserve(total);
  cohorts_.reserve(spec_.cohorts.size());
  std::uint32_t next = 0;
  for (const CohortSpec& cspec : spec_.cohorts) {
    ClientCohort cs;
    cs.spec = cspec;
    cs.base = next;
    for (std::uint32_t i = 0; i < cspec.clients; ++i) {
      const std::uint32_t gidx = next + i;
      const std::uint32_t h = gidx / cfg_.clients_per_host;
      ClientHost& host = *hosts_[h];

      verbs::QpConfig qc;
      qc.max_send_wr = cfg_.window;
      qc.max_recv_wr = cfg_.window;
      qc.max_inline = static_cast<std::uint32_t>(cfg_.inline_threshold);
      if (cfg_.use_srq) qc.srq = host.srq;
      Client c;
      c.qp = host.dev->create_qp(host.pd, *host.scq, *host.rcq, qc);
      c.host = h;
      c.cohort = static_cast<std::uint16_t>(cohorts_.size());
      if (!cfg_.use_srq) {
        c.ack_ring = std::make_unique<nio::BufferPool>(
            host.pd, cfg_.window, cfg_.ack_slot_size,
            verbs::kAccessLocalWrite);
        std::vector<verbs::RecvWr> wrs;
        wrs.reserve(cfg_.window);
        for (std::uint32_t slot = 0; slot < cfg_.window; ++slot) {
          wrs.push_back(ack_wr(*c.ack_ring, slot));
        }
        (void)c.qp->post_recv_now(std::move(wrs));
      }
      qpn_to_client_[h][c.qp->qp_num()] = gidx;
      clients_.push_back(std::move(c));
    }
    next += cspec.clients;
    cohorts_.push_back(std::move(cs));
  }
}

void Population::connect_clients() {
  // The whole population dials at once — the connection storm is part of
  // what the subsystem has to absorb. The schedule clock starts only when
  // every attempt has resolved (established or rejected).
  for (std::uint32_t gidx = 0; gidx < clients_.size(); ++gidx) {
    Client& c = clients_[gidx];
    cm_.connect(c.qp, cfg_.server_host, cfg_.port,
                [this, gidx](const verbs::CmEvent& e) {
                  Client& cl = clients_[gidx];
                  switch (e.type) {
                    case verbs::CmEventType::kEstablished:
                      cl.established = true;
                      if (++established_ == clients_.size()) {
                        all_connected_.set();
                      }
                      break;
                    case verbs::CmEventType::kRejected:
                      cl.open = false;
                      if (++established_ == clients_.size()) {
                        all_connected_.set();
                      }
                      break;
                    case verbs::CmEventType::kDisconnected:
                      cl.open = false;
                      break;
                    case verbs::CmEventType::kConnectRequest:
                      break;
                  }
                });
  }
}

sim::Task<void> Population::serve() {
  // The ack is the request's own header slice — zero-copy (O(1) refcount
  // bump) and always inside the inline threshold. A backpressured reply
  // (returns 0) is simply a lost ack; the client's timeout absorbs it.
  for (;;) {
    nio::MuxMessage msg = co_await mux_->read();
    if (msg.payload.size() < kHeaderBytes) continue;
    ++server_requests_;
    (void)co_await mux_->reply(msg.conn, msg.payload.slice(0, kHeaderBytes));
  }
}

sim::Task<void> Population::run() {
  connect_started_ = sim_->now();
  connect_clients();
  co_await all_connected_.wait();
  connect_done_ = sim_->now();
  t0_ = connect_done_;

  sim_->spawn(serve());
  for (std::size_t i = 0; i < cohorts_.size(); ++i) {
    sim_->spawn(drive_cohort(i));
  }

  sim::Time max_timeout = 0;
  for (const ClientCohort& cs : cohorts_) {
    max_timeout = std::max(max_timeout, cs.spec.timeout);
  }
  co_await sim_->sleep(spec_.duration + max_timeout + cfg_.drain_grace);
}

sim::Task<void> Population::drive_cohort(std::size_t idx) {
  ClientCohort& cs = cohorts_[idx];
  if (cs.spec.start >= spec_.duration) co_return;
  const sim::Time cohort_t0 = t0_ + cs.spec.start;
  if (cohort_t0 > sim_->now()) co_await sim_->sleep(cohort_t0 - sim_->now());

  // Per-cohort seed derivation is part of the pinned determinism surface
  // (determinism_test): golden-ratio stride over the population seed.
  ArrivalStream stream(cs.spec,
                       spec_.seed + 0x9E3779B97F4A7C15ULL * (idx + 1),
                       spec_.duration - cs.spec.start);
  while (auto a = stream.next()) {
    // Absolute target instants: posting charges never accumulate into
    // schedule drift (open-loop means the schedule owns the clock).
    const sim::Time target = cohort_t0 + a->at;
    if (target > sim_->now()) co_await sim_->sleep(target - sim_->now());
    ++cs.arrivals;
    RUBIN_COUNT("poplab.arrivals", 1);
    co_await issue(idx, *a);
  }
}

void Population::drop(ClientCohort& cs) {
  ++cs.drops;
  // Shed load is lost load: drops ride the timeout counter (the
  // report still separates the two).
  RUBIN_COUNT("poplab.timeouts", 1);
}

sim::Task<void> Population::issue(std::size_t cohort_idx, const Arrival& a) {
  ClientCohort& cs = cohorts_[cohort_idx];
  const std::uint32_t gidx = cs.base + a.client;
  Client& c = clients_[gidx];
  if (!c.open || !c.established ||
      c.pending.size() >= cfg_.window) {
    drop(cs);
    co_return;
  }
  ClientHost& host = *hosts_[c.host];

  const std::size_t n = std::min<std::size_t>(
      std::max<std::size_t>(a.bytes, kHeaderBytes), cfg_.buffer_size);
  const std::uint32_t req_id = c.next_req++;
  SharedBytes payload = SharedBytes::allocate(n);
  std::uint8_t* p = payload.mutable_data();
  std::memset(p, 0, n);
  put_u32(p, gidx);
  put_u32(p + 4, req_id);
  put_u16(p + 8, static_cast<std::uint16_t>(cohort_idx));
  put_u16(p + 10, a.op);

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kSend;
  wr.signaled = true;
  if (n <= cfg_.inline_threshold) {
    wr.inline_data = true;
    wr.wr_id = kInlineWr;
    wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(payload.data()),
                            static_cast<std::uint32_t>(n), 0};
  } else {
    // Staged through the host's shared request pool; the refcounted
    // payload rides the WR, so the slot only donates registered address
    // space (same zero-copy shape as the mux reply path).
    const auto slot = host.send_pool->acquire();
    if (!slot) {
      drop(cs);
      co_return;
    }
    wr.wr_id = kSlotBase + *slot;
    wr.sg_list = host.send_pool->sge(*slot, static_cast<std::uint32_t>(n));
  }
  wr.shared_payload.append(payload);

  const std::uint64_t posted_id = wr.wr_id;
  const auto result = co_await c.qp->post_send_one(std::move(wr));
  if (result != verbs::PostResult::kOk) {
    if (posted_id != kInlineWr) {
      host.send_pool->release(static_cast<std::uint32_t>(posted_id - kSlotBase));
    }
    drop(cs);
    co_return;
  }
  ++cs.sent;
  c.pending.push_back(PendingReq{req_id, sim_->now()});
  sim_->schedule_after(cs.spec.timeout,
                       [this, gidx, req_id] { expire(gidx, req_id); });
}

void Population::on_ack(std::uint32_t client_idx, std::uint32_t req_id) {
  Client& c = clients_[client_idx];
  for (auto it = c.pending.begin(); it != c.pending.end(); ++it) {
    if (it->req_id == req_id) {
      ClientCohort& cs = cohorts_[c.cohort];
      cs.latency.add(static_cast<double>(sim_->now() - it->sent_at) / 1e3);
      ++cs.completions;
      RUBIN_COUNT("poplab.completions", 1);
      c.pending.erase(it);
      return;
    }
  }
  // Ack for a request that already expired: the timeout was charged, the
  // late ack is dropped on the floor.
}

void Population::expire(std::uint32_t client_idx, std::uint32_t req_id) {
  Client& c = clients_[client_idx];
  for (auto it = c.pending.begin(); it != c.pending.end(); ++it) {
    if (it->req_id == req_id) {
      ++cohorts_[c.cohort].timeouts;
      RUBIN_COUNT("poplab.timeouts", 1);
      c.pending.erase(it);
      return;
    }
  }
}

void Population::pump_host(std::size_t h) {
  ClientHost& host = *hosts_[h];
  auto& qpn_map = qpn_to_client_[h];

  for (;;) {
    const auto cs = host.scq->poll(64);
    if (cs.empty()) break;
    for (const verbs::Completion& c : cs) {
      if (c.wr_id != kInlineWr && c.wr_id >= kSlotBase) {
        host.send_pool->release(static_cast<std::uint32_t>(c.wr_id - kSlotBase));
      }
      if (c.status != verbs::WcStatus::kSuccess) {
        const auto it = qpn_map.find(c.qp_num);
        if (it != qpn_map.end()) clients_[it->second].open = false;
      }
    }
  }

  std::vector<std::uint32_t> ack_slots;
  for (;;) {
    const auto cs = host.rcq->poll(64);
    if (cs.empty()) break;
    for (const verbs::Completion& c : cs) {
      if (host.srq != nullptr) {
        // SRQ ack slots are shared property — reclaimed even from flushed
        // completions of dead clients. Per-QP rings die with their QP.
        ack_slots.push_back(static_cast<std::uint32_t>(c.wr_id));
      }
      if (c.status != verbs::WcStatus::kSuccess) continue;
      const auto it = qpn_map.find(c.qp_num);
      if (it == qpn_map.end()) continue;
      if (c.payload.size() >= kHeaderBytes) {
        on_ack(it->second, get_u32(c.payload.data() + 4));
      }
      if (host.srq == nullptr) {
        Client& cl = clients_[it->second];
        if (cl.open && cl.qp->state() == verbs::QpState::kReadyToSend) {
          const verbs::RecvWr wr =
              ack_wr(*cl.ack_ring, static_cast<std::uint32_t>(c.wr_id));
          (void)cl.qp->post_recv_now(std::span<const verbs::RecvWr>(&wr, 1));
        }
      }
    }
  }
  if (host.srq != nullptr && !ack_slots.empty()) {
    std::vector<verbs::RecvWr> wrs;
    wrs.reserve(ack_slots.size());
    for (const std::uint32_t slot : ack_slots) {
      wrs.push_back(ack_wr(*host.ack_pool, slot));
    }
    (void)host.srq->post_now(std::move(wrs));
  }
  RUBIN_AUDIT_ASSERT(
      "poplab", !host.scq->overflowed() && !host.rcq->overflowed(),
      "client-host CQ overflowed — size cq_depth for the population burst");
  host.scq->req_notify();
  host.rcq->req_notify();
}

std::uint64_t Population::client_receive_state_bytes() const noexcept {
  if (cfg_.use_srq) {
    std::uint64_t bytes = 0;
    for (const auto& host : hosts_) {
      bytes += static_cast<std::uint64_t>(host->ack_pool->count()) *
               host->ack_pool->slot_size();
    }
    return bytes;
  }
  return static_cast<std::uint64_t>(clients_.size()) * cfg_.window *
         cfg_.ack_slot_size;
}

PopulationReport Population::report() const {
  PopulationReport r;
  r.clients = spec_.total_clients();
  r.established = established_;
  r.connect_span = connect_done_ - connect_started_;
  r.server_receive_state_bytes = mux_->receive_state_bytes();
  r.client_receive_state_bytes = client_receive_state_bytes();
  if (mux_->connection_count() > 0) {
    r.server_recv_bytes_per_conn =
        static_cast<double>(r.server_receive_state_bytes) /
        static_cast<double>(mux_->connection_count());
  }
  for (const ClientCohort& cs : cohorts_) {
    CohortReport c;
    c.name = cs.spec.name;
    c.arrivals = cs.arrivals;
    c.sent = cs.sent;
    c.completions = cs.completions;
    c.timeouts = cs.timeouts;
    c.drops = cs.drops;
    if (cs.latency.count() > 0) {
      c.mean_us = cs.latency.mean();
      c.p50_us = cs.latency.percentile(0.50);
      c.p99_us = cs.latency.percentile(0.99);
      c.max_us = cs.latency.max();
    }
    r.arrivals += c.arrivals;
    r.sent += c.sent;
    r.completions += c.completions;
    r.timeouts += c.timeouts;
    r.drops += c.drops;
    r.cohorts.push_back(std::move(c));
  }
  if (spec_.duration > 0) {
    r.throughput_rps = static_cast<double>(r.completions) /
                       (static_cast<double>(spec_.duration) / 1e9);
  }
  return r;
}

}  // namespace rubin::poplab
