// PopLab population driver: open-loop client populations over the DES
// fabric (ROADMAP: "a population driver …, and a scalability bench").
//
// A Population turns a PopulationSpec into running load: one MuxAcceptor
// ack server on `server_host`, and the spec's clients packed onto client
// hosts (`clients_per_host` per simulated machine), each client one RC QP
// CM-connected to the server. Driving is *open-loop*: every cohort has a
// coroutine drawing arrivals from a deterministic ArrivalStream (Poisson
// thinning against the cohort's rate schedule, Zipf op mix, bounded-Pareto
// payload sizes), and arrivals do not wait for completions — a client
// whose window is full drops the request (recorded, not retried), exactly
// how an overloaded open-loop system sheds load.
//
// Receive-state accounting is the point of the exercise: `use_srq` flips
// both the server mux and the client-side ack path between shared receive
// queues and fully-provisioned per-QP rings, and the report carries the
// bytes-of-receive-state numbers the scalability bench compares.
//
// Determinism: all randomness flows from PopulationSpec::seed through
// per-cohort ArrivalStreams; same spec + same config => bit-identical run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "poplab/scenario.hpp"
#include "rubin/buffer_pool.hpp"
#include "rubin/context.hpp"
#include "rubin/mux.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"
#include "sim/timeout_queue.hpp"
#include "verbs/cm.hpp"
#include "verbs/device.hpp"

namespace rubin::poplab {

/// One generated request: `at` is relative to the cohort's start, `client`
/// indexes into the cohort (0-based), `bytes` is the sampled payload size
/// before clamping to the transport buffer.
struct Arrival {
  sim::Time at = 0;
  std::uint32_t client = 0;
  std::uint16_t op = 0;
  std::uint32_t bytes = 0;
};

/// Deterministic arrival generator for one cohort — pure (no simulator),
/// so determinism tests can pin its output and the driver can replay it.
/// Non-homogeneous Poisson arrivals via thinning against the schedule's
/// peak rate, then client / op / payload draws from the same stream.
class ArrivalStream {
 public:
  ArrivalStream(const CohortSpec& spec, std::uint64_t seed,
                sim::Time horizon);

  /// Next arrival, strictly increasing `at`; nullopt past the horizon.
  std::optional<Arrival> next();

 private:
  CohortSpec spec_;
  Rng rng_;
  ZipfSampler ops_;
  BoundedParetoSampler payload_;
  sim::Time horizon_;
  sim::Time elapsed_ = 0;
  double peak_rps_ = 0.0;
};

struct PopulationConfig {
  /// Shared receive paths on both ends (server mux SRQ + one ack SRQ per
  /// client host). false = per-QP receive rings everywhere — the baseline
  /// the scalability bench compares against.
  bool use_srq = true;
  /// Clients packed per simulated client machine.
  std::uint32_t clients_per_host = 4096;
  /// Per-client in-flight request cap (send window). Arrivals beyond it
  /// are dropped, not queued — open-loop overload sheds load.
  std::uint32_t window = 4;
  std::uint16_t port = 4700;
  /// Host placement: the server and the first client machine. Configurable
  /// so a population can share a fabric with other actors (FaultLab).
  net::HostId server_host = 0;
  net::HostId first_client_host = 1;

  // Server mux sizing. The SRQ depth is a *cap*: the effective depth is
  // min(srq_depth, max(64, clients * per_conn_recv / 2)), so shared
  // receive state stays strictly below the per-QP baseline at every
  // population size (the bench's CI-gated invariant).
  std::uint32_t srq_depth = 4096;
  std::uint32_t srq_limit = 256;
  std::uint32_t per_conn_recv = 8;
  std::size_t buffer_size = 2048;
  std::uint32_t server_send_slots = 1024;

  // Client-host sizing. The ack SRQ depth is capped the same way as the
  // server's: min(client_srq_depth, max(32, host_clients * window / 2)).
  std::uint32_t client_srq_depth = 1024;
  std::size_t ack_slot_size = 64;
  std::uint32_t client_send_slots = 256;
  std::size_t inline_threshold = 256;
  /// Extra virtual time after the last scheduled arrival + timeout before
  /// run() returns (lets final completions land in the report).
  sim::Time drain_grace = sim::milliseconds(1);
};

/// Live per-cohort accounting (ISSUE naming: the `ClientCohort`).
struct ClientCohort {
  CohortSpec spec;
  /// Global index of the cohort's first client.
  std::uint32_t base = 0;
  std::uint64_t arrivals = 0;     // generated by the schedule
  std::uint64_t sent = 0;         // actually posted
  std::uint64_t completions = 0;  // acked within the timeout
  std::uint64_t timeouts = 0;     // sent but never acked in time
  std::uint64_t drops = 0;        // shed at a full window / dead client
  LatencyRecorder latency;        // request->ack, microseconds
};

struct CohortReport {
  std::string name;
  std::uint64_t arrivals = 0;
  std::uint64_t sent = 0;
  std::uint64_t completions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct PopulationReport {
  std::vector<CohortReport> cohorts;
  std::uint64_t arrivals = 0;
  std::uint64_t sent = 0;
  std::uint64_t completions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;
  std::uint32_t clients = 0;
  std::uint32_t established = 0;
  /// Virtual time the connection storm took (all clients established).
  sim::Time connect_span = 0;
  /// Receive-buffer bytes provisioned, both ends (the memory metric).
  std::uint64_t server_receive_state_bytes = 0;
  std::uint64_t client_receive_state_bytes = 0;
  double server_recv_bytes_per_conn = 0.0;
  /// Completed requests per virtual second over the schedule window.
  double throughput_rps = 0.0;
};

class Population {
 public:
  /// Request/ack header bytes (the ack echoes the header).
  static constexpr std::size_t kHeaderBytes = 16;

  /// Fabric hosts a population needs with this config: the server plus
  /// ceil(clients / clients_per_host) client machines. Host ids used are
  /// {server_host} ∪ [first_client_host, first_client_host + machines).
  static std::uint32_t host_count(const PopulationSpec& spec,
                                  const PopulationConfig& cfg);

  /// Builds devices and state only; nothing runs until run() is spawned.
  /// The fabric must already be sized to cover the placement above.
  Population(net::Fabric& fabric, PopulationSpec spec,
             PopulationConfig cfg = {});
  ~Population();
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  /// The whole lifecycle: connection storm (all clients established
  /// before the schedule clock starts), cohort drivers, drain. Spawn as a
  /// root task and sim.run() to completion; the Population must outlive
  /// the simulator run.
  sim::Task<void> run();

  PopulationReport report() const;

  const PopulationSpec& spec() const noexcept { return spec_; }
  const PopulationConfig& config() const noexcept { return cfg_; }
  const nio::MuxAcceptor& server() const noexcept { return *mux_; }
  const ClientCohort& cohort(std::size_t i) const { return cohorts_[i]; }
  std::uint32_t established() const noexcept { return established_; }
  /// Ack-path receive buffers across all client hosts (SRQ pools or
  /// per-client rings).
  std::uint64_t client_receive_state_bytes() const noexcept;
  /// Fabric host carrying `client` — FaultLab partitions cohorts by this.
  net::HostId client_host_of(std::uint32_t client) const noexcept {
    return cfg_.first_client_host + client / cfg_.clients_per_host;
  }

 private:
  /// One simulated client machine: a device, shared CQs with one pump,
  /// an ack SRQ (or per-client rings), and a request-staging pool.
  struct ClientHost {
    std::unique_ptr<verbs::Device> dev;
    verbs::ProtectionDomain pd;
    verbs::CompletionChannel* chan = nullptr;
    verbs::CompletionQueue* scq = nullptr;
    verbs::CompletionQueue* rcq = nullptr;
    verbs::SharedReceiveQueue* srq = nullptr;
    std::unique_ptr<nio::BufferPool> ack_pool;   // SRQ mode, shared
    std::unique_ptr<nio::BufferPool> send_pool;  // request staging
  };

  struct PendingReq {
    std::uint32_t req_id = 0;
    sim::Time sent_at = 0;
  };

  /// A sent request's timeout: request `req_id` of client `client`.
  struct Expiry {
    std::uint32_t client = 0;
    std::uint32_t req_id = 0;
  };

  struct Client {
    std::shared_ptr<verbs::QueuePair> qp;
    std::unique_ptr<nio::BufferPool> ack_ring;  // per-QP mode only
    std::vector<PendingReq> pending;            // <= window entries
    std::uint32_t host = 0;    // index into hosts_
    std::uint16_t cohort = 0;  // index into cohorts_
    std::uint32_t next_req = 1;
    bool established = false;
    bool open = true;
  };

  void start_server();
  void build_hosts();
  void connect_clients();
  sim::Task<void> serve();
  sim::Task<void> drive_cohort(std::size_t idx);
  sim::Task<void> issue(std::size_t cohort_idx, const Arrival& a);
  void pump_host(std::size_t h);
  void on_ack(std::uint32_t client_idx, std::uint32_t req_id);
  void expire(std::uint32_t client_idx, std::uint32_t req_id);
  void drop(ClientCohort& cs);
  verbs::RecvWr ack_wr(nio::BufferPool& pool, std::uint32_t slot) const;

  net::Fabric* fabric_;
  sim::Simulator* sim_;
  PopulationSpec spec_;
  PopulationConfig cfg_;
  verbs::ConnectionManager cm_;

  std::unique_ptr<verbs::Device> server_dev_;
  std::unique_ptr<nio::RubinContext> server_ctx_;
  std::shared_ptr<nio::MuxAcceptor> mux_;
  std::uint64_t server_requests_ = 0;

  std::vector<std::unique_ptr<ClientHost>> hosts_;
  std::vector<Client> clients_;
  std::vector<ClientCohort> cohorts_;
  /// Per cohort: the timeouts of its sent requests (one delay each).
  std::vector<std::unique_ptr<sim::TimeoutQueue<Expiry>>> expiries_;
  /// qpn -> global client index, per host device (qpns are per-device).
  std::vector<verbs::QpnIndex> qpn_to_client_;
  /// pump_host's poll buffer, reused across calls.
  std::vector<verbs::Completion> polled_;

  std::uint32_t established_ = 0;
  sim::Event all_connected_;
  sim::Time connect_started_ = 0;
  sim::Time connect_done_ = 0;
  sim::Time t0_ = 0;
};

}  // namespace rubin::poplab
