// pbft-mixed: PBFT with f=1 (4 replicas) over the RUBIN transport with
// the one-sided decision log, in the E1 configuration (batch 8, batch
// timeout 100 us, checkpoint 32, 64 KiB decision slots). Four closed-loop
// clients each wait for their reply; a seeded script per client makes
// exactly 3/4 of its ops ordered writes of 128 B, 1 KiB or 4 KiB and 1/4
// read-only `get`s.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "bench.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "workloads/bft_harness.hpp"

namespace perfbench {
namespace {

using namespace rubin;
using namespace rubin::reptor;

constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kClients = 4;
constexpr NodeId kFirstClient = kReplicas;
constexpr std::uint32_t kSizes[] = {128, 1024, 4096};

struct Op {
  bool write = true;
  std::uint64_t amount = 0;  // writes add this to the counter
  Bytes bytes;
};

/// Write ops read "add:<amount> <k>" padded with 'x' to their size: the
/// counter app parses the amount, and the observers find op k by its tag.
std::vector<std::vector<Op>> make_ops(std::uint64_t seed,
                                      std::uint32_t per_client) {
  Rng rng(seed ^ 0x70bf7a11ULL);
  std::vector<std::vector<Op>> out(kClients);
  for (auto& script : out) {
    // Exact shares (1/4 reads, each write size a third of the writes) in
    // a seeded order, so every seed carries the same amount of work.
    std::vector<std::uint32_t> size(per_client, 0);  // 0: a read
    for (std::uint32_t k = per_client / 4; k < per_client; ++k) {
      size[k] = kSizes[k % 3];
    }
    for (std::size_t i = size.size(); i > 1; --i) {
      std::swap(size[i - 1], size[rng.next_below(i)]);
    }
    for (std::uint32_t k = 0; k < per_client; ++k) {
      Op op;
      op.write = size[k] != 0;
      if (op.write) {
        op.amount = 1 + rng.next_below(9);
        std::string s = "add:" + std::to_string(op.amount) + " " +
                        std::to_string(k);
        s.resize(std::max<std::size_t>(s.size(), size[k]), 'x');
        op.bytes = to_bytes(s);
      } else {
        op.bytes = to_bytes("get");
      }
      script.push_back(std::move(op));
    }
  }
  return out;
}

/// Index k of a tagged write op, or -1.
long tag_of(const Bytes& op) {
  const auto sp = std::find(op.begin(), op.end(), std::uint8_t{' '});
  if (op.size() < 4 || op[0] != 'a' || sp == op.end()) return -1;
  long k = 0;
  bool any = false;
  for (auto it = sp + 1; it != op.end() && *it >= '0' && *it <= '9'; ++it) {
    k = k * 10 + (*it - '0');
    any = true;
  }
  return any ? k : -1;
}

struct OpLog {
  sim::Time t0 = -1;       // invoke
  sim::Time propose = -1;  // primary assigned a sequence number
  sim::Time commit = -1;   // first replica committed that sequence
  sim::Time t1 = -1;       // accepted reply
  std::uint64_t value = 0;
  bool decoded = false;
};

sim::Task<void> start_client(Client& cl, std::uint32_t& started) {
  co_await cl.start();
  ++started;
}

sim::Task<void> drive(sim::Simulator& s, Client& cl, const std::vector<Op>& ops,
                      std::vector<OpLog>& log, std::uint32_t& done) {
  for (std::size_t k = 0; k < ops.size(); ++k) {
    OpLog& l = log[k];
    l.t0 = s.now();
    Bytes reply;
    if (ops[k].write) {
      reply = co_await cl.invoke(ops[k].bytes);
    } else {
      reply = co_await cl.invoke_read_only(ops[k].bytes);
    }
    l.t1 = s.now();
    Decoder d(reply);
    if (const auto v = d.get_u64()) {
      l.value = *v;
      l.decoded = true;
    }
  }
  ++done;
}

/// Cumulative protocol-layer counts, read from public stats structs.
struct Totals {
  std::uint64_t executed = 0, batches = 0, fast = 0, view_changes = 0;
  std::uint64_t msgs = 0, frames_sent = 0, retries = 0;
  std::uint64_t ro_fast = 0, ro_fallback = 0, records = 0, bypasses = 0;
  std::uint64_t fabric_frames = 0, fabric_bytes = 0;
  std::uint64_t events = 0;
};

Totals totals(BftHarness& h) {
  Totals t;
  for (NodeId r = 0; r < kReplicas; ++r) {
    const ReplicaStats& s = h.replica(r).stats();
    t.executed += s.requests_executed;
    t.batches += s.batches_committed;
    t.fast += s.fast_commits;
    t.view_changes += s.view_changes;
    t.msgs += s.messages_handled;
    t.frames_sent += h.replica(r).transport().stats().frames_sent;
    const nio::DecisionLogStats& d = h.decision_log(r)->stats();
    t.records += d.records_published;
    t.bypasses += d.bypasses;
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    const ClientStats& s = h.client(c).stats();
    t.retries += s.retries;
    t.ro_fast += s.read_only_fast;
    t.ro_fallback += s.read_only_fallback;
  }
  t.fabric_frames = h.fabric().frames_delivered();
  t.fabric_bytes = h.fabric().bytes_on_wire();
  t.events = h.sim().events_processed();
  return t;
}

}  // namespace

Iteration run_pbft(std::uint64_t seed, bool smoke, Tracer* tracer) {
  const std::uint32_t per_client = smoke ? 24 : 1000;
  const std::vector<std::vector<Op>> ops = make_ops(seed, per_client);
  std::vector<std::vector<OpLog>> logs(kClients,
                                       std::vector<OpLog>(per_client));
  // seq -> (client, op) of the tagged writes in that batch, until its
  // first commit.
  std::map<std::uint64_t, std::vector<std::pair<std::uint32_t, long>>> batches;
  Iteration it;

  // ---- set-up: the world, up to every client connected ----------------
  const double t_setup = cpu_seconds();
  std::unique_ptr<BftHarness> hp;
  {
    Scope sp(tracer, "BftHarness.build");
    hp = std::make_unique<BftHarness>(Backend::kRubin, kReplicas, kClients);
    nio::DecisionLogConfig dcfg;
    dcfg.slot_payload = 64 * 1024;
    hp->enable_decision_log(dcfg);
    ReplicaConfig cfg;
    cfg.batch_size = 8;
    cfg.batch_timeout = sim::microseconds(100);
    cfg.checkpoint_interval = 32;
    hp->add_replicas({}, cfg);
    for (std::uint32_t c = 0; c < kClients; ++c) hp->add_client(kFirstClient + c);
  }
  BftHarness& h = *hp;
  sim::Simulator& s = h.sim();
  std::uint32_t started = 0;
  {
    Scope sp(tracer, "Client.start");
    for (std::uint32_t c = 0; c < kClients; ++c) {
      s.spawn(start_client(h.client(c), started));
    }
    while (started < kClients && s.now() < sim::seconds(1)) {
      s.run_until(s.now() + sim::microseconds(100));
    }
  }
  it.setup_s = cpu_seconds() - t_setup;
  if (started < kClients) {
    it.error = "pbft: clients did not connect";
    return it;
  }

  if (tracer != nullptr) {
    h.replica(0).set_propose_observer(
        [&s, &logs, &batches](std::uint64_t seq, const PrePrepare& pp) {
          auto& members = batches[seq];
          for (const Request& r : pp.batch) {
            const long k = tag_of(r.op);
            if (r.client < kFirstClient || r.read_only || k < 0) continue;
            OpLog& l = logs.at(r.client - kFirstClient).at(
                static_cast<std::size_t>(k));
            if (l.propose >= 0) continue;  // a retry proposed again
            l.propose = s.now();
            members.emplace_back(r.client - kFirstClient, k);
          }
        });
    for (NodeId r = 0; r < kReplicas; ++r) {
      h.replica(r).set_commit_observer(
          [&s, &logs, &batches](std::uint64_t seq, const PrePrepare&) {
            const auto b = batches.find(seq);
            if (b == batches.end()) return;
            for (const auto& [c, k] : b->second) {
              logs[c][static_cast<std::size_t>(k)].commit = s.now();
            }
            batches.erase(b);
          });
    }
  }

  // ---- timed ops --------------------------------------------------------
  reset_counters();
  const Totals before = totals(h);
  const std::uint64_t allocs0 = allocation_count();
  const sim::Time v0 = s.now();
  std::uint32_t done = 0;
  const double t_run = cpu_seconds();
  for (std::uint32_t c = 0; c < kClients; ++c) {
    s.spawn(drive(s, h.client(c), ops[c], logs[c], done));
  }
  while (done < kClients && s.now() < v0 + sim::seconds(60)) {
    Scope sp(tracer, "Simulator.run_until");
    const std::uint64_t ev = s.events_processed();
    s.run_until(s.now() + sim::milliseconds(1));
    if (tracer != nullptr) {
      sp.arg("events", static_cast<double>(s.events_processed() - ev));
    }
  }
  it.run_s = cpu_seconds() - t_run;
  const std::uint64_t allocs = allocation_count() - allocs0;
  const Counters counters = snapshot_counters();
  const Totals after = totals(h);

  // Let every replica execute the tail before comparing states.
  s.run_until(s.now() + sim::milliseconds(20));

  // ---- checks and metrics ---------------------------------------------
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<std::uint64_t> write_values;
  std::uint64_t expected_total = 0;
  sim::Time last = v0;
  double queue_ns = 0, agree_ns = 0, reply_ns = 0;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    for (std::uint32_t k = 0; k < per_client; ++k) {
      const Op& op = ops[c][k];
      const OpLog& l = logs[c][k];
      ++it.attempted;
      if (op.write) expected_total += op.amount;
      if (l.t1 < 0 || !l.decoded) {
        ++it.failed;
        continue;
      }
      ++it.completed;
      last = std::max(last, l.t1);
      const double us = static_cast<double>(l.t1 - l.t0) / 1e3;
      if (!op.write) {
        read_us.push_back(us);
        continue;
      }
      write_us.push_back(us);
      write_values.push_back(l.value);
      if (tracer == nullptr) continue;
      // The three phases telescope: they sum to the write's latency in
      // integer ns exactly when every stamp exists and they are ordered.
      if (!(l.t0 <= l.propose && l.propose <= l.commit && l.commit <= l.t1)) {
        it.error = "pbft: write " + std::to_string(c) + "." +
                   std::to_string(k) + " lacks ordered phase stamps";
        continue;
      }
      queue_ns += static_cast<double>(l.propose - l.t0);
      agree_ns += static_cast<double>(l.commit - l.propose);
      reply_ns += static_cast<double>(l.t1 - l.commit);
      const std::uint64_t id = tracer->add_virtual(
          "Client.invoke", static_cast<int>(c) + 1, l.t0, l.t1);
      tracer->add_virtual("queue", static_cast<int>(c) + 1, l.t0, l.propose, id);
      tracer->add_virtual("agree", static_cast<int>(c) + 1, l.propose, l.commit,
                          id);
      tracer->add_virtual("reply", static_cast<int>(c) + 1, l.commit, l.t1, id);
    }
  }
  if (tracer != nullptr) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint32_t k = 0; k < per_client; ++k) {
        const OpLog& l = logs[c][k];
        if (!ops[c][k].write && l.t1 >= 0) {
          tracer->add_virtual("Client.invoke_read_only",
                              static_cast<int>(c) + 1, l.t0, l.t1);
        }
      }
    }
  }

  if (it.failed > 0) {
    it.error = "pbft: " + std::to_string(it.failed) + " ops did not complete";
  }
  // Writes add positive amounts, so their replies (the post-op counter)
  // are distinct and the largest is the final total.
  std::sort(write_values.begin(), write_values.end());
  if (std::adjacent_find(write_values.begin(), write_values.end()) !=
          write_values.end() ||
      (!write_values.empty() && write_values.back() != expected_total)) {
    it.error = "pbft: write replies are not a strictly increasing counter";
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    for (std::uint32_t k = 0; k < per_client; ++k) {
      if (!ops[c][k].write && logs[c][k].value > expected_total) {
        it.error = "pbft: a read returned a value never written";
      }
    }
  }
  for (NodeId r = 0; r < kReplicas; ++r) {
    const auto& app = dynamic_cast<const CounterApp&>(h.replica(r).app());
    if (app.value() != expected_total) {
      it.error = "pbft: replica " + std::to_string(r) + " counter " +
                 std::to_string(app.value()) + " != " +
                 std::to_string(expected_total);
    }
  }
  if (after.view_changes != 0) it.error = "pbft: a view change happened";
  if (after.fast == before.fast) it.error = "pbft: no fast-path commit";

  const double ops_done = static_cast<double>(it.completed);
  const double writes = static_cast<double>(write_us.size());
  Values& x = it.exact;
  add_latency(x, "virt", write_us);
  add_latency(x, "virt_read", read_us);
  x["virt_ops_per_s"] = ratio(ops_done, sim::to_s(last - v0));
  x["failed_frac"] = ratio(static_cast<double>(it.failed),
                           static_cast<double>(it.attempted));
  x["sim.events_per_op"] =
      ratio(static_cast<double>(after.events - before.events), ops_done);
  x["net.frames_per_op"] = ratio(
      static_cast<double>(after.fabric_frames - before.fabric_frames), ops_done);
  x["net.wire_bytes_per_op"] = ratio(
      static_cast<double>(after.fabric_bytes - before.fabric_bytes), ops_done);
  x["reptor.batch_mean"] =
      ratio(static_cast<double>(after.executed - before.executed),
            static_cast<double>(after.batches - before.batches));
  x["reptor.fast_commit_share"] =
      ratio(static_cast<double>(after.fast - before.fast),
            static_cast<double>(after.batches - before.batches));
  x["reptor.msgs_per_op"] =
      ratio(static_cast<double>(after.msgs - before.msgs), ops_done);
  x["reptor.transport_frames_per_op"] = ratio(
      static_cast<double>(after.frames_sent - before.frames_sent), ops_done);
  x["reptor.view_changes"] = static_cast<double>(after.view_changes);
  x["reptor.client_retries_per_op"] =
      ratio(static_cast<double>(after.retries - before.retries), ops_done);
  const double ro_fast = static_cast<double>(after.ro_fast - before.ro_fast);
  x["reptor.read_fast_share"] = ratio(
      ro_fast,
      ro_fast + static_cast<double>(after.ro_fallback - before.ro_fallback));
  const double records = static_cast<double>(after.records - before.records);
  const double bypasses =
      static_cast<double>(after.bypasses - before.bypasses);
  x["rubin.decision_log.records_per_op"] = ratio(records, writes);
  x["rubin.decision_log.bypass_share"] = ratio(bypasses, records + bypasses);
  if (tracer != nullptr) {
    x["reptor.v_queue_us"] = ratio(queue_ns / 1e3, writes);
    x["reptor.v_agree_us"] = ratio(agree_ns / 1e3, writes);
    x["reptor.v_reply_us"] = ratio(reply_ns / 1e3, writes);
  }
  add_counter_layers(x, counters, ops_done);
  for (const auto& [k, v] : counters) x["count/" + k] = static_cast<double>(v);

  it.host["sim.host_ns_per_event"] = ratio(
      it.run_s * 1e9, static_cast<double>(after.events - before.events));
  it.host["common.allocs_per_op"] =
      ratio(static_cast<double>(allocs), ops_done);
  h.stop_all();
  return it;
}

}  // namespace perfbench
