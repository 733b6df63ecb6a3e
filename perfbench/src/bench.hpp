// Shared types of the perfbench binary: one workload iteration's result,
// the span recorder, and the helpers the workloads use to turn counter
// snapshots into per-layer metrics.
//
// Everything here observes the library from outside: spans wrap the
// benchmark's own calls into public functions, and per-layer numbers
// come from public stats structs, observers, and the stats::/audit::
// counter snapshots.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the process has run. The benchmark is single-threaded, so
/// host times taken on this clock leave out the stretches in which other
/// work on a shared machine held the core; they are the steadier figure.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// a / b, or 0 when nothing was measured (b == 0).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Global operator-new calls since process start (alloc_count.cpp).
std::uint64_t allocation_count() noexcept;

/// Metric name -> value.
using Values = std::map<std::string, double>;

/// The value of a metric this build cannot measure: the audit-derived
/// ones on a build without audits. Printed as null, not as 0.
inline constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

/// Merged stats:: and audit:: counter snapshot, keyed "stats/<name>" and
/// "audit/<name>".
using Counters = std::map<std::string, std::uint64_t>;
Counters snapshot_counters();
void reset_counters();

/// `p99` of `samples` latencies when at least ten samples lie beyond it,
/// else 0.
double shown_p99(double samples, double p99);

/// Adds the latency metrics of `samples_us` under `prefix` ("virt" or
/// "virt_read"): <prefix>_p50_us, <prefix>_p99_us (shown_p99), and
/// <prefix>_samples.
void add_latency(Values& out, const std::string& prefix,
                 std::vector<double> samples_us);

/// Per-layer metrics every workload derives from the counter snapshot of
/// its timed phase, per completed op: sim, common, rubin and verbs. They
/// come from audit counters and are kAbsent on a build without audits.
void add_counter_layers(Values& out, const Counters& c, double ops);

/// One span: host-clock spans (track 0) wrap calls into the library;
/// virtual-clock spans (track >= 1, one per client) follow one request.
struct Span {
  std::string name;
  int track = 0;
  double start_us = 0;
  double dur_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span recorder, written out once when the run ends.
/// A null Tracer* means an untraced iteration.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Drops the spans recorded so far (each traced iteration starts
  /// clean, so the file holds the last one).
  void clear() { spans_.clear(); }

  std::uint64_t begin(std::string name);
  /// Ends host span `id`, attaching `args` (counts taken at the boundary).
  void end(std::uint64_t id,
           std::vector<std::pair<std::string, double>> args = {});
  /// Records a finished virtual-clock span [start_ns, end_ns] on `track`.
  std::uint64_t add_virtual(std::string name, int track, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t parent = 0);

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). Returns false
  /// when the file cannot be written.
  bool write(const std::string& path, const std::string& meta_json) const;

 private:
  Clock::time_point origin_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;
};

/// RAII host span; does nothing when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, std::string_view name)
      : t_(t), id_(t != nullptr ? t->begin(std::string(name)) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_, std::move(args_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void arg(std::string k, double v) { args_.emplace_back(std::move(k), v); }

 private:
  Tracer* t_;
  std::uint64_t id_;
  std::vector<std::pair<std::string, double>> args_;
};

/// One workload iteration: build the world, run the timed ops, check.
struct Iteration {
  double setup_s = 0;  // host CPU seconds building the world
  double run_s = 0;    // host CPU seconds of the timed ops
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Exact metrics: virtual time and counts. They must repeat bit for bit
  /// on every iteration of a seed (the determinism check). A traced
  /// iteration adds the metrics only its observers can stamp.
  Values exact;
  /// Host-clock per-layer metrics. The run reports their lowest values over
  /// untraced iterations, so tracing cost stays out of them.
  Values host;
  /// Non-empty when an output check failed.
  std::string error;
};

/// One iteration of a workload on the inputs generated from `seed`;
/// `smoke` selects the tiny size the self-test runs.
Iteration run_pbft(std::uint64_t seed, bool smoke, Tracer* tracer);
Iteration run_pop(std::uint64_t seed, bool smoke, Tracer* tracer);
Iteration run_explore(std::uint64_t seed, bool smoke, Tracer* tracer);

/// Timed probe calls into the crypto and counter layers (layers.cpp).
void add_probes(Values& out);

}  // namespace perfbench
