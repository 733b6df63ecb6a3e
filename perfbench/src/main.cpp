// perfbench — runs one workload from a single single-threaded process and
// prints its metrics as one JSON line (README.md in this directory).
//
//   perfbench --workload <pbft-mixed|pop-open-loop|explore-smoke>
//             --seed N --seconds S --trace 0|1
//             [--smoke] [--spans <path>] [--commit <sha>]
//   perfbench --print-config
//
// A run warms up with one untimed iteration, then repeats whole
// iterations (build the world, run the timed ops, check the outputs)
// until S seconds have passed. Untraced (--trace 0) it measures the
// end-to-end metrics; traced, it alternates untraced and traced
// iterations and measures the per-layer metrics plus the tracing
// overhead. The last line of stdout is
//   {"correct": .., "attempted": .., "failed": .., "values": {name: v}}
// with null for a metric this build cannot measure; run.py names and
// labels the values from BENCHMARK.json. Exit status is non-zero when an
// output check fails or a virtual metric or count differs between
// iterations of the seed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "common/audit.hpp"

namespace {

using namespace perfbench;

struct WorkloadDef {
  const char* name;
  Iteration (*run)(std::uint64_t, bool, Tracer*);
};

const WorkloadDef kWorkloads[] = {
    {"pbft-mixed", run_pbft},
    {"pop-open-loop", run_pop},
    {"explore-smoke", run_explore},
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string config_json() {
  return std::string("{\"build_type\":") + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"rubin_audit\":" + (rubin::audit::enabled() ? "true" : "false") +
         ",\"rubin_parallel_lanes\":" +
#if defined(RUBIN_PARALLEL_LANES) && RUBIN_PARALLEL_LANES
         "true" +
#else
         "false" +
#endif
         ",\"compiler\":" + quoted(PERFBENCH_COMPILER) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the exact metrics: equal digests across processes mean the
/// seed's virtual metrics and counts repeated bit for bit.
std::uint64_t digest(const Values& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [k, x] : v) {
    mix(k.data(), k.size());
    mix(&x, sizeof(x));
  }
  return h;
}

/// Names of the metrics present in both maps whose values differ bit for
/// bit (so that two kAbsent values are equal).
std::string mismatch(const Values& a, const Values& b) {
  std::string out;
  for (const auto& [k, x] : a) {
    const auto it = b.find(k);
    if (it != b.end() && std::memcmp(&it->second, &x, sizeof(x)) != 0) {
      out += " " + k;
    }
  }
  return out;
}

/// The lowest value over `its` of a host-clock figure `f`: the fastest
/// iteration's. The host's speed drifts in phases of seconds that every
/// memory-heavy process on it shares; the fastest iteration is the
/// steadiest estimate of the uncontended cost (README.md, "Host-time
/// noise"). Iterations of a seed do identical work, so it is also the
/// highest rate.
template <typename F>
double lowest(const std::vector<Iteration>& its, F&& f) {
  double best = f(its.front());
  for (const Iteration& it : its) best = std::min(best, f(it));
  return best;
}

double run_s(const Iteration& it) { return it.run_s; }

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans <path>] [--commit <sha>]\n"
               "       perfbench --print-config\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadDef* wl = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  std::string spans_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--print-config") {
      std::printf("%s\n", config_json().c_str());
      return 0;
    } else if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) wl = &w;
      }
      if (wl == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", v);
        return 2;
      }
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--spans") {
      spans_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage();
    }
  }
  if (wl == nullptr || seconds < 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  const std::string meta =
      "{\"workload\":" + quoted(wl->name) + ",\"seed\":" +
      std::to_string(seed) + ",\"trace\":" + std::to_string(trace) +
      ",\"smoke\":" + (smoke ? "true" : "false") +
      ",\"commit\":" + quoted(commit) +
      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"config\":" + config_json() + "}";

  // Every iteration builds and tears down whole worlds. Without these,
  // glibc trims the freed arena back to the OS after each teardown and
  // the next world pays page faults to grow it again: an artifact of the
  // harness that makes timings depend on allocator history (the same
  // settings as bench_simkernel).
  mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024 * 1024);

  std::string error;
  // Untimed warm-up: the frame pool, the MR caches and the heap settle.
  {
    const Iteration w = wl->run(seed, smoke, nullptr);
    if (!w.error.empty()) error = "warm-up: " + w.error;
  }

  Tracer tracer;
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const std::size_t min_each = smoke ? 1 : 3;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; error.empty(); ++i) {
    const bool tr = trace == 1 && i % 2 == 1;
    if (tr) tracer.clear();
    Iteration it = wl->run(seed, smoke, tr ? &tracer : nullptr);
    if (!it.error.empty()) {
      error = it.error;
      break;
    }
    // Traced iterations add metrics; the ones both kinds carry must agree.
    std::vector<Iteration>& same = tr ? traced : plain;
    const Iteration* ref = !same.empty()   ? &same.front()
                           : plain.empty() ? nullptr
                                           : &plain.front();
    if (ref != nullptr) {
      const std::string diff = mismatch(it.exact, ref->exact);
      if (!diff.empty() ||
          (!same.empty() && it.exact.size() != ref->exact.size())) {
        error = "iteration " + std::to_string(i) +
                " is not a repeat of the seed; differs in:" + diff;
        break;
      }
    }
    std::printf("perfbench-iteration {\"traced\":%s,\"setup_s\":%s,"
                "\"run_s\":%s,\"ops\":%llu}\n",
                tr ? "true" : "false", num(it.setup_s).c_str(),
                num(it.run_s).c_str(),
                static_cast<unsigned long long>(it.completed));
    same.push_back(std::move(it));
    if (seconds_since(t0) >= seconds && plain.size() >= min_each &&
        (trace == 0 || traced.size() >= min_each)) {
      break;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* its : {&plain, &traced}) {
    for (const Iteration& it : *its) {
      attempted += it.attempted;
      failed += it.failed;
    }
  }

  Values values;
  if (error.empty() && trace == 0) {
    values["setup_s"] =
        lowest(plain, [](const Iteration& it) { return it.setup_s; });
    values["host_ops_per_s"] =
        static_cast<double>(plain.front().completed) / lowest(plain, run_s);
    values["peak_rss_mb"] = peak_rss_mb();
    values["virt_p50_us"] = plain.front().exact.at("virt_p50_us");
    values["virt_ops_per_s"] = plain.front().exact.at("virt_ops_per_s");
  } else if (error.empty()) {
    values = traced.front().exact;
    for (const auto& [k, x] : plain.front().host) {
      values[k] = lowest(plain, [&k](const Iteration& it) {
        return it.host.at(k);
      });
    }
    values["trace.overhead_share"] =
        1.0 - lowest(plain, run_s) / lowest(traced, run_s);
    add_probes(values);
    if (!spans_path.empty() && !tracer.write(spans_path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }

  std::printf("perfbench-meta %s\n", meta.c_str());
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", wl->name, error.c_str());
  } else {
    std::printf("perfbench-exact-digest %016llx\n",
                static_cast<unsigned long long>(digest(plain.front().exact)));
  }
  std::string out = "{\"correct\": " +
                    std::string(error.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    // The raw counters only serve the determinism check.
    if (k.starts_with("count/")) continue;
    out += std::string(first ? "" : ", ") + quoted(k) + ": " +
           (std::isnan(v) ? std::string("null") : num(v));
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return error.empty() ? 0 : 1;
}
