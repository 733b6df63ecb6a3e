#include "faultlab/explore.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "common/text_reader.hpp"
#include "faultlab/fault_file.hpp"

namespace rubin::faultlab {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Hold-back applied by the kReorderRate perturbation when the artifact
/// carries no explicit value (legacy lines).
constexpr sim::Time kDefaultReorderHold = sim::microseconds(15);

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, std::string_view s) {
  return fnv1a(h, s.data(), s.size());
}

/// splitmix64 — turns sweep ordinals into well-spread seeds.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A delivery-order swap branch: delay decision point `index` so it
/// lands just after the frame it raced with.
struct SwapCandidate {
  std::uint64_t index = 0;
  sim::Time delay = 0;
};

/// Extracts commute-breaking pairs from a recorded baseline trace: two
/// delivered frames into the same destination from different sources
/// within `window` of each other. Delaying the earlier one past the
/// later is the only reordering of the pair that can change anything —
/// same-source frames stay FIFO per link and different-destination
/// deliveries commute, so no branch is spawned for those (the DPOR cut).
std::vector<SwapCandidate> swap_candidates(
    std::vector<net::Fabric::FramePoint> trace, sim::Time window,
    std::size_t limit) {
  trace.erase(std::remove_if(trace.begin(), trace.end(),
                             [](const net::Fabric::FramePoint& p) {
                               return p.dropped;
                             }),
              trace.end());
  std::sort(trace.begin(), trace.end(),
            [](const net::Fabric::FramePoint& x,
               const net::Fabric::FramePoint& y) {
              return x.arrival != y.arrival ? x.arrival < y.arrival
                                            : x.index < y.index;
            });
  std::vector<SwapCandidate> out;
  for (std::size_t i = 0; i + 1 < trace.size() && out.size() < limit; ++i) {
    const auto& a = trace[i];
    const auto& b = trace[i + 1];
    if (a.dst != b.dst || a.src == b.src) continue;
    const sim::Time gap = b.arrival - a.arrival;
    if (gap > window) continue;
    out.push_back({a.index, gap + sim::microseconds(1)});
  }
  return out;
}

}  // namespace

ScheduleResult Explorer::run_schedule(
    const Scenario& base, std::vector<Perturbation> ps,
    std::vector<net::Fabric::FramePoint>* record) {
  Scenario s = base;
  std::vector<std::pair<std::uint64_t, sim::Time>> frame_delays;
  for (const Perturbation& p : ps) {
    switch (p.kind) {
      case Perturbation::Kind::kSeed:
        s.seed = p.arg;
        break;
      case Perturbation::Kind::kDropRate:
        s.events.push_back(
            {.at = 0, .actions = {FaultAction::drop_rate(p.rate)}});
        break;
      case Perturbation::Kind::kReorderRate:
        s.events.push_back({.at = 0,
                            .actions = {FaultAction::reorder(
                                p.rate, p.t > 0 ? p.t : kDefaultReorderHold)}});
        break;
      case Perturbation::Kind::kDuplicateRate:
        s.events.push_back(
            {.at = 0, .actions = {FaultAction::duplicate_rate(p.rate)}});
        break;
      case Perturbation::Kind::kFrameDelay:
        frame_delays.emplace_back(p.arg, p.t);
        break;
      case Perturbation::Kind::kEventJitter:
        if (p.arg < s.events.size() && s.events[p.arg].at >= 0) {
          sim::Time at = s.events[p.arg].at + p.t;
          at = std::max<sim::Time>(at, 0);
          at = std::min<sim::Time>(at, s.horizon - 1);
          s.events[p.arg].at = at;
        }
        break;
    }
  }

  Lab lab(std::move(s));
  std::uint64_t trace = kFnvOffset;
  lab.fabric().set_frame_probe([&](const net::Fabric::FramePoint& fp) {
    if (record != nullptr) record->push_back(fp);
    trace = fnv1a(trace, &fp.src, sizeof(fp.src));
    trace = fnv1a(trace, &fp.dst, sizeof(fp.dst));
    trace = fnv1a(trace, &fp.payload_bytes, sizeof(fp.payload_bytes));
    trace = fnv1a(trace, &fp.arrival, sizeof(fp.arrival));
    const std::uint8_t dropped = fp.dropped ? 1 : 0;
    trace = fnv1a(trace, &dropped, sizeof(dropped));
  });
  for (const auto& [index, extra] : frame_delays) {
    lab.fabric().set_frame_extra_delay(index, extra);
  }

  ScheduleResult out;
  out.perturbations = std::move(ps);
  out.report = lab.run();
  lab.fabric().set_frame_probe(nullptr);
  lab.fabric().clear_frame_extra_delays();
  out.trace_digest = trace;
  out.violation = !out.report.passed();
  // The key separates executions, not just frame traces: mix in the
  // commit digest (different commit orders behind an identical wire
  // trace stay distinct) and the verdict bits (a violation never dedups
  // against a pass).
  std::uint64_t key = trace;
  key = fnv1a(key, &out.report.verdict.commit_digest,
              sizeof(out.report.verdict.commit_digest));
  const std::uint8_t bits =
      static_cast<std::uint8_t>((out.report.verdict.safe ? 1 : 0) |
                                (out.report.verdict.no_forgery ? 2 : 0) |
                                (out.report.verdict.live ? 4 : 0));
  key = fnv1a(key, &bits, sizeof(bits));
  out.schedule_key = key;
  RUBIN_COUNT("faultlab.explore.runs", 1);
  return out;
}

ScheduleResult Explorer::minimize(const Scenario& base,
                                  ScheduleResult failing,
                                  std::uint64_t* minimization_runs) {
  std::uint64_t spent = 0;
  const auto try_schedule = [&](std::vector<Perturbation> ps,
                                ScheduleResult& into) {
    ++spent;
    ScheduleResult r = run_schedule(base, std::move(ps));
    if (r.violation) {
      into = std::move(r);
      return true;
    }
    return false;
  };

  // Phase 1: drop perturbations (greedy ddmin — the sets are small).
  // Restart the scan after every successful removal so later survivors
  // get re-tested against the shrunken context.
  bool changed = true;
  while (changed && failing.perturbations.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < failing.perturbations.size(); ++i) {
      std::vector<Perturbation> trial = failing.perturbations;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_schedule(std::move(trial), failing)) {
        changed = true;
        break;
      }
    }
  }

  // Phase 2: shrink magnitudes — halve rates and delays toward zero
  // while the violation persists (seeds and indices are not scalar).
  for (std::size_t i = 0; i < failing.perturbations.size(); ++i) {
    for (int round = 0; round < 6; ++round) {
      std::vector<Perturbation> trial = failing.perturbations;
      Perturbation& p = trial[i];
      bool shrunk = false;
      if (p.rate > 0.001) {
        p.rate /= 2.0;
        shrunk = true;
      }
      if (p.kind != Perturbation::Kind::kEventJitter &&
          p.t > sim::microseconds(1)) {
        p.t /= 2;
        shrunk = true;
      }
      if (!shrunk || !try_schedule(std::move(trial), failing)) break;
    }
  }

  if (minimization_runs != nullptr) *minimization_runs += spent;
  return failing;
}

ExploreReport Explorer::explore(const Scenario& base) {
  ExploreReport rep;
  rep.scenario = base.name;

  std::set<std::uint64_t> seen;
  std::uint32_t left = opts_.budget;
  const auto admit = [&](ScheduleResult r) {
    ++rep.runs;
    if (!seen.insert(r.schedule_key).second) {
      ++rep.dedup_hits;
      RUBIN_COUNT("faultlab.explore.dedup_hits", 1);
      return;
    }
    ++rep.unique_schedules;
    if (r.violation) {
      ++rep.violations;
      RUBIN_COUNT("faultlab.explore.violations", 1);
      if (opts_.minimize) {
        r = minimize(base, std::move(r), &rep.minimization_runs);
      }
      rep.failures.push_back(std::move(r));
    }
  };
  const auto spend = [&](std::vector<Perturbation> ps) {
    if (left == 0) return false;
    --left;
    admit(run_schedule(base, std::move(ps)));
    return left > 0;
  };

  // Baseline: the unperturbed schedule, with its full trace recorded —
  // the swap branches come from the decision points it actually visited.
  std::vector<net::Fabric::FramePoint> baseline_trace;
  {
    ScheduleResult r = run_schedule(base, {}, &baseline_trace);
    rep.baseline_trace = r.trace_digest;
    rep.baseline_commit = r.report.verdict.commit_digest;
    if (left > 0) {
      --left;
      admit(std::move(r));
    }
  }

  // Axis 1 — fault-RNG seed sweep: same schedule skeleton, different
  // dice. Any seed-dependent invariant break surfaces here.
  for (std::uint32_t k = 1; k <= opts_.seed_sweeps && left > 0; ++k) {
    if (!spend({Perturbation::seed(splitmix(base.seed + k))})) break;
  }

  // Axis 2 — extra fault dice at conservative magnitudes (large enough
  // to branch the schedule, small enough that an honest protocol under
  // an in-envelope scenario must still pass).
  std::vector<Perturbation> dice;
  for (const double p : {0.005, 0.01, 0.02}) dice.push_back(Perturbation::drop(p));
  for (const double p : {0.05, 0.15, 0.30}) {
    dice.push_back(Perturbation::reorder(p, kDefaultReorderHold));
  }
  for (const double p : {0.05, 0.15, 0.30}) {
    dice.push_back(Perturbation::duplicate(p));
  }
  for (const Perturbation& p : dice) {
    if (left == 0 || !spend({p})) break;
  }

  // Axis 3 — fault-action timing jitter: each timed event slides a
  // little early and a little late, crossing protocol phase boundaries
  // (batch flush, view-change arm, checkpoint) it sat next to.
  for (std::size_t i = 0; i < base.events.size() && left > 0; ++i) {
    if (base.events[i].at < 0) continue;
    for (const sim::Time d :
         {-sim::milliseconds(2), -sim::microseconds(500),
          sim::microseconds(500), sim::milliseconds(2)}) {
      if (!spend({Perturbation::event_jitter(i, d)})) break;
    }
  }

  // Axis 4 — delivery-order swaps at the baseline's commute-breaking
  // decision points.
  const std::vector<SwapCandidate> swaps = swap_candidates(
      std::move(baseline_trace), opts_.swap_window, opts_.swap_limit);
  for (const SwapCandidate& c : swaps) {
    if (left == 0 ||
        !spend({Perturbation::frame_delay(c.index, c.delay)})) {
      break;
    }
  }

  // Axis 5 — seeded pair combos until the budget runs dry: two single
  // -axis perturbations composed, drawn deterministically so a re-run
  // explores the identical schedule set.
  std::vector<Perturbation> pool = dice;
  for (std::uint32_t k = 1; k <= 8; ++k) {
    pool.push_back(Perturbation::seed(splitmix(base.seed + k)));
  }
  for (std::size_t i = 0; i < swaps.size() && i < 32; ++i) {
    pool.push_back(Perturbation::frame_delay(swaps[i].index, swaps[i].delay));
  }
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    if (base.events[i].at < 0) continue;
    pool.push_back(Perturbation::event_jitter(i, sim::microseconds(500)));
    pool.push_back(Perturbation::event_jitter(i, -sim::microseconds(500)));
  }
  if (pool.size() >= 2) {
    Rng combo(opts_.rng_seed ^ fnv1a_str(kFnvOffset, base.name));
    while (left > 0) {
      const std::size_t i = combo.next_below(pool.size());
      std::size_t j = combo.next_below(pool.size() - 1);
      if (j >= i) ++j;
      if (!spend({pool[i], pool[j]})) break;
    }
  }
  return rep;
}

// ------------------------------------------------- replayable artifacts --

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// The artifact `perturb` vocabulary, read by both the writer and the
/// parser: one row per Perturbation kind, its name and argument
/// signature, one letter per argument in order —
///   n unsigned integer (`arg`), p probability (`rate`),
///   u microseconds (`t`), j signed milliseconds (`t`).
struct PerturbVerb {
  const char* name;
  Perturbation::Kind kind;
  std::string_view args;
};

constexpr PerturbVerb kPerturbVerbs[] = {
    {"seed", Perturbation::Kind::kSeed, "n"},
    {"drop_rate", Perturbation::Kind::kDropRate, "p"},
    {"reorder_rate", Perturbation::Kind::kReorderRate, "pu"},
    {"duplicate_rate", Perturbation::Kind::kDuplicateRate, "p"},
    {"frame_delay", Perturbation::Kind::kFrameDelay, "nu"},
    {"event_jitter", Perturbation::Kind::kEventJitter, "nj"},
};

}  // namespace

std::string to_artifact_text(const Scenario& base, const ScheduleResult& r) {
  std::string out = "# faultexplore failing schedule (replay with "
                    "`faultexplore --replay <this file>`)\n";
  out += to_fault_text(base);
  for (const Perturbation& p : r.perturbations) {
    for (const PerturbVerb& v : kPerturbVerbs) {
      if (v.kind != p.kind) continue;
      out += std::string("perturb ") + v.name;
      for (const char c : v.args) {
        out += ' ';
        if (c == 'n') out += std::to_string(p.arg);
        if (c == 'p') out += num(p.rate);
        if (c == 'u') out += num(static_cast<double>(p.t) / 1e3);
        if (c == 'j') out += num(static_cast<double>(p.t) / 1e6);
      }
      out += '\n';
    }
  }
  out += "expect trace " + hex64(r.trace_digest) + "\n";
  out += "expect commit " + hex64(r.report.verdict.commit_digest) + "\n";
  return out;
}

Artifact parse_artifact_text(std::string_view text) {
  // The scenario block (first `scenario` line through its `end`) goes to
  // the `.fault` parser; every line after it is a perturb/expect line.
  Artifact art;
  std::size_t block_end = 0;  // offset just past the block's `end` line
  bool in_scenario = false;

  TextReader in(text, "artifact");
  while (in.next()) {
    const std::vector<std::string>& tok = in.tokens();
    const std::string& kw = tok[0];
    if (block_end == 0) {
      if (!in_scenario && kw != "scenario") {
        in.fail("expected the scenario block first");
      }
      in_scenario = true;
      if (kw == "end") block_end = in.offset();
      continue;
    }

    if (kw == "perturb") {
      if (tok.size() < 2) in.fail("'perturb' needs a kind");
      const PerturbVerb* verb = nullptr;
      for (const PerturbVerb& v : kPerturbVerbs) {
        if (tok[1] == v.name) verb = &v;
      }
      if (verb == nullptr) in.fail("unknown perturbation '" + tok[1] + "'");
      if (tok.size() != verb->args.size() + 2) {
        in.fail("'" + tok[1] + "' takes " +
                std::to_string(verb->args.size()) + " argument(s)");
      }
      Perturbation p;
      p.kind = verb->kind;
      for (std::size_t k = 0; k < verb->args.size(); ++k) {
        const std::string& t = tok[k + 2];
        const char c = verb->args[k];
        if (c == 'n') p.arg = in.u64(t);
        if (c == 'p') p.rate = in.rate(t);
        if (c == 'u') p.t = in.duration(t, sim::kMicrosecond);
        if (c == 'j') p.t = in.signed_duration(t, sim::kMillisecond);
      }
      art.perturbations.push_back(p);
    } else if (kw == "expect") {
      in.expect_args(2);
      const std::uint64_t v = in.hex64(tok[2]);
      if (tok[1] == "trace") {
        art.trace_digest = v;
      } else if (tok[1] == "commit") {
        art.commit_digest = v;
      } else {
        in.fail("unknown expectation '" + tok[1] + "'");
      }
    } else {
      in.fail("unknown directive '" + kw + "'");
    }
  }

  if (block_end == 0) in.fail("artifact has no scenario block");
  // Lines before the block are blank or comments, so the `.fault`
  // parser's line numbers match the artifact's.
  auto scenarios = parse_fault_text(text.substr(0, block_end));
  if (scenarios.size() != 1) {
    in.fail("artifact must hold exactly one scenario");
  }
  art.scenario = std::move(scenarios[0]);
  return art;
}

Artifact load_artifact(const std::string& path) {
  return parse_artifact_text(read_text_file(path, "artifact"));
}

}  // namespace rubin::faultlab
