#include "faultlab/fault_file.hpp"

#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/text_reader.hpp"

namespace rubin::faultlab {

namespace {

/// The action vocabulary: one row per FaultAction kind, its verb and its
/// argument signature, one letter per argument in order —
///   r replica id, h host id (the first id fills `a`, the second `b`),
///   p probability (`rate`), u microseconds / m milliseconds (`t`),
///   s replica strategy registry name (`name`).
/// The parser, the writer and validate() all read this table.
struct Verb {
  const char* name;
  FaultAction::Kind kind;
  std::string_view args;
};

constexpr Verb kVerbs[] = {
    {"crash", FaultAction::Kind::kCrash, "r"},
    {"set_strategy", FaultAction::Kind::kSetStrategy, "rs"},
    {"drop_rate", FaultAction::Kind::kDropRate, "p"},
    {"corrupt_rate", FaultAction::Kind::kCorruptRate, "p"},
    {"duplicate_rate", FaultAction::Kind::kDuplicateRate, "p"},
    {"reorder", FaultAction::Kind::kReorder, "pu"},
    {"pair_drop", FaultAction::Kind::kPairDrop, "hhp"},
    {"extra_delay", FaultAction::Kind::kExtraDelay, "hhu"},
    {"oneway", FaultAction::Kind::kOneway, "hh"},
    {"isolate", FaultAction::Kind::kIsolate, "h"},
    {"heal", FaultAction::Kind::kHeal, ""},
    {"nic_stall", FaultAction::Kind::kNicStall, "hm"},
    {"qp_errors", FaultAction::Kind::kQpErrors, "h"},
};

const Verb& verb_of(FaultAction::Kind kind) {
  for (const Verb& v : kVerbs) {
    if (v.kind == kind) return v;
  }
  throw std::logic_error("FaultAction kind without a verb");
}

/// Host-id field filled by the `nth` id argument of a signature.
template <typename Action>
auto& id_field(Action& a, std::size_t nth) {
  return nth == 0 ? a.a : a.b;
}

/// Prints a nanosecond duration as a decimal in `unit_ns` units with no
/// precision loss (ns resolution => at most 6 fractional digits for ms).
std::string time_to_str(sim::Time t, sim::Time unit_ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g",
                static_cast<double>(t) / static_cast<double>(unit_ns));
  return buf;
}

/// One action clause starting at tok[i]; advances i past the clause.
FaultAction parse_action(const TextReader& in, std::size_t& i) {
  const std::vector<std::string>& tok = in.tokens();
  const Verb* verb = nullptr;
  for (const Verb& v : kVerbs) {
    if (tok[i] == v.name) verb = &v;
  }
  if (verb == nullptr) in.fail("unknown fault action '" + tok[i] + "'");
  if (i + verb->args.size() >= tok.size()) {
    in.fail(std::string("'") + verb->name + "' takes " +
            std::to_string(verb->args.size()) + " argument(s)");
  }
  FaultAction a;
  a.kind = verb->kind;
  std::size_t ids = 0;
  for (const char c : verb->args) {
    const std::string& arg = tok[++i];
    if (c == 'r' || c == 'h') id_field(a, ids++) = in.u32(arg);
    if (c == 'p') a.rate = in.rate(arg);
    if (c == 'u') a.t = in.duration(arg, sim::kMicrosecond);
    if (c == 'm') a.t = in.duration(arg, sim::kMillisecond);
    if (c == 's') a.name = arg;
  }
  ++i;
  return a;
}

void write_action(std::ostringstream& os, const FaultAction& a) {
  const Verb& verb = verb_of(a.kind);
  os << verb.name;
  std::size_t ids = 0;
  for (const char c : verb.args) {
    os << ' ';
    if (c == 'r' || c == 'h') os << id_field(a, ids++);
    if (c == 'p') os << a.rate;
    if (c == 'u') os << time_to_str(a.t, sim::kMicrosecond);
    if (c == 'm') os << time_to_str(a.t, sim::kMillisecond);
    if (c == 's') os << a.name;
  }
}

/// Parses the clause list + optional trailing `clears` of an event line,
/// starting at token i.
void parse_event_tail(const TextReader& in, std::size_t i, FaultEvent& e) {
  const std::vector<std::string>& tok = in.tokens();
  if (i >= tok.size()) in.fail("event without an action");
  while (i < tok.size()) {
    if (tok[i] == "clears") {
      if (i + 1 != tok.size()) in.fail("'clears' must come last");
      e.clears_faults = true;
      return;
    }
    if (tok[i] == ";") {
      ++i;
      if (i >= tok.size()) in.fail("dangling ';'");
      continue;
    }
    e.actions.push_back(parse_action(in, i));
  }
}

struct PendingScenario {
  Scenario s;
  std::size_t header_line = 0;
  std::vector<std::size_t> event_lines;  // parallel to s.events
};

/// Shape-dependent checks, run at `end` when n/clients are final.
void validate(const TextReader& in, const PendingScenario& p) {
  const Scenario& s = p.s;
  const auto fail = [&](std::size_t ln, const std::string& what) {
    in.fail_at(ln, what);
  };
  if (s.n < 4) fail(p.header_line, "n must be >= 4 (3f+1 with f >= 1)");
  if (s.clients == 0) fail(p.header_line, "scenario needs >= 1 client");
  const std::uint32_t hosts = s.n + s.clients;
  const auto check_host = [&](std::uint32_t h, std::size_t ln) {
    if (h >= hosts) {
      fail(ln, "host id " + std::to_string(h) + " out of range (" +
                   std::to_string(hosts) + " hosts)");
    }
  };
  const auto check_replica = [&](std::uint32_t r, std::size_t ln) {
    if (r >= s.n) {
      fail(ln, "replica id " + std::to_string(r) + " out of range (n = " +
                   std::to_string(s.n) + ")");
    }
  };
  const auto check_strategy = [&](const std::string& name, std::size_t ln) {
    if (!reptor::make_strategy_by_name(name)) {
      fail(ln, "unknown replica strategy '" + name + "'");
    }
  };
  for (const auto& [id, name] : s.strategies) {
    check_replica(id, p.header_line);
    check_strategy(name, p.header_line);
  }
  for (const auto& [c, name] : s.client_strategies) {
    if (c >= s.clients) {
      fail(p.header_line, "client ordinal " + std::to_string(c) +
                              " out of range (clients = " +
                              std::to_string(s.clients) + ")");
    }
    if (!reptor::make_client_strategy_by_name(name)) {
      fail(p.header_line, "unknown client strategy '" + name + "'");
    }
  }
  for (const reptor::NodeId r : s.runtime_faulty) {
    check_replica(r, p.header_line);
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const FaultEvent& e = s.events[i];
    const std::size_t ln = p.event_lines[i];
    if (e.at >= 0 && e.at >= s.horizon) {
      fail(ln, "event instant at/after the horizon (" +
                   time_to_str(e.at, sim::kMillisecond) + "ms >= " +
                   time_to_str(s.horizon, sim::kMillisecond) + "ms)");
    }
    for (const FaultAction& a : e.actions) {
      std::size_t ids = 0;
      for (const char c : verb_of(a.kind).args) {
        if (c == 'r') check_replica(id_field(a, ids++), ln);
        if (c == 'h') check_host(id_field(a, ids++), ln);
        if (c == 's') check_strategy(a.name, ln);
      }
      if (ids == 2 && a.a == a.b) {
        fail(ln, "pair action needs two distinct hosts");
      }
    }
  }
}

}  // namespace

std::vector<Scenario> parse_fault_text(std::string_view text) {
  std::vector<Scenario> out;
  std::set<std::string> names;
  PendingScenario pending;
  bool in_scenario = false;

  TextReader in(text, "fault file");
  while (in.next()) {
    const std::vector<std::string>& tok = in.tokens();
    const std::string& kw = tok[0];

    if (!in_scenario) {
      if (kw != "scenario") {
        in.fail("expected 'scenario <name>', got '" + kw + "'");
      }
      in.expect_args(1);
      if (!names.insert(tok[1]).second) {
        in.fail("duplicate scenario name '" + tok[1] + "'");
      }
      pending = PendingScenario{};
      pending.s.name = tok[1];
      pending.header_line = in.line();
      in_scenario = true;
      continue;
    }

    Scenario& s = pending.s;
    reptor::ReplicaConfig& rc = s.replica_cfg;
    if (kw == "end") {
      in.expect_args(0);
      validate(in, pending);
      out.push_back(std::move(pending.s));
      in_scenario = false;
    } else if (kw == "describe") {
      std::string d;
      for (std::size_t i = 1; i < tok.size(); ++i) {
        if (i > 1) d += ' ';
        d += tok[i];
      }
      s.description = std::move(d);
    } else if (kw == "n") {
      s.n = in.u32(in.arg());
    } else if (kw == "clients") {
      s.clients = in.u32(in.arg());
    } else if (kw == "requests") {
      s.requests = in.u32(in.arg());
    } else if (kw == "gap_us") {
      s.request_gap = in.duration(in.arg(), sim::kMicrosecond);
    } else if (kw == "seed") {
      s.seed = in.u64(in.arg());
    } else if (kw == "horizon_ms") {
      s.horizon = in.duration(in.arg(), sim::kMillisecond);
    } else if (kw == "liveness_bound_ms") {
      s.liveness_bound = in.duration(in.arg(), sim::kMillisecond);
    } else if (kw == "expect_liveness") {
      s.expect_liveness = in.boolean(in.arg());
    } else if (kw == "one_sided") {
      s.one_sided = in.boolean(in.arg());
    } else if (kw == "pipelines") {
      rc.pipelines = in.u32(in.arg());
    } else if (kw == "batch_timeout_us") {
      rc.batch_timeout = in.duration(in.arg(), sim::kMicrosecond);
    } else if (kw == "checkpoint_interval") {
      rc.checkpoint_interval = in.u64(in.arg());
      if (rc.checkpoint_interval == 0) {
        in.fail("checkpoint_interval must be >= 1");
      }
    } else if (kw == "view_change_timeout_ms") {
      rc.view_change_timeout = in.duration(in.arg(), sim::kMillisecond);
    } else if (kw == "retry_timeout_ms") {
      s.client_cfg.retry_timeout = in.duration(in.arg(), sim::kMillisecond);
    } else if (kw == "strategy") {
      in.expect_args(2);
      s.strategies[static_cast<reptor::NodeId>(in.u32(tok[1]))] = tok[2];
    } else if (kw == "client_strategy") {
      in.expect_args(2);
      s.client_strategies[in.u32(tok[1])] = tok[2];
    } else if (kw == "runtime_faulty") {
      s.runtime_faulty.insert(static_cast<reptor::NodeId>(in.u32(in.arg())));
    } else if (kw == "at_ms" || kw == "after") {
      FaultEvent e;
      if (kw == "at_ms") {
        if (tok.size() < 2) in.fail("'at_ms' needs an instant");
        e.at = in.duration(tok[1], sim::kMillisecond);
      } else {
        if (tok.size() < 2) in.fail("'after' needs a completion count");
        e.after_completions = in.u64(tok[1]);
        if (e.after_completions == 0) in.fail("'after' needs a count >= 1");
      }
      parse_event_tail(in, 2, e);
      pending.event_lines.push_back(in.line());
      s.events.push_back(std::move(e));
    } else {
      in.fail("unknown directive '" + kw + "'");
    }
  }

  if (in_scenario) {
    in.fail("unterminated scenario '" + pending.s.name + "'");
  }
  if (out.empty()) in.fail("file declares no scenarios");
  return out;
}

std::vector<Scenario> load_fault_file(const std::string& path) {
  return parse_fault_text(read_text_file(path, "fault file"));
}

std::string to_fault_text(const Scenario& s) {
  std::ostringstream os;
  os.precision(17);  // rates round-trip exactly
  os << "scenario " << s.name << '\n';
  if (!s.description.empty()) os << "  describe " << s.description << '\n';
  os << "  n " << s.n << '\n';
  os << "  clients " << s.clients << '\n';
  os << "  requests " << s.requests << '\n';
  os << "  gap_us " << time_to_str(s.request_gap, sim::kMicrosecond) << '\n';
  os << "  seed " << s.seed << '\n';
  os << "  horizon_ms " << time_to_str(s.horizon, sim::kMillisecond) << '\n';
  os << "  liveness_bound_ms "
     << time_to_str(s.liveness_bound, sim::kMillisecond) << '\n';
  os << "  expect_liveness " << (s.expect_liveness ? "true" : "false")
     << '\n';
  if (s.one_sided) os << "  one_sided true\n";
  if (s.replica_cfg.pipelines != 1) {
    os << "  pipelines " << s.replica_cfg.pipelines << '\n';
  }
  os << "  batch_timeout_us "
     << time_to_str(s.replica_cfg.batch_timeout, sim::kMicrosecond) << '\n';
  os << "  checkpoint_interval " << s.replica_cfg.checkpoint_interval << '\n';
  os << "  view_change_timeout_ms "
     << time_to_str(s.replica_cfg.view_change_timeout, sim::kMillisecond)
     << '\n';
  os << "  retry_timeout_ms "
     << time_to_str(s.client_cfg.retry_timeout, sim::kMillisecond) << '\n';
  for (const auto& [id, name] : s.strategies) {
    os << "  strategy " << id << ' ' << name << '\n';
  }
  for (const auto& [c, name] : s.client_strategies) {
    os << "  client_strategy " << c << ' ' << name << '\n';
  }
  for (const reptor::NodeId r : s.runtime_faulty) {
    os << "  runtime_faulty " << r << '\n';
  }
  for (const FaultEvent& e : s.events) {
    if (e.at >= 0) {
      os << "  at_ms " << time_to_str(e.at, sim::kMillisecond);
    } else {
      os << "  after " << e.after_completions;
    }
    for (std::size_t i = 0; i < e.actions.size(); ++i) {
      os << (i == 0 ? " " : " ; ");
      write_action(os, e.actions[i]);
    }
    if (e.clears_faults) os << " clears";
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

std::string to_fault_text(const std::vector<Scenario>& scenarios) {
  std::string out;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i > 0) out += '\n';
    out += to_fault_text(scenarios[i]);
  }
  return out;
}

}  // namespace rubin::faultlab
