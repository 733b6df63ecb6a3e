#include "poplab/scenario.hpp"

#include <vector>

#include "common/text_reader.hpp"

namespace rubin::poplab {

double ArrivalSchedule::rate_at(sim::Time elapsed) const noexcept {
  switch (kind) {
    case Kind::kSteady:
      return base_rps;
    case Kind::kRamp: {
      if (at <= 0 || elapsed >= at) return peak_rps;
      if (elapsed <= 0) return base_rps;
      const double frac =
          static_cast<double>(elapsed) / static_cast<double>(at);
      return base_rps + (peak_rps - base_rps) * frac;
    }
    case Kind::kStep:
      return elapsed >= at ? peak_rps : base_rps;
    case Kind::kBurst: {
      if (at <= 0) return base_rps;
      const sim::Time phase = elapsed % at;
      return phase < width ? peak_rps : base_rps;
    }
  }
  return base_rps;
}

std::uint32_t PopulationSpec::total_clients() const noexcept {
  std::uint32_t total = 0;
  for (const auto& c : cohorts) total += c.clients;
  return total;
}

PopulationSpec PopulationSpec::parse(std::string_view text) {
  PopulationSpec spec;
  CohortSpec cohort;
  bool in_cohort = false;

  TextReader in(text, "scenario");
  while (in.next()) {
    const std::vector<std::string>& tok = in.tokens();
    const std::string& kw = tok[0];
    const auto ms = [&](const std::string& t) {
      return in.duration(t, sim::kMillisecond);
    };

    if (!in_cohort) {
      if (kw == "population") {
        spec.name = in.arg();
      } else if (kw == "seed") {
        spec.seed = in.u64(in.arg());
      } else if (kw == "duration_ms") {
        spec.duration = ms(in.arg());
      } else if (kw == "cohort") {
        cohort = CohortSpec{};
        cohort.name = in.arg();
        in_cohort = true;
      } else {
        in.fail("unknown directive '" + kw + "'");
      }
      continue;
    }

    if (kw == "end") {
      in.expect_args(0);
      if (cohort.clients == 0) in.fail("cohort has zero clients");
      if (cohort.payload_lo > cohort.payload_hi) {
        in.fail("payload lo exceeds hi");
      }
      spec.cohorts.push_back(cohort);
      in_cohort = false;
    } else if (kw == "clients") {
      cohort.clients = in.u32(in.arg());
    } else if (kw == "start_ms") {
      cohort.start = ms(in.arg());
    } else if (kw == "arrival") {
      if (tok.size() < 2) in.fail("'arrival' needs a schedule kind");
      const std::string& kind = tok[1];
      auto& a = cohort.arrival;
      if (kind == "steady") {
        in.expect_args(2);
        a.kind = ArrivalSchedule::Kind::kSteady;
        a.base_rps = in.real(tok[2]);
      } else if (kind == "ramp") {
        in.expect_args(4);
        a.kind = ArrivalSchedule::Kind::kRamp;
        a.base_rps = in.real(tok[2]);
        a.peak_rps = in.real(tok[3]);
        a.at = ms(tok[4]);
      } else if (kind == "step") {
        in.expect_args(4);
        a.kind = ArrivalSchedule::Kind::kStep;
        a.base_rps = in.real(tok[2]);
        a.at = ms(tok[3]);
        a.peak_rps = in.real(tok[4]);
      } else if (kind == "burst") {
        in.expect_args(5);
        a.kind = ArrivalSchedule::Kind::kBurst;
        a.base_rps = in.real(tok[2]);
        a.peak_rps = in.real(tok[3]);
        a.at = ms(tok[4]);
        a.width = ms(tok[5]);
        if (a.width > a.at) in.fail("burst width exceeds period");
      } else {
        in.fail("unknown arrival kind '" + kind + "'");
      }
    } else if (kw == "ops") {
      in.expect_args(3);
      if (tok[2] != "zipf") in.fail("only 'ops <n> zipf <theta>'");
      cohort.op_space = in.u32(tok[1]);
      if (cohort.op_space == 0) in.fail("empty op space");
      cohort.zipf_theta = in.real(tok[3]);
    } else if (kw == "payload") {
      if (tok.size() < 2) in.fail("'payload' needs a distribution");
      if (tok[1] == "pareto") {
        in.expect_args(4);
        cohort.payload_lo = in.real(tok[2]);
        cohort.payload_hi = in.real(tok[3]);
        cohort.payload_alpha = in.real(tok[4]);
        if (cohort.payload_lo <= 0.0) in.fail("payload lo must be > 0");
      } else if (tok[1] == "fixed") {
        in.expect_args(2);
        cohort.payload_lo = in.real(tok[2]);
        cohort.payload_hi = cohort.payload_lo;
        if (cohort.payload_lo <= 0.0) in.fail("payload must be > 0");
      } else {
        in.fail("unknown payload distribution '" + tok[1] + "'");
      }
    } else if (kw == "timeout_ms") {
      cohort.timeout = ms(in.arg());
    } else {
      in.fail("unknown cohort directive '" + kw + "'");
    }
  }

  if (in_cohort) in.fail("unterminated cohort '" + cohort.name + "'");
  if (spec.cohorts.empty()) in.fail("scenario declares no cohorts");
  return spec;
}

PopulationSpec PopulationSpec::load(const std::string& path) {
  return parse(read_text_file(path, "scenario file"));
}

}  // namespace rubin::poplab
