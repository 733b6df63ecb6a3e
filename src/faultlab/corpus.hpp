// The FaultLab scenario corpus: crash, network, NIC, and Byzantine
// faults at f=1 (n=4) and f=2 (n=7), plus one beyond-envelope scenario
// (> f crashes) where only safety is expected to survive. The scenarios
// are data in scenarios/corpus.fault, read at run time from the source
// tree (FAULTLAB_SCENARIO_DIR is fixed at build time).
// bench_fault_matrix runs the full corpus (EXPERIMENTS.md E6); CI smoke
// runs the subset from smoke_corpus().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "faultlab/scenario.hpp"

namespace rubin::faultlab {

/// Every scenario in scenarios/corpus.fault, in file order. Throws
/// std::invalid_argument when the file is missing or malformed.
std::vector<Scenario> corpus();

/// Small cross-section for CI: one crash, one network, one Byzantine.
std::vector<Scenario> smoke_corpus();

/// Looks up a corpus scenario by name.
std::optional<Scenario> find_scenario(const std::string& name);

}  // namespace rubin::faultlab
