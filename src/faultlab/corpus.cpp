#include "faultlab/corpus.hpp"

#include <utility>

#include "faultlab/fault_file.hpp"

namespace rubin::faultlab {

std::vector<Scenario> corpus() {
  return load_fault_file(std::string(FAULTLAB_SCENARIO_DIR) + "/corpus.fault");
}

std::vector<Scenario> smoke_corpus() {
  std::vector<Scenario> all = corpus();
  std::vector<Scenario> out;
  for (const char* name :
       {"f1-crash-primary", "f1-lossy-fabric", "f1-byz-equivocating-primary"}) {
    for (Scenario& s : all) {
      if (s.name == name) out.push_back(std::move(s));
    }
  }
  return out;
}

std::optional<Scenario> find_scenario(const std::string& name) {
  for (Scenario& s : corpus()) {
    if (s.name == name) return std::move(s);
  }
  return std::nullopt;
}

}  // namespace rubin::faultlab
