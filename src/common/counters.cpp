#include "common/counters.hpp"

#include <map>

namespace rubin::counters {
namespace {

struct Registry {
  std::map<std::string, Id, std::less<>> ids;  // sorted: snapshot order
  std::vector<detail::Slot> slots;              // by Id; g_slots aliases it
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

Id intern(std::string_view name) {
  Registry& r = registry();
  if (const auto it = r.ids.find(name); it != r.ids.end()) return it->second;
  const auto id = static_cast<Id>(r.slots.size());
  r.ids.emplace(name, id);
  r.slots.emplace_back();
  detail::g_slots = r.slots.data();
  return id;
}

std::uint64_t value(std::string_view name) {
  const Registry& r = registry();
  const auto it = r.ids.find(name);
  return it == r.ids.end() ? 0 : r.slots[it->second].value;
}

Snapshot snapshot() {
  const Registry& r = registry();
  Snapshot out;
  for (const auto& [name, id] : r.ids) {
    if (r.slots[id].touched) out.emplace_back(name, r.slots[id].value);
  }
  return out;
}

void reset() {
  for (detail::Slot& s : registry().slots) s = detail::Slot{};
}

}  // namespace rubin::counters
