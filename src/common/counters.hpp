// The counter registry: process-wide named monotone counters (frames the
// fabric dropped, bytes the data path copied, which queue an event took,
// values a remote peer forged), compiled into every build. RUBIN_COUNT
// resolves its name to a dense index once per call site, so a tick is one
// indexed add. Single-threaded like the rest of the simulation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rubin::counters {

using Id = std::uint32_t;
using Snapshot = std::vector<std::pair<std::string, std::uint64_t>>;

/// The index of `name`, registering it on first use; reset() keeps it.
Id intern(std::string_view name);

namespace detail {
/// `touched`: added to since the last reset(), so listed by snapshot().
struct Slot { std::uint64_t value = 0; bool touched = false; };
inline Slot* g_slots = nullptr;  // indexed by Id; intern() grows it
}  // namespace detail

/// Adds `delta` to counter `id`. A zero delta still lists it in snapshot().
inline void add(Id id, std::uint64_t delta) noexcept {
  detail::Slot& s = detail::g_slots[id];
  s.value += delta;
  s.touched = true;
}

/// Current value of `name` (0 if not added to since the last reset).
std::uint64_t value(std::string_view name);

/// The counters added to since the last reset(), sorted by name.
Snapshot snapshot();

/// Zeroes every counter and empties snapshot() (tests isolate with this).
void reset();

}  // namespace rubin::counters

// NOLINTNEXTLINE(cppcoreguidelines-macro-usage): one static per call site.
#define RUBIN_COUNT(name, delta)                                         \
  do {                                                                   \
    static const ::rubin::counters::Id rubin_count_id_ =                 \
        ::rubin::counters::intern(name);                                 \
    ::rubin::counters::add(rubin_count_id_, (delta));                    \
  } while (0)

// Forwarders kept only for perfbench/src/layers.cpp, which changes only
// with the benchmark; no other caller may use them, and the next benchmark
// change deletes them. audit::counters() carries the whole snapshot and
// stats::counters_snapshot() none, so perfbench sees each counter once.
namespace rubin::audit {
inline void count(std::string_view n, std::uint64_t d = 1) { ::rubin::counters::add(::rubin::counters::intern(n), d); }
inline ::rubin::counters::Snapshot counters() { return ::rubin::counters::snapshot(); }
inline void reset_counters() { ::rubin::counters::reset(); }
}  // namespace rubin::audit
namespace rubin::stats {
inline void counter_add(std::string_view n, std::uint64_t d = 1) { ::rubin::counters::add(::rubin::counters::intern(n), d); }
inline ::rubin::counters::Snapshot counters_snapshot() { return {}; }
inline void reset_counters() { ::rubin::counters::reset(); }
}  // namespace rubin::stats
