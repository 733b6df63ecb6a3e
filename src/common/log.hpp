// Minimal leveled logger.
//
// The simulator is single-threaded, so no locking is needed; benches run
// with the level at `kOff` so logging cost never pollutes measurements.
// Messages are plain strings — callers format with std::format-style
// helpers or string concatenation at the call site, guarded by
// `log_enabled()` so disabled levels cost one branch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rubin {

enum class LogLevel : std::uint8_t { kTrace, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log level. Defaults to kWarn.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// True when a message at `level` would be emitted.
bool log_enabled(LogLevel level) noexcept;

/// Emits `msg` tagged with `component` if `level` is enabled.
void log(LogLevel level, std::string_view component, std::string_view msg);

/// Convenience wrapper.
inline void log_error(std::string_view c, std::string_view m) { log(LogLevel::kError, c, m); }

}  // namespace rubin
