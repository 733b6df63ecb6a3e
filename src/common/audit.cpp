#include "common/audit.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace rubin::audit {

namespace {

// Single-threaded by design: the simulator owns every audited object.
ScopedCapture* g_capture = nullptr;
std::uint64_t g_failures = 0;

}  // namespace

void fail(std::string_view component, std::string_view message,
          const char* file, int line) noexcept {
  ++g_failures;
  std::string text;
  text.reserve(message.size() + 64);
  text.append("audit failed: ").append(message);
  text.append(" at ").append(file).append(":").append(std::to_string(line));
  if (g_capture != nullptr) {
    g_capture->record(std::move(text));
    return;
  }
  log_error(component, text);
  // Also hit stderr directly: the log level may be above kError in a
  // bench, and an aborting process should always say why.
  std::fprintf(stderr, "[%.*s] %s\n", static_cast<int>(component.size()),
               component.data(), text.c_str());
  std::abort();
}

std::uint64_t failure_count() noexcept { return g_failures; }

ScopedCapture::ScopedCapture() : prev_(g_capture) { g_capture = this; }

ScopedCapture::~ScopedCapture() { g_capture = prev_; }

bool ScopedCapture::saw(std::string_view needle) const noexcept {
  for (const std::string& m : messages_) {
    if (m.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace rubin::audit
