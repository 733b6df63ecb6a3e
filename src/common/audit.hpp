// Runtime invariant-audit layer.
//
// The hot paths of this codebase are exactly the places where lifecycle
// bugs hide silently: pooled buffers recycled by hand, selector keys with
// a cancel/sweep protocol, work requests reclaimed in order by selective
// signaling, and a BFT log whose certificates must never shrink. The
// audit layer states those invariants in code and checks them at runtime.
//
// Everything here compiles away when RUBIN_AUDIT is 0 (the default for
// bare release builds; sanitizer presets and the default configure turn
// it on): the macros keep their arguments type-checked via `if constexpr`
// but generate no code, so audited members can stay unconditionally
// declared without #ifdef scattering. Counters are not part of this layer:
// RUBIN_COUNT (common/counters.hpp) counts in every build.
//
// Primitives:
//   RUBIN_AUDIT_ASSERT(component, cond, msg)  — invariant check; on
//       failure logs `msg` (lazily evaluated) and aborts, unless a
//       ScopedCapture is installed (tests).
//   RUBIN_AUDIT_SCOPE(component, msg, pred)   — checks `pred()` when the
//       enclosing scope exits (normal or exceptional).
//
// The simulator is single-threaded; captures are not synchronized. Under
// the tsan preset the audit layer is still safe to *enable* as long as
// audited objects keep their existing single-thread ownership discipline
// — which is itself an invariant worth tripping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rubin::audit {

#if defined(RUBIN_AUDIT) && RUBIN_AUDIT
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

constexpr bool enabled() noexcept { return kEnabled; }

/// Records a failed audit: logs it and aborts, or, when a ScopedCapture
/// is active, records it there and returns (so destructor-side audits can
/// be tested without death tests).
void fail(std::string_view component, std::string_view message,
          const char* file, int line) noexcept;

/// Total audits failed since process start (captured or fatal).
std::uint64_t failure_count() noexcept;

/// RAII: while alive, audit failures are recorded here instead of
/// aborting. Nesting installs the innermost capture. Single-threaded.
class ScopedCapture {
 public:
  ScopedCapture();
  ~ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

  std::size_t count() const noexcept { return messages_.size(); }
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }
  /// True iff some captured message contains `needle`.
  bool saw(std::string_view needle) const noexcept;

 private:
  friend void fail(std::string_view, std::string_view, const char*,
                   int) noexcept;
  void record(std::string text) { messages_.push_back(std::move(text)); }

  std::vector<std::string> messages_;
  ScopedCapture* prev_;
};

namespace detail {

/// Scope-exit invariant check (the RUBIN_AUDIT_SCOPE payload).
template <typename Pred>
class ScopeCheck {
 public:
  ScopeCheck(const char* component, const char* msg, const char* file,
             int line, Pred pred)
      : component_(component),
        msg_(msg),
        file_(file),
        line_(line),
        pred_(std::move(pred)) {}
  ScopeCheck(const ScopeCheck&) = delete;
  ScopeCheck& operator=(const ScopeCheck&) = delete;
  ~ScopeCheck() {
    if (!pred_()) fail(component_, msg_, file_, line_);
  }

 private:
  const char* component_;
  const char* msg_;
  const char* file_;
  int line_;
  Pred pred_;
};

}  // namespace detail
}  // namespace rubin::audit

// NOLINTBEGIN(cppcoreguidelines-macro-usage): compile-away instrumentation
// needs macros for lazy message evaluation and __FILE__/__LINE__ capture.
#define RUBIN_AUDIT_ASSERT(component, cond, msg)                            \
  do {                                                                      \
    if constexpr (::rubin::audit::kEnabled) {                               \
      if (!(cond)) {                                                        \
        ::rubin::audit::fail((component), std::string(msg) + " [" #cond "]", \
                             __FILE__, __LINE__);                           \
      }                                                                     \
    }                                                                       \
  } while (0)

#define RUBIN_AUDIT_CONCAT_(a, b) a##b
#define RUBIN_AUDIT_CONCAT(a, b) RUBIN_AUDIT_CONCAT_(a, b)

// Declares a scope guard checking `pred` (a no-arg callable returning
// bool) when the scope unwinds. No-op without RUBIN_AUDIT.
#if defined(RUBIN_AUDIT) && RUBIN_AUDIT
#define RUBIN_AUDIT_SCOPE(component, msg, pred)                      \
  ::rubin::audit::detail::ScopeCheck RUBIN_AUDIT_CONCAT(             \
      rubin_audit_scope_, __LINE__)((component), (msg), __FILE__,    \
                                    __LINE__, (pred))
#else
#define RUBIN_AUDIT_SCOPE(component, msg, pred) \
  do {                                          \
  } while (0)
#endif
// NOLINTEND(cppcoreguidelines-macro-usage)
