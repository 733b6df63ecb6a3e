// Line-oriented text input shared by every data format in the tree:
// FaultLab `.fault` scenarios, PopLab `.pop` populations and faultexplore
// artifacts. One directive per line, whitespace-separated tokens, `#`
// starts a comment. A TextReader walks the lines and owns the checked
// conversions, so every format rejects the same malformed numbers and
// names the offending line under its own error prefix
// ("<prefix> line N: <what>").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rubin {

/// Whole contents of `path`. Throws std::invalid_argument
/// ("cannot open <what>: <path>") when the file cannot be opened.
std::string read_text_file(const std::string& path, const std::string& what);

class TextReader {
 public:
  TextReader(std::string_view text, std::string prefix)
      : text_(text), prefix_(std::move(prefix)) {}

  /// Advances to the next line holding at least one token (tokens are
  /// separated by spaces or tabs; `#` ends the line). False once the
  /// text is exhausted; line() then numbers the last line.
  bool next();

  /// 1-based number of the current line.
  std::size_t line() const noexcept { return line_; }
  /// Tokens of the current line (never empty after next() returned true).
  const std::vector<std::string>& tokens() const noexcept { return tok_; }
  /// Byte offset just past the current line.
  std::size_t offset() const noexcept { return pos_; }

  /// Throws std::invalid_argument("<prefix> line <N>: <what>") for the
  /// current line, or for line `line`.
  [[noreturn]] void fail(const std::string& what) const {
    fail_at(line_, what);
  }
  [[noreturn]] void fail_at(std::size_t line, const std::string& what) const;
  /// Fails unless the keyword is followed by exactly `n` arguments.
  void expect_args(std::size_t n) const;
  /// The argument of a one-argument directive.
  const std::string& arg() const {
    expect_args(1);
    return tok_[1];
  }

  // Checked conversions. Integers are plain decimal digits (no sign, no
  // base prefix); reals must be finite; every token must be consumed.
  std::uint64_t u64(const std::string& tok) const;
  std::uint32_t u32(const std::string& tok) const;
  /// Hex digits with an optional `0x` prefix.
  std::uint64_t hex64(const std::string& tok) const;
  double real(const std::string& tok) const;
  /// A probability in [0, 1].
  double rate(const std::string& tok) const;
  /// true/false or 1/0.
  bool boolean(const std::string& tok) const;
  /// A non-negative decimal count of `unit_ns`-nanosecond units, rounded
  /// to the nearest nanosecond (so a printed decimal reparses exactly).
  std::int64_t duration(const std::string& tok, std::int64_t unit_ns) const;
  /// As duration(), but a negative value is allowed.
  std::int64_t signed_duration(const std::string& tok,
                               std::int64_t unit_ns) const;

 private:
  /// `digits` (all of `tok`, or its part after a base prefix) in `base`.
  std::uint64_t unsigned_int(const std::string& tok, std::string_view digits,
                             int base) const;

  std::string_view text_;
  std::string prefix_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
  std::vector<std::string> tok_;
};

}  // namespace rubin
