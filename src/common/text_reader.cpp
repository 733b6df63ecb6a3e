#include "common/text_reader.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rubin {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '#') {
      ++i;
    }
    out.emplace_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace

std::string read_text_file(const std::string& path, const std::string& what) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::invalid_argument("cannot open " + what + ": " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

bool TextReader::next() {
  while (pos_ <= text_.size()) {
    const std::size_t eol = text_.find('\n', pos_);
    const std::string_view line = text_.substr(
        pos_, eol == std::string_view::npos ? text_.size() - pos_ : eol - pos_);
    pos_ = eol == std::string_view::npos ? text_.size() + 1 : eol + 1;
    ++line_;
    tok_ = tokenize(line);
    if (!tok_.empty()) return true;
  }
  return false;
}

void TextReader::fail_at(std::size_t line, const std::string& what) const {
  throw std::invalid_argument(prefix_ + " line " + std::to_string(line) +
                              ": " + what);
}

void TextReader::expect_args(std::size_t n) const {
  if (tok_.size() != n + 1) {
    fail("'" + tok_[0] + "' takes " + std::to_string(n) + " argument(s), got " +
         std::to_string(tok_.size() - 1));
  }
}

std::uint64_t TextReader::unsigned_int(const std::string& tok,
                                       std::string_view digits,
                                       int base) const {
  if (!digits.empty() && (digits[0] == '-' || digits[0] == '+')) {
    fail("expected a non-negative integer, got '" + tok + "'");
  }
  std::uint64_t v = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v, base);
  if (ec == std::errc::result_out_of_range) {
    fail("integer out of range: '" + tok + "'");
  }
  if (ec != std::errc{}) fail("expected an integer, got '" + tok + "'");
  if (ptr != end) fail("trailing junk in integer '" + tok + "'");
  return v;
}

std::uint64_t TextReader::u64(const std::string& tok) const {
  return unsigned_int(tok, tok, 10);
}

std::uint32_t TextReader::u32(const std::string& tok) const {
  const std::uint64_t v = u64(tok);
  if (v > 0xFFFFFFFFull) fail("integer out of range: '" + tok + "'");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t TextReader::hex64(const std::string& tok) const {
  const bool prefixed = tok.size() > 2 && tok[0] == '0' &&
                        (tok[1] == 'x' || tok[1] == 'X');
  return unsigned_int(tok, std::string_view(tok).substr(prefixed ? 2 : 0), 16);
}

double TextReader::real(const std::string& tok) const {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    fail("expected a number, got '" + tok + "'");
  }
  if (pos != tok.size()) fail("trailing junk in number '" + tok + "'");
  if (!std::isfinite(v)) fail("expected a finite number, got '" + tok + "'");
  return v;
}

double TextReader::rate(const std::string& tok) const {
  const double p = real(tok);
  if (p < 0.0 || p > 1.0) fail("probability out of [0,1]: '" + tok + "'");
  return p;
}

bool TextReader::boolean(const std::string& tok) const {
  if (tok == "true" || tok == "1") return true;
  if (tok == "false" || tok == "0") return false;
  fail("expected true/false, got '" + tok + "'");
}

std::int64_t TextReader::duration(const std::string& tok,
                                  std::int64_t unit_ns) const {
  if (real(tok) < 0.0) fail("negative duration");
  return signed_duration(tok, unit_ns);
}

std::int64_t TextReader::signed_duration(const std::string& tok,
                                         std::int64_t unit_ns) const {
  const double ns = real(tok) * static_cast<double>(unit_ns);
  if (std::fabs(ns) >= 9.2e18) fail("duration out of range: '" + tok + "'");
  return static_cast<std::int64_t>(std::llround(ns));
}

}  // namespace rubin
