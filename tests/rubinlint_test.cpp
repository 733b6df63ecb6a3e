// rubinlint selftests: lexer unit behavior, the golden corpus (every
// `lint-expect` marker in tests/lint_corpus must flag, nothing else may),
// and the shipped tree (zero findings — true positives get fixed or
// suppressed with rationale, never left to rot).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analyzer.hpp"
#include "lexer.hpp"

namespace rubinlint {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Recursively collects *.cpp / *.hpp under root/rel, '/'-separated and
/// sorted (mirrors the CLI walk). `skip` drops any path containing it.
void collect(const fs::path& root, const fs::path& rel, const char* skip,
             std::vector<std::string>& out) {
  const fs::path abs = root / rel;
  std::error_code ec;
  if (fs::is_regular_file(abs, ec)) {
    const std::string ext = abs.extension().string();
    if (ext == ".cpp" || ext == ".hpp") out.push_back(rel.generic_string());
    return;
  }
  if (!fs::is_directory(abs, ec)) return;
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(abs, ec))
    entries.push_back(e.path().filename());
  std::sort(entries.begin(), entries.end());
  for (const auto& name : entries) {
    const fs::path child = rel / name;
    if (skip && child.generic_string().find(skip) != std::string::npos)
      continue;
    collect(root, child, skip, out);
  }
}

// ------------------------------------------------------------- lexer ----

bool has_ident(const LexedFile& f, const char* text) {
  for (const auto& t : f.tokens)
    if (t.kind == Tok::kIdent && t.text == text) return true;
  return false;
}

TEST(Lexer, StringsAndCommentsProduceNoIdents) {
  const auto f = lex("src/x.cpp",
                     "const char* s = \"new Foo\";\n"
                     "// std::rand() in prose\n"
                     "int a; /* steady_clock::now() */\n");
  EXPECT_FALSE(has_ident(f, "Foo"));
  EXPECT_FALSE(has_ident(f, "rand"));
  EXPECT_FALSE(has_ident(f, "steady_clock"));
  EXPECT_TRUE(has_ident(f, "a"));
}

TEST(Lexer, RawStringsSwallowTheirPayload) {
  const auto f = lex("src/x.cpp",
                     "const char* r = R\"x(printf(\"%d\", new int);)x\";\n"
                     "int after = 1;\n");
  EXPECT_FALSE(has_ident(f, "printf"));
  EXPECT_FALSE(has_ident(f, "new"));
  EXPECT_TRUE(has_ident(f, "after"));
}

TEST(Lexer, TrailingCommentDoesNotHideTheCode) {
  // The grep-era checks dropped any line containing "//" — a violation
  // with a trailing comment was invisible. The lexer keeps the code.
  const auto f = lex("src/x.cpp", "int* p = new int;  // scratch buffer\n");
  EXPECT_TRUE(has_ident(f, "new"));
}

TEST(Lexer, AllowsCoverOwnAndNextLine) {
  const auto f = lex("src/x.cpp",
                     "int a;\n"
                     "// rubinlint:allow(house-naked-new, det-random) why\n"
                     "int* p = new int;\n"
                     "int b;\n");
  ASSERT_EQ(f.allows.count(2), 1u);
  ASSERT_EQ(f.allows.count(3), 1u);
  EXPECT_EQ(f.allows.count(4), 0u);
  EXPECT_EQ(f.allows.at(3),
            (std::vector<std::string>{"house-naked-new", "det-random"}));
}

TEST(Lexer, DigitSeparatorsStayInsideTheNumber) {
  // 0xACC'0000: the ' is a digit separator, not a char-literal opener.
  // Mis-lexing it swallowed everything up to the next apostrophe, hiding
  // whole stretches of a file from every downstream rule.
  const auto f = lex("src/x.cpp",
                     "const int wr_id = 0xACC'0000 + seq;\n"
                     "RUBIN_COUNT(\"x.y\", 1);\n"
                     "char c = 'z';\n");
  EXPECT_TRUE(has_ident(f, "RUBIN_COUNT"));
  bool saw_number = false, saw_char = false;
  for (const auto& t : f.tokens) {
    saw_number = saw_number || (t.kind == Tok::kNumber && t.text == "0xACC'0000");
    saw_char = saw_char || (t.kind == Tok::kChar && t.text == "z");
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_char);
}

TEST(Lexer, PpIncludePathsLexAsStrings) {
  const auto f = lex("src/x.cpp",
                     "#include <unordered_map>\n"
                     "#include \"../up/one.hpp\"\n");
  // Angle-bracket paths must not leak an `unordered_map` ident.
  EXPECT_FALSE(has_ident(f, "unordered_map"));
  bool saw_rel = false;
  for (const auto& t : f.tokens)
    saw_rel = saw_rel || (t.kind == Tok::kString && t.text == "../up/one.hpp");
  EXPECT_TRUE(saw_rel);
}

// ------------------------------------------------------ golden corpus ----

using Key = std::tuple<std::string, int, std::string>;  // path, line, rule

std::string key_str(const Key& k) {
  return std::get<0>(k) + ":" + std::to_string(std::get<1>(k)) + " [" +
         std::get<2>(k) + "]";
}

/// Parses `lint-expect(rule[, rule...])` markers out of a file's text.
std::set<Key> harvest_expectations(const std::string& path,
                                   const std::string& text) {
  std::set<Key> out;
  int line = 1;
  std::istringstream ss(text);
  for (std::string l; std::getline(ss, l); ++line) {
    const auto at = l.find("lint-expect(");
    if (at == std::string::npos) continue;
    const auto close = l.find(')', at);
    if (close == std::string::npos) {
      ADD_FAILURE() << "unterminated lint-expect at " << path << ":" << line;
      continue;
    }
    const std::string rules = l.substr(at + 12, close - at - 12);
    std::string cur;
    for (char c : rules + ",") {
      if (c == ',') {
        if (!cur.empty()) out.insert(Key{path, line, cur});
        cur.clear();
      } else if (c != ' ') {
        cur.push_back(c);
      }
    }
  }
  return out;
}

TEST(Corpus, EveryMarkerFlagsAndNothingElse) {
  const fs::path corpus = RUBINLINT_CORPUS_DIR;
  std::vector<std::string> files;
  collect(corpus, "src", nullptr, files);
  collect(corpus, "tests", nullptr, files);
  ASSERT_GE(files.size(), 10u) << "corpus went missing";

  Analyzer analyzer;
  std::set<Key> expected;
  for (const auto& rel : files) {
    const std::string text = slurp(corpus / rel);
    for (const auto& k : harvest_expectations(rel, text))
      expected.insert(k);
    analyzer.add_file(lex(rel, text));
  }
  ASSERT_FALSE(expected.empty()) << "corpus has no lint-expect markers";

  std::set<Key> actual;
  for (const auto& d : analyzer.finish())
    actual.insert(Key{d.path, d.line, d.rule});

  for (const auto& k : expected)
    EXPECT_TRUE(actual.count(k)) << "must-flag case missed: " << key_str(k);
  for (const auto& k : actual)
    EXPECT_TRUE(expected.count(k)) << "false positive: " << key_str(k);
}

TEST(Corpus, CoversEveryPr1BugShape) {
  // The corpus must keep reproducing both PR 1 regression shapes: a
  // buffer freed before its WR completes, and a detached root coroutine.
  const fs::path corpus = RUBINLINT_CORPUS_DIR;
  std::vector<std::string> files;
  collect(corpus, "src", nullptr, files);
  collect(corpus, "tests", nullptr, files);
  std::set<std::string> rules;
  for (const auto& rel : files)
    for (const auto& k : harvest_expectations(rel, slurp(corpus / rel)))
      rules.insert(std::get<2>(k));
  for (const char* required :
       {"coro-stack-wr", "coro-detached", "coro-ref-capture", "det-random",
        "det-wall-clock", "det-unordered-iter", "house-naked-new",
        "house-using-namespace", "house-include-guard",
        "house-relative-include", "house-console-io", "audit-xref-unknown",
        "audit-xref-orphan"})
    EXPECT_TRUE(rules.count(required)) << "no corpus case for " << required;
}

// ------------------------------------------------------- shipped tree ----

TEST(CleanTree, ShippedSourcesHaveZeroFindings) {
  const fs::path root = RUBINLINT_SOURCE_DIR;
  std::vector<std::string> files;
  collect(root, "src", "lint_corpus", files);
  collect(root, "tests", "lint_corpus", files);
  ASSERT_GE(files.size(), 50u) << "tree walk failed under " << root;

  Analyzer analyzer;
  for (const auto& rel : files) analyzer.add_file(lex(rel, slurp(root / rel)));
  const auto diags = analyzer.finish();
  for (const auto& d : diags)
    ADD_FAILURE() << d.path << ":" << d.line << " [" << d.rule << "] "
                  << d.message;
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace rubinlint
