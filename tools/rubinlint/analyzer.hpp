// rubinlint rule engine.
//
// Four rule families over the lexed token stream (DESIGN.md §10):
//
//   coroutine-suspension lifetime
//     coro-ref-capture   lambda passed to spawn()/co_spawn() captures by
//                        reference (or `this`): the frame outlives the
//                        enclosing scope, so every ref capture dangles.
//     coro-detached      a Task-returning coroutine invoked and discarded
//                        (statement-position IIFE, (void)-cast, bare call of
//                        a locally declared Task function, or `.detach()`):
//                        nobody owns the frame — the PR 1 teardown leak.
//     coro-stack-wr      a byte-owning local declared inside a coroutine
//                        body escapes into a posted WR (RdmaChannel::write /
//                        write_batch zero-copy payloads, SendWr/Sge buffers):
//                        the DMA read happens after the call returns, and
//                        the coroutine frame can die first — the exact PR 1
//                        use-after-free shape (see the lifetime contract at
//                        src/rubin/channel.hpp:71).
//
//   determinism (src/ only; the simulator must replay bit-identically)
//     det-random         std::rand / srand / std::random_device
//     det-wall-clock     steady_clock / system_clock / high_resolution_clock
//                        / gettimeofday / clock_gettime
//     det-unordered-iter range-for over an unordered_{map,set} in src/sim,
//                        src/net, src/reptor — address-dependent order leaks
//                        into charge paths.
//
//   house rules (src/ only; ported from the scripts/check.sh grep era)
//     house-naked-new, house-using-namespace (headers), house-include-guard
//     (#pragma once), house-relative-include, house-console-io
//
//   counter cross-reference (whole-tree; ids keep their old audit- prefix)
//     audit-xref-unknown a test asserts counters::value("x") but no
//                        RUBIN_COUNT("x") exists anywhere.
//     audit-xref-orphan  src/ counts "x" but no test ever asserts it.
//
// Suppression: `// rubinlint:allow(rule-id) rationale` on the diagnosed
// line or the line above. Diagnostics are sorted (path, line, rule).
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace rubinlint {

struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& o) const {
    if (path != o.path) return path < o.path;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
  bool operator==(const Diagnostic& o) const {
    return path == o.path && line == o.line && rule == o.rule;
  }
};

/// Streaming analysis: feed every file, then finish() for the cross-file
/// rules and the sorted result. Paths are repo-relative ('/'-separated);
/// scope decisions (src/ vs tests/) key off those prefixes.
class Analyzer {
 public:
  void add_file(const LexedFile& f);
  std::vector<Diagnostic> finish();

  /// All rule ids, for --list-rules and allow() validation.
  static std::vector<std::string> rule_ids();

 private:
  struct CounterSite {
    std::string path;
    int line = 0;
    bool in_src = false;
  };
  struct CounterFacts {
    std::vector<CounterSite> counts;   // RUBIN_COUNT sites
    std::vector<CounterSite> asserts;  // counters::value sites
  };

  void diag(const LexedFile& f, int line, std::string rule, std::string msg);
  /// coro-stack-wr: finds coroutine frames (lambda-aware — a suspension
  /// keyword belongs to its innermost enclosing lambda, so a test body
  /// whose co_awaits all live in spawned lambdas is not itself a frame),
  /// tracks byte-owning frame locals and flags ones escaping into WRs.
  void analyze_coroutine_regions(const LexedFile& f);

  std::vector<Diagnostic> diags_;
  std::map<std::string, CounterFacts> counters_;
};

}  // namespace rubinlint
