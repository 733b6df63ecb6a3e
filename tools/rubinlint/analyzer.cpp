#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rubinlint {
namespace {

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}
bool ends_with(const std::string& s, const char* p) {
  const std::string suf(p);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}
bool in_src(const std::string& path) { return starts_with(path, "src/"); }
bool in_tests(const std::string& path) {
  return starts_with(path, "tests/") && !starts_with(path, "tests/lint_corpus");
}
bool det_iter_scope(const std::string& path) {
  return starts_with(path, "src/sim/") || starts_with(path, "src/net/") ||
         starts_with(path, "src/reptor/");
}
bool console_exempt(const std::string& path) {
  return starts_with(path, "src/common/log") ||
         starts_with(path, "src/common/audit");
}

bool is(const Token& t, Tok k, const char* text) {
  return t.kind == k && t.text == text;
}
bool ident(const Token& t, const char* text) {
  return is(t, Tok::kIdent, text);
}
bool punct(const Token& t, const char* text) {
  return is(t, Tok::kPunct, text);
}

/// Index of the token matching the opener at `open` ("(", "[", "{"), or
/// toks.size() when unbalanced. Counts only the opener's own kind.
std::size_t match(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

/// Skips a balanced template argument list starting at `open` (a "<").
/// Returns the index of the closing ">" or toks.size(). Treats ">>" as two
/// closers; bails (returns open) at ";" — then it was a comparison.
std::size_t match_angle(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == ";") return open;
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i;
    if (t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    }
  }
  return t.size();
}

bool lower_contains(const std::string& s, const char* needle) {
  std::string low;
  low.reserve(s.size());
  for (char c : s) low.push_back(static_cast<char>(std::tolower(
      static_cast<unsigned char>(c))));
  return low.find(needle) != std::string::npos;
}

/// Byte-element check for vector</array< template arguments.
bool byte_element(const std::string& args) {
  return args.find("uint8_t") != std::string::npos ||
         args.find("int8_t") != std::string::npos ||
         args.find("char") != std::string::npos ||
         args.find("byte") != std::string::npos;
}

}  // namespace

void Analyzer::diag(const LexedFile& f, int line, std::string rule,
                    std::string msg) {
  auto it = f.allows.find(line);
  if (it != f.allows.end()) {
    for (const auto& r : it->second)
      if (r == rule || r == "*") return;
  }
  diags_.push_back(Diagnostic{f.path, line, std::move(rule), std::move(msg)});
}

std::vector<std::string> Analyzer::rule_ids() {
  return {"coro-ref-capture",  "coro-detached",        "coro-stack-wr",
          "det-random",        "det-wall-clock",       "det-unordered-iter",
          "house-naked-new",   "house-using-namespace", "house-include-guard",
          "house-relative-include", "house-console-io",
          "audit-xref-unknown", "audit-xref-orphan"};
}

void Analyzer::add_file(const LexedFile& f) {
  const auto& t = f.tokens;
  const bool src = in_src(f.path);
  const bool tests = in_tests(f.path);
  const bool header = ends_with(f.path, ".hpp");

  // ---- house + determinism token rules (src/ only) ------------------------

  if (src) {
    // Lines containing a smart-pointer constructor — `new` is allowed there
    // and on the line directly after (the split-ctor idiom).
    std::set<int> ptr_lines;
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
      if (t[i].kind == Tok::kIdent && ends_with(t[i].text, "_ptr") &&
          punct(t[i + 1], "<"))
        ptr_lines.insert(t[i].line);

    bool pragma_once = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Token& tk = t[i];
      if (tk.kind == Tok::kPp && tk.text == "#pragma" && i + 1 < t.size() &&
          ident(t[i + 1], "once"))
        pragma_once = true;
      if (tk.kind == Tok::kPp &&
          (tk.text == "#include" || tk.text == "#include_next") &&
          i + 1 < t.size() && t[i + 1].kind == Tok::kString &&
          starts_with(t[i + 1].text, "../"))
        diag(f, tk.line, "house-relative-include",
             "relative (\"../\") include path — use module-rooted paths");

      if (tk.kind != Tok::kIdent) continue;

      if (tk.text == "new" && i + 1 < t.size() &&
          t[i + 1].kind == Tok::kIdent &&
          !(i > 0 && ident(t[i - 1], "operator")) &&
          !ptr_lines.count(tk.line) && !ptr_lines.count(tk.line - 1))
        diag(f, tk.line, "house-naked-new",
             "naked new outside a smart-pointer constructor");

      if (header && tk.text == "using" && i + 1 < t.size() &&
          ident(t[i + 1], "namespace"))
        diag(f, tk.line, "house-using-namespace",
             "using-namespace directive in a header leaks into every "
             "includer");

      if (!console_exempt(f.path) &&
          (tk.text == "printf" || tk.text == "fprintf" || tk.text == "puts" ||
           tk.text == "cout" || tk.text == "cerr"))
        diag(f, tk.line, "house-console-io",
             "direct console I/O (" + tk.text +
                 ") outside common/log and common/audit");

      const bool std_qualified =
          i >= 2 && punct(t[i - 1], "::") && ident(t[i - 2], "std");
      if (tk.text == "random_device" || tk.text == "srand" ||
          (tk.text == "rand" && std_qualified))
        diag(f, tk.line, "det-random",
             "non-deterministic randomness (" + tk.text +
                 ") — use the seeded common/rng.hpp Rng");

      if (tk.text == "steady_clock" || tk.text == "system_clock" ||
          tk.text == "high_resolution_clock" || tk.text == "gettimeofday" ||
          tk.text == "clock_gettime" || tk.text == "timespec_get")
        diag(f, tk.line, "det-wall-clock",
             "wall-clock time (" + tk.text +
                 ") in src/ — virtual time comes from sim::Simulator");
    }
    if (header && !pragma_once)
      diag(f, 1, "house-include-guard", "header lacks #pragma once");
  }

  // ---- det-unordered-iter: range-for over unordered containers ------------

  if (src && det_iter_scope(f.path)) {
    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent ||
          (t[i].text != "unordered_map" && t[i].text != "unordered_set"))
        continue;
      if (!punct(t[i + 1], "<")) continue;
      const std::size_t close = match_angle(t, i + 1);
      if (close <= i + 1 || close + 1 >= t.size()) continue;
      if (t[close + 1].kind == Tok::kIdent)
        unordered_names.insert(t[close + 1].text);
    }
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!ident(t[i], "for") || !punct(t[i + 1], "(")) continue;
      const std::size_t close = match(t, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].kind != Tok::kPunct) continue;
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j)
        if (t[j].kind == Tok::kIdent && unordered_names.count(t[j].text)) {
          diag(f, t[j].line, "det-unordered-iter",
               "range-for over unordered container '" + t[j].text +
                   "' — iteration order is address-dependent and "
                   "non-deterministic");
          break;
        }
    }
  }

  // ---- coroutine-lifetime rules (src/ and tests/) --------------------------

  if (src || tests) {
    // Task-returning functions declared in this file (for discard checks).
    std::set<std::string> task_fns;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!ident(t[i], "Task") || !punct(t[i + 1], "<")) continue;
      const std::size_t close = match_angle(t, i + 1);
      if (close + 2 < t.size() && t[close + 1].kind == Tok::kIdent &&
          punct(t[close + 2], "("))
        task_fns.insert(t[close + 1].text);
    }

    for (std::size_t i = 0; i < t.size(); ++i) {
      // `.detach()` on anything task-shaped is the historical leak idiom.
      if (i + 2 < t.size() &&
          (punct(t[i], ".") || punct(t[i], "->")) &&
          ident(t[i + 1], "detach") && punct(t[i + 2], "("))
        diag(f, t[i + 1].line, "coro-detached",
             "detached task: nobody owns the coroutine frame — store the "
             "Task or hand it to Simulator::spawn");

      // Lambda expressions.
      if (!punct(t[i], "[")) continue;
      if (i + 1 < t.size() && punct(t[i + 1], "[")) {  // [[attribute]]
        i = match(t, i + 1);
        continue;
      }
      const bool starter =
          i == 0 || punct(t[i - 1], "(") || punct(t[i - 1], ",") ||
          punct(t[i - 1], "=") || punct(t[i - 1], ";") ||
          punct(t[i - 1], "{") || punct(t[i - 1], "}") ||
          ident(t[i - 1], "return") || ident(t[i - 1], "co_await") ||
          ident(t[i - 1], "co_return");
      if (!starter) continue;

      const std::size_t cap_end = match(t, i);
      if (cap_end >= t.size()) continue;
      std::size_t j = cap_end + 1;
      if (j < t.size() && punct(t[j], "(")) j = match(t, j) + 1;
      bool task_ret = false;
      while (j < t.size() && !punct(t[j], "{")) {
        if (ident(t[j], "Task")) task_ret = true;
        if (punct(t[j], ";") || punct(t[j], ")")) break;  // not a lambda
        ++j;
      }
      if (j >= t.size() || !punct(t[j], "{")) continue;
      const std::size_t body_open = j;
      const std::size_t body_close = match(t, body_open);
      if (body_close >= t.size()) continue;

      bool coro = task_ret;
      for (std::size_t k = body_open; k < body_close && !coro; ++k)
        coro = t[k].kind == Tok::kIdent &&
               (t[k].text == "co_await" || t[k].text == "co_return" ||
                t[k].text == "co_yield");

      // coro-ref-capture: spawn(/co_spawn( immediately before the lambda.
      const bool spawn_ctx = i >= 2 && punct(t[i - 1], "(") &&
                             (ident(t[i - 2], "spawn") ||
                              ident(t[i - 2], "co_spawn"));
      if (spawn_ctx && coro) {
        for (std::size_t k = i + 1; k < cap_end; ++k)
          if (punct(t[k], "&") || ident(t[k], "this")) {
            diag(f, t[i].line, "coro-ref-capture",
                 "lambda passed to spawn() captures by reference ('" +
                     t[k].text +
                     "'): the coroutine frame outlives the enclosing scope "
                     "— pass state as parameters instead");
            break;
          }
      }

      // coro-detached: immediately-invoked coroutine lambda whose Task is
      // discarded (statement position or a (void) cast).
      if (coro && body_close + 1 < t.size() && punct(t[body_close + 1], "(")) {
        const std::size_t call_close = match(t, body_close + 1);
        const bool discarded_stmt =
            (i == 0 || punct(t[i - 1], ";") || punct(t[i - 1], "{") ||
             punct(t[i - 1], "}")) &&
            call_close + 1 < t.size() && punct(t[call_close + 1], ";");
        const bool void_cast = i >= 3 && punct(t[i - 1], ")") &&
                               ident(t[i - 2], "void") && punct(t[i - 3], "(");
        if (discarded_stmt || void_cast)
          diag(f, t[i].line, "coro-detached",
               "coroutine invoked and its Task discarded: the frame is "
               "never resumed or destroyed (detached root) — wrap it in "
               "Simulator::spawn");
      }
      // Skip capture list so `&` inside it is not re-scanned as a lambda.
      i = cap_end;
    }

    // Bare-statement calls of locally declared Task functions.
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || !task_fns.count(t[i].text)) continue;
      if (!punct(t[i + 1], "(")) continue;
      if (!(punct(t[i - 1], ";") || punct(t[i - 1], "{") ||
            punct(t[i - 1], "}")))
        continue;
      const std::size_t close = match(t, i + 1);
      if (close + 1 < t.size() && punct(t[close + 1], ";"))
        diag(f, t[i].line, "coro-detached",
             "call of Task-returning '" + t[i].text +
                 "' discards the Task: the coroutine never runs and its "
                 "frame leaks — co_await it or spawn it");
    }

    analyze_coroutine_regions(f);
  }

  // ---- counter cross-reference facts ---------------------------------------

  if (src || tests) {
    auto suppressed = [&](int line, const char* rule) {
      auto it = f.allows.find(line);
      if (it == f.allows.end()) return false;
      for (const auto& r : it->second)
        if (r == rule || r == "*") return true;
      return false;
    };
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (ident(t[i], "RUBIN_COUNT") && punct(t[i + 1], "(") &&
          t[i + 2].kind == Tok::kString) {
        auto& fact = counters_[t[i + 2].text];
        fact.counts.push_back(CounterSite{
            f.path, t[i].line,
            src && !suppressed(t[i].line, "audit-xref-orphan")});
      }
      if (tests && ident(t[i], "value") && i >= 2 &&
          punct(t[i - 1], "::") && ident(t[i - 2], "counters") &&
          punct(t[i + 1], "(") && t[i + 2].kind == Tok::kString) {
        if (!suppressed(t[i].line, "audit-xref-unknown"))
          counters_[t[i + 2].text].asserts.push_back(
              CounterSite{f.path, t[i].line, false});
      }
    }
  }
}

void Analyzer::analyze_coroutine_regions(const LexedFile& f) {
  const auto& t = f.tokens;

  // Pass 1: every lambda expression's span — intro "[", body "{", body
  // "}". Coroutine-ness must be attributed to the *innermost* owning
  // lambda: a TEST body whose co_awaits all live inside spawned lambdas
  // is not itself a coroutine frame, and its locals (passed by const-ref
  // into those lambdas) are perfectly safe — the sanctioned PR 1 idiom.
  struct LambdaSpan {
    std::size_t intro, open, close;
  };
  std::vector<LambdaSpan> lambdas;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!punct(t[i], "[")) continue;
    if (i + 1 < t.size() && punct(t[i + 1], "[")) {  // [[attribute]]
      i = match(t, i + 1);
      continue;
    }
    const bool starter =
        i == 0 || punct(t[i - 1], "(") || punct(t[i - 1], ",") ||
        punct(t[i - 1], "=") || punct(t[i - 1], ";") || punct(t[i - 1], "{") ||
        punct(t[i - 1], "}") || ident(t[i - 1], "return") ||
        ident(t[i - 1], "co_await") || ident(t[i - 1], "co_return");
    if (!starter) continue;
    const std::size_t cap_end = match(t, i);
    if (cap_end >= t.size()) continue;
    std::size_t j = cap_end + 1;
    if (j < t.size() && punct(t[j], "(")) j = match(t, j) + 1;
    bool is_lambda = true;
    while (j < t.size() && !punct(t[j], "{")) {
      if (punct(t[j], ";") || punct(t[j], ")")) {
        is_lambda = false;  // subscript / array literal, not a lambda
        break;
      }
      ++j;
    }
    if (!is_lambda || j >= t.size()) continue;
    const std::size_t body_close = match(t, j);
    if (body_close >= t.size()) continue;
    lambdas.push_back({i, j, body_close});
  }

  // True when token k, inside region (open, close), belongs to a lambda
  // strictly nested within that region — its frame, not the region's.
  auto in_nested_lambda = [&](std::size_t k, std::size_t open,
                              std::size_t close) {
    for (const auto& l : lambdas)
      if (l.open > open && l.close < close && k > l.intro && k < l.close)
        return true;
    return false;
  };
  // A region is a coroutine frame iff it has a suspension keyword that is
  // not owned by a nested lambda.
  auto direct_coro = [&](std::size_t open, std::size_t close) {
    for (std::size_t k = open; k < close; ++k)
      if (t[k].kind == Tok::kIdent &&
          (t[k].text == "co_await" || t[k].text == "co_return" ||
           t[k].text == "co_yield") &&
          !in_nested_lambda(k, open, close))
        return true;
    return false;
  };

  // Regions to analyze: begin (where decl tracking starts, so parameter
  // lists and captures participate), body open, body close.
  struct Region {
    std::size_t begin, open, close;
  };
  std::vector<Region> outer;

  // Coroutine lambdas are regions in their own right.
  for (const auto& l : lambdas)
    if (direct_coro(l.open, l.close)) outer.push_back({l.intro, l.open, l.close});

  // Non-lambda candidates: a "{" preceded (modulo trailing specifiers) by
  // ")" that is not a lambda body and not inside one; keep outermost only.
  std::vector<std::pair<std::size_t, std::size_t>> cands;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!punct(t[i], "{")) continue;
    std::size_t p = i;
    while (p > 0 && t[p - 1].kind == Tok::kIdent &&
           (t[p - 1].text == "const" || t[p - 1].text == "noexcept" ||
            t[p - 1].text == "override" || t[p - 1].text == "mutable" ||
            t[p - 1].text == "final"))
      --p;
    if (p == 0 || !punct(t[p - 1], ")")) continue;
    bool lambda_owned = false;
    for (const auto& l : lambdas)
      if (l.open == i || (i > l.open && i < l.close)) {
        lambda_owned = true;
        break;
      }
    if (lambda_owned) continue;
    const std::size_t close = match(t, i);
    if (close >= t.size()) continue;
    if (direct_coro(i, close)) cands.emplace_back(i, close);
  }
  for (const auto& r : cands) {
    bool contained = false;
    for (const auto& o : cands)
      if (o != r && o.first <= r.first && r.second <= o.second &&
          (o.first < r.first || r.second < o.second))
        contained = true;
    if (contained) continue;
    // Widen leftwards so the parameter list participates in declaration
    // tracking: walk back to the previous ";" or "}" outside parens.
    // Cheap heuristic: back up to 400 tokens.
    std::size_t begin = r.first;
    int depth = 0;
    std::size_t p = r.first;
    const std::size_t limit = r.first > 400 ? r.first - 400 : 0;
    while (p > limit) {
      --p;
      if (t[p].kind != Tok::kPunct) continue;
      if (t[p].text == ")") ++depth;
      if (t[p].text == "(") --depth;
      if (depth == 0 && (t[p].text == ";" || t[p].text == "}")) break;
    }
    begin = p;
    outer.push_back({begin, r.first, r.second});
  }

  for (const auto& [begin, open, close] : outer) {

    // Declaration map: name -> type-prefix string. A name is "declared"
    // when followed by , ) ; = { ( and directly preceded by a type-ish
    // token run (identifiers, ::, <...>, &, *, const).
    std::map<std::string, std::pair<std::string, int>> decls;  // type, line
    for (std::size_t i = begin + 1; i < close; ++i) {
      if (in_nested_lambda(i, open, close)) continue;
      if (t[i].kind != Tok::kIdent) continue;
      if (i + 1 >= t.size()) break;
      const std::string& nx = t[i + 1].text;
      if (t[i + 1].kind != Tok::kPunct ||
          (nx != "," && nx != ")" && nx != ";" && nx != "=" && nx != "{" &&
           nx != "("))
        continue;
      std::string type;
      std::size_t p = i;
      while (p > begin) {
        const Token& b = t[p - 1];
        const bool type_tok =
            (b.kind == Tok::kIdent && b.text != "return" &&
             b.text != "co_await" && b.text != "co_return" &&
             b.text != "new" && b.text != "else") ||
            (b.kind == Tok::kPunct &&
             (b.text == "::" || b.text == "<" || b.text == ">" ||
              b.text == ">>" || b.text == "&" || b.text == "*" ||
              b.text == ","));
        if (!type_tok) break;
        --p;
      }
      if (p == i) continue;  // no type prefix
      // Reject runs that start mid-expression (e.g. "a < b" comparisons):
      // require the run boundary to be a declaration context.
      const Token& bound = t[p == 0 ? 0 : p - 1];
      if (!(p == 0 || bound.kind == Tok::kPp ||
            (bound.kind == Tok::kPunct &&
             (bound.text == "(" || bound.text == "," || bound.text == ";" ||
              bound.text == "{" || bound.text == "}" || bound.text == "[")) ||
            (bound.kind == Tok::kIdent &&
             (bound.text == "const" || bound.text == "constexpr" ||
              bound.text == "static"))))
        continue;
      for (std::size_t k = p; k < i; ++k) {
        type += t[k].text;
        type.push_back(' ');
      }
      if (type.find("const ") == 0) type = type.substr(6);
      if (!decls.count(t[i].text))
        decls[t[i].text] = {type, t[i].line};
    }

    // Byte-owning frame locals (value declarations of buffer types).
    std::map<std::string, int> locals;  // name -> decl line
    for (const auto& [name, tp] : decls) {
      const std::string& ty = tp.first;
      if (ty.find('&') != std::string::npos ||
          ty.find('*') != std::string::npos)
        continue;  // references/pointers do not own the bytes
      const bool buffer =
          ty.find("Bytes ") == 0 || ty.find(":: Bytes") != std::string::npos ||
          ty.find("string ") != std::string::npos ||
          ((ty.find("vector ") != std::string::npos ||
            ty.find("array ") != std::string::npos) &&
           byte_element(ty));
      if (buffer) locals[name] = tp.second;
    }
    if (locals.empty()) continue;

    auto receiver_rdma = [&](std::size_t dot) {
      // dot indexes the "." / "->" before write/post_*; resolve the
      // receiver identifier just before it.
      if (dot == 0 || t[dot - 1].kind != Tok::kIdent) return true;
      const std::string& name = t[dot - 1].text;
      auto it = decls.find(name);
      if (it != decls.end()) {
        const std::string& ty = it->second.first;
        // OneSidedChannel is deliberately absent: its write() stages the
        // payload into a registered slot at post time (copy), so callers
        // carry no buffer-lifetime obligation.
        if (ty.find("RdmaChannel") != std::string::npos ||
            ty.find("QueuePair") != std::string::npos)
          return true;
        if (lower_contains(ty, "tcp") || lower_contains(ty, "socket"))
          return false;
        return false;  // resolved to something else entirely
      }
      // Unresolved (member / chained): assume RDMA unless the name says
      // otherwise — suppress with rationale for intentional exceptions.
      return !(lower_contains(name, "tcp") || lower_contains(name, "sock"));
    };

    auto flag_escape = [&](const std::string& local, int decl_line,
                           int line, const char* via) {
      diag(f, line, "coro-stack-wr",
           "coroutine-frame local '" + local + "' (declared line " +
               std::to_string(decl_line) + ") escapes into " + via +
               ": the WR is consumed after the call returns and the frame "
               "can die first (zero-copy lifetime contract, "
               "src/rubin/channel.hpp) — hoist the buffer out of the "
               "coroutine or send a SharedBytes handle");
    };

    for (std::size_t i = begin; i < close; ++i) {
      if (in_nested_lambda(i, open, close)) continue;
      if (t[i].kind != Tok::kIdent) continue;
      const std::string& w = t[i].text;

      // channel->write(...) / write_batch(...) zero-copy payloads.
      if ((w == "write" || w == "write_batch") && i > 0 &&
          (punct(t[i - 1], "->") || punct(t[i - 1], ".")) &&
          i + 1 < t.size() && punct(t[i + 1], "(")) {
        if (!receiver_rdma(i - 1)) continue;
        const std::size_t end = match(t, i + 1);
        for (std::size_t k = i + 2; k < end; ++k)
          if (t[k].kind == Tok::kIdent && locals.count(t[k].text)) {
            flag_escape(t[k].text, locals[t[k].text], t[k].line,
                        "a zero-copy send");
            break;
          }
      }

      // post_send/post_recv/post_write with a frame-local payload.
      if ((w == "post_send" || w == "post_send_one" || w == "post_recv" ||
           w == "post_recv_one" || w == "post_write") &&
          i + 1 < t.size() && punct(t[i + 1], "(")) {
        const std::size_t end = match(t, i + 1);
        for (std::size_t k = i + 2; k < end; ++k)
          if (t[k].kind == Tok::kIdent && locals.count(t[k].text)) {
            flag_escape(t[k].text, locals[t[k].text], t[k].line,
                        "a posted WR");
            break;
          }
      }

      // SendWr/Sge/RecvWr built over local.data().
      if ((w == "SendWr" || w == "Sge" || w == "RecvWr") &&
          i + 1 < t.size() && punct(t[i + 1], "{")) {
        const std::size_t end = match(t, i + 1);
        for (std::size_t k = i + 2; k + 2 < end; ++k)
          if (t[k].kind == Tok::kIdent && locals.count(t[k].text) &&
              (punct(t[k + 1], ".") || punct(t[k + 1], "->")) &&
              ident(t[k + 2], "data")) {
            flag_escape(t[k].text, locals[t[k].text], t[k].line,
                        ("a " + w + " buffer").c_str());
            break;
          }
      }
    }
  }
}

std::vector<Diagnostic> Analyzer::finish() {
  for (const auto& [name, fact] : counters_) {
    bool src_count = false, any_count = !fact.counts.empty();
    const CounterSite* first_src = nullptr;
    for (const auto& c : fact.counts)
      if (c.in_src) {
        src_count = true;
        if (!first_src) first_src = &c;
      }
    if (!any_count)
      for (const auto& a : fact.asserts)
        diags_.push_back(Diagnostic{
            a.path, a.line, "audit-xref-unknown",
            "test asserts counter \"" + name +
                "\" but no RUBIN_COUNT(\"" + name + "\") exists"});
    if (src_count && fact.asserts.empty())
      diags_.push_back(Diagnostic{
          first_src->path, first_src->line, "audit-xref-orphan",
          "counter \"" + name +
              "\" is counted in src/ but never asserted in tests/ — add "
              "coverage or suppress with rationale"});
  }
  std::sort(diags_.begin(), diags_.end());
  diags_.erase(std::unique(diags_.begin(), diags_.end()), diags_.end());
  return diags_;
}

}  // namespace rubinlint
