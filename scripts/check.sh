#!/usr/bin/env bash
# Static lint pass for the RUBIN stack: clang-tidy (when installed) plus
# rubinlint, the repo-native analyzer (tools/rubinlint, DESIGN.md §10).
#
# rubinlint replaced the grep-era house checks: it lexes real tokens, so
# strings/comments can't false-positive and a violation with a trailing
# `//` comment can't hide (the greps piped through `grep -v '//'`). Its
# rule catalogue: coroutine-suspension lifetime (coro-*), determinism
# (det-*), house style (house-*), and counter cross-reference
# (audit-xref-*). Suppress a deliberate exception inline with
#   // rubinlint:allow(rule-id) rationale
# on the flagged line or the line above.
#
# Usage: scripts/check.sh [build-dir]
#   build-dir: a configured CMake build tree (default: ./build). Needed
#              for compile_commands.json (clang-tidy half) and for a
#              prebuilt rubinlint binary; when the binary is missing and
#              a compiler is available, the script builds a temporary
#              copy so the check never silently skips.
#
# Exit status is non-zero when any check fails. The `lint` CMake target
# runs this script; CI runs it as its own job.
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
FAILURES=0

note() { printf '== %s\n' "$*"; }
fail() {
  printf 'check.sh: FAIL: %s\n' "$*" >&2
  FAILURES=$((FAILURES + 1))
}

# --- 1. clang-tidy over src/ -------------------------------------------------

if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "${BUILD_DIR}/compile_commands.json" ]; then
    note "clang-tidy ($(clang-tidy --version | head -n1))"
    # Sources only; headers are pulled in via HeaderFilterRegex.
    if ! find src -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p "${BUILD_DIR}" --quiet; then
      fail "clang-tidy reported findings"
    fi
  else
    fail "no ${BUILD_DIR}/compile_commands.json — configure with CMake first"
  fi
else
  note "clang-tidy not installed — skipping (rubinlint still runs)"
fi

# --- 2. rubinlint ------------------------------------------------------------

RUBINLINT="${BUILD_DIR}/tools/rubinlint/rubinlint"
if [ ! -x "${RUBINLINT}" ]; then
  # No configured build (or target not built yet): rubinlint is
  # dependency-free by design, so bootstrap a temporary binary.
  for cxx in c++ g++ clang++; do
    if command -v "$cxx" >/dev/null 2>&1; then
      note "building rubinlint with $cxx (no ${RUBINLINT})"
      RUBINLINT=$(mktemp -t rubinlint.XXXXXX)
      if ! "$cxx" -std=c++20 -O1 tools/rubinlint/lexer.cpp \
        tools/rubinlint/analyzer.cpp tools/rubinlint/main.cpp \
        -o "${RUBINLINT}"; then
        fail "could not build rubinlint"
        RUBINLINT=""
      fi
      break
    fi
  done
fi

if [ -n "${RUBINLINT}" ] && [ -x "${RUBINLINT}" ]; then
  note "rubinlint over src/ and tests/"
  if ! "${RUBINLINT}" --root . src tests; then
    fail "rubinlint reported findings"
  fi
elif [ -z "${RUBINLINT}" ]; then
  : # build failure already recorded
else
  fail "no rubinlint binary and no C++ compiler to bootstrap one"
fi

# --- result ------------------------------------------------------------------

if [ "${FAILURES}" -ne 0 ]; then
  printf 'check.sh: %d check(s) failed\n' "${FAILURES}" >&2
  exit 1
fi
note "all checks passed"
