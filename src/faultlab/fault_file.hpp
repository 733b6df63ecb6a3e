// The `.fault` text format: the one way to write a FaultLab scenario
// (the corpus is scenarios/corpus.fault).
//
// A file holds one or more `scenario <name> ... end` blocks. Inside a
// block, scalar keys set the group shape and protocol knobs, `strategy`
// / `client_strategy` name config-time adversaries by registry name, and
// event lines schedule data FaultActions:
//
//   scenario f1-crash-backup
//     describe backup 3 crash-stops at t=4ms
//     n 4
//     clients 1
//     requests 25
//     gap_us 500
//     seed 23557
//     runtime_faulty 3
//     at_ms 4 crash 3 clears
//   end
//
// Event lines are `at_ms <t> <clause> [; <clause>]... [clears]` (fire at
// a virtual instant) or `after <k> <clause>... [clears]` (fire once k
// requests have completed). Clauses are the FaultAction vocabulary:
//   crash <r>                    set_strategy <r> <name>
//   drop_rate <p>                corrupt_rate <p>
//   duplicate_rate <p>           reorder <p> <hold_us>
//   pair_drop <a> <b> <p>        extra_delay <a> <b> <us>
//   oneway <src> <dst>           isolate <host>
//   heal                         nic_stall <host> <ms>
//   qp_errors <host>
// One table in fault_file.cpp maps each verb to its FaultAction kind and
// argument signature; the parser, the writer and the validation all read
// it, so a new action kind is one table row. `#` starts a comment. Lines
// go through the shared reader (common/text_reader.hpp), as `.pop` files
// and explorer artifacts do: fail with the offending line number, reject
// signs, fractions and trailing junk in integers and out-of-range
// rates; then validate host ids against the declared group shape, and
// reject instants at/after the horizon, a zero checkpoint interval and
// duplicate scenario names.
//
// The writer (`to_fault_text`) is the inverse: every Scenario
// round-trips losslessly — same verdict, same commit digest on replay.
// The explorer leans on this to emit failing schedules as replayable
// artifacts.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "faultlab/scenario.hpp"

namespace rubin::faultlab {

/// Parses `.fault` text into scenarios (order preserved). Throws
/// std::invalid_argument with a line number on any malformed input.
std::vector<Scenario> parse_fault_text(std::string_view text);

/// Reads and parses a `.fault` file. Throws std::invalid_argument when
/// the file cannot be opened or fails to parse.
std::vector<Scenario> load_fault_file(const std::string& path);

/// Serializes one scenario to `.fault` text.
std::string to_fault_text(const Scenario& s);

/// Serializes a list of scenarios, blank-line separated.
std::string to_fault_text(const std::vector<Scenario>& scenarios);

}  // namespace rubin::faultlab
