// Corpus: counter cross-reference, src side. "corpus.covered" is
// asserted by tests/audit_xref_test.cpp; "corpus.orphan" is not.
#include "common/counters.hpp"

namespace corpus {

void record_events() {
  RUBIN_COUNT("corpus.covered", 1);
  RUBIN_COUNT("corpus.orphan", 1);  // lint-expect(audit-xref-orphan)
  // rubinlint:allow(audit-xref-orphan) bench-only counter, asserted nowhere
  RUBIN_COUNT("corpus.bench_only", 1);
}

}  // namespace corpus
