// Corpus: counter cross-reference, test side. "corpus.ghost" is
// asserted here but counted nowhere in src/ — a stale or typo'd name.
#include <gtest/gtest.h>

#include "common/counters.hpp"

namespace corpus {

TEST(CorpusAudit, Coverage) {
  EXPECT_GT(counters::value("corpus.covered"), 0u);
  EXPECT_EQ(counters::value("corpus.ghost"), 0u);  // lint-expect(audit-xref-unknown)
}

}  // namespace corpus
