#include "engine/sweep.h"

#include <gtest/gtest.h>

#include "core/leakage_table.h"

namespace nanoleak::engine {
namespace {

TEST(SweepTest, AllInputVectorsFollowVectorIndexOrder) {
  const auto vectors = allInputVectors(gates::GateKind::kNand2);
  ASSERT_EQ(vectors.size(), 4u);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(core::vectorIndex(vectors[i]), i);
  }
  EXPECT_EQ(vectors[1], (std::vector<bool>{true, false}));  // bit 0 = pin 0
  EXPECT_EQ(allInputVectors(gates::GateKind::kInv).size(), 2u);
  EXPECT_EQ(allInputVectors(gates::GateKind::kNand3).size(), 8u);
}

}  // namespace
}  // namespace nanoleak::engine
