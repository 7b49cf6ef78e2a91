// Tests of the FERAM array (row-granular access).
#include <gtest/gtest.h>

#include "core/feram_array.h"
#include "core/materials.h"

namespace fefet {
namespace {

core::FeRamArrayConfig smallArray() {
  core::FeRamArrayConfig cfg;
  cfg.cell.lk = core::feramMaterial();
  return cfg;
}

TEST(FeRamArray, PatternRoundTrip) {
  core::FeRamArray arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_FALSE(arr.bitAt(0, 1));
  EXPECT_TRUE(arr.bitAt(1, 1));
}

TEST(FeRamArray, WriteRowSetsAllColumns) {
  core::FeRamArray arr(smallArray());
  const auto res = arr.writeRow(0, {true, true, false});
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_TRUE(arr.bitAt(0, 1));
  EXPECT_FALSE(arr.bitAt(0, 2));
}

TEST(FeRamArray, WriteRowLeavesOtherRowsAlone) {
  core::FeRamArray arr(smallArray());
  arr.setPattern({{false, false, false}, {true, false, true}});
  EXPECT_TRUE(arr.writeRow(0, {true, true, true}).ok);
  EXPECT_TRUE(arr.bitAt(1, 0));
  EXPECT_FALSE(arr.bitAt(1, 1));
  EXPECT_TRUE(arr.bitAt(1, 2));
}

TEST(FeRamArray, ReadRowSensesAndRestores) {
  core::FeRamArray arr(smallArray());
  arr.setPattern({{true, false, true}, {false, false, false}});
  const auto res = arr.readRow(0);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.bitsRead.size(), 3u);
  EXPECT_TRUE(res.bitsRead[0]);
  EXPECT_FALSE(res.bitsRead[1]);
  EXPECT_TRUE(res.bitsRead[2]);
  // Restored after the destructive read.
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_FALSE(arr.bitAt(0, 1));
  EXPECT_TRUE(arr.bitAt(0, 2));
}

TEST(FeRamArray, UpdateBitIsRowGranularButCorrect) {
  core::FeRamArray arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  const auto res = arr.updateBit(0, 1, true);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_TRUE(arr.bitAt(0, 1));
  EXPECT_TRUE(arr.bitAt(0, 2));
  // Row-granularity makes it far costlier than a single-cell write.
  core::FeRamCell cell(smallArray().cell);
  cell.setStoredBit(false);
  const double oneCell = cell.write(true, 700e-12).totalEnergy;
  EXPECT_GT(res.totalEnergy, 3.0 * oneCell);
}

TEST(FeRamArray, RejectsBadArguments) {
  core::FeRamArray arr(smallArray());
  EXPECT_THROW(arr.writeRow(5, {true, true, true}), InvalidArgumentError);
  EXPECT_THROW(arr.writeRow(0, {true}), InvalidArgumentError);
  EXPECT_THROW(arr.updateBit(0, 9, true), InvalidArgumentError);
  EXPECT_THROW(arr.bitAt(5, 0), InvalidArgumentError);
  EXPECT_THROW(arr.bitAt(0, -1), InvalidArgumentError);
}

}  // namespace
}  // namespace fefet
