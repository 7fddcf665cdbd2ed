#include "sim/memory.h"

#include <gtest/gtest.h>

namespace apex::sim {
namespace {

TEST(Memory, InitiallyZeroWithStampZero) {
  Memory m(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.at(i).value, 0u);
    EXPECT_EQ(m.at(i).stamp, 0u);
  }
}

TEST(Memory, ReadWriteCell) {
  Memory m(4);
  m.at(2) = Cell{42, 7};
  EXPECT_EQ(m.at(2).value, 42u);
  EXPECT_EQ(m.at(2).stamp, 7u);
}

TEST(Memory, OutOfRangeThrows) {
  Memory m(4);
  EXPECT_THROW(m.at(4), std::out_of_range);
  EXPECT_THROW(m.at(100), std::out_of_range);
  const Memory& cm = m;
  EXPECT_THROW(cm.at(4), std::out_of_range);
}

TEST(Memory, ExtendReturnsBaseAndGrows) {
  Memory m(4);
  const std::size_t base = m.extend(6);
  EXPECT_EQ(base, 4u);
  EXPECT_EQ(m.size(), 10u);
  m.at(9) = Cell{1, 1};
  EXPECT_EQ(m.at(9).value, 1u);
}

TEST(Memory, ClearRegion) {
  Memory m(6);
  for (std::size_t i = 0; i < 6; ++i) m.at(i) = Cell{i + 1, 9};
  m.clear(2, 3);
  EXPECT_EQ(m.at(1).value, 2u);
  EXPECT_EQ(m.at(2).value, 0u);
  EXPECT_EQ(m.at(4).stamp, 0u);
  EXPECT_EQ(m.at(5).value, 6u);
}

TEST(Memory, ClearZeroLengthNeverThrowsInRange) {
  // Regression: the old bounds check evaluated base + len - 1, so a
  // zero-length clear on empty memory spuriously threw, and a zero-length
  // clear never validated base at all.
  Memory empty(0);
  EXPECT_NO_THROW(empty.clear(0, 0));  // empty range on empty memory

  Memory m(4);
  EXPECT_NO_THROW(m.clear(0, 0));
  EXPECT_NO_THROW(m.clear(4, 0));  // one-past-the-end, empty range
  for (std::size_t i = 0; i < 4; ++i) m.at(i) = Cell{9, 9};
  m.clear(2, 0);
  EXPECT_EQ(m.at(2).value, 9u);  // nothing cleared
}

TEST(Memory, ClearValidatesBaseEvenWhenLengthZero) {
  Memory m(4);
  EXPECT_THROW(m.clear(5, 0), std::out_of_range);
  Memory empty(0);
  EXPECT_THROW(empty.clear(1, 0), std::out_of_range);
}

TEST(Memory, ClearRejectsRangePastEndAndOverflow) {
  Memory m(4);
  EXPECT_THROW(m.clear(2, 3), std::out_of_range);
  EXPECT_THROW(m.clear(0, 5), std::out_of_range);
  EXPECT_THROW(m.clear(4, 1), std::out_of_range);
  // base + len would wrap around std::size_t.
  EXPECT_THROW(m.clear(2, ~std::size_t{0}), std::out_of_range);
  // The throwing calls must not have touched anything.
  m.at(3) = Cell{1, 1};
  EXPECT_THROW(m.clear(3, 2), std::out_of_range);
  EXPECT_EQ(m.at(3).value, 1u);
}

TEST(Memory, RawDataAliasesCheckedCells) {
  Memory m(4);
  m.at(1) = Cell{5, 6};
  EXPECT_EQ(m.data()[1], m.at(1));
  m.data()[2] = Cell{7, 8};
  EXPECT_EQ(m.at(2).value, 7u);
  EXPECT_EQ(m.at(2).stamp, 8u);
}

TEST(Memory, CellEquality) {
  EXPECT_EQ((Cell{1, 2}), (Cell{1, 2}));
  EXPECT_NE((Cell{1, 2}), (Cell{1, 3}));
  EXPECT_NE((Cell{1, 2}), (Cell{2, 2}));
}

}  // namespace
}  // namespace apex::sim
