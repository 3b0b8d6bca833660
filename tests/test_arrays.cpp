#include <gtest/gtest.h>

#include "array/array.hpp"
#include "array/mdarray.hpp"
#include "array/policies.hpp"

namespace npb {
namespace {

TEST(Array1, StoresAndRetrieves) {
  Array1<double, Unchecked> a(5, 1.5);
  EXPECT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a[i], 1.5);
  a[3] = 7.0;
  EXPECT_EQ(a[3], 7.0);
  a.fill(0.0);
  EXPECT_EQ(a[3], 0.0);
}

TEST(Array1, CheckedThrowsJavaStyle) {
  Array1<double, Checked> a(4);
  EXPECT_NO_THROW(a[3]);
  EXPECT_THROW(a[4], ArrayIndexOutOfBounds);
  EXPECT_THROW(a[static_cast<std::size_t>(-1)], ArrayIndexOutOfBounds);
}

TEST(FixedArray, ZeroInitializedAndCheckedAtN) {
  FixedArray<double, 5, Checked> a;
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a[i], 0.0);
  EXPECT_NO_THROW(a[4] = 2.5);
  EXPECT_EQ(a[4], 2.5);
  EXPECT_THROW(a[5], ArrayIndexOutOfBounds);
  EXPECT_THROW(a[static_cast<std::size_t>(-1)], ArrayIndexOutOfBounds);
}

TEST(FixedArray, UncheckedNeverThrows) {
  // In range, Unchecked and Checked behave identically.
  FixedArray<double, 25, Unchecked> u;
  FixedArray<double, 25, Checked> c;
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_NO_THROW(u[i] = 1.25 * static_cast<double>(i));
    c[i] = 1.25 * static_cast<double>(i);
  }
  for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(u[i], c[i]);
}

TEST(FixedArray, CountingCountsOneCheckPerAccess) {
  Counting::counts().reset();
  FixedArray<double, 5, Counting> a;
  a[0] = 1.0;
  const double x = a[0] + a[4];
  EXPECT_EQ(x, 1.0);
  EXPECT_EQ(Counting::counts().accesses, 3u);
  EXPECT_EQ(Counting::counts().checks, 3u);
  EXPECT_THROW(a[5], ArrayIndexOutOfBounds);
  EXPECT_EQ(Counting::counts().checks, 4u);
}

TEST(Array2, RowMajorLayout) {
  Array2<int, Unchecked> a(3, 4);
  int v = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = v++;
  // Last index fastest: data should be 0..11 in order.
  for (int i = 0; i < 12; ++i) EXPECT_EQ(a.data()[i], i);
  EXPECT_EQ(a.extent(0), 3u);
  EXPECT_EQ(a.extent(1), 4u);
}

TEST(Array3, IndexingAndExtents) {
  Array3<double, Checked> a(2, 3, 4);
  a(1, 2, 3) = 42.0;
  EXPECT_EQ(a(1, 2, 3), 42.0);
  EXPECT_EQ(a.size(), 24u);
  // A flat overrun is caught even when per-axis indices look plausible.
  EXPECT_THROW(a(2, 0, 0), ArrayIndexOutOfBounds);
}

TEST(Array4, IndexingMatchesManualFlattening) {
  const std::size_t n1 = 2, n2 = 3, n3 = 4, n4 = 5;
  Array4<double, Unchecked> a(n1, n2, n3, n4);
  a(1, 2, 3, 4) = 9.0;
  EXPECT_EQ(a.data()[((1 * n2 + 2) * n3 + 3) * n4 + 4], 9.0);
}

TEST(Array5, IndexingMatchesManualFlattening) {
  const std::size_t n1 = 2, n2 = 2, n3 = 3, n4 = 5, n5 = 5;
  Array5<double, Unchecked> a(n1, n2, n3, n4, n5);
  a(1, 1, 2, 4, 3) = 9.0;
  EXPECT_EQ(a.data()[(((1 * n2 + 1) * n3 + 2) * n4 + 4) * n5 + 3], 9.0);
}

TEST(MdArray3, StoresAndChecksPerDimension) {
  MdArray3<double, Checked> a(2, 3, 4);
  a(1, 2, 3) = 5.0;
  EXPECT_EQ(a(1, 2, 3), 5.0);
  EXPECT_THROW(a(2, 0, 0), ArrayIndexOutOfBounds);
  EXPECT_THROW(a(0, 3, 0), ArrayIndexOutOfBounds);
  EXPECT_THROW(a(0, 0, 4), ArrayIndexOutOfBounds);
}

TEST(CountingPolicy, TalliesAccessesChecksAndFlops) {
  Counting::counts().reset();
  Array1<double, Counting> a(8);
  a[0] = 1.0;
  const double x = a[0];
  (void)x;
  Counting::flops(10);
  Counting::muladds(4);
  EXPECT_EQ(Counting::counts().accesses, 2u);
  EXPECT_EQ(Counting::counts().checks, 2u);
  EXPECT_EQ(Counting::counts().flops, 10u);
  EXPECT_EQ(Counting::counts().muladds, 4u);
}

TEST(CountingPolicy, MdArrayCountsThreeChecksPerAccess) {
  Counting::counts().reset();
  MdArray3<double, Counting> a(2, 2, 2);
  a(1, 1, 1) = 2.0;
  EXPECT_EQ(Counting::counts().accesses, 1u);
  EXPECT_EQ(Counting::counts().checks, 3u);
}

TEST(Policies, UncheckedNeverThrows) {
  // Property: in-range behaviour of Checked and Unchecked is identical.
  Array3<double, Checked> c(3, 3, 3);
  Array3<double, Unchecked> u(3, 3, 3);
  double v = 0.0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t k = 0; k < 3; ++k) {
        c(i, j, k) = v;
        u(i, j, k) = v;
        v += 1.25;
      }
  for (std::size_t f = 0; f < 27; ++f) EXPECT_EQ(c.data()[f], u.data()[f]);
}

}  // namespace
}  // namespace npb
