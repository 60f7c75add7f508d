// Tests for the extension operators: cube-accumulated reduction and the
// 8-bit radix sort.
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "kernels/radix_sort.hpp"
#include "kernels/reduce.hpp"
#include "test_helpers.hpp"

namespace ascend::kernels {
namespace {

using acc::Device;

class CubeReduce
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CubeReduce, MatchesExactSum) {
  const auto [n, s] = GetParam();
  Device dev;
  Rng rng(n + s);
  std::vector<half> x(n);
  std::int64_t want = 0;
  for (auto& v : x) {
    const int val = static_cast<int>(rng.next_below(5));
    v = half(static_cast<float>(val));
    want += val;
  }
  auto g = dev.upload(x);
  const auto r = reduce_cube(dev, g.tensor(), n, {.s = s});
  EXPECT_EQ(static_cast<std::int64_t>(r.value), want)
      << "n=" << n << " s=" << s;
  const auto rv = reduce_vector(dev, g.tensor(), n);
  EXPECT_EQ(static_cast<std::int64_t>(rv.value), want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CubeReduce,
    ::testing::Combine(::testing::Values<std::size_t>(1, 1000, 16384, 500000),
                       ::testing::Values<std::size_t>(32, 128)),
    [](const auto& ti) {
      std::string name = "n";
      name += std::to_string(std::get<0>(ti.param));
      name += "_s";
      return name += std::to_string(std::get<1>(ti.param));
    });

TEST(CubeReduce, NegativeAndFractionalValues) {
  Device dev;
  std::vector<half> x = {half(1.5f), half(-2.25f), half(3.0f), half(-0.5f)};
  auto g = dev.upload(x);
  const auto r = reduce_cube(dev, g.tensor(), x.size(), {});
  EXPECT_FLOAT_EQ(r.value, 1.75f);
}

TEST(CubeReduce, FasterThanVectorReduceAtScale) {
  const std::size_t n = 1 << 21;
  Device dev;
  auto x = dev.alloc<half>(n, half(1.0f));
  const auto rc = reduce_cube(dev, x.tensor(), n, {});
  const auto rv = reduce_vector(dev, x.tensor(), n);
  EXPECT_EQ(rc.value, rv.value);
  // Both are memory-bound reads; they should be within 2x of each other
  // (the cube path frees the vector units rather than being faster).
  EXPECT_LT(rc.report.time_s, 2.0 * rv.report.time_s);
  EXPECT_LT(rv.report.time_s, 2.0 * rc.report.time_s);
}

class RadixU8 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixU8, StableSortWithIndices) {
  const std::size_t n = GetParam();
  Device dev;
  Rng rng(n * 5 + 3);
  std::vector<std::uint8_t> keys(n);
  for (auto& v : keys) v = static_cast<std::uint8_t>(rng.next_below(256));
  auto g = dev.upload(keys);
  auto ok = dev.alloc<std::uint8_t>(n);
  auto oi = dev.alloc<std::int32_t>(n);
  radix_sort_u8(dev, g.tensor(), ok.tensor(), oi.tensor(), n, {});

  // Reference: stable sort with indices.
  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return keys[static_cast<std::size_t>(a)] <
                            keys[static_cast<std::size_t>(b)];
                   });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ok[i], keys[static_cast<std::size_t>(order[i])]) << i;
    ASSERT_EQ(oi[i], order[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixU8,
                         ::testing::Values<std::size_t>(1, 255, 8192, 60000),
                         [](const auto& ti) {
                           std::string name = "n";
                           return name += std::to_string(ti.param);
                         });

TEST(RadixU8, HalvedPassCountRoughlyHalvesTime) {
  const std::size_t n = 1 << 20;
  Device dev;
  Rng rng(7);
  std::vector<std::uint16_t> k16(n);
  std::vector<std::uint8_t> k8(n);
  for (std::size_t i = 0; i < n; ++i) {
    k16[i] = static_cast<std::uint16_t>(rng.next_u64());
    k8[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  auto g16 = dev.upload(k16);
  auto o16 = dev.alloc<std::uint16_t>(n);
  auto g8 = dev.upload(k8);
  auto o8 = dev.alloc<std::uint8_t>(n);
  auto idx = dev.alloc<std::int32_t>(n);
  const auto r16 =
      radix_sort_u16(dev, g16.tensor(), o16.tensor(), idx.tensor(), n, {});
  const auto r8 =
      radix_sort_u8(dev, g8.tensor(), o8.tensor(), idx.tensor(), n, {});
  const double ratio = r16.time_s / r8.time_s;
  EXPECT_GT(ratio, 1.5);  // paper expects ~2x
  EXPECT_LT(ratio, 2.6);
}

}  // namespace
}  // namespace ascend::kernels
