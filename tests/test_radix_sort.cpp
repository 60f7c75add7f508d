// Functional tests of the radix sort (§5), its building blocks, and the
// baseline sort.
#include <gtest/gtest.h>

#include "kernels/radix_sort.hpp"
#include "kernels/reference.hpp"
#include "kernels/sort_baseline.hpp"
#include "test_helpers.hpp"

namespace ascend::kernels {
namespace {

using acc::Device;

std::vector<half> mixed_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<half> keys(n);
  for (auto& v : keys) {
    const double roll = rng.next_double();
    if (roll < 0.8) {
      v = half(static_cast<float>(rng.uniform(-100.0, 100.0)));
    } else if (roll < 0.95) {
      // duplicates to exercise stability
      v = half(static_cast<float>(rng.next_below(8)));
    } else {
      v = half(0.0f);
    }
  }
  return keys;
}

void check_sorted_with_indices(std::span<const half> input,
                               const acc::GlobalBuffer<half>& keys_out,
                               const acc::GlobalBuffer<std::int32_t>& idx_out,
                               bool descending) {
  const auto want = ref::stable_sort(input, descending);
  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(keys_out[i].bits(), want.values[i].bits()) << "key @" << i;
    ASSERT_EQ(idx_out[i], want.indices[i]) << "index @" << i;
  }
}

class RadixSortF16 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSortF16, StableAscendingSortWithIndices) {
  const std::size_t n = GetParam();
  Device dev;
  auto host = mixed_keys(n, n * 3 + 1);
  auto keys = dev.upload(host);
  auto keys_out = dev.alloc<half>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  radix_sort_f16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(), n,
                 {});
  check_sorted_with_indices(std::span<const half>(host), keys_out, idx_out,
                            false);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortF16,
                         ::testing::Values<std::size_t>(1, 31, 1000, 8192,
                                                        100000),
                         [](const auto& ti) {
                           std::string name = "n";
                           return name += std::to_string(ti.param);
                         });

TEST(RadixSortF16Desc, DescendingOrder) {
  const std::size_t n = 20000;
  Device dev;
  auto host = mixed_keys(n, 77);
  auto keys = dev.upload(host);
  auto keys_out = dev.alloc<half>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  radix_sort_f16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(), n,
                 {.descending = true});
  check_sorted_with_indices(std::span<const half>(host), keys_out, idx_out,
                            true);
}

TEST(RadixSortF16, NegativeZeroAndExtremes) {
  Device dev;
  std::vector<half> host = {half(-0.0f),      half(0.0f),
                            half::max(),      half::lowest(),
                            half(1.5f),       half(-1.5f),
                            half(0x1.0p-24f), half(-0x1.0p-24f)};
  const std::size_t n = host.size();
  auto keys = dev.upload(host);
  auto keys_out = dev.alloc<half>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  radix_sort_f16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(), n,
                 {});
  check_sorted_with_indices(std::span<const half>(host), keys_out, idx_out,
                            false);
  // -0 sorts next to +0 and both compare equal; stability keeps -0 first
  // (its encoding 0x7fff precedes 0x8000).
  EXPECT_EQ(keys_out[3].bits(), 0x8000u);  // -0 before +0
  EXPECT_EQ(keys_out[4].bits(), 0x0000u);
}

TEST(RefStableSort, PinsTieOrderInBothDirections) {
  // Nine keys: the widening runs eight lanes at a time plus a scalar tail.
  // -0 and +0 compare equal, so every zero keeps its input order, as do
  // the repeated 1s, in both directions.
  const std::vector<half> x = {half(1.0f),  half(-0.0f), half(0.0f),
                               half(1.0f),  half(-1.0f), half(0.0f),
                               half(-0.0f), half(2.0f),  half(1.0f)};
  const auto check = [&](bool descending, std::vector<std::int32_t> want) {
    const auto got = ref::stable_sort(std::span<const half>(x), descending);
    EXPECT_EQ(got.indices, want) << (descending ? "descending" : "ascending");
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(got.values[i].bits(),
                x[static_cast<std::size_t>(want[i])].bits())
          << "value @" << i;
    }
  };
  check(false, {4, 1, 2, 5, 6, 0, 3, 8, 7});
  check(true, {7, 0, 3, 8, 1, 2, 5, 6, 4});
}

TEST(RadixSortU16, AscendingWithIndices) {
  const std::size_t n = 50000;
  Device dev;
  Rng rng(9);
  std::vector<std::uint16_t> host(n);
  for (auto& v : host) v = static_cast<std::uint16_t>(rng.next_below(1 << 16));
  auto keys = dev.upload(host);
  auto keys_out = dev.alloc<std::uint16_t>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  radix_sort_u16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(), n,
                 {});
  const auto want = ref::stable_sort_u16(std::span<const std::uint16_t>(host));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys_out[i], want.values[i]) << i;
    ASSERT_EQ(idx_out[i], want.indices[i]) << i;
  }
}

TEST(RadixEncodeDecode, DeviceMatchesReferenceForAllFiniteValues) {
  // Reference-level property: encode preserves order, decode inverts.
  Rng rng(1);
  for (int trial = 0; trial < 20000; ++trial) {
    const half a = half::from_bits(
        static_cast<std::uint16_t>(rng.next_below(1 << 16)));
    const half b = half::from_bits(
        static_cast<std::uint16_t>(rng.next_below(1 << 16)));
    if (a.isnan() || b.isnan()) continue;
    const auto ea = ref::radix_encode_f16(a);
    const auto eb = ref::radix_encode_f16(b);
    EXPECT_EQ(ref::radix_decode_f16(ea).bits(), a.bits());
    if (float(a) < float(b)) {
      EXPECT_LT(ea, eb) << float(a) << " vs " << float(b);
    }
  }
}

TEST(RadixEncodeKernel, MatchesReferenceEncoding) {
  const std::size_t n = 10000;
  Device dev;
  auto host = mixed_keys(n, 5);
  auto keys = dev.upload(host);
  auto enc = dev.alloc<std::uint16_t>(n);
  auto idx = dev.alloc<std::int32_t>(n);
  radix_encode_kernel(dev, keys.tensor(), enc.tensor(), idx.tensor(), n,
                      /*descending=*/false);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(enc[i], ref::radix_encode_f16(host[i])) << i;
    ASSERT_EQ(idx[i], static_cast<std::int32_t>(i)) << i;
  }
  // Decode round trip through the device kernel.
  auto back = dev.alloc<half>(n);
  radix_decode_kernel(dev, enc.tensor(), back.tensor(), n, false);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i].bits(), host[i].bits()) << i;
  }
}

TEST(RadixExtractKernel, BuildsZeroBitFirstMask) {
  const std::size_t n = 4096;
  Device dev;
  Rng rng(3);
  std::vector<std::uint16_t> host(n);
  for (auto& v : host) v = static_cast<std::uint16_t>(rng.next_below(1 << 16));
  auto enc = dev.upload(host);
  auto mask = dev.alloc<std::int8_t>(n);
  for (int bit : {0, 7, 15}) {
    radix_extract_kernel(dev, enc.tensor(), mask.tensor(), n, bit);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mask[i], ((host[i] >> bit) & 1) == 0 ? 1 : 0)
          << "bit " << bit << " @" << i;
    }
  }
}

TEST(SortBaseline, StableSortWithIndices) {
  for (std::size_t n : {std::size_t{1}, std::size_t{500}, std::size_t{8192},
                        std::size_t{40000}}) {
    Device dev;
    auto host = mixed_keys(n, n + 13);
    auto keys = dev.upload(host);
    auto keys_out = dev.alloc<half>(n);
    auto idx_out = dev.alloc<std::int32_t>(n);
    sort_baseline_f16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(),
                      n, false);
    check_sorted_with_indices(std::span<const half>(host), keys_out, idx_out,
                              false);
  }
}

TEST(SortBaseline, DescendingOrder) {
  const std::size_t n = 12345;
  Device dev;
  auto host = mixed_keys(n, 99);
  auto keys = dev.upload(host);
  auto keys_out = dev.alloc<half>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  sort_baseline_f16(dev, keys.tensor(), keys_out.tensor(), idx_out.tensor(),
                    n, true);
  check_sorted_with_indices(std::span<const half>(host), keys_out, idx_out,
                            true);
}

}  // namespace
}  // namespace ascend::kernels
