// Functional tests for the intrinsic instruction set (vector, cube, copy).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ascendc/ascendc.hpp"
#include "common/rng.hpp"

namespace ascend::acc {
namespace {

// Runs `body` on a single vector core with a prepared UB scratch.
template <typename F>
void on_vector_core(F&& body) {
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
         [&](KernelContext& c) { body(c); });
}

template <typename F>
void on_cube_core(F&& body) {
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) { body(c); });
}

TEST(Intrinsics, DuplicateAddsMuls) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf buf(c, TPosition::VECCALC);
    pipe.InitBuffer(buf, 1024);
    auto t = buf.Get<float>();
    Duplicate(c, t, 2.0f, 8);
    Adds(c, t, t, 3.0f, 8);
    Muls(c, t, t, 2.0f, 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(t[i], 10.0f);
  });
}

TEST(Intrinsics, HalfLaneRounding) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf buf(c, TPosition::VECCALC);
    pipe.InitBuffer(buf, 1024);
    auto t = buf.Get<half>();
    Duplicate(c, t, half(2048.0f), 4);
    Adds(c, t, t, half(1.0f), 4);  // rounds back to 2048 (RNE)
    EXPECT_EQ(float(t[0]), 2048.0f);
  });
}

TEST(Intrinsics, ElementwiseBinaryOps) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), b(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 256);
    pipe.InitBuffer(b, 256);
    pipe.InitBuffer(d, 256);
    auto ta = a.Get<float>(), tb = b.Get<float>(), td = d.Get<float>();
    for (int i = 0; i < 8; ++i) {
      ta[i] = static_cast<float>(i);
      tb[i] = 2.0f;
    }
    Add(c, td, ta, tb, 8);
    EXPECT_EQ(td[3], 5.0f);
    Sub(c, td, ta, tb, 8);
    EXPECT_EQ(td[3], 1.0f);
    Mul(c, td, ta, tb, 8);
    EXPECT_EQ(td[3], 6.0f);
    Max(c, td, ta, tb, 8);
    EXPECT_EQ(td[1], 2.0f);
    EXPECT_EQ(td[7], 7.0f);
    Min(c, td, ta, tb, 8);
    EXPECT_EQ(td[1], 1.0f);
    EXPECT_EQ(td[7], 2.0f);
  });
}

TEST(Intrinsics, BitwiseAndShifts) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf buf(c, TPosition::VECCALC);
    pipe.InitBuffer(buf, 1024);
    auto t = buf.Get<std::uint16_t>();
    t[0] = 0b1010110;
    ShiftRights(c, t, t, 3, 1);
    EXPECT_EQ(t[0], 0b1010u);
    Ands(c, t, t, std::uint16_t{1}, 1);
    EXPECT_EQ(t[0], 0u);
    t[0] = 0xff00;
    Not(c, t, t, 1);
    EXPECT_EQ(t[0], 0x00ffu);
    Xors(c, t, t, std::uint16_t{1}, 1);
    EXPECT_EQ(t[0], 0x00feu);
    ShiftLefts(c, t, t, 8, 1);
    EXPECT_EQ(t[0], 0xfe00u);
    Ors(c, t, t, std::uint16_t{1}, 1);
    EXPECT_EQ(t[0], 0xfe01u);
  });
}

TEST(Intrinsics, CastConversions) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), b(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 1024);
    pipe.InitBuffer(b, 1024);
    // f32 -> f16 rounds.
    auto f32 = a.Get<float>();
    auto f16 = b.Get<half>();
    f32[0] = 1.0009765625f;  // 1 + 2^-10: representable
    f32[1] = 1e9f;           // overflows to inf
    Cast(c, f16, f32, 2);
    EXPECT_EQ(float(f16[0]), 1.0009765625f);
    EXPECT_TRUE(f16[1].isinf());
    // i32 -> i8 saturates.
    auto i32 = a.Get<std::int32_t>();
    auto i8 = b.Get<std::int8_t>();
    i32[0] = 300;
    i32[1] = -300;
    i32[2] = 7;
    Cast(c, i8, i32, 3);
    EXPECT_EQ(i8[0], 127);
    EXPECT_EQ(i8[1], -128);
    EXPECT_EQ(i8[2], 7);
    // i8 -> i32 widens exactly.
    Cast(c, i32, i8, 3);
    EXPECT_EQ(i32[0], 127);
    EXPECT_EQ(i32[1], -128);
  });
}

TEST(Intrinsics, Reductions) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 4096);
    pipe.InitBuffer(d, 64);
    auto src = a.Get<float>();
    auto dst = d.Get<float>();
    for (int i = 0; i < 100; ++i) src[i] = static_cast<float>(i + 1);
    ReduceSum(c, dst, src, 100);
    EXPECT_EQ(dst[0], 5050.0f);
    ReduceMax(c, dst, src, 100);
    EXPECT_EQ(dst[0], 100.0f);
  });
}

TEST(Intrinsics, ReduceSumHalfUsesWideAccumulator) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 8192);
    pipe.InitBuffer(d, 64);
    auto src = a.Get<half>();
    auto dst = d.Get<half>();
    // 4096 ones: a serial fp16 accumulation would stall at 2048; the
    // float32-lane reduction reaches 4096 exactly.
    for (int i = 0; i < 4096; ++i) src[i] = half(1.0f);
    ReduceSum(c, dst, src, 4096);
    EXPECT_EQ(float(dst[0]), 4096.0f);
  });
}

TEST(Intrinsics, CompareScalarAndSelect) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), m(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC), z(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 256);
    pipe.InitBuffer(m, 64);
    pipe.InitBuffer(d, 256);
    pipe.InitBuffer(z, 256);
    auto src = a.Get<float>();
    auto mask = m.Get<std::int8_t>();
    auto dst = d.Get<float>();
    auto zeros = z.Get<float>();
    for (int i = 0; i < 8; ++i) src[i] = static_cast<float>(i);
    Duplicate(c, zeros, 0.0f, 8);
    CompareScalar(c, mask, src, 4.0f, CmpMode::GE, 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(mask[i], i >= 4 ? 1 : 0);
    Select(c, dst, mask, src, zeros, 8);
    EXPECT_EQ(dst[2], 0.0f);
    EXPECT_EQ(dst[6], 6.0f);
  });
}

TEST(Intrinsics, GatherMaskCompacts) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), m(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 256);
    pipe.InitBuffer(m, 64);
    pipe.InitBuffer(d, 256);
    auto src = a.Get<float>();
    auto mask = m.Get<std::int8_t>();
    auto dst = d.Get<float>();
    for (int i = 0; i < 8; ++i) {
      src[i] = static_cast<float>(i * 10);
      mask[i] = (i % 3 == 0) ? 1 : 0;  // 0, 3, 6
    }
    const std::size_t n = GatherMask(c, dst, src, mask, 8);
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(dst[0], 0.0f);
    EXPECT_EQ(dst[1], 30.0f);
    EXPECT_EQ(dst[2], 60.0f);
  });
}

// Runs GatherMask over `mask` on float src[i] = i into a `dst_len`-element
// dst prefilled with -1. Checks the count, the stable compaction, and that
// every dst element at and past the count keeps its prefill, as does a
// guard buffer allocated after dst.
void check_gather_mask(const std::vector<std::int8_t>& mask,
                       std::size_t dst_len) {
  std::vector<float> want;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) want.push_back(static_cast<float>(i));
  }
  on_vector_core([&](KernelContext& c) {
    const std::size_t n = mask.size();
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), m(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC), g(c, TPosition::VECCALC);
    pipe.InitBuffer(a, n * sizeof(float));
    pipe.InitBuffer(m, n);
    pipe.InitBuffer(d, dst_len * sizeof(float));
    pipe.InitBuffer(g, 8 * sizeof(float));
    auto src = a.Get<float>();
    auto msk = m.Get<std::int8_t>();
    auto dst = d.Get<float>();
    auto guard = g.Get<float>();
    ASSERT_EQ(dst.size(), dst_len);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = static_cast<float>(i);
      msk[i] = mask[i];
    }
    for (std::size_t i = 0; i < dst_len; ++i) dst[i] = -1.0f;
    for (std::size_t i = 0; i < guard.size(); ++i) guard[i] = -2.0f;
    const std::size_t cnt = GatherMask(c, dst, src, msk, n);
    ASSERT_EQ(cnt, want.size());
    for (std::size_t i = 0; i < cnt; ++i) EXPECT_EQ(dst[i], want[i]) << i;
    for (std::size_t i = cnt; i < dst_len; ++i) EXPECT_EQ(dst[i], -1.0f) << i;
    for (std::size_t i = 0; i < guard.size(); ++i) EXPECT_EQ(guard[i], -2.0f);
  });
}

TEST(Intrinsics, GatherMaskAllZeroAllOneAndRandom) {
  const std::size_t n = 517;  // not a multiple of any SIMD width
  check_gather_mask(std::vector<std::int8_t>(n, 0), n);
  check_gather_mask(std::vector<std::int8_t>(n, 1), n);
  Rng rng(11);
  std::vector<std::int8_t> mask(n);
  for (auto& v : mask) v = rng.bernoulli(0.5) ? 1 : 0;
  check_gather_mask(mask, n);
  // Leading and trailing unselected runs.
  mask.assign(n, 0);
  mask[100] = mask[101] = mask[300] = 1;
  check_gather_mask(mask, n);
}

TEST(Intrinsics, GatherMaskSelectsAnyNonzeroByte) {
  std::vector<std::int8_t> mask(64, 0);
  for (std::size_t i = 0; i < mask.size(); i += 3) {
    mask[i] = static_cast<std::int8_t>(i % 2 == 0 ? -1 : 2);
  }
  mask[63] = std::numeric_limits<std::int8_t>::min();
  check_gather_mask(mask, 64);
}

TEST(Intrinsics, GatherMaskShortDstHoldsFittingCount) {
  // dst shorter than n: fine while the selected count fits, including a
  // count that fills dst exactly.
  std::vector<std::int8_t> mask(256, 0);
  for (std::size_t i = 0; i < mask.size(); i += 8) mask[i] = 1;  // 32 picks
  check_gather_mask(mask, 40);
  check_gather_mask(mask, 32);
}

TEST(Intrinsics, GatherMaskInPlace) {
  // dst aliasing src compacts the selected prefix and leaves the tail.
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), m(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 64 * sizeof(float));
    pipe.InitBuffer(m, 64);
    auto x = a.Get<float>();
    auto mask = m.Get<std::int8_t>();
    for (std::size_t i = 0; i < 64; ++i) {
      x[i] = static_cast<float>(i);
      mask[i] = i % 4 == 1 ? 1 : 0;
    }
    const std::size_t cnt = GatherMask(c, x, x, mask, 64);
    ASSERT_EQ(cnt, 16u);
    for (std::size_t i = 0; i < cnt; ++i) {
      EXPECT_EQ(x[i], static_cast<float>(4 * i + 1)) << i;
    }
    for (std::size_t i = cnt; i < 64; ++i) {
      EXPECT_EQ(x[i], static_cast<float>(i)) << i;
    }
  });
}

TEST(Intrinsics, GatherMaskDstOverflowThrows) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), m(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 64 * sizeof(float));
    pipe.InitBuffer(m, 64);
    pipe.InitBuffer(d, 8 * sizeof(float));
    auto src = a.Get<float>();
    auto mask = m.Get<std::int8_t>();
    auto dst = d.Get<float>();
    for (std::size_t i = 0; i < 64; ++i) mask[i] = i < 9 ? 1 : 0;
    EXPECT_THROW(GatherMask(c, dst, src, mask, 64), Error);
  });
}

TEST(Intrinsics, GatherWithIndices) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), ib(c, TPosition::VECCALC),
        d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 256);
    pipe.InitBuffer(ib, 256);
    pipe.InitBuffer(d, 256);
    auto src = a.Get<float>();
    auto idx = ib.Get<std::int32_t>();
    auto dst = d.Get<float>();
    for (int i = 0; i < 8; ++i) src[i] = static_cast<float>(i);
    idx[0] = 7;
    idx[1] = 0;
    idx[2] = 3;
    Gather(c, dst, src, idx, 3);
    EXPECT_EQ(dst[0], 7.0f);
    EXPECT_EQ(dst[1], 0.0f);
    EXPECT_EQ(dst[2], 3.0f);
  });
}

TEST(Intrinsics, CreateVecIndex) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf d(c, TPosition::VECCALC);
    pipe.InitBuffer(d, 256);
    auto idx = d.Get<std::int32_t>();
    CreateVecIndex(c, idx, 100, 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(idx[i], 100 + i);
  });
}

TEST(Intrinsics, CumSumMacro) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a(c, TPosition::VECCALC), d(c, TPosition::VECCALC);
    pipe.InitBuffer(a, 256);
    pipe.InitBuffer(d, 256);
    auto src = a.Get<float>();
    auto dst = d.Get<float>();
    for (int i = 0; i < 8; ++i) src[i] = 1.0f;
    CumSum(c, dst, src, 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], static_cast<float>(i + 1));
  });
}

TEST(Intrinsics, Sort32SortsChunksStably) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf kb(c, TPosition::VECCALC), ib(c, TPosition::VECCALC);
    pipe.InitBuffer(kb, 512);
    pipe.InitBuffer(ib, 512);
    auto keys = kb.Get<half>();
    auto idx = ib.Get<std::int32_t>();
    // Two chunks of 32, each with duplicate keys to check stability.
    for (int i = 0; i < 64; ++i) {
      keys[i] = half(static_cast<float>((63 - i) / 2));
      idx[i] = i;
    }
    Sort32(c, keys, idx, 64);
    for (int chunk = 0; chunk < 2; ++chunk) {
      for (int i = 1; i < 32; ++i) {
        const int b = chunk * 32;
        EXPECT_LE(float(keys[b + i - 1]), float(keys[b + i]));
        if (keys[b + i - 1] == keys[b + i]) {
          EXPECT_LT(idx[b + i - 1], idx[b + i]);  // stable
        }
      }
    }
  });
}

TEST(Intrinsics, MergeSortedIsStable) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf ka(c, TPosition::VECCALC), ia(c, TPosition::VECCALC),
        kb(c, TPosition::VECCALC), ib(c, TPosition::VECCALC),
        kd(c, TPosition::VECCALC), id(c, TPosition::VECCALC);
    for (auto* b : {&ka, &ia, &kb, &ib, &kd, &id}) pipe.InitBuffer(*b, 512);
    auto a_keys = ka.Get<half>();
    auto a_idx = ia.Get<std::int32_t>();
    auto b_keys = kb.Get<half>();
    auto b_idx = ib.Get<std::int32_t>();
    auto d_keys = kd.Get<half>();
    auto d_idx = id.Get<std::int32_t>();
    float av[] = {1, 3, 3, 5};
    float bv[] = {2, 3, 4};
    for (int i = 0; i < 4; ++i) {
      a_keys[i] = half(av[i]);
      a_idx[i] = i;  // 0..3
    }
    for (int i = 0; i < 3; ++i) {
      b_keys[i] = half(bv[i]);
      b_idx[i] = 10 + i;
    }
    MergeSorted(c, d_keys, d_idx, a_keys, a_idx, 4, b_keys, b_idx, 3);
    const float want_k[] = {1, 2, 3, 3, 3, 4, 5};
    const int want_i[] = {0, 10, 1, 2, 11, 12, 3};
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(float(d_keys[i]), want_k[i]) << i;
      EXPECT_EQ(d_idx[i], want_i[i]) << i;
    }
  });
}

// MergeSorted against std::merge (stable: a before b on equal keys) over
// random keys, all-equal keys, empty runs and runs of length 1.
TEST(Intrinsics, MergeSortedMatchesStdMerge) {
  struct Case {
    std::size_t na, nb;
    std::uint16_t key_range;  ///< keys drawn from [0, key_range)
  };
  const Case cases[] = {{257, 300, 1000}, {100, 80, 1}, {0, 50, 7},
                        {50, 0, 7},       {0, 0, 7},    {1, 1, 1},
                        {1, 64, 16},      {64, 1, 16},  {1, 1, 1000}};
  Rng rng(42);
  for (const Case& cs : cases) {
    using Item = std::pair<std::uint16_t, std::int32_t>;
    std::vector<Item> a(cs.na), b(cs.nb);
    for (std::size_t i = 0; i < cs.na; ++i) {
      a[i] = {static_cast<std::uint16_t>(rng.next_u64() % cs.key_range),
              static_cast<std::int32_t>(i)};
    }
    for (std::size_t j = 0; j < cs.nb; ++j) {
      b[j] = {static_cast<std::uint16_t>(rng.next_u64() % cs.key_range),
              static_cast<std::int32_t>(10000 + j)};
    }
    const auto by_key = [](const Item& x, const Item& y) {
      return x.first < y.first;
    };
    std::stable_sort(a.begin(), a.end(), by_key);
    std::stable_sort(b.begin(), b.end(), by_key);
    std::vector<Item> want;
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(want), by_key);

    on_vector_core([&](KernelContext& c) {
      TPipe pipe(c);
      TBuf ka(c, TPosition::VECCALC), ia(c, TPosition::VECCALC),
          kb(c, TPosition::VECCALC), ib(c, TPosition::VECCALC),
          kd(c, TPosition::VECCALC), id(c, TPosition::VECCALC);
      for (auto* buf : {&ka, &ia, &kb, &ib, &kd, &id}) {
        pipe.InitBuffer(*buf, 4096);
      }
      auto a_keys = ka.Get<std::uint16_t>();
      auto a_idx = ia.Get<std::int32_t>();
      auto b_keys = kb.Get<std::uint16_t>();
      auto b_idx = ib.Get<std::int32_t>();
      auto d_keys = kd.Get<std::uint16_t>();
      auto d_idx = id.Get<std::int32_t>();
      for (std::size_t i = 0; i < cs.na; ++i) {
        a_keys[i] = a[i].first;
        a_idx[i] = a[i].second;
      }
      for (std::size_t j = 0; j < cs.nb; ++j) {
        b_keys[j] = b[j].first;
        b_idx[j] = b[j].second;
      }
      MergeSorted(c, d_keys, d_idx, a_keys, a_idx, cs.na, b_keys, b_idx,
                  cs.nb);
      for (std::size_t o = 0; o < want.size(); ++o) {
        EXPECT_EQ(d_keys[o], want[o].first) << "na=" << cs.na << " o=" << o;
        EXPECT_EQ(d_idx[o], want[o].second) << "na=" << cs.na << " o=" << o;
      }
    });
  }
}

TEST(Intrinsics, MmadComputesMatmul) {
  on_cube_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a1(c, TPosition::A1), a2(c, TPosition::A2), b2(c, TPosition::B2),
        co(c, TPosition::CO1);
    pipe.InitBuffer(a1, 4096);
    pipe.InitBuffer(a2, 4096);
    pipe.InitBuffer(b2, 4096);
    pipe.InitBuffer(co, 4096);
    auto stage = a1.Get<half>();
    auto A = a2.Get<half>();
    auto B = b2.Get<half>();
    auto C = co.Get<float>();
    // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
    const float av[] = {1, 2, 3, 4}, bv[] = {5, 6, 7, 8};
    for (int i = 0; i < 4; ++i) stage[i] = half(av[i]);
    LoadData(c, A, stage, 4);
    for (int i = 0; i < 4; ++i) stage[i] = half(bv[i]);
    LoadData(c, B, stage, 4);
    Mmad(c, C, A, B, 2, 2, 2, /*accumulate=*/false);
    EXPECT_EQ(C[0], 19.0f);
    EXPECT_EQ(C[1], 22.0f);
    EXPECT_EQ(C[2], 43.0f);
    EXPECT_EQ(C[3], 50.0f);
    // Accumulation adds on top.
    Mmad(c, C, A, B, 2, 2, 2, /*accumulate=*/true);
    EXPECT_EQ(C[0], 38.0f);
  });
}

TEST(Intrinsics, MmadInt8AccumulatesInt32) {
  on_cube_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a1(c, TPosition::A1), a2(c, TPosition::A2), b2(c, TPosition::B2),
        co(c, TPosition::CO1);
    pipe.InitBuffer(a1, 4096);
    pipe.InitBuffer(a2, 4096);
    pipe.InitBuffer(b2, 4096);
    pipe.InitBuffer(co, 8192);
    auto stage = a1.Get<std::int8_t>();
    auto A = a2.Get<std::int8_t>();
    auto B = b2.Get<std::int8_t>();
    auto C = co.Get<std::int32_t>();
    // 1x64 row of 100s times 64x1 column of 100s: 64*10000 = 640000
    // overflows int16 but not int32.
    for (int i = 0; i < 64; ++i) stage[i] = 100;
    LoadData(c, A, stage, 64);
    LoadData(c, B, stage, 64);
    Mmad(c, C, A, B, 1, 64, 1, false);
    EXPECT_EQ(C[0], 640000);
  });
}

TEST(Intrinsics, MmadEnforcesPositions) {
  on_cube_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf a2(c, TPosition::A2), co(c, TPosition::CO1);
    pipe.InitBuffer(a2, 1024);
    pipe.InitBuffer(co, 1024);
    auto A = a2.Get<half>();
    auto C = co.Get<float>();
    // B in L0A instead of L0B must be rejected.
    EXPECT_THROW(Mmad(c, C, A, A, 2, 2, 2, false), Error);
  });
}

TEST(Intrinsics, DataCopyRoundtripThroughUb) {
  Device dev(sim::MachineConfig::single_core());
  auto in = dev.alloc<float>(1024);
  auto out = dev.alloc<float>(1024, 0.0f);
  for (std::size_t i = 0; i < 1024; ++i) in[i] = static_cast<float>(i);
  auto in_t = in.tensor();
  auto out_t = out.tensor();
  auto rep = launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                    [&](KernelContext& c) {
                      TPipe pipe(c);
                      TBuf b(c, TPosition::VECIN);
                      pipe.InitBuffer(b, 1024 * sizeof(float));
                      auto t = b.Get<float>();
                      DataCopy(c, t, in_t, 1024);
                      DataCopy(c, out_t, t, 1024);
                    });
  for (std::size_t i = 0; i < 1024; ++i) EXPECT_EQ(out[i], in[i]);
  EXPECT_EQ(rep.gm_read_bytes, 4096u);
  EXPECT_EQ(rep.gm_write_bytes, 4096u);
}

TEST(Intrinsics, DataCopy2DStridedColumnExtract) {
  Device dev(sim::MachineConfig::single_core());
  // 8 rows x 16 cols in GM; copy a 8x4 sub-block into UB densely.
  auto in = dev.alloc<std::int32_t>(128);
  for (int i = 0; i < 128; ++i) in[i] = i;
  auto out = dev.alloc<std::int32_t>(32, -1);
  auto in_t = in.tensor();
  auto out_t = out.tensor();
  launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
         [&](KernelContext& c) {
           TPipe pipe(c);
           TBuf b(c, TPosition::VECIN);
           pipe.InitBuffer(b, 32 * sizeof(std::int32_t));
           auto t = b.Get<std::int32_t>();
           DataCopy2D(c, t, in_t.sub(4, 124),
                      {.block_count = 8, .block_len = 4, .src_stride = 16,
                       .dst_stride = 4});
           DataCopy(c, out_t, t, 32);
         });
  for (int r = 0; r < 8; ++r) {
    for (int col = 0; col < 4; ++col) {
      EXPECT_EQ(out[static_cast<std::size_t>(r * 4 + col)], r * 16 + 4 + col);
    }
  }
}

TEST(Intrinsics, GetValueSerialisesAndReads) {
  on_vector_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf b(c, TPosition::VECCALC);
    pipe.InitBuffer(b, 64);
    auto t = b.Get<float>();
    t[3] = 9.0f;
    EXPECT_EQ(GetValue(c, t, 3), 9.0f);
    const auto anchor = c.trace().serial_anchor();
    EXPECT_NE(anchor, 0u);  // subsequent ops will depend on the read
    SetValue(c, t, 0, 1.0f);
    EXPECT_EQ(t[0], 1.0f);
  });
}

TEST(Intrinsics, VectorOpsRejectedOnCubeCore) {
  on_cube_core([](KernelContext& c) {
    TPipe pipe(c);
    TBuf b(c, TPosition::A1);
    pipe.InitBuffer(b, 64);
    auto t = b.Get<float>();
    EXPECT_THROW(Duplicate(c, t, 0.0f, 4), Error);
  });
}

TEST(Intrinsics, FixpipeCastsF32ToF16) {
  Device dev(sim::MachineConfig::single_core());
  auto out = dev.alloc<half>(16, half(0.0f));
  auto out_t = out.tensor();
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
           TPipe pipe(c);
           TBuf co(c, TPosition::CO1);
           pipe.InitBuffer(co, 64);
           auto C = co.Get<float>();
           for (int i = 0; i < 16; ++i) C[i] = static_cast<float>(i) + 0.5f;
           Fixpipe(c, out_t, C, 16);
         });
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(float(out[static_cast<std::size_t>(i)]),
              static_cast<float>(i) + 0.5f);
  }
}

// Deferred constant fills: DataCopy of an immutable GM constant into L1/L0B
// only records the copy; each intrinsic that later touches the slot must
// see the constant's bytes, and a partial overwrite must keep the rest.
TEST(Intrinsics, DeferredConstantFillMaterialisesForEveryReader) {
  Device dev(sim::MachineConfig::single_core());
  constexpr std::size_t kS = 8, kN = kS * kS;
  std::vector<half> host(2 * kN);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = half(static_cast<float>(i % 50 + 1));  // never 0: arenas are
  }                                                   // zero-initialised
  auto k = dev.upload(host);
  k.make_immutable();
  const auto kg = k.tensor();
  auto out = dev.alloc<half>(4 * kN, half(-1.0f));
  const auto og = out.tensor();

  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    TPipe pipe(c);
    TBuf l1a(c, TPosition::B1), l1b(c, TPosition::B1), l1c(c, TPosition::B1),
        a1(c, TPosition::A1), a2(c, TPosition::A2), b2(c, TPosition::B2),
        co(c, TPosition::CO1);
    for (auto* buf : {&l1a, &l1b, &l1c, &a1, &a2, &b2}) {
      pipe.InitBuffer(*buf, 2 * kN * sizeof(half));
    }
    pipe.InitBuffer(co, kN * sizeof(float));

    // GetValue reads a pending slot.
    auto s1 = l1a.Get<half>();
    DataCopy(c, s1, kg, 2 * kN);
    EXPECT_EQ(float(GetValue(c, s1, 5)), float(host[5]));

    // Mmad through an L0B fill forwarded from the second half of a pending
    // L1 slot: I @ B == B.
    auto s2 = l1b.Get<half>();
    DataCopy(c, s2, kg, 2 * kN);
    auto B = b2.Get<half>();
    LoadData(c, B, s2.sub(kN, kN), kN);
    auto stage = a1.Get<half>();
    for (std::size_t i = 0; i < kN; ++i) {
      stage[i] = half(i / kS == i % kS ? 1.0f : 0.0f);
    }
    auto A = a2.Get<half>();
    LoadData(c, A, stage, kN);
    auto C = co.Get<float>();
    Mmad(c, C, A, B, kS, kS, kS, /*accumulate=*/false);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(C[i], float(host[kN + i])) << i;
    }

    // FixpipeLocal overwrites the first half of a pending slot.
    auto s3 = l1c.Get<half>();
    DataCopy(c, s3, kg, 2 * kN);
    FixpipeLocal(c, s3, C, kN);
    DataCopy(c, og.sub(0, 2 * kN), s3, 2 * kN);

    // InitConstValue zeroes the first quarter of a pending slot.
    DataCopy(c, s1, kg, 2 * kN);
    InitConstValue(c, s1, half(0.0f), kN / 2);
    DataCopy(c, og.sub(2 * kN, 2 * kN), s1, 2 * kN);
  });

  for (std::size_t i = 0; i < 2 * kN; ++i) {
    const float fixed = float(host[i < kN ? kN + i : i]);
    EXPECT_EQ(float(out[i]), fixed) << "FixpipeLocal region " << i;
    const float zeroed = i < kN / 2 ? 0.0f : float(host[i]);
    EXPECT_EQ(float(out[2 * kN + i]), zeroed) << "InitConstValue region " << i;
  }
  // Four GM loads plus one forward were deferred; GetValue, Mmad,
  // FixpipeLocal and InitConstValue each materialised one (three whole
  // 2*kN loads and the kN forward). The L1 copy behind the forward was
  // never needed.
  const FillStats& f = dev.engine().fill_stats();
  EXPECT_EQ(f.deferred, 5u);
  EXPECT_EQ(f.materialized, 4u);
  EXPECT_EQ(f.materialized_bytes, 7 * kN * sizeof(half));
}

TEST(Intrinsics, KernelWritesIntoConstantGmThrow) {
  Device dev(sim::MachineConfig::single_core());
  auto k = dev.upload(std::vector<float>(64, 1.0f));
  k.make_immutable();
  const auto kg = k.tensor();
  EXPECT_TRUE(kg.sub(8, 8).reinterpret<std::int32_t>().immutable());
  EXPECT_FALSE(dev.alloc<float>(64).tensor().immutable());

  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
             [&](KernelContext& c) {
               TPipe pipe(c);
               TBuf ub(c, TPosition::VECCALC);
               pipe.InitBuffer(ub, 256);
               DataCopy(c, kg.sub(0, 16), ub.Get<float>(), 16);
             }),
      Error);
  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
             [&](KernelContext& c) {
               TPipe pipe(c);
               TBuf ub(c, TPosition::VECCALC);
               pipe.InitBuffer(ub, 256);
               DataCopy2D(c, kg, ub.Get<float>(),
                          {.block_count = 2, .block_len = 4});
             }),
      Error);
  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
             [&](KernelContext& c) {
               TPipe pipe(c);
               TBuf co(c, TPosition::CO1);
               pipe.InitBuffer(co, 256);
               Fixpipe(c, kg, co.Get<float>(), 16);
             }),
      Error);
  for (std::size_t i = 0; i < k.size(); ++i) EXPECT_EQ(k[i], 1.0f) << i;
}

}  // namespace
}  // namespace ascend::acc
