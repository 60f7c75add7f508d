// Cube-layer depth tests: Mmad on non-square shapes, accumulation chains,
// padding alignment, cost monotonicity, and the constant matrices of §4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ascendc/ascendc.hpp"
#include "common/rng.hpp"
#include "kernels/common.hpp"

namespace ascend::acc {
namespace {

template <typename F>
void on_cube(F&& body) {
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) { body(c); });
}

struct CubeBufs {
  TPipe pipe;
  TBuf a1, a2, b2, co;
  LocalTensor<half> stage, A, B;
  LocalTensor<float> C;

  explicit CubeBufs(KernelContext& c, std::size_t elems = 16384)
      : pipe(c), a1(c, TPosition::A1), a2(c, TPosition::A2),
        b2(c, TPosition::B2), co(c, TPosition::CO1) {
    pipe.InitBuffer(a1, elems * sizeof(half));
    pipe.InitBuffer(a2, elems * sizeof(half));
    pipe.InitBuffer(b2, elems * sizeof(half));
    pipe.InitBuffer(co, elems * sizeof(float));
    stage = a1.Get<half>();
    A = a2.Get<half>();
    B = b2.Get<half>();
    C = co.Get<float>();
  }
};

TEST(MmadShapes, RectangularMKN) {
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    // A: 3x5, B: 5x2 -> C: 3x2 with known values.
    const std::size_t M = 3, K = 5, N = 2;
    for (std::size_t i = 0; i < M * K; ++i) {
      b.stage[i] = half(static_cast<float>(i % 7) - 3.0f);
    }
    LoadData(c, b.A, b.stage, M * K);
    for (std::size_t i = 0; i < K * N; ++i) {
      b.stage[i] = half(static_cast<float>((i * 3) % 5) - 2.0f);
    }
    LoadData(c, b.B, b.stage, K * N);
    Mmad(c, b.C, b.A, b.B, M, K, N, false);
    // Host-computed reference.
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        float want = 0.0f;
        for (std::size_t k = 0; k < K; ++k) {
          const float av = static_cast<float>(static_cast<int>(i * K + k) % 7) - 3.0f;
          const float bv = static_cast<float>(((k * N + j) * 3) % 5) - 2.0f;
          want += av * bv;
        }
        EXPECT_EQ(b.C[i * N + j], want) << i << "," << j;
      }
    }
  });
}

TEST(MmadShapes, AccumulationChainMatchesSum) {
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    const std::size_t s = 16;
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = half(1.0f);
    LoadData(c, b.A, b.stage, s * s);
    LoadData(c, b.B, b.stage, s * s);
    for (int rep = 0; rep < 5; ++rep) {
      Mmad(c, b.C, b.A, b.B, s, s, s, /*accumulate=*/rep > 0);
    }
    // Each Mmad adds s (=16) to every entry; 5 reps -> 80.
    EXPECT_EQ(b.C[0], 80.0f);
    EXPECT_EQ(b.C[s * s - 1], 80.0f);
  });
}

TEST(MmadShapes, ScanIdentityOnTile) {
  // Equation 1 on a random 32x32 tile: A@U + L^-@(A@1) equals the flat scan.
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    const std::size_t s = 32;
    Rng rng(3);
    std::vector<float> z(s * s);
    for (std::size_t i = 0; i < s * s; ++i) {
      z[i] = static_cast<float>(rng.next_below(5));
      b.stage[i] = half(z[i]);
    }
    LoadData(c, b.A, b.stage, s * s);
    // C1 = A @ 1s
    auto ones = kernels::make_all_ones<half>(s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = ones[i];
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, false);
    std::vector<float> c1(s * s);
    for (std::size_t i = 0; i < s * s; ++i) c1[i] = b.C[i];
    // C2 = A @ U
    auto upper = kernels::make_upper_ones<half>(s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = upper[i];
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, false);
    // C2 += L^- @ C1 (stage C1 back through fp16, as ScanUL1 does)
    auto lower = kernels::make_strict_lower_ones<half>(s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = lower[i];
    LoadData(c, b.A, b.stage, s * s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = half(c1[i]);
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, true);
    // Reference: flat inclusive scan of z.
    float acc = 0.0f;
    for (std::size_t i = 0; i < s * s; ++i) {
      acc += z[i];
      ASSERT_EQ(b.C[i], acc) << i;
    }
  });
}

TEST(MmadShapes, CostGrowsWithPaddedDimensions) {
  // A 17x17x17 matmul pads to 32x32x32 on the 16-granular cube: its
  // simulated time must exceed the 16x16x16 one.
  auto time_of = [](std::size_t m) {
    Device dev(sim::MachineConfig::single_core());
    return launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
                  [&](KernelContext& c) {
                    CubeBufs b(c);
                    // Equal-size loads so only the Mmad shape varies.
                    LoadData(c, b.A, b.stage, 32 * 32);
                    LoadData(c, b.B, b.stage, 32 * 32);
                    Mmad(c, b.C, b.A, b.B, m, m, m, false);
                  })
        .time_s;
  };
  EXPECT_GT(time_of(17), time_of(16));
  EXPECT_NEAR(time_of(17), time_of(32), 1e-12);  // same padded shape
}

TEST(ConstantMatrices, DefinitionsMatchSection4) {
  const auto u = kernels::make_upper_ones<half>(4);
  const auto lm = kernels::make_strict_lower_ones<half>(4);
  const auto ones = kernels::make_all_ones<half>(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(float(u[i * 4 + j]), j >= i ? 1.0f : 0.0f);
      EXPECT_EQ(float(lm[i * 4 + j]), j < i ? 1.0f : 0.0f);
      EXPECT_EQ(float(ones[i * 4 + j]), 1.0f);
    }
  }
  // U + L^- + diag-less identity relationship: U[i][i]=1, L^-[i][i]=0.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(float(u[i * 4 + i]), 1.0f);
    EXPECT_EQ(float(lm[i * 4 + i]), 0.0f);
  }
}

TEST(MmadShapes, Int8KAlignmentIs32) {
  // int8 Mmad pads K to 32: K=17 and K=32 cost the same; K=33 costs more.
  auto time_of = [](std::size_t k) {
    Device dev(sim::MachineConfig::single_core());
    return launch(
               dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
               [&](KernelContext& c) {
                 TPipe pipe(c);
                 TBuf a2(c, TPosition::A2), b2(c, TPosition::B2),
                     co(c, TPosition::CO1);
                 pipe.InitBuffer(a2, 4096);
                 pipe.InitBuffer(b2, 4096);
                 pipe.InitBuffer(co, 4096);
                 auto A = a2.Get<std::int8_t>();
                 auto B = b2.Get<std::int8_t>();
                 auto C = co.Get<std::int32_t>();
                 Mmad(c, C, A, B, 8, k, 8, false);
               })
        .time_s;
  };
  EXPECT_NEAR(time_of(17), time_of(32), 1e-12);
  EXPECT_GT(time_of(33), time_of(32));
}

// --- int8 Mmad against the plain definition --------------------------------
// The emulation recognises B = U_s and B = 1_s and computes those products
// with a linear-time recurrence; every other operand, and any accumulating
// call, takes the MAC loop. Each path must equal the naive triple loop.

enum class BShape { UpperOnes, AllOnes, UpperOnesFlipped };

std::vector<std::int8_t> int8_b(BShape shape, std::size_t s) {
  if (shape == BShape::AllOnes) return kernels::make_all_ones<std::int8_t>(s);
  auto b = kernels::make_upper_ones<std::int8_t>(s);
  // One zero below the diagonal turned to 1: no longer U_s.
  if (shape == BShape::UpperOnesFlipped) b[(s - 1) * s + s / 2] = 1;
  return b;
}

void check_int8_mmad(std::size_t s, BShape shape, bool accumulate) {
  Rng rng(s * 7 + static_cast<std::size_t>(shape) * 3 + accumulate);
  std::vector<std::int8_t> a(s * s);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.next_below(256) - 128);
  a[0] = std::numeric_limits<std::int8_t>::min();
  a[s * s - 1] = std::numeric_limits<std::int8_t>::min();
  a[1] = std::numeric_limits<std::int8_t>::max();
  const auto b = int8_b(shape, s);
  std::vector<std::int32_t> c0(s * s, 0);
  if (accumulate) {
    for (auto& v : c0) v = static_cast<std::int32_t>(rng.next_below(2001)) - 1000;
  }
  std::vector<std::int32_t> want = c0;
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      for (std::size_t k = 0; k < s; ++k) {
        want[i * s + j] += std::int32_t{a[i * s + k]} * std::int32_t{b[k * s + j]};
      }
    }
  }
  on_cube([&](KernelContext& c) {
    TPipe pipe(c);
    TBuf a1(c, TPosition::A1), a2(c, TPosition::A2), b2(c, TPosition::B2),
        co(c, TPosition::CO1);
    pipe.InitBuffer(a1, s * s);
    pipe.InitBuffer(a2, s * s);
    pipe.InitBuffer(b2, s * s);
    pipe.InitBuffer(co, s * s * sizeof(std::int32_t));
    auto stage = a1.Get<std::int8_t>();
    auto A = a2.Get<std::int8_t>();
    auto B = b2.Get<std::int8_t>();
    auto C = co.Get<std::int32_t>();
    for (std::size_t i = 0; i < s * s; ++i) stage[i] = a[i];
    LoadData(c, A, stage, s * s);
    for (std::size_t i = 0; i < s * s; ++i) stage[i] = b[i];
    LoadData(c, B, stage, s * s);
    for (std::size_t i = 0; i < s * s; ++i) C[i] = c0[i];
    Mmad(c, C, A, B, s, s, s, accumulate);
    for (std::size_t i = 0; i < s * s; ++i) {
      ASSERT_EQ(C[i], want[i]) << "s=" << s << " elem " << i;
    }
  });
}

TEST(MmadInt8, MatchesNaiveTripleLoop) {
  for (const std::size_t s : {16, 32, 64, 128}) {
    for (const BShape shape :
         {BShape::UpperOnes, BShape::AllOnes, BShape::UpperOnesFlipped}) {
      for (const bool accumulate : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "s=" << s << " shape=" << static_cast<int>(shape)
                     << " accumulate=" << accumulate);
        check_int8_mmad(s, shape, accumulate);
      }
    }
  }
}

TEST(MmadShapes, UpperOnesWithInfinityMatchesMacLoop) {
  // An infinite A element meets B's zeros below the diagonal: the MAC loop
  // yields inf*0 = NaN in the columns before it. The recognised U_s
  // operand must give the same result as the plain definition.
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    const std::size_t s = 16;
    for (std::size_t i = 0; i < s * s; ++i) {
      b.stage[i] = half(static_cast<float>(i % 5));
    }
    b.stage[3 * s + 9] = half::infinity();
    LoadData(c, b.A, b.stage, s * s);
    const auto upper = kernels::make_upper_ones<half>(s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = upper[i];
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, false);
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        float want = 0.0f;
        for (std::size_t k = 0; k < s; ++k) {
          const float av = i == 3 && k == 9
                               ? std::numeric_limits<float>::infinity()
                               : static_cast<float>((i * s + k) % 5);
          want += av * (k <= j ? 1.0f : 0.0f);
        }
        const float got = b.C[i * s + j];
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << i << "," << j;
        } else {
          EXPECT_EQ(got, want) << i << "," << j;
        }
      }
    }
  });
}

}  // namespace
}  // namespace ascend::acc
