// Shared helpers for the scan kernels: the constant matrices of §4
// (U_s upper-triangular all-ones, L_s^- strictly-lower all-ones, 1_s
// all-ones), tiling arithmetic, and the host-side constant pre-allocation
// the paper's PyTorch operator performs ("statically pre-allocates an
// upper triangular all-ones matrix U_s", §6.1).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "ascendc/ascendc.hpp"
#include "common/check.hpp"
#include "common/half.hpp"
#include "common/math_util.hpp"

namespace ascend::kernels {

/// Valid matrix-multiplication tile edges on the cube unit. s = 128
/// maximises L0A/L0B utilisation (paper §6.1); smaller values trade
/// efficiency for latency.
inline bool valid_tile_size(std::size_t s) {
  return s == 16 || s == 32 || s == 64 || s == 128;
}

/// Upper-triangular all-ones U_s (ones on the diagonal), row-major.
template <typename T>
std::vector<T> make_upper_ones(std::size_t s) {
  std::vector<T> m(s * s, T(0));
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = i; j < s; ++j) m[i * s + j] = T(1);
  }
  return m;
}

/// Strictly lower-triangular all-ones L_s^- (zero diagonal), row-major.
template <typename T>
std::vector<T> make_strict_lower_ones(std::size_t s) {
  std::vector<T> m(s * s, T(0));
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < i; ++j) m[i * s + j] = T(1);
  }
  return m;
}

/// All-ones 1_s, row-major.
template <typename T>
std::vector<T> make_all_ones(std::size_t s) {
  return std::vector<T>(s * s, T(1));
}

enum class ConstMatrix { UpperOnes, StrictLowerOnes, AllOnes };

/// Host copy of a constant matrix, built once per (T, which, s) for the
/// whole process: building U_s element by element costs more than copying
/// it. Thread-safe; the returned vector is never modified or freed.
template <typename T>
const std::vector<T>& constant_matrix(ConstMatrix which, std::size_t s) {
  static std::mutex mu;
  static std::map<std::pair<ConstMatrix, std::size_t>, std::vector<T>> cache;
  std::lock_guard<std::mutex> lk(mu);
  auto [it, inserted] = cache.try_emplace({which, s});
  if (inserted) {
    switch (which) {
      case ConstMatrix::UpperOnes: it->second = make_upper_ones<T>(s); break;
      case ConstMatrix::StrictLowerOnes:
        it->second = make_strict_lower_ones<T>(s);
        break;
      case ConstMatrix::AllOnes: it->second = make_all_ones<T>(s); break;
    }
  }
  return it->second;
}

/// Uploads a constant matrix for one operator invocation as an immutable GM
/// buffer (mirrors the static pre-allocation in the paper's PyTorch
/// integration). Immutable, cube cores stage it into L1/L0B lazily: only a
/// core that multiplies by it pays the host copy (see acc::DataCopy).
template <typename T>
acc::GlobalBuffer<T> upload_constant(acc::Device& dev, ConstMatrix which,
                                     std::size_t s) {
  acc::GlobalBuffer<T> buf = dev.upload(constant_matrix<T>(which, s));
  buf.make_immutable();
  return buf;
}

/// Device-resident constant matrices for a given tile size, uploaded once
/// per operator invocation.
template <typename T>
struct ScanConstants {
  acc::GlobalBuffer<T> upper;        // U_s
  acc::GlobalBuffer<T> strict_lower; // L_s^-
  acc::GlobalBuffer<T> ones;         // 1_s

  static ScanConstants make(acc::Device& dev, std::size_t s) {
    ScanConstants c;
    c.upper = upload_constant<T>(dev, ConstMatrix::UpperOnes, s);
    c.strict_lower = upload_constant<T>(dev, ConstMatrix::StrictLowerOnes, s);
    c.ones = upload_constant<T>(dev, ConstMatrix::AllOnes, s);
    return c;
  }
};

/// Contiguous [begin, end) element range of tile `t` among tiles of
/// length `tile` covering `n` elements.
struct TileRange {
  std::size_t begin;
  std::size_t len;
};

inline std::size_t num_tiles(std::size_t n, std::size_t tile) {
  return ceil_div(n, tile);
}

inline TileRange tile_range(std::size_t t, std::size_t n, std::size_t tile) {
  const std::size_t begin = t * tile;
  ASCAN_ASSERT(begin < n);
  return {begin, std::min(tile, n - begin)};
}

/// Static block partition of `count` items over `blocks` workers:
/// block b owns [item_begin, item_begin + item_count).
struct BlockShare {
  std::size_t begin;
  std::size_t count;
};

inline BlockShare block_share(std::size_t count, int blocks, int b) {
  const std::size_t base = count / static_cast<std::size_t>(blocks);
  const std::size_t rem = count % static_cast<std::size_t>(blocks);
  const auto ub = static_cast<std::size_t>(b);
  const std::size_t begin = ub * base + std::min(ub, rem);
  const std::size_t cnt = base + (ub < rem ? 1 : 0);
  return {begin, cnt};
}

}  // namespace ascend::kernels
