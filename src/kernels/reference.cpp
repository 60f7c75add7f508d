#include "kernels/reference.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace ascend::ref {

namespace {
template <typename T>
double widen(T v) {
  return static_cast<double>(static_cast<float>(v));
}
}  // namespace

template <typename In, typename Out>
std::vector<Out> inclusive_scan(std::span<const In> x) {
  std::vector<Out> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += widen(x[i]);
    if constexpr (std::is_same_v<Out, half>) {
      out[i] = half(static_cast<float>(acc));
    } else {
      out[i] = static_cast<Out>(acc);
    }
  }
  return out;
}

template <typename In, typename Out>
std::vector<Out> exclusive_scan(std::span<const In> x) {
  std::vector<Out> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if constexpr (std::is_same_v<Out, half>) {
      out[i] = half(static_cast<float>(acc));
    } else {
      out[i] = static_cast<Out>(acc);
    }
    acc += widen(x[i]);
  }
  return out;
}

template <typename In, typename Out>
std::vector<Out> batched_inclusive_scan(std::span<const In> x,
                                        std::size_t batch, std::size_t len) {
  ASCAN_CHECK(x.size() == batch * len, "batched scan shape mismatch");
  std::vector<Out> out(x.size());
  for (std::size_t b = 0; b < batch; ++b) {
    auto row = inclusive_scan<In, Out>(x.subspan(b * len, len));
    std::copy(row.begin(), row.end(), out.begin() + static_cast<long>(b * len));
  }
  return out;
}

// Explicit instantiations for the types the kernels support.
template std::vector<half> inclusive_scan<half, half>(std::span<const half>);
template std::vector<float> inclusive_scan<half, float>(std::span<const half>);
template std::vector<float> inclusive_scan<float, float>(std::span<const float>);
template std::vector<std::int32_t> inclusive_scan<std::int8_t, std::int32_t>(
    std::span<const std::int8_t>);
template std::vector<half> exclusive_scan<half, half>(std::span<const half>);
template std::vector<float> exclusive_scan<half, float>(std::span<const half>);
template std::vector<std::int32_t> exclusive_scan<std::int8_t, std::int32_t>(
    std::span<const std::int8_t>);
template std::vector<half> batched_inclusive_scan<half, half>(
    std::span<const half>, std::size_t, std::size_t);
template std::vector<float> batched_inclusive_scan<half, float>(
    std::span<const half>, std::size_t, std::size_t);

SplitResult split(std::span<const half> x, std::span<const std::int8_t> mask) {
  ASCAN_CHECK(x.size() == mask.size(), "split: mask length mismatch");
  SplitResult r;
  r.values.reserve(x.size());
  r.indices.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mask[i] != 0) {
      r.values.push_back(x[i]);
      r.indices.push_back(static_cast<std::int32_t>(i));
    }
  }
  r.num_true = r.values.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mask[i] == 0) {
      r.values.push_back(x[i]);
      r.indices.push_back(static_cast<std::int32_t>(i));
    }
  }
  return r;
}

std::vector<half> compress(std::span<const half> x,
                           std::span<const std::int8_t> mask) {
  ASCAN_CHECK(x.size() == mask.size(), "compress: mask length mismatch");
  std::vector<half> out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mask[i] != 0) out.push_back(x[i]);
  }
  return out;
}

SortResult stable_sort(std::span<const half> x, bool descending) {
  SortResult r;
  r.indices.resize(x.size());
  std::iota(r.indices.begin(), r.indices.end(), 0);
  // Widen every key once; the comparator then orders exactly as float(x[i])
  // does (so -0 ties +0 and NaN compares false), without a conversion per
  // comparison.
  std::vector<float> f(x.size());
  half_to_float_n(x.data(), f.data(), x.size());
  std::stable_sort(r.indices.begin(), r.indices.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     const float fa = f[static_cast<std::size_t>(a)];
                     const float fb = f[static_cast<std::size_t>(b)];
                     return descending ? fb < fa : fa < fb;
                   });
  r.values.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    r.values[i] = x[static_cast<std::size_t>(r.indices[i])];
  }
  return r;
}

SortResultU16 stable_sort_u16(std::span<const std::uint16_t> x) {
  SortResultU16 r;
  r.indices.resize(x.size());
  std::iota(r.indices.begin(), r.indices.end(), 0);
  std::stable_sort(r.indices.begin(), r.indices.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return x[static_cast<std::size_t>(a)] <
                            x[static_cast<std::size_t>(b)];
                   });
  r.values.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    r.values[i] = x[static_cast<std::size_t>(r.indices[i])];
  }
  return r;
}

TopKResult topk(std::span<const half> x, std::size_t k) {
  ASCAN_CHECK(k <= x.size(), "topk: k exceeds input length");
  const SortResult sorted = stable_sort(x, /*descending=*/true);
  TopKResult r;
  r.values.assign(sorted.values.begin(),
                  sorted.values.begin() + static_cast<long>(k));
  r.indices.assign(sorted.indices.begin(),
                   sorted.indices.begin() + static_cast<long>(k));
  return r;
}

std::int32_t top_p_sample(std::span<const half> probs, double p, double u) {
  ASCAN_CHECK(!probs.empty(), "top_p_sample: empty distribution");
  const SortResult sorted = stable_sort(probs, /*descending=*/true);
  // Cumulative sum over the sorted probabilities; the Llama-3 rule masks a
  // token when the cumulative sum *before* it already exceeds p.
  std::vector<double> cum(sorted.values.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < sorted.values.size(); ++i) {
    acc += widen(sorted.values[i]);
    cum[i] = acc;
  }
  std::size_t kept = sorted.values.size();
  for (std::size_t i = 1; i < cum.size(); ++i) {
    if (cum[i - 1] > p) {
      kept = i;
      break;
    }
  }
  const double total = cum[kept - 1];
  // Inverse transform over the kept prefix.
  const double theta = u * total;
  double run = 0.0;
  for (std::size_t i = 0; i < kept; ++i) {
    run += widen(sorted.values[i]);
    if (run > theta) return sorted.indices[i];
  }
  return sorted.indices[kept - 1];
}

std::int32_t multinomial(std::span<const half> weights, double u) {
  ASCAN_CHECK(!weights.empty(), "multinomial: empty distribution");
  double total = 0.0;
  for (const half w : weights) {
    ASCAN_CHECK(float(w) >= 0.0f, "multinomial: negative weight");
    total += widen(w);
  }
  ASCAN_CHECK(total > 0.0, "multinomial: zero total weight");
  const double theta = u * total;
  double run = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    run += widen(weights[i]);
    if (run > theta) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(weights.size() - 1);
}

std::uint16_t radix_encode_f16(half h) {
  const std::uint16_t b = h.bits();
  // Negative numbers: flip all bits (reverses their order); positives:
  // set the MSB (places them above all negatives).
  return (b & 0x8000u) ? static_cast<std::uint16_t>(~b)
                       : static_cast<std::uint16_t>(b | 0x8000u);
}

half radix_decode_f16(std::uint16_t bits) {
  return half::from_bits((bits & 0x8000u)
                             ? static_cast<std::uint16_t>(bits & 0x7fffu)
                             : static_cast<std::uint16_t>(~bits));
}

}  // namespace ascend::ref
