// Run-twice parity for serving tests: the same deterministic scenario on two
// fresh engines (or clusters) must produce bit-identical responses.
#pragma once

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.hpp"
#include "serve/request.hpp"
#include "sim/report.hpp"

namespace ascend::testing {

inline std::vector<std::uint16_t> half_bits(const std::vector<half>& v) {
  std::vector<std::uint16_t> bits(v.size());
  if (!v.empty()) std::memcpy(bits.data(), v.data(), v.size() * sizeof(half));
  return bits;
}

/// Everything a response carries except its wall-clock Timing: status,
/// payload bits, the simulated Report and the serving provenance.
inline void expect_identical_responses(const ascan::serve::Response& a,
                                       const ascan::serve::Response& b,
                                       std::size_t i) {
  auto fields = [](const ascan::serve::Response& r) {
    return std::tuple(r.status, r.kind, half_bits(r.values_f16), r.values_f32,
                      half_bits(r.sorted_values), r.indices, r.token,
                      r.batch_size, r.device, r.launch_id, r.chunks_streamed,
                      r.resumed_from, r.preemptions);
  };
  EXPECT_TRUE(fields(a) == fields(b))
      << "case " << i << ": payload or serving provenance differs";
  EXPECT_TRUE(sim::identical(a.report, b.report))
      << "case " << i << ": simulated time " << a.report.time_s << " s vs "
      << b.report.time_s << " s";
}

}  // namespace ascend::testing
