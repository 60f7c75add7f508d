// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around each call into a layer (nothing inside the
// library is instrumented) and written as Chrome trace JSON when the run
// ends. A disabled recorder is a no-op, which is what the untraced run uses.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;  ///< from the recorder's origin
  double end_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share it
  int track = 0;              ///< Chrome trace tid
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0, int track = 0);

  std::size_t size() const;
  std::vector<Span> spans() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// id, parent and request go into each event's args. Returns false when
  /// the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

/// RAII span around one call: records [construction, destruction).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0, int track = 0)
      : rec_(rec), name_(std::move(name)), parent_(parent),
        request_(request), track_(track), start_(Clock::now()) {}
  ~ScopedSpan() {
    rec_.add(std::move(name_), start_, Clock::now(), parent_, request_,
             track_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::string name_;
  std::uint64_t parent_, request_;
  int track_;
  Clock::time_point start_;
};

}  // namespace perfbench
