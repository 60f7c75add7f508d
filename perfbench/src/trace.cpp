#include "trace.hpp"

#include <fstream>
#include <iomanip>

namespace perfbench {

std::uint64_t SpanRecorder::add(std::string name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::uint64_t request, int track) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.start_us = us_since_origin(start);
  s.end_us = us_since_origin(end);
  s.parent = parent;
  s.request = request;
  s.track = track;
  std::lock_guard<std::mutex> lk(mu_);
  s.id = next_id_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(15) << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans()) {
    os << (first ? "" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.track
       << ", \"ts\": " << s.start_us << ", \"dur\": " << s.end_us - s.start_us
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
    first = false;
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
