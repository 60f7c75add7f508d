#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace ascend {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ASCAN_CHECK(!headers_.empty(), "table needs at least one column");
}

Table& Table::add_row(std::vector<Cell> cells) {
  ASCAN_CHECK(cells.size() == headers_.size(),
              "row has " << cells.size() << " cells, expected "
                         << headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

namespace {
std::string cell_to_string(const Table::Cell& c, int precision) {
  switch (c.kind) {
    case Table::Cell::Kind::Text: return c.text;
    case Table::Cell::Kind::Int: return std::to_string(c.integer);
    case Table::Cell::Kind::Real: break;
  }
  std::ostringstream os;
  os << std::setprecision(precision) << c.real;
  return os.str();
}
}  // namespace

void Table::print(std::ostream& os, int precision) const {
  std::vector<std::size_t> width(headers_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      r.push_back(cell_to_string(row[c], precision));
      width[c] = std::max(width[c], r.back().size());
    }
    rendered.push_back(std::move(r));
  }
  auto print_line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };
  print_line(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "|") << std::string(width[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& r : rendered) print_line(r);
}

std::string format_si(double value, const char* unit) {
  static constexpr const char* prefixes[] = {"", "K", "M", "G", "T"};
  int p = 0;
  double v = value;
  while (std::fabs(v) >= 1000.0 && p < 4) {
    v /= 1000.0;
    ++p;
  }
  std::ostringstream os;
  os << std::setprecision(4) << v << ' ' << prefixes[p] << unit;
  return os.str();
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* prefixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int p = 0;
  double v = static_cast<double>(bytes);
  while (v >= 1024.0 && p < 4) {
    v /= 1024.0;
    ++p;
  }
  std::ostringstream os;
  os << std::setprecision(4) << v << ' ' << prefixes[p];
  return os.str();
}

std::string format_time_s(double seconds) {
  std::ostringstream os;
  os << std::setprecision(4);
  if (seconds < 1e-6) {
    os << seconds * 1e9 << " ns";
  } else if (seconds < 1e-3) {
    os << seconds * 1e6 << " us";
  } else if (seconds < 1.0) {
    os << seconds * 1e3 << " ms";
  } else {
    os << seconds << " s";
  }
  return os.str();
}

}  // namespace ascend
