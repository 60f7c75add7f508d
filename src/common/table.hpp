// Plain-text table printer used by the benchmark harness to emit the rows
// and series of each paper figure in a stable, diffable format.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ascend {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// One cell: text, a real (printed with the table's precision) or an
  /// integer. A plain tagged struct: as std::variant<std::string, ...> the
  /// string alternative tripped GCC's -Wmaybe-uninitialized whenever a row
  /// was built from an initializer list.
  struct Cell {
    Cell(std::string s) : text(std::move(s)) {}
    Cell(const char* s) : text(s) {}
    Cell(double d) : kind(Kind::Real), real(d) {}
    template <std::integral I>
    Cell(I i) : kind(Kind::Int), integer(static_cast<std::int64_t>(i)) {}

    enum class Kind { Text, Real, Int } kind = Kind::Text;
    std::string text;
    double real = 0;
    std::int64_t integer = 0;
  };

  Table& add_row(std::vector<Cell> cells);

  /// Render with column alignment; doubles are formatted with
  /// `precision` significant digits.
  void print(std::ostream& os, int precision = 4) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

/// Pretty SI formatting helpers for bench output.
std::string format_si(double value, const char* unit);
std::string format_bytes(std::uint64_t bytes);
std::string format_time_s(double seconds);

}  // namespace ascend
