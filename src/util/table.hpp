#pragma once
// Aligned text tables and CSV output; every experiment bench reports through
// this so table/figure reproductions share one look.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace psched::util {

/// Column-aligned text table. Cells are strings; numeric helpers format with
/// fixed precision. Rendering right-aligns numeric-looking cells.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Start a new row; subsequent add_* calls append cells to it.
  TextTable& begin_row();
  TextTable& add(std::string cell);
  TextTable& add(double value, int precision = 2);
  TextTable& add_int(long long value);
  TextTable& add_percent(double fraction, int precision = 2);  // 0.031 -> "3.10%"

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const { return rows_[row][col]; }

  /// Render with a separator under the header.
  std::string str() const;
  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  std::string csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

/// Format seconds in a compact human unit, e.g. "72h", "36h", "90s", "2.5d".
std::string format_duration_short(double seconds);

/// Format a double with the given precision, trimming trailing zeros.
std::string format_number(double value, int precision = 2);

}  // namespace psched::util
