#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace psched::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

TextTable& TextTable::begin_row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

TextTable& TextTable::add(std::string cell) {
  if (rows_.empty()) throw std::logic_error("TextTable::add before begin_row");
  if (rows_.back().size() >= header_.size()) throw std::logic_error("TextTable: row overflow");
  rows_.back().push_back(std::move(cell));
  return *this;
}

TextTable& TextTable::add(double value, int precision) {
  return add(format_number(value, precision));
}

TextTable& TextTable::add_int(long long value) { return add(std::to_string(value)); }

TextTable& TextTable::add_percent(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
  return add(os.str());
}

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  return s.find_first_not_of("0123456789+-.eE%,") == std::string::npos;
}
}  // namespace

std::string TextTable::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : std::string{};
      const bool right = align_numeric && looks_numeric(cell);
      if (c) os << "  ";
      if (right)
        os << std::setw(static_cast<int>(width[c])) << std::right << cell;
      else
        os << std::setw(static_cast<int>(width[c])) << std::left << cell;
    }
    os << '\n';
  };
  emit_row(header_, false);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row, true);
  return os.str();
}

std::string TextTable::csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (const char ch : cell) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) os << (c ? "," : "") << escape(header_[c]);
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < header_.size(); ++c)
      os << (c ? "," : "") << (c < row.size() ? escape(row[c]) : std::string{});
    os << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) { return os << table.str(); }

std::string format_number(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

std::string format_duration_short(double seconds) {
  const double abs = std::abs(seconds);
  std::ostringstream os;
  if (abs < 60.0)
    os << format_number(seconds, 1) << 's';
  else if (abs < 3600.0)
    os << format_number(seconds / 60.0, 1) << 'm';
  else if (abs < 86400.0)
    os << format_number(seconds / 3600.0, 1) << 'h';
  else
    os << format_number(seconds / 86400.0, 2) << 'd';
  return os.str();
}

}  // namespace psched::util
