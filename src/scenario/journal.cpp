#include "scenario/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/retry.hpp"

namespace psched::scenario {

const char* cell_status_name(CellStatus status) {
  switch (status) {
    case CellStatus::Ok: return "ok";
    case CellStatus::Failed: return "failed";
    case CellStatus::Timeout: return "timeout";
    case CellStatus::Cancelled: return "cancelled";
    case CellStatus::Pending: return "pending";
  }
  return "?";
}

std::uint64_t workload_fingerprint(const Workload& workload) {
  util::Fnv1a hash;
  hash.mix(workload.system_size);
  hash.mix(workload.jobs.size());
  for (const Job& job : workload.jobs) {
    hash.mix(job.user);
    hash.mix(job.group);
    hash.mix(job.submit);
    hash.mix(job.runtime);
    hash.mix(job.wcl);
    hash.mix(job.nodes);
  }
  return hash.digest();
}

std::uint64_t spec_fingerprint(const ScenarioSpec& spec) {
  util::Fnv1a hash;
  hash.mix(std::string_view(spec.name));
  hash.mix(spec.metrics.size());
  for (const std::string& metric : spec.metrics) hash.mix(std::string_view(metric));
  hash.mix(spec.tolerance);
  hash.mix(spec.bootstrap_resamples);
  hash.mix(spec.bootstrap_confidence);
  hash.mix(spec.bootstrap_seed);
  const WorkloadSpec& w = spec.workload;
  hash.mix(w.source);
  hash.mix(w.seed);
  hash.mix(w.scale);
  hash.mix(w.system_size);
  hash.mix(std::string_view(w.swf_source()));
  hash.mix(static_cast<int>(w.swf_accept_all_statuses));
  hash.mix(w.head);
  hash.mix(w.rescale_load);
  hash.mix(w.estimate_factor);
  hash.mix(spec.decay);
  hash.mix(spec.wcl_enforcement);
  hash.mix(spec.policy_names.size());
  for (const std::string& name : spec.policy_names) hash.mix(std::string_view(name));
  const PolicyGrid& grid = spec.grid;
  hash.mix(grid.starvation_delay.size());
  for (const Time t : grid.starvation_delay) hash.mix(t);
  hash.mix(grid.bar_heavy_users.size());
  for (const bool b : grid.bar_heavy_users) hash.mix(static_cast<int>(b));
  hash.mix(grid.heavy_user_factor.size());
  for (const double f : grid.heavy_user_factor) hash.mix(f);
  hash.mix(grid.max_runtime.size());
  for (const Time t : grid.max_runtime) hash.mix(t);
  hash.mix(grid.reservation_depth.size());
  for (const int d : grid.reservation_depth) hash.mix(d);
  hash.mix(grid.decay.size());
  for (const double d : grid.decay) hash.mix(d);
  hash.mix(spec.seeds.size());
  for (const std::uint64_t seed : spec.seeds) hash.mix(seed);
  return hash.digest();
}

std::string format_round_trip_double(double value) {
  for (int precision = 1; precision < std::numeric_limits<double>::max_digits10; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::stod(out.str()) == value) return out.str();
  }
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// ---------------------------------------------------------------------------
// A purpose-built parser for the journal's flat JSON lines: one object per
// line, string keys, values limited to strings, numbers and arrays of
// numbers. Strict enough to flag corruption, small enough to need no deps.

struct JsonValue {
  enum class Kind { String, Number, Numbers };
  Kind kind = Kind::String;
  std::string text;
  double number = 0.0;
  std::vector<double> numbers;
};

class LineParser {
 public:
  explicit LineParser(const std::string& line) : line_(line) {}

  std::map<std::string, JsonValue> parse_object() {
    std::map<std::string, JsonValue> object;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        object[key] = parse_value();
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') throw error("expected ',' or '}'");
      }
    }
    skip_ws();
    if (pos_ != line_.size()) throw error("trailing bytes after object");
    return object;
  }

 private:
  JsonValue parse_value() {
    JsonValue value;
    const char c = peek();
    if (c == '"') {
      value.kind = JsonValue::Kind::String;
      value.text = parse_string();
    } else if (c == '[') {
      ++pos_;
      value.kind = JsonValue::Kind::Numbers;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      for (;;) {
        skip_ws();
        value.numbers.push_back(parse_number());
        skip_ws();
        const char d = next();
        if (d == ']') break;
        if (d != ',') throw error("expected ',' or ']'");
      }
    } else {
      value.kind = JsonValue::Kind::Number;
      value.number = parse_number();
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= line_.size()) throw error("unterminated string");
      const char c = line_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= line_.size()) throw error("unterminated escape");
      const char e = line_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) throw error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else throw error("bad \\u escape digit");
          }
          // The writer only \u-escapes control characters; anything wider is
          // preserved as a replacement byte rather than rejected.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: throw error("unknown escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && (std::isdigit(static_cast<unsigned char>(line_[pos_])) ||
                                   std::strchr("+-.eEnaif", line_[pos_]) != nullptr))
      ++pos_;  // accepts nan/inf spellings the round-trip writer can emit
    if (pos_ == start) throw error("expected a number");
    const std::string text = line_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double value = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return value;
    } catch (const std::exception&) {
      throw error("bad number '" + text + "'");
    }
  }

  char peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }
  char next() {
    if (pos_ >= line_.size()) throw error("unexpected end of line");
    return line_[pos_++];
  }
  void expect(char c) {
    if (next() != c) throw error(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < line_.size() && (line_[pos_] == ' ' || line_[pos_] == '\t')) ++pos_;
  }
  std::runtime_error error(const std::string& message) const {
    return std::runtime_error(message);
  }

  const std::string& line_;
  std::size_t pos_ = 0;
};

const JsonValue& require(const std::map<std::string, JsonValue>& object, const std::string& key,
                         JsonValue::Kind kind) {
  const auto it = object.find(key);
  if (it == object.end()) throw std::runtime_error("missing field \"" + key + "\"");
  if (it->second.kind != kind) throw std::runtime_error("wrong type for \"" + key + "\"");
  return it->second;
}

CellStatus status_from_name(const std::string& name) {
  for (const CellStatus status : {CellStatus::Ok, CellStatus::Failed, CellStatus::Timeout,
                                  CellStatus::Cancelled, CellStatus::Pending})
    if (name == cell_status_name(status)) return status;
  throw std::runtime_error("unknown status \"" + name + "\"");
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path, const JournalHeader& header)
    : path_(std::move(path)) {
  const int open_err = util::retry_io([&]() -> int {
    if (const int injected = PSCHED_FAULT("journal.open")) return injected;
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    return fd_ < 0 ? errno : 0;
  });
  if (open_err != 0)
    throw std::runtime_error("campaign journal: cannot open " + path_ + ": " +
                             std::strerror(open_err));
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    std::ostringstream line;
    line << "{\"kind\":\"header\",\"version\":1,\"campaign\":\"" << json_escape(header.campaign)
         << "\",\"spec_fingerprint\":\"" << hex64(header.spec_fingerprint)
         << "\",\"cells\":" << header.cells << "}\n";
    append_line(line.str());
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::append_line(const std::string& line) {
  obs::count(obs::Counter::kJournalAppends);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t off = 0;
  while (off < line.size()) {
    ssize_t written = -1;
    const int err = util::retry_io([&]() -> int {
      if (const int injected = PSCHED_FAULT("journal.append.write")) return injected;
      written = ::write(fd_, line.data() + off, line.size() - off);
      return written < 0 ? errno : 0;
    });
    if (err != 0)
      throw std::runtime_error("campaign journal: write to " + path_ + " failed: " +
                               std::strerror(err));
    off += static_cast<std::size_t>(written);
  }
  const int fsync_err = util::retry_io([&]() -> int {
    if (const int injected = PSCHED_FAULT("journal.append.fsync")) return injected;
    return ::fsync(fd_) != 0 ? errno : 0;
  });
  if (fsync_err != 0)
    throw std::runtime_error("campaign journal: fsync of " + path_ + " failed: " +
                             std::strerror(fsync_err));
}

void CampaignJournal::record(const JournalCellRecord& cell) {
  std::ostringstream line;
  line << "{\"kind\":\"cell\",\"key\":\"" << json_escape(cell.key) << "\",\"index\":" << cell.index
       << ",\"status\":\"" << cell_status_name(cell.status) << '"';
  if (cell.status == CellStatus::Ok) {
    line << ",\"metrics\":[";
    for (std::size_t m = 0; m < cell.metrics.size(); ++m)
      line << (m != 0 ? "," : "") << format_round_trip_double(cell.metrics[m]);
    line << ']';
  } else {
    line << ",\"error\":\"" << json_escape(cell.error) << '"';
  }
  line << "}\n";
  append_line(line.str());
}

JournalReplay replay_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("campaign journal: cannot read " + path);
  const int read_err =
      util::retry_io([] { return PSCHED_FAULT("journal.replay.read"); });
  if (read_err != 0)
    throw std::runtime_error("campaign journal: read " + path + ": " + std::strerror(read_err));
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad())
    throw std::runtime_error("campaign journal: read " + path + " failed");

  JournalReplay replay;
  bool saw_header = false;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < contents.size()) {
    const std::size_t newline = contents.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    const std::string line =
        contents.substr(pos, (terminated ? newline : contents.size()) - pos);
    pos = terminated ? newline + 1 : contents.size();
    ++line_number;
    const bool is_final = pos >= contents.size();
    try {
      if (line.empty()) {
        if (!is_final) throw std::runtime_error("empty line");
        continue;
      }
      std::map<std::string, JsonValue> object = LineParser(line).parse_object();
      const std::string kind = require(object, "kind", JsonValue::Kind::String).text;
      if (kind == "header") {
        if (saw_header) throw std::runtime_error("duplicate header record");
        saw_header = true;
        replay.header.campaign = require(object, "campaign", JsonValue::Kind::String).text;
        const std::string fp =
            require(object, "spec_fingerprint", JsonValue::Kind::String).text;
        replay.header.spec_fingerprint = std::stoull(fp, nullptr, 16);
        replay.header.cells =
            static_cast<std::size_t>(require(object, "cells", JsonValue::Kind::Number).number);
      } else if (kind == "cell") {
        if (!saw_header) throw std::runtime_error("cell record before the header");
        JournalCellRecord cell;
        cell.key = require(object, "key", JsonValue::Kind::String).text;
        cell.index =
            static_cast<std::size_t>(require(object, "index", JsonValue::Kind::Number).number);
        cell.status = status_from_name(require(object, "status", JsonValue::Kind::String).text);
        if (cell.status == CellStatus::Ok)
          cell.metrics = require(object, "metrics", JsonValue::Kind::Numbers).numbers;
        else if (object.count("error"))
          cell.error = require(object, "error", JsonValue::Kind::String).text;
        ++replay.records;
        replay.cells[cell.key] = std::move(cell);  // duplicates: last wins
      } else {
        throw std::runtime_error("unknown record kind \"" + kind + "\"");
      }
    } catch (const std::exception& error) {
      // A torn final line is the expected signature of a crash mid-append —
      // drop it. Anything earlier (or a cleanly terminated bad final line
      // with records after it) is corruption and must not be papered over.
      if (is_final) {
        replay.torn_tail = true;
        break;
      }
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": corrupt journal record (" + error.what() + ")");
    }
  }
  if (!saw_header)
    throw std::runtime_error(path + ": no journal header record" +
                             (replay.torn_tail ? " (file ends in a torn line)" : ""));
  return replay;
}

}  // namespace psched::scenario
