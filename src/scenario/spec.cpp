#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "metrics/selection.hpp"

namespace psched::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  return s.substr(lo, hi - lo);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) out.push_back(trim(item));
  return out;
}

/// One `key = value` line, position-tagged so every later validation error
/// can still point at its source.
struct Entry {
  std::string section;
  std::string key;
  std::string value;
  int line = 0;
};

/// The schema: which keys each section accepts. Anything else is a typo and
/// is rejected (with its line) instead of being silently ignored — a spec
/// that misspells `rescale_load` must not quietly run at load 1.0.
const std::vector<std::pair<std::string, std::vector<std::string>>> kSchema = {
    {"campaign",
     {"name", "metrics", "tolerance_hours", "bootstrap_resamples", "bootstrap_confidence",
      "bootstrap_seed"}},
    {"workload",
     {"source", "seed", "scale", "system_size", "file", "accept_all_statuses", "head",
      "rescale_load", "estimate_factor"}},
    {"engine", {"decay", "wcl_enforcement"}},
    {"policies", {"names"}},
    {"grid",
     {"starvation_delay_hours", "bar_heavy_users", "heavy_user_factor", "max_runtime_hours",
      "reservation_depth", "decay"}},
    {"seeds", {"list"}},
};

class Parser {
 public:
  Parser(std::istream& in, std::string origin, std::string base_dir)
      : origin_(std::move(origin)), base_dir_(std::move(base_dir)) {
    read(in);
  }

  ScenarioSpec build();

 private:
  [[noreturn]] void fail(int line, const std::string& message) const {
    throw SpecError(origin_ + ":" + std::to_string(line) + ": " + message);
  }

  void read(std::istream& in) {
    std::string raw;
    std::string section;
    int line = 0;
    while (std::getline(in, raw)) {
      ++line;
      const std::string text = trim(raw);
      if (text.empty() || text[0] == '#' || text[0] == ';') continue;
      if (text.front() == '[') {
        if (text.back() != ']') fail(line, "malformed section header '" + text + "'");
        section = trim(text.substr(1, text.size() - 2));
        const auto known =
            std::find_if(kSchema.begin(), kSchema.end(),
                         [&](const auto& s) { return s.first == section; });
        if (known == kSchema.end()) fail(line, "unknown section [" + section + "]");
        continue;
      }
      const std::size_t eq = text.find('=');
      if (eq == std::string::npos) fail(line, "expected 'key = value', got '" + text + "'");
      if (section.empty()) fail(line, "entry before any [section] header");
      Entry entry{section, trim(text.substr(0, eq)), trim(text.substr(eq + 1)), line};
      if (entry.key.empty()) fail(line, "empty key");
      if (entry.value.empty()) fail(line, "empty value for '" + entry.key + "'");
      const auto schema = std::find_if(kSchema.begin(), kSchema.end(),
                                       [&](const auto& s) { return s.first == section; });
      if (std::find(schema->second.begin(), schema->second.end(), entry.key) ==
          schema->second.end())
        fail(line, "unknown key '" + entry.key + "' in [" + section + "]");
      for (const Entry& seen : entries_)
        if (seen.section == entry.section && seen.key == entry.key)
          fail(line, "duplicate key '" + entry.key + "' in [" + section + "] (first at line " +
                         std::to_string(seen.line) + ")");
      entries_.push_back(std::move(entry));
    }
  }

  const Entry* find(const std::string& section, const std::string& key) const {
    for (const Entry& entry : entries_)
      if (entry.section == section && entry.key == key) return &entry;
    return nullptr;
  }

  // Typed readers: each returns the default when the key is absent and
  // fails with the entry's line number on a malformed value.
  double get_double(const std::string& section, const std::string& key, double fallback) const {
    const Entry* entry = find(section, key);
    return entry == nullptr ? fallback : to_double(*entry, entry->value);
  }

  std::uint64_t get_u64(const std::string& section, const std::string& key,
                        std::uint64_t fallback) const {
    const Entry* entry = find(section, key);
    return entry == nullptr ? fallback : to_u64(*entry, entry->value);
  }

  bool get_bool(const std::string& section, const std::string& key, bool fallback) const {
    const Entry* entry = find(section, key);
    return entry == nullptr ? fallback : to_bool(*entry, entry->value);
  }

  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const {
    const Entry* entry = find(section, key);
    return entry == nullptr ? fallback : entry->value;
  }

  double to_double(const Entry& entry, const std::string& text) const {
    try {
      std::size_t used = 0;
      const double value = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return value;
    } catch (...) {
      fail(entry.line, "'" + entry.key + "': not a number: '" + text + "'");
    }
  }

  std::uint64_t to_u64(const Entry& entry, const std::string& text) const {
    try {
      std::size_t used = 0;
      if (!text.empty() && text[0] == '-') throw std::invalid_argument(text);
      const unsigned long long value = std::stoull(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return value;
    } catch (...) {
      fail(entry.line, "'" + entry.key + "': not a non-negative integer: '" + text + "'");
    }
  }

  bool to_bool(const Entry& entry, const std::string& text) const {
    if (text == "true" || text == "yes" || text == "1") return true;
    if (text == "false" || text == "no" || text == "0") return false;
    fail(entry.line, "'" + entry.key + "': not a boolean (true/false): '" + text + "'");
  }

  /// "none" -> kNoTime, otherwise hours as a positive integer.
  Time to_hours(const Entry& entry, const std::string& text) const {
    if (text == "none") return kNoTime;
    const std::uint64_t value = to_u64(entry, text);
    if (value == 0) fail(entry.line, "'" + entry.key + "': hours must be >= 1 or 'none'");
    return hours(static_cast<Time>(value));
  }

  std::string origin_;
  std::string base_dir_;
  std::vector<Entry> entries_;
};

ScenarioSpec Parser::build() {
  ScenarioSpec spec;

  // --- [campaign] ----------------------------------------------------------
  const Entry* name = find("campaign", "name");
  if (name == nullptr) throw SpecError(origin_ + ": missing required [campaign] name");
  spec.name = name->value;

  const Entry* metrics = find("campaign", "metrics");
  if (metrics == nullptr) throw SpecError(origin_ + ": missing required [campaign] metrics");
  spec.metrics = split_list(metrics->value);
  if (spec.metrics.empty()) fail(metrics->line, "metrics: empty list");
  for (const std::string& metric : spec.metrics) {
    if (!psched::metrics::is_metric_name(metric))
      fail(metrics->line, "unknown metric '" + metric + "'");
    if (std::count(spec.metrics.begin(), spec.metrics.end(), metric) > 1)
      fail(metrics->line, "duplicate metric '" + metric + "'");
  }

  const double tolerance_hours = get_double("campaign", "tolerance_hours", 24.0);
  if (tolerance_hours < 0.0)
    fail(find("campaign", "tolerance_hours")->line, "tolerance_hours must be >= 0");
  spec.tolerance = static_cast<Time>(tolerance_hours * 3600.0);

  spec.bootstrap_resamples =
      static_cast<std::size_t>(get_u64("campaign", "bootstrap_resamples", 2000));
  if (spec.bootstrap_resamples == 0)
    fail(find("campaign", "bootstrap_resamples")->line, "bootstrap_resamples must be >= 1");
  spec.bootstrap_confidence = get_double("campaign", "bootstrap_confidence", 0.95);
  if (!(spec.bootstrap_confidence > 0.0 && spec.bootstrap_confidence < 1.0))
    fail(find("campaign", "bootstrap_confidence")->line,
         "bootstrap_confidence must be in (0, 1)");
  spec.bootstrap_seed = get_u64("campaign", "bootstrap_seed", 1);

  // --- [workload] ----------------------------------------------------------
  const std::string source = get_string("workload", "source", "ross");
  if (source == "ross") {
    spec.workload.source = WorkloadSpec::Source::Ross;
  } else if (source == "swf") {
    spec.workload.source = WorkloadSpec::Source::Swf;
  } else {
    fail(find("workload", "source")->line, "source must be 'ross' or 'swf', got '" + source + "'");
  }
  // Source-specific keys hard-reject on the wrong source: a 'scale' on an
  // SWF replay (or 'accept_all_statuses' on a synthetic trace) would
  // otherwise silently no-op — the exact failure mode this parser exists to
  // prevent.
  const bool is_swf = spec.workload.source == WorkloadSpec::Source::Swf;
  for (const char* ross_key : {"seed", "scale"})
    if (const Entry* entry = find("workload", ross_key); entry != nullptr && is_swf)
      fail(entry->line, std::string("'") + ross_key +
                            "' is only valid for source = ross (an SWF trace is fixed data)");
  if (const Entry* entry = find("workload", "accept_all_statuses");
      entry != nullptr && !is_swf)
    fail(entry->line, "'accept_all_statuses' is only valid for source = swf");
  spec.workload.seed = get_u64("workload", "seed", spec.workload.seed);
  spec.workload.scale = get_double("workload", "scale", 1.0);
  if (spec.workload.scale <= 0.0) fail(find("workload", "scale")->line, "scale must be > 0");
  spec.workload.system_size =
      static_cast<NodeCount>(get_u64("workload", "system_size", 0));
  spec.workload.swf_accept_all_statuses = get_bool("workload", "accept_all_statuses", false);
  spec.workload.head = static_cast<std::size_t>(get_u64("workload", "head", 0));
  spec.workload.rescale_load = get_double("workload", "rescale_load", 1.0);
  if (spec.workload.rescale_load <= 0.0)
    fail(find("workload", "rescale_load")->line, "rescale_load must be > 0");
  spec.workload.estimate_factor = get_double("workload", "estimate_factor", 0.0);
  if (spec.workload.estimate_factor != 0.0 && spec.workload.estimate_factor < 1.0)
    fail(find("workload", "estimate_factor")->line, "estimate_factor must be >= 1 (or 0 = off)");

  const Entry* file = find("workload", "file");
  if (spec.workload.source == WorkloadSpec::Source::Swf) {
    if (file == nullptr) throw SpecError(origin_ + ": swf source requires [workload] file");
    spec.workload.swf_file = file->value;
    spec.workload.swf_file_in_spec = file->value;
    if (!base_dir_.empty() && !file->value.empty() && file->value.front() != '/')
      spec.workload.swf_file = base_dir_ + "/" + file->value;
  } else if (file != nullptr) {
    fail(file->line, "'file' is only valid for source = swf");
  }

  // --- [engine] ------------------------------------------------------------
  spec.decay = get_double("engine", "decay", 0.9);
  if (!(spec.decay > 0.0 && spec.decay <= 1.0))
    fail(find("engine", "decay")->line, "decay must be in (0, 1]");
  const std::string wcl = get_string("engine", "wcl_enforcement", "never");
  if (wcl == "never") {
    spec.wcl_enforcement = sim::WclEnforcement::Never;
  } else if (wcl == "kill_if_needed") {
    spec.wcl_enforcement = sim::WclEnforcement::KillIfNeeded;
  } else if (wcl == "always") {
    spec.wcl_enforcement = sim::WclEnforcement::Always;
  } else {
    fail(find("engine", "wcl_enforcement")->line,
         "wcl_enforcement must be never | kill_if_needed | always, got '" + wcl + "'");
  }

  // --- [policies] ----------------------------------------------------------
  const Entry* names = find("policies", "names");
  if (names == nullptr) throw SpecError(origin_ + ": missing required [policies] names");
  spec.policy_names = split_list(names->value);
  if (spec.policy_names.empty()) fail(names->line, "names: empty list");
  for (const std::string& policy : spec.policy_names) {
    if (!policy_from_name(policy)) fail(names->line, "unknown policy '" + policy + "'");
    if (std::count(spec.policy_names.begin(), spec.policy_names.end(), policy) > 1)
      fail(names->line, "duplicate policy '" + policy + "'");
  }

  // --- [grid] --------------------------------------------------------------
  if (const Entry* axis = find("grid", "starvation_delay_hours"))
    for (const std::string& value : split_list(axis->value))
      spec.grid.starvation_delay.push_back(to_hours(*axis, value));
  if (const Entry* axis = find("grid", "bar_heavy_users"))
    for (const std::string& value : split_list(axis->value))
      spec.grid.bar_heavy_users.push_back(to_bool(*axis, value));
  if (const Entry* axis = find("grid", "heavy_user_factor"))
    for (const std::string& value : split_list(axis->value)) {
      const double factor = to_double(*axis, value);
      if (factor <= 0.0) fail(axis->line, "heavy_user_factor must be > 0");
      spec.grid.heavy_user_factor.push_back(factor);
    }
  if (const Entry* axis = find("grid", "max_runtime_hours"))
    for (const std::string& value : split_list(axis->value))
      spec.grid.max_runtime.push_back(to_hours(*axis, value));
  if (const Entry* axis = find("grid", "reservation_depth"))
    for (const std::string& value : split_list(axis->value)) {
      const auto depth = static_cast<int>(to_u64(*axis, value));
      if (depth < 1) fail(axis->line, "reservation_depth must be >= 1");
      spec.grid.reservation_depth.push_back(depth);
    }
  if (const Entry* axis = find("grid", "decay"))
    for (const std::string& value : split_list(axis->value)) {
      const double decay = to_double(*axis, value);
      if (!(decay > 0.0 && decay <= 1.0)) fail(axis->line, "grid decay must be in (0, 1]");
      spec.grid.decay.push_back(decay);
    }

  // --- [seeds] -------------------------------------------------------------
  if (const Entry* list = find("seeds", "list")) {
    for (const std::string& value : split_list(list->value))
      spec.seeds.push_back(to_u64(*list, value));
    if (spec.seeds.empty()) fail(list->line, "list: empty seed list");
    if (spec.workload.source == WorkloadSpec::Source::Swf && spec.seeds.size() > 1)
      fail(list->line,
           "an SWF trace is fixed data — multiple seeds would simulate identical replicates");
    for (const std::uint64_t seed : spec.seeds)
      if (std::count(spec.seeds.begin(), spec.seeds.end(), seed) > 1)
        fail(list->line, "duplicate seed " + std::to_string(seed));
  }

  return spec;
}

}  // namespace

std::vector<std::uint64_t> ScenarioSpec::effective_seeds() const {
  if (!seeds.empty()) return seeds;
  return {workload.seed};
}

ScenarioSpec parse_spec(std::istream& in, const std::string& origin, const std::string& base_dir) {
  return Parser(in, origin, base_dir).build();
}

ScenarioSpec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError("parse_spec_file: cannot open " + path);
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return parse_spec(in, path, base_dir);
}

}  // namespace psched::scenario
