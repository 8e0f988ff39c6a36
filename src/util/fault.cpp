#include "util/fault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace psched::util::fault {

namespace {

// The hand-maintained catalog: every PSCHED_FAULT / fault::check site in the
// tree. psched_chaos enumerates this list and proves each point lands in the
// retried / degraded / fail-loud trichotomy; keep it in sync when adding a
// point (docs/fault_injection.md describes the drill).
const char* const kCatalog[] = {
    "atomic_write.open",          // util/atomic_file.cpp  open(tmp, O_EXCL)
    "atomic_write.write",         // util/atomic_file.cpp  write(fd, ...)
    "atomic_write.fsync",         // util/atomic_file.cpp  fsync(fd)
    "atomic_write.close",         // util/atomic_file.cpp  close(fd)
    "atomic_write.rename",        // util/atomic_file.cpp  rename(tmp, path)
    "atomic_write.parent_fsync",  // util/atomic_file.cpp  fsync(dirfd)
    "journal.open",               // scenario/journal.cpp  open(journal.jsonl)
    "journal.append.write",       // scenario/journal.cpp  write(record line)
    "journal.append.fsync",       // scenario/journal.cpp  fsync after append
    "journal.replay.read",        // scenario/journal.cpp  journal read loop
    "swf.open",                   // workload/swf.cpp      trace file open
    "swf.read.line",              // workload/swf.cpp      shared read loop
    "threadpool.submit",          // util/thread_pool.cpp  compound submit
    "campaign.cell",              // scenario/campaign.cpp cell on_start hook
};

enum class Mode { kAfter, kEvery, kProb };

struct Arming {
  Action action = Action::kErrno;
  int err = 0;
  Mode mode = Mode::kAfter;
  std::uint64_t n = 1;       // after=N / every=N
  double p = 0.0;            // p=X
  std::optional<Rng> rng;    // kProb stream
  bool spent = false;        // kAfter fires exactly once
};

struct Point {
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
  std::optional<Arming> arming;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Point> points;
  std::string report_path;

  Registry() {
    for (const char* name : kCatalog) points.emplace(name, Point{});
  }
};

Registry& registry() {
  static Registry reg;
  return reg;
}

int errno_from_name(const std::string& text) {
  static const std::map<std::string, int> kNames = {
      {"EINTR", EINTR},   {"EAGAIN", EAGAIN}, {"EWOULDBLOCK", EWOULDBLOCK},
      {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"EDQUOT", EDQUOT},
      {"ENOENT", ENOENT}, {"EACCES", EACCES}, {"EMFILE", EMFILE},
      {"ENFILE", ENFILE}, {"EBADF", EBADF},   {"EEXIST", EEXIST},
      {"EROFS", EROFS},   {"EFBIG", EFBIG},   {"ENOMEM", ENOMEM},
  };
  const auto it = kNames.find(text);
  if (it != kNames.end()) return it->second;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value <= 0) {
    throw std::invalid_argument("PSCHED_FAULTS: unknown errno name '" + text + "'");
  }
  return static_cast<int>(value);
}

std::uint64_t parse_count(const std::string& spec, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value == 0) {
    throw std::invalid_argument("PSCHED_FAULTS: bad count in '" + spec + "'");
  }
  return value;
}

/// Write the fired-count report with raw syscalls: this runs from atexit and
/// from inside a firing hang, where iostreams may be mid-teardown.
void write_report_locked(Registry& reg) {
  if (reg.report_path.empty()) return;
  std::string body;
  for (const auto& [name, point] : reg.points) {
    body += name + " " + std::to_string(point.hits) + " " +
            std::to_string(point.fired) + "\n";
  }
  const std::string tmp = reg.report_path + ".tmp";
  // psched-lint: allow(raw-file-write): fired-count diagnostic report, not a results store
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;  // diagnostics are best-effort
  const char* data = body.data();
  std::size_t remaining = body.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return;
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  ::close(fd);
  ::rename(tmp.c_str(), reg.report_path.c_str());
}

void write_report_at_exit() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  write_report_locked(reg);
}

/// Decide whether an armed point fires on this hit. Caller holds reg.mu.
bool decide_fire(Arming& arming, std::uint64_t hit_index) {
  switch (arming.mode) {
    case Mode::kAfter:
      if (arming.spent || hit_index < arming.n) return false;
      arming.spent = true;
      return true;
    case Mode::kEvery:
      return hit_index % arming.n == 0;
    case Mode::kProb:
      return arming.rng->uniform01() < arming.p;
  }
  return false;
}

Shot hit(const char* name) {
  Registry& reg = registry();
  Shot shot;
  const std::lock_guard<std::mutex> lock(reg.mu);
  Point& point = reg.points[name];
  ++point.hits;
  if (point.arming && decide_fire(*point.arming, point.hits)) {
    ++point.fired;
    shot.action = point.arming->action;
    shot.err = point.arming->err;
    // A hang never returns, so a harness watching from outside needs the
    // report on disk *now* to learn the hang actually started.
    if (shot.action == Action::kHang) write_report_locked(reg);
  }
  return shot;
}

struct EnvInit {
  EnvInit() {
    // psched-lint note: this constructor is the one sanctioned consumer of
    // the PSCHED_FAULT* environment (rule raw-env).
    const char* report = std::getenv("PSCHED_FAULTS_REPORT");
    if (report != nullptr && *report != '\0') {
      registry().report_path = report;
      std::atexit(write_report_at_exit);
    }
    const char* specs = std::getenv("PSCHED_FAULTS");
    if (specs == nullptr || *specs == '\0') return;
    try {
      arm_list(specs);
    } catch (const std::exception& e) {
      // Static-init context: no exception can propagate; a silently ignored
      // typo would make a chaos run vacuously green, so die loudly instead.
      std::fprintf(stderr, "psched: %s\n", e.what());
      std::_Exit(2);
    }
  }
};

EnvInit g_env_init;

}  // namespace

namespace detail {

std::atomic<int> g_armed_points{0};

Shot check_slow(const char* name) { return hit(name); }

int inject_slow(const char* name) {
  const Shot shot = hit(name);
  switch (shot.action) {
    case Action::kNone:
      return 0;
    case Action::kErrno:
      return shot.err;
    case Action::kThrow:
      throw std::runtime_error(std::string("injected fault at ") + name);
    case Action::kHang:
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return 0;
}

}  // namespace detail

void arm(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 2 || parts[0].empty()) {
    throw std::invalid_argument("PSCHED_FAULTS: expected <point>:<action> in '" + spec + "'");
  }

  Arming arming;
  const std::string& action = parts[1];
  if (action == "throw") {
    arming.action = Action::kThrow;
  } else if (action == "hang") {
    arming.action = Action::kHang;
  } else if (action.rfind("errno=", 0) == 0) {
    arming.action = Action::kErrno;
    arming.err = errno_from_name(action.substr(6));
  } else {
    throw std::invalid_argument("PSCHED_FAULTS: unknown action '" + action + "' in '" + spec + "'");
  }

  std::uint64_t seed = 1;
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    const auto mode_arg = [&](const char* prefix) -> std::optional<std::string> {
      if (part.rfind(prefix, 0) != 0) return std::nullopt;
      return part.substr(std::strlen(prefix));
    };
    if (const auto arg = mode_arg("after=")) {
      arming.mode = Mode::kAfter;
      arming.n = parse_count(spec, *arg);
    } else if (const auto arg2 = mode_arg("every=")) {
      arming.mode = Mode::kEvery;
      arming.n = parse_count(spec, *arg2);
    } else if (const auto arg3 = mode_arg("p=")) {
      arming.mode = Mode::kProb;
      char* end = nullptr;
      arming.p = std::strtod(arg3->c_str(), &end);
      if (end == arg3->c_str() || *end != '\0' || arming.p < 0.0 || arming.p > 1.0) {
        throw std::invalid_argument("PSCHED_FAULTS: bad probability in '" + spec + "'");
      }
    } else if (const auto arg4 = mode_arg("seed=")) {
      seed = parse_count(spec, *arg4);
    } else {
      throw std::invalid_argument("PSCHED_FAULTS: unknown mode '" + part + "' in '" + spec + "'");
    }
  }
  if (arming.mode == Mode::kProb) arming.rng.emplace(seed);

  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  Point& point = reg.points[parts[0]];
  if (!point.arming) detail::g_armed_points.fetch_add(1, std::memory_order_relaxed);
  point.arming = std::move(arming);
}

void arm_list(const std::string& specs) {
  std::size_t start = 0;
  while (start <= specs.size()) {
    const std::size_t comma = specs.find(',', start);
    const std::string spec =
        specs.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!spec.empty()) arm(spec);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

void disarm_all() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, point] : reg.points) {
    point.arming.reset();
    point.hits = 0;
    point.fired = 0;
  }
  detail::g_armed_points.store(0, std::memory_order_relaxed);
}

std::vector<PointReport> report() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<PointReport> out;
  out.reserve(reg.points.size());
  for (const auto& [name, point] : reg.points) {
    out.push_back({name, point.hits, point.fired});
  }
  return out;
}

std::uint64_t fired_count(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.points.find(name);
  return it == reg.points.end() ? 0 : it->second.fired;
}

const std::vector<std::string>& catalog() {
  static const std::vector<std::string> names(std::begin(kCatalog), std::end(kCatalog));
  return names;
}

}  // namespace psched::util::fault
