#pragma once
// Times an untraced campaign from outside the library. run_campaign builds
// its workloads, then writes the journal header, then appends one fsynced
// line per finished cell (scenario/journal.hpp). An inotify watch on the
// results directory timestamps each of those appends as it lands, so the
// benchmark gets "first cell scheduled" (the header) and every cell's finish
// without arming any tracing inside the program. A watcher thread blocks in
// poll(); it wakes once per journal write and costs nothing in between.

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace campaignbench {

class JournalWatch {
 public:
  struct Mark {
    double at_s = 0.0;   ///< monotonic time the line was seen (timing.hpp)
    double cpu_s = 0.0;  ///< process CPU seconds at that moment
    bool header = false;
    long index = -1;     ///< cell plan index (cell lines only)
    bool ok = false;     ///< cell status == ok
  };

  /// Starts watching `dir` for writes to `dir`/journal.jsonl. Throws
  /// std::runtime_error when inotify is unavailable.
  explicit JournalWatch(std::string dir);
  ~JournalWatch();
  JournalWatch(const JournalWatch&) = delete;
  JournalWatch& operator=(const JournalWatch&) = delete;

  /// Stops the watcher (reading whatever is left) and returns every journal
  /// line seen, in journal order. Call once.
  std::vector<Mark> finish();

 private:
  void loop();
  void read_new_lines(double at_s, double cpu_s);

  std::string path_;
  int inotify_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::size_t offset_ = 0;
  std::string partial_;
  std::vector<Mark> marks_;  ///< written by the watcher thread until joined
  std::thread thread_;
};

}  // namespace campaignbench
