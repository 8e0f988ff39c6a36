#include "journal_watch.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "timing.hpp"

namespace campaignbench {

namespace {

constexpr const char* kJournalName = "journal.jsonl";

JournalWatch::Mark parse_line(const std::string& line) {
  JournalWatch::Mark mark;
  mark.header = line.find("\"kind\":\"header\"") != std::string::npos;
  if (mark.header) return mark;
  // Keys are JSON-escaped strings, so an unescaped "index": can only be the
  // field itself.
  const std::size_t at = line.find("\"index\":");
  if (at != std::string::npos) mark.index = std::strtol(line.c_str() + at + 8, nullptr, 10);
  mark.ok = line.find("\"status\":\"ok\"") != std::string::npos;
  return mark;
}

}  // namespace

JournalWatch::JournalWatch(std::string dir) : path_(dir + "/" + kJournalName) {
  inotify_fd_ = inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  if (inotify_fd_ < 0)
    throw std::runtime_error(std::string("inotify_init1: ") + std::strerror(errno));
  if (inotify_add_watch(inotify_fd_, dir.c_str(), IN_MODIFY) < 0 ||
      pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    const std::string error = std::strerror(errno);
    close(inotify_fd_);
    throw std::runtime_error("cannot watch " + dir + ": " + error);
  }
  thread_ = std::thread([this] { loop(); });
}

JournalWatch::~JournalWatch() {
  if (thread_.joinable()) finish();
  close(inotify_fd_);
  close(stop_pipe_[0]);
  close(stop_pipe_[1]);
}

std::vector<JournalWatch::Mark> JournalWatch::finish() {
  const char stop = 's';
  while (write(stop_pipe_[1], &stop, 1) < 0 && errno == EINTR) {
  }
  thread_.join();
  return marks_;
}

void JournalWatch::loop() {
  alignas(inotify_event) char buffer[4096];
  pollfd fds[2] = {{inotify_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  for (;;) {
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      const double at_s = now_s();
      const double cpu_s = process_cpu_s();
      bool journal_written = false;
      ssize_t n = 0;
      while ((n = read(inotify_fd_, buffer, sizeof(buffer))) > 0) {
        for (ssize_t pos = 0; pos < n;) {
          const auto* event = reinterpret_cast<const inotify_event*>(buffer + pos);
          if (event->len > 0 && std::strcmp(event->name, kJournalName) == 0)
            journal_written = true;
          pos += static_cast<ssize_t>(sizeof(inotify_event) + event->len);
        }
      }
      if (journal_written) read_new_lines(at_s, cpu_s);
    }
    if (fds[1].revents & POLLIN) break;
  }
  // Lines appended after the last wake-up (normally none): stamp them now.
  read_new_lines(now_s(), process_cpu_s());
}

void JournalWatch::read_new_lines(double at_s, double cpu_s) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  in.seekg(static_cast<std::streamoff>(offset_));
  std::string chunk((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  offset_ += chunk.size();
  partial_ += chunk;
  std::size_t start = 0;
  for (std::size_t nl; (nl = partial_.find('\n', start)) != std::string::npos; start = nl + 1) {
    Mark mark = parse_line(partial_.substr(start, nl - start));
    mark.at_s = at_s;
    mark.cpu_s = cpu_s;
    marks_.push_back(mark);
  }
  partial_.erase(0, start);
}

}  // namespace campaignbench
