// Protocol-event log shared by the coordinator and the workers: one line
// per event, flushed at once, so a killed process leaves its story on disk
// (CI uploads these files when a distributed run fails).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace revisim::dist {

// Appends to `path`; an empty path makes every line() a no-op.
class Log {
 public:
  explicit Log(const std::string& path)
      : file_(path.empty() ? nullptr : std::fopen(path.c_str(), "a")) {}
  ~Log() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (file_ == nullptr) {
      return;
    }
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(file_, fmt, ap);
    va_end(ap);
    std::fputc('\n', file_);
    std::fflush(file_);
  }

 private:
  std::FILE* file_;
};

// "$REVISIM_DIST_LOG/<name>.log", or empty (logging off) when the
// variable is unset.
inline std::string log_path(const std::string& name) {
  const char* dir = std::getenv("REVISIM_DIST_LOG");
  return dir == nullptr ? std::string() : std::string(dir) + "/" + name + ".log";
}

}  // namespace revisim::dist
