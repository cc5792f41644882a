#include "core/durable.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/error.hpp"
#include "core/logging.hpp"

namespace tdfm::core {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// RAII exclusive flock(2) on an open descriptor, held for one append.
class FileLock {
 public:
  explicit FileLock(int fd) : fd_(fd) {
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    TDFM_CHECK(rc == 0, "flock(LOCK_EX) failed: " + errno_text());
  }
  // Best effort: the lock also dies with the fd / the process.
  ~FileLock() { (void)::flock(fd_, LOCK_UN); }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

int open_retrying(const std::string& path, int flags) {
  int fd;
  do {
    fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// write(2) until every byte is out, retrying on EINTR.  False on error
/// (errno set).
bool write_all(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

AppendFile::AppendFile(const std::string& path) : path_(path) {
  fd_ = open_retrying(path, O_WRONLY | O_APPEND | O_CREAT);
  TDFM_CHECK(fd_ >= 0,
             "cannot open append file " + path + ": " + errno_text());
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) (void)::close(fd_);
}

void AppendFile::append(std::string_view payload) {
  const FileLock lock(fd_);
  if (!write_all(fd_, payload)) {
    throw InvariantError("append to " + path_ + " failed: " + errno_text());
  }
  // kill -9 survives on the page cache without this; power loss does not.
  if (::fdatasync(fd_) != 0) {
    throw InvariantError("fdatasync of " + path_ + " failed: " + errno_text());
  }
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = open_retrying(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  if (fd < 0) throw InvariantError("cannot open " + tmp + ": " + errno_text());
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written) {
    throw InvariantError("failed writing " + tmp + ": " + errno_text());
  }
  // Atomic within a directory on POSIX: readers see the old file or the
  // new one, never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw InvariantError("failed renaming " + tmp + " into place: " +
                         errno_text());
  }
}

std::string read_file(const std::string& path) {
  const int fd = open_retrying(path, O_RDONLY);
  if (fd < 0) throw ConfigError("cannot read " + path + ": " + errno_text());
  std::string out;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = errno_text();
      (void)::close(fd);
      throw ConfigError("cannot read " + path + ": " + why);
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  (void)::close(fd);
  return out;
}

std::ifstream open_record_file(const std::string& path, std::string_view kind) {
  const std::string what = std::string(kind) + " " + path;
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return {};  // missing file: a fresh run
    throw ConfigError("cannot stat " + what + ": " + errno_text());
  }
  // The file exists: from here on every failure is an error.
  if (!S_ISREG(st.st_mode)) {
    throw ConfigError(what + " is not a regular file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw ConfigError(what + " exists but cannot be read");
  return in;
}

void read_records(std::istream& in, const std::string& where,
                  const std::function<void(std::string_view)>& on_line,
                  bool* recovered_torn_tail) {
  if (recovered_torn_tail) *recovered_torn_tail = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline strips '\n'; a final line that hits EOF first is unterminated
    // — the only place a kill -9 mid-append can tear.
    const bool terminated = !in.eof();
    if (line.empty()) continue;
    try {
      on_line(line);
    } catch (const ConfigError& e) {
      if (!terminated) {
        TDFM_LOG(kWarn) << where << ": dropping torn final line " << line_no
                        << " (" << line.size()
                        << " bytes) — an interrupted write";
        if (recovered_torn_tail) *recovered_torn_tail = true;
        return;
      }
      throw ConfigError(where + " line " + std::to_string(line_no) + ": " +
                        e.what());
    }
  }
}

}  // namespace tdfm::core
