// The crash contract of every file the repo persists, decided once.
//
// The study journal, the pipeline's decision log, the results store and the
// obs plane must all survive a kill -9.  They share five decisions, made
// here and nowhere else:
//
//   1. Round-trip numbers.  Doubles in persisted records are rendered by
//      obs::json_exact_number, so a record read back compares equal to the
//      one written, bit for bit.
//   2. Line-record files (journal, decision log, store manifest) hold one
//      record per '\n'-terminated line.  Existence rule (open_record_file):
//      a missing file is empty — a fresh run — while a path that exists but
//      is not a regular file, or cannot be read, is an error, because
//      treating it as fresh would recompute and then clobber finished work.
//      Torn-tail rule (read_records): a kill -9 mid-append can tear only the
//      final line, so an unterminated final line that fails to parse is
//      dropped with a warning and reported; a bad line anywhere else is
//      corruption and throws.
//   3. Appends (AppendFile, DurableLog).  One O_APPEND descriptor and one
//      flock(2)-guarded write(2) + fdatasync(2) per record: writers in one
//      process or in several interleave whole records, never bytes, and a
//      record is on its way to disk before the work it describes counts as
//      done.  flock locks are per open file description, so two AppendFile
//      instances serialise against each other, while readers (which take
//      no lock) see whole records plus at most one torn tail.
//   4. Whole-file replace (write_file_atomic): a staging file, fsync, close,
//      rename — a reader sees the old file or the new one, never a torn one.
//   5. Whole-file read (read_file).
#pragma once

#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace tdfm::core {

/// An append-only file handle for multi-writer logs.  The file is created
/// (0644) on first open if missing; every `append()` writes the payload in
/// one locked write+fdatasync, so concurrent writers produce an interleaving
/// of whole payloads, never byte soup.
class AppendFile {
 public:
  /// Opens (creating if necessary) `path` for appending.  Throws
  /// InvariantError when the file cannot be opened or created.
  explicit AppendFile(const std::string& path);
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Appends `payload` under an exclusive flock and syncs it to disk.
  /// The caller supplies any record terminator (e.g. '\n') as part of the
  /// payload.  Throws InvariantError on a short or failed write.
  void append(std::string_view payload);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Replaces `path` with `bytes`: writes a staging file beside it, fsyncs
/// it, closes it and renames it into place.  Throws InvariantError when any
/// step fails.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// The whole content of the file at `path`.  Throws ConfigError when it
/// cannot be opened or read (a directory cannot be read).
[[nodiscard]] std::string read_file(const std::string& path);

/// The existence rule for a line-record file; `kind` names the file in
/// messages ("journal").  A missing path (ENOENT) returns a stream that is
/// not open, which read_records reads as empty.  Throws ConfigError when the
/// path exists but is not a regular file or cannot be opened.
[[nodiscard]] std::ifstream open_record_file(const std::string& path,
                                             std::string_view kind);

/// The torn-tail rule: calls `on_line` for every non-empty line of `in`.
/// When `on_line` throws ConfigError on an unterminated final line, that
/// line is dropped with a warning and `*recovered_torn_tail` is set; on any
/// other line the error is rethrown as "<where> line N: <why>".  `where` is
/// the file kind, optionally followed by its path.
void read_records(std::istream& in, const std::string& where,
                  const std::function<void(std::string_view)>& on_line,
                  bool* recovered_torn_tail = nullptr);

/// An append-only record log bound to a line-record file, or kept in memory
/// only when the path is empty.  Thread-safe within a process, write-safe
/// across processes (AppendFile).  `Codec` supplies the record format:
///
///   static constexpr std::string_view kKind;          // name in messages
///   static std::string render(const Record&);         // one line, no '\n'
///   static Record parse(std::string_view line);       // throws ConfigError
///   static std::string flight_detail(const Record&);  // flight-recorder note
template <typename Record, typename Codec>
class DurableLog {
 public:
  explicit DurableLog(std::string path = "") : path_(std::move(path)) {}

  /// Every record of the file at `path`, under the existence and torn-tail
  /// rules; `recovered_torn_tail`, when non-null, reports a dropped tail.
  [[nodiscard]] static std::vector<Record> load(
      const std::string& path, bool* recovered_torn_tail = nullptr) {
    std::vector<Record> records;
    std::ifstream in = open_record_file(path, Codec::kKind);
    read_records(
        in, std::string(Codec::kKind) + " " + path,
        [&](std::string_view line) { records.push_back(Codec::parse(line)); },
        recovered_torn_tail);
    return records;
  }

  /// Adopts records that are already persisted in this log's file (resume):
  /// they join the in-memory view without being rewritten.
  void adopt(std::vector<Record> records) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& r : records) records_.push_back(std::move(r));
  }

  /// Appends one record: O(1) — a single locked write+sync of one line, or
  /// nothing on disk for a memory-only log.
  void append(Record record) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!path_.empty()) {
      if (!file_) file_ = std::make_unique<AppendFile>(path_);
      file_->append(Codec::render(record) + '\n');
      if (obs::flight::enabled()) {
        obs::flight::record(obs::flight::EventKind::kJournalAppend,
                            Codec::flight_detail(record));
      }
    }
    records_.push_back(std::move(record));
  }

  /// Snapshot of all records (adopted + appended), in append order.
  [[nodiscard]] std::vector<Record> records() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::vector<Record> records_;
  std::unique_ptr<AppendFile> file_;  ///< opened lazily, first append
};

}  // namespace tdfm::core
