// Crash-consistent file IO. A plain `ofstream out(path)` leaves a silently
// truncated file at the final path when the process dies mid-write (and a
// failed close in the destructor is swallowed entirely); AtomicFileWriter
// closes that gap with the standard temp-file + fsync + rename + directory
// fsync protocol, so readers only ever observe the old file or the complete
// new one. Fault-injection sites (common/faultinject.hpp) cover short
// writes, crash-before-rename and bit-flip-on-read.
#ifndef BEPI_COMMON_FILEIO_HPP_
#define BEPI_COMMON_FILEIO_HPP_

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>

#include "common/status.hpp"

namespace bepi {

/// Writes `path` atomically: content goes to `path.tmp.<pid>` in the same
/// directory, and Commit() flushes, fsyncs, renames over `path` and fsyncs
/// the directory. Destruction without Commit() (or after a failed Commit())
/// removes the temp file and leaves any existing `path` untouched.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Non-ok when the temp file could not be opened; check before writing.
  const Status& status() const { return status_; }

  /// The stream to write content to (valid only when status() is ok).
  std::ostream& stream() { return out_; }

  /// Flush + check + fsync + rename + fsync(dir). On failure the target is
  /// untouched and the error (with errno text) is returned.
  Status Commit();

  /// Discards the temp file without touching the target. Safe to call
  /// multiple times; implied by the destructor when not committed.
  void Abort();

  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  Status status_;
  bool finished_ = false;  // Commit succeeded or Abort ran
};

/// Reads a whole file into a string. The fileio.bit_flip fault site, when
/// armed, flips one bit of the returned content — the read-path corruption
/// used to exercise checksum verification end to end.
Result<std::string> ReadFileToString(const std::string& path);

/// The rest of `in` from the current read position, read with a single
/// allocation when the stream can report its size.
Result<std::string> ReadStreamToString(std::istream& in);

/// Bytes left between the current read position and end-of-stream, or -1
/// when the stream is not seekable.
std::int64_t StreamRemainingBytes(std::istream& in);

}  // namespace bepi

#endif  // BEPI_COMMON_FILEIO_HPP_
