#include "common/fileio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/faultinject.hpp"

namespace bepi {
namespace {

std::string ErrnoText() {
  std::ostringstream out;
  out << " (errno " << errno << ": " << std::strerror(errno) << ")";
  return out.str();
}

/// Directory part of `path` ("." when there is no separator), for the
/// directory fsync that makes the rename itself durable.
std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_WRONLY);
  if (fd < 0) {
    return Status::IoError("cannot open for fsync: " + path + ErrnoText());
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::IoError("fsync failed: " + path + ErrnoText());
  }
  return Status::Ok();
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    status_ = Status::IoError("cannot open for writing: " + tmp_path_ +
                              ErrnoText());
    finished_ = true;  // nothing to clean up
  }
}

AtomicFileWriter::~AtomicFileWriter() { Abort(); }

Status AtomicFileWriter::Commit() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Status::FailedPrecondition("AtomicFileWriter already finished: " +
                                      path_);
  }
  out_.flush();
  if (!out_) {
    Abort();
    return Status::IoError("flush failed writing " + tmp_path_ + ErrnoText());
  }
  out_.close();
  if (out_.fail()) {
    Abort();
    return Status::IoError("close failed writing " + tmp_path_ + ErrnoText());
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kFileShortWrite)) {
    // Simulated torn write: chop the tail off the temp file. Commit fails
    // and the target stays untouched, as with a real short write.
    ::truncate(tmp_path_.c_str(), 16);
    Abort();
    return Status::IoError("injected short write on " + tmp_path_);
  }
  Status fsync_status = FsyncPath(tmp_path_, /*directory=*/false);
  if (!fsync_status.ok()) {
    Abort();
    return fsync_status;
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kFileCrashBeforeRename)) {
    // Simulated crash between fsync and rename: the temp file survives on
    // disk (as after a real crash) and the target is never replaced.
    finished_ = true;
    return Status::IoError("injected crash before rename of " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const Status rename_status = Status::IoError(
        "rename " + tmp_path_ + " -> " + path_ + " failed" + ErrnoText());
    Abort();
    return rename_status;
  }
  finished_ = true;
  // Persist the directory entry; without this the rename itself can be
  // lost on power failure even though both files were fsynced.
  return FsyncPath(DirName(path_), /*directory=*/true);
}

void AtomicFileWriter::Abort() {
  if (finished_) return;
  finished_ = true;
  if (out_.is_open()) out_.close();
  std::remove(tmp_path_.c_str());
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path + ErrnoText());
  }
  Result<std::string> content = ReadStreamToString(in);
  if (!content.ok()) {
    return Status::IoError("read failed: " + path + ErrnoText());
  }
  if (!content->empty() && BEPI_FAULT_INJECTED(fault_sites::kFileBitFlip)) {
    (*content)[content->size() / 2] ^= 0x01;  // deterministic single-bit flip
  }
  return content;
}

Result<std::string> ReadStreamToString(std::istream& in) {
  // One allocation of the remaining size and one read into it. Whatever
  // follows the size seen here (a file still growing, or a stream that
  // reports no size) is appended by the stream copy after it.
  std::string content;
  const std::int64_t size = StreamRemainingBytes(in);
  if (size > 0) {
    content.resize(static_cast<std::size_t>(size));
    in.read(content.data(), size);
    content.resize(static_cast<std::size_t>(in.gcount()));
  }
  if (!in.eof() && !in.bad()) {
    in.clear();
    std::ostringstream rest;
    rest << in.rdbuf();
    content += std::move(rest).str();
  }
  if (in.bad()) return Status::IoError("stream read failed");
  return content;
}

std::int64_t StreamRemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    in.clear();
    return -1;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || !in) {
    in.clear();
    in.seekg(pos);
    return -1;
  }
  return static_cast<std::int64_t>(end - pos);
}

}  // namespace bepi
