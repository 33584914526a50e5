#include "common/io.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <utility>

#include "telemetry/metrics.h"

namespace ddc {

namespace {

constexpr size_t kBufferSize = 64 * 1024;

std::string Describe(const char* op, const std::string& path, int err) {
  std::string msg = op;
  msg += ' ';
  msg += path;
  msg += ": ";
  msg += strerror(err);
  return msg;
}

/// A WritableFile whose open already failed: every operation reports the
/// open error, so call sites need no null checks.
class FailedFile final : public WritableFile {
 public:
  explicit FailedFile(std::string error) : error_(std::move(error)) {}

  bool Append(const void*, size_t) override { return false; }
  bool Flush() override { return false; }
  bool Sync() override { return false; }
  bool Close() override { return false; }
  bool ok() const override { return false; }
  const std::string& error() const override { return error_; }
  int64_t bytes_written() const override { return 0; }

 private:
  std::string error_;
};

/// fsync on the directory containing `path`, making a rename into it
/// durable. Best-effort: some filesystems refuse directory fsync.
void SyncDirOf(const std::string& path) {
  const std::filesystem::path dir =
      std::filesystem::path(path).has_parent_path()
          ? std::filesystem::path(path).parent_path()
          : std::filesystem::path(".");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::unique_ptr<BufferedFile> BufferedFile::Open(const std::string& path,
                                                 Mode mode,
                                                 std::string* error) {
  const int flags =
      O_WRONLY | O_CREAT | (mode == Mode::kTruncate ? O_TRUNC : O_APPEND);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = Describe("open", path, errno);
    return nullptr;
  }
  return std::unique_ptr<BufferedFile>(new BufferedFile(fd, path));
}

BufferedFile::BufferedFile(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {
  buffer_.reserve(kBufferSize);
}

BufferedFile::~BufferedFile() { Close(); }

void BufferedFile::LatchError(const char* op, int err) {
  DDC_COUNTER_INC("io.write_failures");
  if (error_.empty()) error_ = Describe(op, path_, err);
}

bool BufferedFile::WriteFully(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      LatchError("write", errno);
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool BufferedFile::Append(const void* data, size_t n) {
  if (!ok() || fd_ < 0) return false;
  const char* p = static_cast<const char*>(data);
  // Large appends bypass the buffer once it has been drained.
  if (buffer_.size() + n > kBufferSize) {
    if (!Flush()) return false;
    if (n > kBufferSize) {
      if (!WriteFully(p, n)) return false;
      bytes_written_ += static_cast<int64_t>(n);
      return true;
    }
  }
  buffer_.append(p, n);
  bytes_written_ += static_cast<int64_t>(n);
  return true;
}

bool BufferedFile::Flush() {
  if (!ok() || fd_ < 0) return false;
  if (buffer_.empty()) return true;
  if (!WriteFully(buffer_.data(), buffer_.size())) return false;
  buffer_.clear();
  return true;
}

bool BufferedFile::Sync() {
  if (!Flush()) return false;
  if (::fsync(fd_) != 0) {
    LatchError("fsync", errno);
    return false;
  }
  return true;
}

bool BufferedFile::Close() {
  if (fd_ < 0) return ok();
  const bool flushed = Flush();
  if (::close(fd_) != 0 && flushed) LatchError("close", errno);
  fd_ = -1;
  return ok();
}

WritableFileFactory DefaultFileFactory() {
  return [](const std::string& path) -> std::unique_ptr<WritableFile> {
    std::string error;
    std::unique_ptr<BufferedFile> f =
        BufferedFile::Open(path, BufferedFile::Mode::kTruncate, &error);
    if (f == nullptr) return std::make_unique<FailedFile>(std::move(error));
    return f;
  };
}

bool WriteFile(const std::string& path, std::string_view contents,
               std::string* error) {
  std::string open_error;
  std::unique_ptr<BufferedFile> f =
      BufferedFile::Open(path, BufferedFile::Mode::kTruncate, &open_error);
  if (f == nullptr) {
    if (error != nullptr) *error = open_error;
    return false;
  }
  f->Append(contents);
  if (!f->Close()) {
    if (error != nullptr) *error = f->error();
    return false;
  }
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error) {
  return WriteFileAtomic(
      path, [contents](WritableFile& f) { f.Append(contents); }, error);
}

bool WriteFileAtomic(const std::string& path,
                     const std::function<void(WritableFile&)>& write,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  std::string open_error;
  std::unique_ptr<BufferedFile> f =
      BufferedFile::Open(tmp, BufferedFile::Mode::kTruncate, &open_error);
  if (f == nullptr) {
    if (error != nullptr) *error = open_error;
    return false;
  }
  write(*f);
  f->Sync();
  if (!f->Close()) {
    if (error != nullptr) *error = f->error();
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = Describe("rename", path, errno);
    ::unlink(tmp.c_str());
    return false;
  }
  SyncDirOf(path);
  return true;
}

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = Describe("open", path, errno);
    return false;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Describe("read", path, errno);
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return true;
}

}  // namespace ddc
