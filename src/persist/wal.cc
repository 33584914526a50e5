#include "persist/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "telemetry/metrics.h"

namespace ddc {

namespace {

constexpr char kSegmentMagic[8] = {'D', 'D', 'C', 'W', 'A', 'L', '0', '1'};
constexpr size_t kSegmentHeaderBytes = 8 + 8 + 4;  // magic + first_seq + crc
constexpr size_t kRecordHeaderBytes = 4 + 4;       // length + crc

std::string At(const std::string& file, int64_t offset) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), " at offset %lld",
                static_cast<long long>(offset));
  return file + buf;
}

}  // namespace

std::string EncodeWalOp(const WalOp& op) {
  std::string out;
  out.push_back(static_cast<char>(op.type));
  AppendLe64(out, op.seq);
  AppendLe32(out, static_cast<uint32_t>(op.id));
  if (op.type == WalOp::Type::kInsert) {
    DDC_CHECK(op.dim >= 1 && op.dim <= kMaxDim);
    out.push_back(static_cast<char>(op.dim));
    for (int k = 0; k < op.dim; ++k) AppendLeDouble(out, op.point[k]);
  }
  return out;
}

bool DecodeWalOp(std::string_view payload, WalOp* op, bool* non_finite) {
  if (non_finite != nullptr) *non_finite = false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(payload.data());
  if (payload.size() < 1 + 8 + 4) return false;
  const uint8_t type = p[0];
  if (type != static_cast<uint8_t>(WalOp::Type::kInsert) &&
      type != static_cast<uint8_t>(WalOp::Type::kDelete)) {
    return false;
  }
  op->type = static_cast<WalOp::Type>(type);
  op->seq = ReadLe64(p + 1);
  op->id = static_cast<PointId>(ReadLe32(p + 9));
  op->dim = 0;
  op->point = Point();
  if (op->type == WalOp::Type::kDelete) {
    return payload.size() == 1 + 8 + 4;
  }
  if (payload.size() < 1 + 8 + 4 + 1) return false;
  op->dim = p[13];
  if (op->dim < 1 || op->dim > kMaxDim) return false;
  if (payload.size() != 1 + 8 + 4 + 1 + static_cast<size_t>(op->dim) * 8) {
    return false;
  }
  for (int k = 0; k < op->dim; ++k) {
    op->point[k] = ReadLeDouble(p + 14 + static_cast<size_t>(k) * 8);
    if (!std::isfinite(op->point[k])) {
      if (non_finite != nullptr) *non_finite = true;
      return false;
    }
  }
  return true;
}

bool AppendWalRecord(WritableFile& file, std::string_view payload) {
  DDC_CHECK(payload.size() <= kWalMaxRecordBytes);
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  AppendLe32(frame, static_cast<uint32_t>(payload.size()));
  AppendLe32(frame, Crc32(payload));
  frame.append(payload);
  return file.Append(frame);
}

std::string WalSegmentName(uint64_t first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%016" PRIx64 ".log", first_seq);
  return buf;
}

WalWriter::WalWriter(std::string path, bool single_file,
                     const Options& options)
    : options_(options), single_file_(single_file) {
  if (!options_.factory) options_.factory = DefaultFileFactory();
  next_seq_ = options_.start_seq;
  if (single_file_) {
    single_path_ = std::move(path);
  } else {
    dir_ = std::move(path);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // A writer never appends to (or clobbers) a log it did not write:
    // recovery owns pre-existing segments.
    std::vector<std::string> existing;
    std::string list_error;
    if (!ListWalSegments(dir_, &existing, &list_error)) {
      Latch("wal dir unusable: " + list_error);
      return;
    }
    if (!existing.empty()) {
      Latch("wal dir " + dir_ + " already contains " +
            std::to_string(existing.size()) +
            " segment(s); refusing to append (recover or use a fresh dir)");
      return;
    }
  }
  OpenSegment(next_seq_);
}

WalWriter::WalWriter(const std::string& dir, const Options& options)
    : WalWriter(dir, /*single_file=*/false, options) {}

std::unique_ptr<WalWriter> WalWriter::OpenSingleFile(const std::string& path,
                                                     const Options& options) {
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, /*single_file=*/true, options));
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Latch(const std::string& error) {
  DDC_COUNTER_INC("wal.errors");
  if (error_.empty()) error_ = error;
}

bool WalWriter::OpenSegment(uint64_t first_seq) {
  const std::string path =
      single_file_ ? single_path_ : dir_ + "/" + WalSegmentName(first_seq);
  file_ = options_.factory(path);
  std::string header;
  header.append(kSegmentMagic, sizeof(kSegmentMagic));
  AppendLe64(header, first_seq);
  AppendLe32(header, Crc32(header.data() + 8, 8));
  if (!file_->Append(header) || !file_->Flush()) {
    Latch("wal segment open failed: " + file_->error());
    return false;
  }
  ++segments_opened_;
  DDC_COUNTER_INC("wal.segments_opened");
  return true;
}

bool WalWriter::Append(WalOp& op) {
  if (!ok()) return false;
  DDC_HISTOGRAM_SCOPED("wal.append");
  op.seq = next_seq_;
  // Rotate before the record so a segment never splits one.
  if (!single_file_ && file_->bytes_written() >= options_.segment_bytes) {
    if (!file_->Sync() || !file_->Close()) {
      Latch("wal rotation failed: " + file_->error());
      return false;
    }
    DDC_COUNTER_INC("wal.rotations");
    if (!OpenSegment(next_seq_)) return false;
    unsynced_records_ = 0;
  }
  const std::string payload = EncodeWalOp(op);
  if (!AppendWalRecord(*file_, payload)) {
    Latch("wal append failed: " + file_->error());
    return false;
  }
  ++next_seq_;
  total_bytes_ += static_cast<int64_t>(kRecordHeaderBytes + payload.size());
  DDC_COUNTER_INC("wal.records");
  DDC_COUNTER_ADD("wal.bytes",
                  static_cast<int64_t>(kRecordHeaderBytes + payload.size()));
  ++unsynced_records_;
  if (options_.sync_every > 0 && unsynced_records_ >= options_.sync_every) {
    return Sync();
  }
  // No-fsync mode still pushes every record to the OS: a SIGKILL (or any
  // process death) loses nothing, only a kernel/power failure can.
  if (!file_->Flush()) {
    Latch("wal flush failed: " + file_->error());
    return false;
  }
  return true;
}

bool WalWriter::Sync() {
  if (!ok()) return false;
  if (unsynced_records_ == 0) return true;
  {
    DDC_HISTOGRAM_SCOPED("wal.fsync");
    if (!file_->Sync()) {
      Latch("wal sync failed: " + file_->error());
      return false;
    }
  }
  unsynced_records_ = 0;
  DDC_COUNTER_INC("wal.syncs");
  return true;
}

bool WalWriter::Close() {
  if (file_ == nullptr) return ok();
  Sync();
  if (!file_->Close()) Latch("wal close failed: " + file_->error());
  file_.reset();
  return ok();
}

bool ListWalSegments(const std::string& dir, std::vector<std::string>* paths,
                     std::string* error) {
  paths->clear();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return true;
  std::map<uint64_t, std::string> by_seq;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || name.size() != 4 + 16 + 4 ||
        name.substr(20) != ".log") {
      continue;
    }
    uint64_t first_seq = 0;
    const std::string hex = name.substr(4, 16);
    if (std::sscanf(hex.c_str(), "%16" SCNx64, &first_seq) != 1) {
      if (error != nullptr) {
        *error = "unparsable wal segment name: " + entry.path().string();
      }
      return false;
    }
    auto [it, inserted] = by_seq.emplace(first_seq, entry.path().string());
    if (!inserted) {
      if (error != nullptr) {
        *error = "duplicated wal segment first_seq " +
                 std::to_string(first_seq) + ": " + it->second + " and " +
                 entry.path().string();
      }
      return false;
    }
  }
  if (ec) {
    if (error != nullptr) *error = "cannot list " + dir + ": " + ec.message();
    return false;
  }
  for (auto& [seq, path] : by_seq) paths->push_back(std::move(path));
  return true;
}

bool ReplayWalFile(const std::string& path, uint64_t expect_first_seq,
                   bool is_last, const std::function<void(const WalOp&)>& fn,
                   WalReplayReport* report, std::string* error) {
  std::string data;
  std::string read_error;
  if (!ReadFileToString(path, &data, &read_error)) {
    if (error != nullptr) *error = read_error;
    return false;
  }
  ++report->segments;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(data.data());

  // Header. A final segment shorter than the header is a rotation the crash
  // cut off before any record could have been acknowledged into it.
  if (data.size() < kSegmentHeaderBytes) {
    if (is_last) {
      report->truncated = true;
      report->truncated_file = path;
      report->truncated_offset = 0;
      report->truncation_reason = "torn segment header";
      return true;
    }
    if (error != nullptr) {
      *error = "torn segment header in non-final segment " + At(path, 0);
    }
    return false;
  }
  if (std::string_view(data.data(), 8) !=
      std::string_view(kSegmentMagic, 8)) {
    if (error != nullptr) *error = "bad wal magic in " + At(path, 0);
    return false;
  }
  const uint64_t first_seq = ReadLe64(bytes + 8);
  if (ReadLe32(bytes + 16) != Crc32(data.data() + 8, 8)) {
    if (error != nullptr) *error = "corrupt wal header CRC in " + At(path, 8);
    return false;
  }
  if (expect_first_seq != 0 && first_seq != expect_first_seq) {
    if (error != nullptr) {
      *error = "wal segment " + path + " header claims first_seq " +
               std::to_string(first_seq) + ", expected " +
               std::to_string(expect_first_seq) +
               " (renamed, duplicated, or missing segment)";
    }
    return false;
  }

  uint64_t expect_seq = first_seq;
  size_t off = kSegmentHeaderBytes;
  while (off < data.size()) {
    // The record header, payload, or CRC may be cut short by a torn write;
    // in the final segment that is the legitimate crash tail.
    std::string reason;
    WalOp op;
    if (off + kRecordHeaderBytes > data.size()) {
      reason = "torn record header";
    } else {
      const uint32_t len = ReadLe32(bytes + off);
      const uint32_t crc = ReadLe32(bytes + off + 4);
      if (len > kWalMaxRecordBytes) {
        reason = "record length " + std::to_string(len) +
                 " exceeds maximum (corrupt length field)";
      } else if (off + kRecordHeaderBytes + len > data.size()) {
        reason = "torn record payload";
      } else {
        const std::string_view payload(data.data() + off + kRecordHeaderBytes,
                                       len);
        bool non_finite = false;
        if (Crc32(payload) != crc) {
          reason = "payload CRC mismatch";
        } else if (!DecodeWalOp(payload, &op, &non_finite)) {
          if (non_finite) {
            // Whole and checksummed, so not a torn tail; applying it would
            // hand the clusterer a point no grid cell can hold.
            if (error != nullptr) {
              *error = "wal record seq " + std::to_string(op.seq) +
                       " has a non-finite coordinate in " +
                       At(path, static_cast<int64_t>(off));
            }
            return false;
          }
          reason = "undecodable payload";
        } else if (op.seq != expect_seq) {
          // A well-checksummed record with the wrong sequence number is not
          // a torn write — it is a reordered or duplicated record, and
          // skipping it would silently drop acknowledged data.
          if (error != nullptr) {
            *error = "wal record seq " + std::to_string(op.seq) +
                     " where " + std::to_string(expect_seq) +
                     " was expected in " + At(path, static_cast<int64_t>(off));
          }
          return false;
        }
      }
    }
    if (!reason.empty()) {
      if (is_last) {
        report->truncated = true;
        report->truncated_file = path;
        report->truncated_offset = static_cast<int64_t>(off);
        report->truncation_reason = reason;
        DDC_COUNTER_INC("wal.replay_truncations");
        return true;
      }
      if (error != nullptr) {
        *error = reason + " in non-final segment " +
                 At(path, static_cast<int64_t>(off));
      }
      return false;
    }
    fn(op);
    ++report->records;
    report->last_seq = op.seq;
    DDC_COUNTER_INC("wal.replay_records");
    ++expect_seq;
    off += kRecordHeaderBytes + ReadLe32(bytes + off);
  }
  return true;
}

bool ReplayWal(const std::string& dir,
               const std::function<void(const WalOp&)>& fn,
               WalReplayReport* report, std::string* error) {
  *report = WalReplayReport();
  std::vector<std::string> segments;
  if (!ListWalSegments(dir, &segments, error)) return false;
  uint64_t expect_first = 0;  // First segment: accept the header's value.
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool is_last = i + 1 == segments.size();
    const int64_t records_before = report->records;
    if (!ReplayWalFile(segments[i], expect_first, is_last, fn, report,
                       error)) {
      return false;
    }
    if (report->truncated) break;
    if (is_last) break;
    // A record-free segment is only legitimate as the crash tail (rotation
    // creates a segment immediately before appending into it).
    if (report->records == records_before) {
      if (error != nullptr) {
        *error = "empty non-final wal segment " + segments[i];
      }
      return false;
    }
    // Continuity: the next segment must pick up exactly after this one.
    expect_first = report->last_seq + 1;
  }
  return true;
}

}  // namespace ddc
