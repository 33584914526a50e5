#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/io.h"
#include "common/random.h"
#include "persist/fault_file.h"
#include "persist/wal.h"

namespace ddc {
namespace {

// On-disk geometry (see wal.h): segment header, then framed records.
constexpr size_t kHeaderBytes = 8 + 8 + 4;
constexpr size_t kFrameBytes = 4 + 4;
/// Frame size of a dim-2 insert record: header + (type+seq+id+dim+2 doubles).
constexpr size_t kInsert2Frame = kFrameBytes + 1 + 8 + 4 + 1 + 16;

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ddc_wal_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

WalOp InsertOp(PointId id, double x, double y) {
  WalOp op;
  op.type = WalOp::Type::kInsert;
  op.id = id;
  op.dim = 2;
  op.point[0] = x;
  op.point[1] = y;
  return op;
}

WalOp DeleteOp(PointId id) {
  WalOp op;
  op.type = WalOp::Type::kDelete;
  op.id = id;
  return op;
}

/// Writes `n` dim-2 inserts through a WalWriter; returns the ops with their
/// assigned seqs.
std::vector<WalOp> WriteLog(const std::string& dir, int n,
                            WalWriter::Options options = {}) {
  WalWriter writer(dir, options);
  EXPECT_TRUE(writer.ok()) << writer.error();
  std::vector<WalOp> ops;
  Rng rng(7);
  for (int i = 0; i < n; ++i) {
    WalOp op = InsertOp(i, rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    EXPECT_TRUE(writer.Append(op)) << writer.error();
    ops.push_back(op);
  }
  EXPECT_TRUE(writer.Close()) << writer.error();
  return ops;
}

std::vector<WalOp> ReplayAll(const std::string& dir, WalReplayReport* report,
                             std::string* error) {
  std::vector<WalOp> got;
  const bool ok =
      ReplayWal(dir, [&](const WalOp& op) { got.push_back(op); }, report,
                error);
  if (!ok) got.clear();
  EXPECT_EQ(ok, error->empty());
  return got;
}

void Corrupt(const std::string& path, size_t offset, char xor_mask) {
  std::string data;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error)) << error;
  ASSERT_LT(offset, data.size());
  data[offset] ^= xor_mask;
  ASSERT_TRUE(WriteFile(path, data, &error)) << error;
}

void Truncate(const std::string& path, size_t strip_bytes) {
  std::string data;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &data, &error)) << error;
  ASSERT_LE(strip_bytes, data.size());
  data.resize(data.size() - strip_bytes);
  ASSERT_TRUE(WriteFile(path, data, &error)) << error;
}

TEST(WalOpTest, EncodeDecodeRoundTrip) {
  WalOp insert = InsertOp(42, -1.5, 1e300);
  insert.seq = 7;
  WalOp decoded;
  ASSERT_TRUE(DecodeWalOp(EncodeWalOp(insert), &decoded));
  EXPECT_TRUE(decoded == insert);

  WalOp del = DeleteOp(99);
  del.seq = 8;
  ASSERT_TRUE(DecodeWalOp(EncodeWalOp(del), &decoded));
  EXPECT_TRUE(decoded == del);
}

TEST(WalOpTest, RejectsMalformedPayloads) {
  WalOp op;
  EXPECT_FALSE(DecodeWalOp("", &op));
  EXPECT_FALSE(DecodeWalOp(std::string(13, '\x7f'), &op));  // Bad type.
  std::string insert = EncodeWalOp(InsertOp(1, 0, 0));
  insert[13] = static_cast<char>(kMaxDim + 1);  // dim out of range.
  EXPECT_FALSE(DecodeWalOp(insert, &op));
  insert[13] = 3;  // dim/length mismatch.
  EXPECT_FALSE(DecodeWalOp(insert, &op));
}

TEST(WalOpTest, RejectsNonFiniteCoordinates) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    WalOp op;
    bool non_finite = false;
    EXPECT_FALSE(
        DecodeWalOp(EncodeWalOp(InsertOp(1, 0.5, bad)), &op, &non_finite));
    EXPECT_TRUE(non_finite) << bad;
  }
  WalOp op;
  bool non_finite = true;
  EXPECT_FALSE(DecodeWalOp("", &op, &non_finite));
  EXPECT_FALSE(non_finite);  // Malformed, which is another matter.
}

TEST(WalTest, WriteReplayRoundTrip) {
  const std::string dir = TempDir("roundtrip");
  std::vector<WalOp> ops;
  {
    WalWriter writer(dir, {});
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (int i = 0; i < 20; ++i) {
      WalOp op = i % 3 == 2 ? DeleteOp(i - 1) : InsertOp(i, i * 1.5, -i);
      ASSERT_TRUE(writer.Append(op));
      EXPECT_EQ(op.seq, static_cast<uint64_t>(i + 1));  // Writer assigns.
      ops.push_back(op);
    }
    EXPECT_EQ(writer.next_seq(), 21u);
    ASSERT_TRUE(writer.Close());
  }
  WalReplayReport report;
  std::string error;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), ops.size()) << error;
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_TRUE(got[i] == ops[i]);
  EXPECT_EQ(report.records, 20);
  EXPECT_EQ(report.segments, 1);
  EXPECT_EQ(report.last_seq, 20u);
  EXPECT_FALSE(report.truncated);
}

TEST(WalTest, RotationKeepsSequenceContinuity) {
  const std::string dir = TempDir("rotation");
  WalWriter::Options options;
  options.segment_bytes = 200;  // A handful of records per segment.
  const std::vector<WalOp> ops = WriteLog(dir, 40, options);

  std::vector<std::string> segments;
  std::string error;
  ASSERT_TRUE(ListWalSegments(dir, &segments, &error)) << error;
  EXPECT_GT(segments.size(), 3u);

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), ops.size()) << error;
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_TRUE(got[i] == ops[i]);
  EXPECT_EQ(report.segments, static_cast<int>(segments.size()));
  EXPECT_EQ(report.last_seq, 40u);
}

TEST(WalTest, RefusesDirWithExistingSegments) {
  const std::string dir = TempDir("refuse");
  WriteLog(dir, 3);
  WalWriter second(dir, {});
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.error().find("refusing"), std::string::npos)
      << second.error();
}

TEST(WalTest, EmptyDirectoryReplaysZeroRecords) {
  const std::string dir = TempDir("empty");
  WalReplayReport report;
  std::string error;
  EXPECT_TRUE(ReplayWal(dir, [](const WalOp&) { FAIL(); }, &report, &error));
  EXPECT_EQ(report.records, 0);
  EXPECT_EQ(report.last_seq, 0u);
  EXPECT_FALSE(report.truncated);
  // Same for a directory that does not exist at all.
  EXPECT_TRUE(ReplayWal(dir + "/nonexistent", [](const WalOp&) { FAIL(); },
                        &report, &error));
  EXPECT_EQ(report.records, 0);
}

TEST(WalTest, TornTailIsTruncatedAtEveryCutPoint) {
  // Strip k bytes off the end for k = 1 .. one whole record + frame: every
  // cut must truncate to exactly the records still fully intact.
  for (size_t strip = 1; strip <= kInsert2Frame + 3; strip += 3) {
    const std::string dir = TempDir("torn" + std::to_string(strip));
    const std::vector<WalOp> ops = WriteLog(dir, 10);
    const std::string segment = dir + "/" + WalSegmentName(1);
    Truncate(segment, strip);

    WalReplayReport report;
    std::string error;
    const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
    ASSERT_TRUE(error.empty()) << "strip " << strip << ": " << error;
    EXPECT_TRUE(report.truncated) << "strip " << strip;
    EXPECT_EQ(report.truncated_file, segment);
    EXPECT_FALSE(report.truncation_reason.empty());
    const size_t expect_records =
        strip >= kInsert2Frame ? 8u : 9u;  // Last record (or last two) gone.
    ASSERT_EQ(got.size(), expect_records) << "strip " << strip;
    for (size_t i = 0; i < got.size(); ++i) EXPECT_TRUE(got[i] == ops[i]);
  }
}

TEST(WalTest, EmptyFinalSegmentIsACleanTail) {
  // Rotation creates a segment before appending into it; a crash right
  // there leaves a record-free file, which must truncate, not error.
  const std::string dir = TempDir("emptytail");
  const std::vector<WalOp> ops = WriteLog(dir, 5);
  ASSERT_TRUE(WriteFile(dir + "/" + WalSegmentName(6), ""));

  WalReplayReport report;
  std::string error;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), 5u) << error;
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncation_reason, "torn segment header");
}

TEST(WalTest, BitFlipInFinalSegmentTruncatesAtTheRecord) {
  const std::string dir = TempDir("fliplast");
  const std::vector<WalOp> ops = WriteLog(dir, 10);
  const std::string segment = dir + "/" + WalSegmentName(1);
  // Flip a payload byte of record 6 (0-based): records 0..5 survive.
  Corrupt(segment, kHeaderBytes + 6 * kInsert2Frame + kFrameBytes + 2, 0x10);

  WalReplayReport report;
  std::string error;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), 6u) << error;
  for (size_t i = 0; i < got.size(); ++i) EXPECT_TRUE(got[i] == ops[i]);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncation_reason, "payload CRC mismatch");
  EXPECT_EQ(report.truncated_offset,
            static_cast<int64_t>(kHeaderBytes + 6 * kInsert2Frame));
}

TEST(WalTest, CorruptionInNonFinalSegmentIsAHardError) {
  const std::string dir = TempDir("flipmid");
  WalWriter::Options options;
  options.segment_bytes = 200;
  WriteLog(dir, 40, options);
  std::vector<std::string> segments;
  std::string error;
  ASSERT_TRUE(ListWalSegments(dir, &segments, &error));
  ASSERT_GT(segments.size(), 2u);
  // A flipped payload byte in the FIRST segment: acknowledged data recovery
  // must refuse to skip.
  Corrupt(segments[0], kHeaderBytes + kFrameBytes + 2, 0x10);

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error.find("non-final segment"), std::string::npos) << error;
  EXPECT_NE(error.find(segments[0]), std::string::npos) << error;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(WalTest, GarbageLengthFieldIsCaughtNotTrusted) {
  const std::string dir = TempDir("len");
  WriteLog(dir, 4);
  const std::string segment = dir + "/" + WalSegmentName(1);
  // Smash the length field of record 2 to ~4 GiB; a reader that trusted it
  // would allocate/seek absurdly instead of reporting corruption.
  for (size_t b = 0; b < 4; ++b) {
    Corrupt(segment, kHeaderBytes + 2 * kInsert2Frame + b, '\xff');
  }
  WalReplayReport report;
  std::string error;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), 2u) << error;
  EXPECT_TRUE(report.truncated);
  EXPECT_NE(report.truncation_reason.find("exceeds maximum"),
            std::string::npos);
}

TEST(WalTest, ValidCrcWrongSeqIsAHardErrorEvenAtTheTail) {
  // A record that checksums clean but carries the wrong sequence number is
  // reordering/duplication, not a torn write — hard error even in the last
  // segment, where torn records would be forgiven.
  const std::string dir = TempDir("seq");
  std::string error;
  std::unique_ptr<WritableFile> f =
      DefaultFileFactory()(dir + "/" + WalSegmentName(1));
  std::string header;
  header.append("DDCWAL01", 8);
  AppendLe64(header, 1);
  AppendLe32(header, Crc32(header.data() + 8, 8));
  ASSERT_TRUE(f->Append(header));
  WalOp op = InsertOp(0, 1, 2);
  op.seq = 5;  // Header promised the stream starts at 1.
  ASSERT_TRUE(AppendWalRecord(*f, EncodeWalOp(op)));
  ASSERT_TRUE(f->Close());

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error.find("seq 5"), std::string::npos) << error;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(WalTest, ValidCrcNonFiniteRecordIsAHardErrorEvenAtTheTail) {
  // A whole, correctly checksummed insert of a NaN point: not a torn write,
  // and no clusterer may apply it, so replay refuses the log and names the
  // record.
  const std::string dir = TempDir("nan");
  std::string error;
  std::unique_ptr<WritableFile> f =
      DefaultFileFactory()(dir + "/" + WalSegmentName(1));
  std::string header;
  header.append("DDCWAL01", 8);
  AppendLe64(header, 1);
  AppendLe32(header, Crc32(header.data() + 8, 8));
  ASSERT_TRUE(f->Append(header));
  WalOp good = InsertOp(0, 1, 2);
  good.seq = 1;
  ASSERT_TRUE(AppendWalRecord(*f, EncodeWalOp(good)));
  WalOp bad = InsertOp(1, std::nan(""), 2);
  bad.seq = 2;
  ASSERT_TRUE(AppendWalRecord(*f, EncodeWalOp(bad)));
  ASSERT_TRUE(f->Close());

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(report.truncated);
  EXPECT_NE(error.find("wal record seq 2"), std::string::npos) << error;
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  const std::string at = "offset " + std::to_string(kHeaderBytes +
                                                    kInsert2Frame);
  EXPECT_NE(error.find(at), std::string::npos) << error;
}

TEST(WalTest, MissingMiddleSegmentIsAHardError) {
  const std::string dir = TempDir("gap");
  WalWriter::Options options;
  options.segment_bytes = 200;
  WriteLog(dir, 40, options);
  std::vector<std::string> segments;
  std::string error;
  ASSERT_TRUE(ListWalSegments(dir, &segments, &error));
  ASSERT_GT(segments.size(), 2u);
  std::filesystem::remove(segments[1]);

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error.find("expected"), std::string::npos) << error;
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
}

TEST(WalTest, DuplicatedSegmentIsAHardErrorNamingBothFiles) {
  // Two names that parse to the same first_seq (hex case differs): the
  // listing itself must refuse — picking either file silently would be
  // guessing about acknowledged data.
  const std::string dir = TempDir("dup");
  WalWriter::Options options;
  options.start_seq = 10;  // 0x...a, so the name has a hex letter to upcase.
  WriteLog(dir, 3, options);
  const std::string lower = dir + "/" + WalSegmentName(10);
  std::string upper = lower;
  upper.replace(upper.size() - 5, 1, "A");
  std::filesystem::copy_file(lower, upper);

  std::vector<std::string> segments;
  std::string error;
  EXPECT_FALSE(ListWalSegments(dir, &segments, &error));
  EXPECT_NE(error.find("duplicated"), std::string::npos) << error;
  EXPECT_NE(error.find("000000000000000a"), std::string::npos) << error;
  EXPECT_NE(error.find("000000000000000A"), std::string::npos) << error;

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
}

TEST(WalTest, RenamedSegmentHeaderMismatchIsAHardError) {
  const std::string dir = TempDir("rename");
  WalWriter::Options options;
  options.segment_bytes = 200;
  WriteLog(dir, 40, options);
  std::vector<std::string> segments;
  std::string error;
  ASSERT_TRUE(ListWalSegments(dir, &segments, &error));
  ASSERT_GT(segments.size(), 2u);
  // Clobber segment 2 with a copy of segment 3: its header now contradicts
  // the continuity the name promises.
  std::filesystem::copy_file(segments[2], segments[1],
                             std::filesystem::copy_options::overwrite_existing);

  WalReplayReport report;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error.find("first_seq"), std::string::npos) << error;
}

TEST(WalTest, SingleFileOplogRoundTrip) {
  const std::string dir = TempDir("oplog");
  const std::string path = dir + "/oplog.log";
  std::vector<WalOp> ops;
  {
    std::unique_ptr<WalWriter> oplog = WalWriter::OpenSingleFile(path, {});
    ASSERT_TRUE(oplog->ok()) << oplog->error();
    for (int i = 0; i < 12; ++i) {
      WalOp op = i % 4 == 3 ? DeleteOp(i - 1) : InsertOp(i, i, i + 0.5);
      ASSERT_TRUE(oplog->Append(op));
      ops.push_back(op);
    }
    ASSERT_TRUE(oplog->Close());
  }
  WalReplayReport report;
  std::string error;
  std::vector<WalOp> got;
  ASSERT_TRUE(ReplayWalFile(path, 0, /*is_last=*/true,
                            [&](const WalOp& op) { got.push_back(op); },
                            &report, &error))
      << error;
  ASSERT_EQ(got.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_TRUE(got[i] == ops[i]);
}

TEST(WalTest, GroupCommitSyncsEveryNRecords) {
  const std::string dir = TempDir("group");
  WalWriter::Options options;
  options.sync_every = 4;
  WalWriter writer(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    WalOp op = InsertOp(i, i, i);
    ASSERT_TRUE(writer.Append(op));
  }
  ASSERT_TRUE(writer.Close());
  WalReplayReport report;
  std::string error;
  EXPECT_EQ(ReplayAll(dir, &report, &error).size(), 10u) << error;
}

TEST(WalTest, FaultInjectedWriterLatchesAndTailReplays) {
  // A writer whose storage dies mid-stream: Append starts failing, and the
  // bytes that made it to disk replay as a clean truncated prefix.
  const std::string dir = TempDir("fault");
  FaultPlan plan;
  plan.crash_after_bytes =
      static_cast<int64_t>(kHeaderBytes + 5 * kInsert2Frame + 7);
  FaultInjector injector(plan);
  WalWriter::Options options;
  options.factory = injector.WrapFactory(DefaultFileFactory());
  WalWriter writer(dir, options);
  ASSERT_TRUE(writer.ok());
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    WalOp op = InsertOp(i, i, i);
    if (!writer.Append(op)) break;
    ++accepted;
  }
  EXPECT_EQ(accepted, 5);
  EXPECT_TRUE(injector.crashed());
  EXPECT_FALSE(writer.ok());

  WalReplayReport report;
  std::string error;
  const std::vector<WalOp> got = ReplayAll(dir, &report, &error);
  ASSERT_EQ(got.size(), 5u) << error;
  EXPECT_TRUE(report.truncated);
}

}  // namespace
}  // namespace ddc
