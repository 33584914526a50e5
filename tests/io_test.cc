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

namespace ddc {
namespace {

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ddc_io_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::string data;
  std::string error;
  EXPECT_TRUE(ReadFileToString(path, &data, &error)) << error;
  return data;
}

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 (IEEE 802.3, reflected 0xEDB88320) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, first), whole);
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(64, '\x5a');
  const uint32_t clean = Crc32(data);
  for (int bit : {0, 7, 100, 511}) {
    std::string flipped = data;
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32(flipped), clean) << "bit " << bit;
  }
}

/// The textbook bytewise CRC-32, independent of the library's tables.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n = 0; n < 300; ++n) {
      ASSERT_EQ(Crc32(buf.data() + align, n),
                ReferenceCrc32(buf.data() + align, n, 0))
          << "len " << n << " align " << align;
    }
  }
  // Random lengths, offsets and seeds, chained over random split points.
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t off = static_cast<size_t>(rng.NextBelow(8));
    const size_t n = static_cast<size_t>(rng.NextBelow(4096));
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const unsigned char* p = buf.data() + off;
    const uint32_t want = ReferenceCrc32(p, n, seed);
    ASSERT_EQ(Crc32(p, n, seed), want) << "len " << n << " off " << off;
    const size_t split = static_cast<size_t>(rng.NextBelow(n + 1));
    ASSERT_EQ(Crc32(p + split, n - split, Crc32(p, split, seed)), want)
        << "len " << n << " split " << split;
  }
}

TEST(EndianTest, RoundTripsAllWidths) {
  std::string buf;
  AppendLe32(buf, 0x01020304u);
  AppendLe64(buf, 0xDEADBEEFCAFEF00DULL);
  AppendLeDouble(buf, -0.1);
  AppendLeDouble(buf, 0.0);
  const unsigned char* p = reinterpret_cast<const unsigned char*>(buf.data());
  EXPECT_EQ(ReadLe32(p), 0x01020304u);
  EXPECT_EQ(ReadLe64(p + 4), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(ReadLeDouble(p + 12), -0.1);
  EXPECT_EQ(ReadLeDouble(p + 20), 0.0);
  // The byte order on disk is little-endian by construction.
  EXPECT_EQ(p[0], 0x04);
  EXPECT_EQ(p[3], 0x01);
}

TEST(BufferedFileTest, WritesBeyondTheBufferAndReadsBack) {
  const std::string dir = TempDir("buffered");
  const std::string path = dir + "/big.bin";
  std::string expected;
  {
    std::string error;
    std::unique_ptr<BufferedFile> f = BufferedFile::Open(path,
                                                         BufferedFile::Mode::kTruncate,
                                                         &error);
    ASSERT_NE(f, nullptr) << error;
    // Several small appends plus one larger than the 64 KiB buffer.
    for (int i = 0; i < 100; ++i) {
      std::string chunk(123, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(f->Append(chunk));
      expected += chunk;
    }
    std::string big(200 * 1024, 'Z');
    ASSERT_TRUE(f->Append(big));
    expected += big;
    EXPECT_EQ(f->bytes_written(), static_cast<int64_t>(expected.size()));
    ASSERT_TRUE(f->Sync());
    ASSERT_TRUE(f->Close());
    EXPECT_TRUE(f->ok());
  }
  EXPECT_EQ(Slurp(path), expected);
}

TEST(BufferedFileTest, AppendModeExtends) {
  const std::string dir = TempDir("append");
  const std::string path = dir + "/log.txt";
  ASSERT_TRUE(WriteFile(path, "first."));
  std::string error;
  std::unique_ptr<BufferedFile> f =
      BufferedFile::Open(path, BufferedFile::Mode::kAppend, &error);
  ASSERT_NE(f, nullptr) << error;
  ASSERT_TRUE(f->Append(std::string_view("second.")));
  ASSERT_TRUE(f->Close());
  EXPECT_EQ(Slurp(path), "first.second.");
}

TEST(BufferedFileTest, OpenFailureNamesPathAndCause) {
  std::string error;
  std::unique_ptr<BufferedFile> f = BufferedFile::Open(
      TempDir("missing") + "/no/such/dir/file", BufferedFile::Mode::kTruncate,
      &error);
  EXPECT_EQ(f, nullptr);
  EXPECT_NE(error.find("no/such/dir/file"), std::string::npos) << error;
}

TEST(DefaultFileFactoryTest, FailedOpenYieldsLatchedFailingFile) {
  // The factory never returns null — a bad path yields a file whose every
  // operation fails with the open error, so call sites check ok() once.
  std::unique_ptr<WritableFile> f =
      DefaultFileFactory()(TempDir("factory") + "/nope/file");
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->ok());
  EXPECT_FALSE(f->Append(std::string_view("x")));
  EXPECT_FALSE(f->Flush());
  EXPECT_FALSE(f->Sync());
  EXPECT_NE(f->error().find("nope"), std::string::npos) << f->error();
}

TEST(WriteFileAtomicTest, ReplacesWithoutLeavingTempFiles) {
  const std::string dir = TempDir("atomic");
  const std::string path = dir + "/manifest.json";
  ASSERT_TRUE(WriteFileAtomic(path, "old"));
  ASSERT_TRUE(WriteFileAtomic(path, "new contents"));
  EXPECT_EQ(Slurp(path), "new contents");
  int entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1) << "temp file left behind";
}

TEST(ReadFileToStringTest, MissingFileNamesPath) {
  std::string data;
  std::string error;
  EXPECT_FALSE(ReadFileToString("/definitely/not/here.bin", &data, &error));
  EXPECT_NE(error.find("/definitely/not/here.bin"), std::string::npos);
}

TEST(FaultFileTest, CrashLeavesExactlyTheTornPrefix) {
  const std::string dir = TempDir("fault_crash");
  const std::string path = dir + "/victim.bin";
  FaultPlan plan;
  plan.crash_after_bytes = 10;
  FaultInjector injector(plan);
  WritableFileFactory factory = injector.WrapFactory(DefaultFileFactory());

  std::unique_ptr<WritableFile> f = factory(path);
  ASSERT_TRUE(f->Append(std::string_view("012345")));   // 6 bytes, all land.
  EXPECT_FALSE(injector.crashed());
  EXPECT_FALSE(f->Append(std::string_view("6789AB")));  // Crosses the
                                                        // boundary: torn.
  EXPECT_TRUE(injector.crashed());
  EXPECT_EQ(injector.bytes_passed(), 10);
  EXPECT_FALSE(f->Append(std::string_view("after")));   // Dead stays dead.
  EXPECT_FALSE(f->Sync());
  f->Close();
  EXPECT_EQ(Slurp(path), "0123456789");  // 6 + 4-byte torn prefix.
}

TEST(FaultFileTest, LedgerSpansFiles) {
  // The crash budget is an offset into the whole write stream: rotating to
  // a second file does not reset it.
  const std::string dir = TempDir("fault_ledger");
  FaultPlan plan;
  plan.crash_after_bytes = 12;
  FaultInjector injector(plan);
  WritableFileFactory factory = injector.WrapFactory(DefaultFileFactory());

  std::unique_ptr<WritableFile> a = factory(dir + "/a.bin");
  ASSERT_TRUE(a->Append(std::string_view("eightbyt")));  // 8 of 12.
  a->Close();
  std::unique_ptr<WritableFile> b = factory(dir + "/b.bin");
  EXPECT_FALSE(b->Append(std::string_view("eightbyt")));  // 4 more, torn.
  EXPECT_TRUE(injector.crashed());
  b->Close();
  EXPECT_EQ(Slurp(dir + "/b.bin"), "eigh");
}

TEST(FaultFileTest, FlipsExactlyOneBit) {
  const std::string dir = TempDir("fault_flip");
  const std::string path = dir + "/victim.bin";
  FaultPlan plan;
  plan.flip_bit = 8 * 3 + 1;  // Bit 1 of byte 3.
  FaultInjector injector(plan);
  WritableFileFactory factory = injector.WrapFactory(DefaultFileFactory());

  std::unique_ptr<WritableFile> f = factory(path);
  ASSERT_TRUE(f->Append(std::string_view("AB")));
  ASSERT_TRUE(f->Append(std::string_view("CDEF")));
  ASSERT_TRUE(f->Close());
  EXPECT_FALSE(injector.crashed());
  std::string got = Slurp(path);
  EXPECT_EQ(got.size(), 6u);
  EXPECT_EQ(got[3], 'D' ^ 0x02);
  got[3] ^= 0x02;
  EXPECT_EQ(got, "ABCDEF");
}

}  // namespace
}  // namespace ddc
