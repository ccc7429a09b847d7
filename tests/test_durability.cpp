// Durable model store: CRC32C, atomic file writes, section framing, and
// the v3 model format's corruption detection (fuzz-style truncation and
// byte-flip sweeps, load-compat matrix across format versions, allocation
// bombs).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "sparse/io.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

class DurabilityTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/durability_" + name;
  }
};

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32c, KnownVectors) {
  // Reference values from the iSCSI (Castagnoli) specification.
  EXPECT_EQ(Crc32c::Compute("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c::Compute(""), 0x00000000u);
  EXPECT_EQ(Crc32c::Compute("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c::Compute("abc"), 0x364B3FB7u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>(rng.NextDouble() * 256));
  }
  const std::uint32_t whole = Crc32c::Compute(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{999},
                            data.size()}) {
    Crc32c crc;
    crc.Update(std::string_view(data).substr(0, split));
    crc.Update(std::string_view(data).substr(split));
    EXPECT_EQ(crc.Value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, UnalignedBuffersMatchByteWise) {
  // The slice-by-8 fast path only engages on 8-byte-aligned interiors;
  // feeding the same bytes from every start offset must not change the
  // digest of those bytes.
  std::string data(256, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 17);
  }
  for (std::size_t offset = 0; offset < 9; ++offset) {
    const std::string_view window =
        std::string_view(data).substr(offset, 200);
    Crc32c bytewise;
    for (char c : window) bytewise.Update(&c, 1);
    EXPECT_EQ(Crc32c::Compute(window), bytewise.Value())
        << "offset " << offset;
  }
}

TEST(Crc32c, ResetRestartsState) {
  Crc32c crc;
  crc.Update("garbage");
  crc.Reset();
  crc.Update("123456789");
  EXPECT_EQ(crc.Value(), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

TEST_F(DurabilityTest, AtomicWriterCommitCreatesFile) {
  const std::string path = TempPath("commit.txt");
  std::remove(path.c_str());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    writer.stream() << "hello durable world\n";
    ASSERT_TRUE(writer.Commit().ok());
    EXPECT_FALSE(std::filesystem::exists(writer.temp_path()));
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello durable world\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, AtomicWriterAbortPreservesOldContent) {
  const std::string path = TempPath("abort.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "version 1\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  {
    AtomicFileWriter writer(path);
    writer.stream() << "version 2, never committed\n";
    // Destructor aborts: temp removed, target untouched.
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "version 1\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, AtomicWriterDoubleCommitFails) {
  const std::string path = TempPath("double.txt");
  AtomicFileWriter writer(path);
  writer.stream() << "x\n";
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.Commit().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, ShortWriteFaultFailsCommitAndPreservesTarget) {
  const std::string path = TempPath("short.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "intact original\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileShortWrite, 0, 1);
  {
    AtomicFileWriter writer(path);
    writer.stream() << "this write gets torn off\n";
    const Status status = writer.Commit();
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_FALSE(std::filesystem::exists(writer.temp_path()));
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "intact original\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, CrashBeforeRenameLeavesTempAndTarget) {
  const std::string path = TempPath("crash.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "old model\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileCrashBeforeRename, 0, 1);
  std::string temp_path;
  {
    AtomicFileWriter writer(path);
    temp_path = writer.temp_path();
    writer.stream() << "new model, crash before rename\n";
    EXPECT_EQ(writer.Commit().code(), StatusCode::kIoError);
  }
  // As after a real crash: the complete temp file is on disk, the target
  // still holds the old version.
  auto temp_content = ReadFileToString(temp_path);
  ASSERT_TRUE(temp_content.ok());
  EXPECT_EQ(*temp_content, "new model, crash before rename\n");
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "old model\n");
  std::remove(path.c_str());
  std::remove(temp_path.c_str());
}

TEST_F(DurabilityTest, BitFlipFaultCorruptsRead) {
  const std::string path = TempPath("flip.txt");
  const std::string original = "sixteen byte line\n";
  {
    AtomicFileWriter writer(path);
    writer.stream() << original;
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileBitFlip, 0, 1);
  auto flipped = ReadFileToString(path);
  ASSERT_TRUE(flipped.ok());
  ASSERT_EQ(flipped->size(), original.size());
  EXPECT_NE(*flipped, original);
  EXPECT_EQ((*flipped)[flipped->size() / 2] ^ 0x01,
            original[original.size() / 2]);
  std::remove(path.c_str());
}

TEST(StreamRemainingBytesTest, CountsAndHandlesConsumption) {
  std::istringstream in("0123456789");
  EXPECT_EQ(StreamRemainingBytes(in), 10);
  char buf[4];
  in.read(buf, 4);
  EXPECT_EQ(StreamRemainingBytes(in), 6);
  // The probe must not disturb the read position.
  in.read(buf, 2);
  EXPECT_EQ(buf[0], '4');
}

// ---------------------------------------------------------------------------
// Section framing

std::string FramedStream() {
  std::ostringstream out;
  SectionWriter writer(out, "TEST-MAGIC v1");
  EXPECT_TRUE(writer.Add("alpha", "first payload").ok());
  EXPECT_TRUE(writer.Add("beta", "").ok());
  EXPECT_TRUE(writer.Add("gamma", "payload\nwith\nnewlines\n").ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST(Sections, RoundTrip) {
  std::istringstream in(FramedStream());
  auto reader = SectionReader::Open(in, "TEST-MAGIC v1");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto alpha = reader->Expect("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->payload, "first payload");
  auto beta = reader->Expect("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->payload, "");
  auto gamma = reader->Expect("gamma");
  ASSERT_TRUE(gamma.ok());
  EXPECT_EQ(gamma->payload, "payload\nwith\nnewlines\n");
  auto end = reader->Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end->has_value());
  EXPECT_TRUE(reader->done());
}

TEST(Sections, WrongMagicRejected) {
  std::istringstream in(FramedStream());
  EXPECT_FALSE(SectionReader::Open(in, "OTHER-MAGIC").ok());
}

Status DrainReader(std::istream& in) {
  auto reader = SectionReader::Open(in, "TEST-MAGIC v1");
  if (!reader.ok()) return reader.status();
  while (!reader->done()) {
    auto next = reader->Next();
    if (!next.ok()) return next.status();
  }
  return Status::Ok();
}

TEST(Sections, EveryTruncationIsDetected) {
  const std::string intact = FramedStream();
  for (std::size_t len = 0; len < intact.size(); ++len) {
    std::istringstream in(intact.substr(0, len));
    const Status status = DrainReader(in);
    EXPECT_FALSE(status.ok()) << "truncation at byte " << len
                              << " went unnoticed";
  }
  std::istringstream in(intact);
  EXPECT_TRUE(DrainReader(in).ok());
}

TEST(Sections, EveryByteFlipIsDetected) {
  const std::string intact = FramedStream();
  for (std::size_t pos = 0; pos < intact.size(); ++pos) {
    std::string corrupted = intact;
    corrupted[pos] ^= 0x01;
    std::istringstream in(corrupted);
    const Status status = DrainReader(in);
    EXPECT_FALSE(status.ok()) << "byte flip at " << pos << " went unnoticed";
  }
}

TEST(Sections, CheckIntegrityReportsEverySection) {
  const std::string intact = FramedStream();
  {
    std::istringstream in(intact);
    const IntegrityReport report = CheckIntegrity(in, "TEST-");
    EXPECT_TRUE(report.overall.ok()) << report.overall.ToString();
    EXPECT_TRUE(report.manifest_ok);
    ASSERT_EQ(report.sections.size(), 3u);
    EXPECT_EQ(report.sections[0].name, "alpha");
    EXPECT_EQ(report.sections[1].name, "beta");
    EXPECT_EQ(report.sections[2].name, "gamma");
    for (const SectionCheck& check : report.sections) {
      EXPECT_TRUE(check.ok);
    }
  }
  {
    // Corrupt the first payload; the scan must keep going and still verify
    // the later sections individually.
    std::string corrupted = intact;
    const std::size_t payload_pos = corrupted.find("first payload");
    ASSERT_NE(payload_pos, std::string::npos);
    corrupted[payload_pos] ^= 0x01;
    std::istringstream in(corrupted);
    const IntegrityReport report = CheckIntegrity(in, "TEST-");
    EXPECT_EQ(report.overall.code(), StatusCode::kDataLoss);
    ASSERT_EQ(report.sections.size(), 3u);
    EXPECT_FALSE(report.sections[0].ok);
    EXPECT_TRUE(report.sections[1].ok);
    EXPECT_TRUE(report.sections[2].ok);
  }
}

// ---------------------------------------------------------------------------
// Model format v3

class ModelV3Test : public DurabilityTest {
 protected:
  static BepiSolver MakeSolver() {
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    options.tolerance = 1e-9;
    options.max_iterations = 300;
    options.gmres_restart = 100;
    return BepiSolver(options);
  }

  static std::string SaveToString(const BepiSolver& solver) {
    std::ostringstream out;
    EXPECT_TRUE(solver.Save(out).ok());
    return out.str();
  }
};

TEST_F(ModelV3Test, SaveProducesVerifiableSections) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2027);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  EXPECT_EQ(model.rfind("BEPI-MODEL v3\n", 0), 0u);
  std::istringstream in(model);
  const IntegrityReport report = CheckIntegrity(in, "BEPI-MODEL");
  EXPECT_TRUE(report.overall.ok()) << report.overall.ToString();
  EXPECT_TRUE(report.manifest_ok);
  // options + perm + 9 matrices + spoke blocks.
  EXPECT_EQ(report.sections.size(), 12u);
}

TEST_F(ModelV3Test, RoundTripIsBitwiseIdentical) {
  Graph g = test::SmallRmat(100, 430, 0.2, 2029);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string first = SaveToString(solver);
  std::istringstream in(first);
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveToString(*loaded), first);
  // And queries agree.
  auto r1 = solver.Query(11);
  auto r2 = loaded->Query(11);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(DistL2(*r1, *r2), 1e-12);
}

/// Older writers appended a "kernel" section (resolved index path plus
/// ILU(0) level schedules) ahead of "blocks". Rebuilds that layout from a
/// current model; loaders must skip the section and answer exactly as the
/// model without it does.
std::string WithLegacyKernelSection(const std::string& model, index_t n2) {
  std::ostringstream kernel;
  kernel << "path compact\n";
  // Fully sequential schedules: valid for any factor pattern.
  for (bool lower : {true, false}) {
    kernel << (lower ? "lower " : "upper ") << n2 << " " << n2 << "\n";
    for (index_t i = 0; i <= n2; ++i) kernel << i << (i == n2 ? '\n' : ' ');
    for (index_t i = 0; i < n2; ++i) {
      kernel << (lower ? i : n2 - 1 - i) << (i + 1 == n2 ? '\n' : ' ');
    }
  }
  std::istringstream in(model);
  auto reader = SectionReader::Open(in, "BEPI-MODEL v3");
  EXPECT_TRUE(reader.ok());
  std::ostringstream out;
  SectionWriter writer(out, "BEPI-MODEL v3");
  for (;;) {
    auto section = reader->Next();
    EXPECT_TRUE(section.ok());
    if (!section->has_value()) break;
    if ((*section)->name == "blocks") {
      EXPECT_TRUE(writer.Add("kernel", kernel.str()).ok());
    }
    EXPECT_TRUE(writer.Add((*section)->name, (*section)->payload).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST_F(ModelV3Test, LegacyKernelSectionIsSkippedOnLoad) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2027);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string plain = SaveToString(solver);
  ASSERT_GT(solver.decomposition().n2, 0);
  const std::string legacy =
      WithLegacyKernelSection(plain, solver.decomposition().n2);

  std::istringstream scan(legacy);
  const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
  EXPECT_TRUE(report.overall.ok()) << report.overall.ToString();
  EXPECT_TRUE(report.manifest_ok);
  ASSERT_EQ(report.sections.size(), 13u);
  EXPECT_EQ(report.sections[11].name, "kernel");
  for (const SectionCheck& check : report.sections) {
    EXPECT_TRUE(check.ok) << check.name;
  }

  std::istringstream plain_in(plain);
  auto from_plain = BepiSolver::Load(plain_in);
  ASSERT_TRUE(from_plain.ok()) << from_plain.status().ToString();
  std::istringstream legacy_in(legacy);
  auto from_legacy = BepiSolver::Load(legacy_in);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
  for (index_t seed : {0, 11, 57}) {
    auto a = from_plain->Query(seed);
    auto b = from_legacy->Query(seed);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "seed " << seed;
  }
  // Re-saving drops the section: the bytes match the plain model.
  EXPECT_EQ(SaveToString(*from_legacy), plain);
}

TEST_F(ModelV3Test, TruncationAtEverySectionBoundaryIsDataLossNotCrash) {
  Graph g = test::SmallRmat(70, 280, 0.2, 2039);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  std::istringstream scan(model);
  const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
  ASSERT_TRUE(report.overall.ok());
  std::vector<std::size_t> cut_points;
  for (const SectionCheck& check : report.sections) {
    cut_points.push_back(static_cast<std::size_t>(check.offset));
    cut_points.push_back(
        static_cast<std::size_t>(check.offset + check.length / 2));
  }
  cut_points.push_back(model.size() - 1);  // inside the manifest tail
  for (std::size_t cut : cut_points) {
    std::istringstream in(model.substr(0, cut));
    auto loaded = BepiSolver::Load(in);
    EXPECT_FALSE(loaded.ok()) << "truncation at byte " << cut;
  }
}

TEST_F(ModelV3Test, ByteFlipInEachSectionIsDataLossNamingTheSection) {
  Graph g = test::SmallRmat(70, 280, 0.2, 2053);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  std::istringstream scan(model);
  const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
  ASSERT_TRUE(report.overall.ok());
  for (const SectionCheck& check : report.sections) {
    if (check.length == 0) continue;
    // First payload byte: just past the "%section name len crc\n" header.
    const std::size_t header_end = model.find('\n', check.offset);
    ASSERT_NE(header_end, std::string::npos);
    std::string corrupted = model;
    corrupted[header_end + 1 + check.length / 2] ^= 0x01;
    std::istringstream in(corrupted);
    auto loaded = BepiSolver::Load(in);
    ASSERT_FALSE(loaded.ok()) << "flip in section " << check.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find(check.name), std::string::npos)
        << "DataLoss message does not name section '" << check.name
        << "': " << loaded.status().ToString();
  }
}

TEST_F(ModelV3Test, LoadCompatMatrixAcrossFormatVersions) {
  Graph g = test::SmallRmat(90, 370, 0.25, 2063);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto reference = solver.Query(5);
  ASSERT_TRUE(reference.ok());

  // Only the framed v3 format loads; the unframed v1/v2 text formats are
  // refused by header (preprocessing regenerates a model).
  std::istringstream v3(SaveToString(solver));
  auto loaded = BepiSolver::Load(v3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto result = loaded->Query(5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*reference, *result);
  for (const char* header : {"BEPI-MODEL v1", "BEPI-MODEL v2"}) {
    std::istringstream in(std::string(header) +
                          "\n2 0.05 1e-9 300 100 0.2\n");
    auto legacy = BepiSolver::Load(in);
    ASSERT_FALSE(legacy.ok()) << header;
    EXPECT_EQ(legacy.status().code(), StatusCode::kIoError) << header;
    EXPECT_NE(legacy.status().message().find("bad header"),
              std::string::npos)
        << header << ": " << legacy.status().ToString();
  }
}

TEST_F(ModelV3Test, LegacyLoadRejectsAllocationBombs) {
  // A node count far beyond the perm section's size must be rejected
  // before the permutation vector is allocated.
  {
    std::ostringstream out;
    SectionWriter writer(out, "BEPI-MODEL v3");
    ASSERT_TRUE(writer.Add("options", "2 0.05 1e-9 300 100 0.2\n").ok());
    ASSERT_TRUE(
        writer.Add("perm", "4000000000 4000000000 0 0\n1 2 3\n").ok());
    ASSERT_TRUE(writer.Finish().ok());
    std::istringstream in(out.str());
    auto loaded = BepiSolver::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().ToString().find("permutation data"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // A matrix size line claiming billions of entries in a tiny stream.
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "5 5 4000000000\n1 1 1.0\n");
    auto m = ReadMatrixMarket(in);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kIoError);
  }
  // Declared dimensions that contradict the expected shape are rejected
  // before allocation.
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "1000000 1000000 1\n1 1 1.0\n");
    auto m = ReadMatrixMarket(in, 5, 5);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kIoError);
  }
}

TEST_F(ModelV3Test, SaveFileIsAtomicAndLeavesNoTemp) {
  Graph g = test::SmallRmat(60, 240, 0.2, 2081);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string path = TempPath("model_v3.txt");
  ASSERT_TRUE(solver.SaveFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
  auto loaded = BepiSolver::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // A bit flip anywhere on the read path is caught by some checksum.
  FaultInjector::Global().Arm(fault_sites::kFileBitFlip, 0, 1);
  auto corrupted = BepiSolver::LoadFile(path);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kDataLoss)
      << corrupted.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ModelV3Test, SaveFileSurfacesShortWrite) {
  Graph g = test::SmallRmat(50, 200, 0.2, 2083);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string path = TempPath("model_torn.txt");
  FaultInjector::Global().Arm(fault_sites::kFileShortWrite, 0, 1);
  const Status status = solver.SaveFile(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace bepi
