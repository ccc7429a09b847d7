#include "core/checkpoint.hpp"

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/checksum.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/log.hpp"
#include "common/sections.hpp"
#include "common/timer.hpp"

namespace bepi {
namespace {

constexpr char kCheckpointMagic[] = "BEPI-CKPT v2";

/// Stage names become file names; anything outside [A-Za-z0-9_.-] is
/// mapped to '_' (stages like "factor" and "slashburn.round" pass through).
std::string SanitizeStage(const std::string& stage) {
  std::string out = stage;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!keep) c = '_';
  }
  return out;
}

std::string FingerprintHex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir) : dir_(std::move(dir)) {}

std::string CheckpointManager::FilePath(const std::string& stage) const {
  return dir_ + "/" + SanitizeStage(stage) + ".ckpt";
}

Status CheckpointManager::Write(
    const std::string& stage,
    const std::vector<std::pair<std::string, std::string>>& sections) {
  Timer timer;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir_ + ": " +
                           ec.message());
  }
  AtomicFileWriter writer(FilePath(stage));
  BEPI_RETURN_IF_ERROR(writer.status());
  SectionWriter framer(writer.stream(), kCheckpointMagic);
  std::ostringstream meta;
  meta << "fingerprint " << FingerprintHex(fingerprint_) << "\n"
       << "stage " << stage << "\n";
  BEPI_RETURN_IF_ERROR(framer.Add("meta", meta.str()));
  for (const auto& [name, payload] : sections) {
    BEPI_RETURN_IF_ERROR(framer.Add(name, payload));
  }
  BEPI_RETURN_IF_ERROR(framer.Finish());
  BEPI_RETURN_IF_ERROR(writer.Commit());
  ++written_;
  write_seconds_ += timer.Seconds();
  if (BEPI_FAULT_INJECTED(fault_sites::kCheckpointCrash)) {
    // The kill-and-resume harness arms this site to die *after* a durable
    // commit — the hardest crash point a resume must survive.
    std::raise(SIGKILL);
  }
  return Status::Ok();
}

Result<std::map<std::string, std::string>> CheckpointManager::Read(
    const std::string& stage) {
  const std::string path = FilePath(stage);
  const Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    return Status::NotFound("no checkpoint for stage '" + stage + "'");
  }
  auto invalid = [&](const Status& why) {
    BEPI_LOG(Warning) << "ignoring checkpoint " << path << ": "
                      << why.ToString();
    return Status::NotFound("checkpoint for stage '" + stage +
                            "' is unusable: " + why.ToString());
  };
  Result<SectionReader> reader =
      SectionReader::Open(*content, kCheckpointMagic);
  if (!reader.ok()) return invalid(reader.status());
  Result<Section> meta = reader->Expect("meta");
  if (!meta.ok()) return invalid(meta.status());
  std::istringstream meta_stream{std::string(meta->payload)};
  std::string key, fingerprint_hex, stage_key, stored_stage;
  meta_stream >> key >> fingerprint_hex >> stage_key >> stored_stage;
  if (key != "fingerprint" ||
      fingerprint_hex != FingerprintHex(fingerprint_) ||
      stage_key != "stage" || stored_stage != stage) {
    return invalid(Status::FailedPrecondition(
        "stale checkpoint (graph or options changed)"));
  }
  std::map<std::string, std::string> result;
  for (;;) {
    Result<std::optional<Section>> next = reader->Next();
    if (!next.ok()) return invalid(next.status());
    if (!next->has_value()) break;
    result[(*next)->name] = std::string((*next)->payload);
  }
  ++resumed_;
  return result;
}

void CheckpointManager::Invalidate(const std::string& stage) {
  std::remove(FilePath(stage).c_str());
}

std::uint64_t PreprocessFingerprint(const Graph& g,
                                    const std::string& options_tag) {
  const CsrMatrix& a = g.adjacency();
  Crc32c structure;
  const index_t shape[2] = {a.rows(), a.cols()};
  structure.Update(shape, sizeof(shape));
  structure.Update(a.row_ptr().data(),
                   a.row_ptr().size() * sizeof(index_t));
  structure.Update(a.col_idx().data(),
                   a.col_idx().size() * sizeof(index_t));
  structure.Update(a.values().data(), a.values().size() * sizeof(real_t));
  Crc32c tagged;
  const std::uint32_t structure_crc = structure.Value();
  tagged.Update(&structure_crc, sizeof(structure_crc));
  tagged.Update(options_tag);
  return static_cast<std::uint64_t>(structure.Value()) << 32 |
         tagged.Value();
}

}  // namespace bepi
