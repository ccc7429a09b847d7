#include "common/sections.hpp"

#include <charconv>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/checksum.hpp"
#include "common/fileio.hpp"

namespace bepi {
namespace {

constexpr std::string_view kSectionTag = "%section ";
constexpr std::string_view kManifestTag = "%manifest ";
constexpr std::string_view kEntryTag = "%entry ";
constexpr std::string_view kEndTag = "%end";

std::string HexCrc(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool ParseU64(std::string_view token, std::uint64_t* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool ParseHex32(std::string_view token, std::uint32_t* out) {
  if (token.empty() || token.size() > 8) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out, 16);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Splits a header line (after its tag) into exactly `want` blank-separated
/// tokens.
bool SplitFields(std::string_view text, std::string_view* tokens,
                 std::size_t want) {
  std::size_t found = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(' ', pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find(' ', start);
    if (end == std::string_view::npos) end = text.size();
    if (found == want) return false;
    tokens[found++] = text.substr(start, end - start);
    pos = end;
  }
  return found == want;
}

/// A section as a %section header line or a manifest %entry line
/// describes it.
struct Entry {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

bool ParseSectionHeader(std::string_view line, std::uint64_t offset,
                        Entry* out) {
  if (!line.starts_with(kSectionTag)) return false;
  std::string_view fields[3];
  if (!SplitFields(line.substr(kSectionTag.size()), fields, 3)) return false;
  if (!ParseU64(fields[1], &out->length) || !ParseHex32(fields[2], &out->crc)) {
    return false;
  }
  out->name = std::string(fields[0]);
  out->offset = offset;
  return true;
}

/// The line starting at `*pos` without its newline, advancing `*pos` past
/// the newline; nullopt (and `*pos` unchanged) when no newline follows.
std::optional<std::string_view> TakeLine(std::string_view data,
                                         std::size_t* pos) {
  const std::size_t end = data.find('\n', *pos);
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view line = data.substr(*pos, end - *pos);
  *pos = end + 1;
  return line;
}

/// The payload `header` announces, starting at `*pos`, which must be
/// followed by the block's closing newline; advances `*pos` past it. The
/// checksum is left to the caller.
Result<std::string_view> TakePayload(std::string_view data, std::size_t* pos,
                                     const Entry& header) {
  const std::size_t remaining = data.size() - *pos;
  if (header.length >= remaining) {
    return Status::DataLoss(
        "section '" + header.name + "' at offset " +
        std::to_string(header.offset) + " claims " +
        std::to_string(header.length) + " bytes but only " +
        std::to_string(remaining) + " remain (truncated?)");
  }
  const std::size_t length = static_cast<std::size_t>(header.length);
  if (data[*pos + length] != '\n') {
    return Status::DataLoss("section '" + header.name + "' at offset " +
                            std::to_string(header.offset) +
                            " is truncated");
  }
  const std::string_view payload = data.substr(*pos, length);
  *pos += length + 1;
  return payload;
}

struct Manifest {
  std::vector<Entry> entries;
  bool crc_ok = false;  // the entry lines match the manifest's checksum
  bool end_ok = false;  // a complete %end line follows them
};

/// Parses the manifest whose header `line` (at `offset`) was just taken:
/// its entry lines and the end marker after them. Structural damage is
/// DataLoss; checksum and end-marker verdicts are left to the caller.
Result<Manifest> TakeManifest(std::string_view data, std::size_t* pos,
                              std::string_view line, std::uint64_t offset) {
  std::string_view fields[2];
  std::uint64_t count = 0;
  std::uint32_t manifest_crc = 0;
  if (!SplitFields(line.substr(kManifestTag.size()), fields, 2) ||
      !ParseU64(fields[0], &count) || !ParseHex32(fields[1], &manifest_crc)) {
    return Status::DataLoss("malformed manifest header at offset " +
                            std::to_string(offset) + ": " +
                            std::string(line));
  }
  Manifest manifest;
  std::string entry_lines;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::optional<std::string_view> entry = TakeLine(data, pos);
    if (!entry.has_value()) {
      return Status::DataLoss("truncated manifest: " + std::to_string(i) +
                              " of " + std::to_string(count) +
                              " entries present");
    }
    entry_lines += *entry;
    entry_lines += '\n';
    std::string_view entry_fields[4];
    Entry parsed;
    if (!entry->starts_with(kEntryTag) ||
        !SplitFields(entry->substr(kEntryTag.size()), entry_fields, 4) ||
        !ParseU64(entry_fields[1], &parsed.offset) ||
        !ParseU64(entry_fields[2], &parsed.length) ||
        !ParseHex32(entry_fields[3], &parsed.crc)) {
      return Status::DataLoss("malformed manifest entry: " +
                              std::string(*entry));
    }
    parsed.name = std::string(entry_fields[0]);
    manifest.entries.push_back(std::move(parsed));
  }
  manifest.crc_ok = Crc32c::Compute(entry_lines) == manifest_crc;
  const std::optional<std::string_view> end = TakeLine(data, pos);
  manifest.end_ok = end.has_value() && *end == kEndTag;
  return manifest;
}

std::string EntryLine(std::string_view name, std::uint64_t offset,
                      std::uint64_t length, std::uint32_t crc) {
  std::ostringstream line;
  line << kEntryTag << name << " " << offset << " " << length << " "
       << HexCrc(crc) << "\n";
  return line.str();
}

}  // namespace

SectionWriter::SectionWriter(std::ostream& out, std::string_view magic)
    : out_(out) {
  out_ << magic << "\n";
  offset_ = magic.size() + 1;
}

Status SectionWriter::Add(std::string_view name, std::string_view payload) {
  if (finished_) {
    return Status::FailedPrecondition("SectionWriter already finished");
  }
  if (name.empty() || name.find_first_of(" \t\n") != std::string_view::npos) {
    return Status::InvalidArgument("bad section name: '" + std::string(name) +
                                   "'");
  }
  const std::uint32_t crc = Crc32c::Compute(payload);
  std::ostringstream header;
  header << kSectionTag << name << " " << payload.size() << " " << HexCrc(crc)
         << "\n";
  const std::string header_text = header.str();
  entries_.push_back(
      {std::string(name), offset_, payload.size(), crc});
  out_ << header_text;
  out_.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
  out_ << "\n";
  offset_ += header_text.size() + payload.size() + 1;
  if (!out_) {
    return Status::IoError("failed writing section '" + std::string(name) +
                           "'");
  }
  return Status::Ok();
}

Status SectionWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("SectionWriter already finished");
  }
  finished_ = true;
  std::string entry_lines;
  for (const Entry& e : entries_) {
    entry_lines += EntryLine(e.name, e.offset, e.length, e.crc);
  }
  out_ << kManifestTag << entries_.size() << " "
       << HexCrc(Crc32c::Compute(entry_lines)) << "\n"
       << entry_lines << kEndTag << "\n";
  out_.flush();
  if (!out_) return Status::IoError("failed writing section manifest");
  return Status::Ok();
}

Result<SectionReader> SectionReader::Open(std::string_view data,
                                          std::string_view expected_magic) {
  std::size_t pos = 0;
  const std::optional<std::string_view> magic = TakeLine(data, &pos);
  if (!magic.has_value() || *magic != expected_magic) {
    return Status::IoError(
        "bad magic: expected '" + std::string(expected_magic) + "', got '" +
        std::string(magic.value_or(data).substr(0, 64)) + "'");
  }
  return SectionReader(data, pos);
}

Result<std::optional<Section>> SectionReader::Next() {
  if (done_) return std::optional<Section>();
  const std::uint64_t header_offset = pos_;
  const std::optional<std::string_view> line = TakeLine(data_, &pos_);
  if (!line.has_value()) {
    return Status::DataLoss(
        "truncated stream at offset " + std::to_string(header_offset) +
        ": section header or manifest missing");
  }

  if (line->starts_with(kManifestTag)) {
    // Trailing manifest: verify its own checksum, the end marker, and that
    // it agrees with every section header we already verified.
    BEPI_ASSIGN_OR_RETURN(Manifest manifest,
                          TakeManifest(data_, &pos_, *line, header_offset));
    if (!manifest.crc_ok) {
      return Status::DataLoss("manifest checksum mismatch at offset " +
                              std::to_string(header_offset));
    }
    if (!manifest.end_ok) {
      return Status::DataLoss("missing end marker after manifest");
    }
    if (manifest.entries.size() != seen_.size()) {
      return Status::DataLoss(
          "manifest lists " + std::to_string(manifest.entries.size()) +
          " sections but the stream holds " + std::to_string(seen_.size()));
    }
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      const Entry& entry = manifest.entries[i];
      if (entry.name != seen_[i].name || entry.offset != seen_[i].offset ||
          entry.length != seen_[i].length || entry.crc != seen_[i].crc) {
        return Status::DataLoss("manifest disagrees with section '" +
                                seen_[i].name + "' at offset " +
                                std::to_string(seen_[i].offset));
      }
    }
    done_ = true;
    return std::optional<Section>();
  }

  Entry header;
  if (!ParseSectionHeader(*line, header_offset, &header)) {
    return Status::DataLoss("malformed section header at offset " +
                            std::to_string(header_offset) + ": " +
                            std::string(*line));
  }
  BEPI_ASSIGN_OR_RETURN(std::string_view payload,
                        TakePayload(data_, &pos_, header));
  const std::uint32_t actual = Crc32c::Compute(payload);
  if (actual != header.crc) {
    return Status::DataLoss("section '" + header.name + "' at offset " +
                            std::to_string(header_offset) +
                            " failed its checksum: stored " +
                            HexCrc(header.crc) + ", computed " +
                            HexCrc(actual));
  }
  seen_.push_back({header.name, header_offset, header.length, header.crc});
  return std::optional<Section>(
      Section{header.name, payload, header_offset, header.crc});
}

Result<Section> SectionReader::Expect(std::string_view expected_name) {
  BEPI_ASSIGN_OR_RETURN(std::optional<Section> section, Next());
  if (!section.has_value()) {
    return Status::DataLoss("missing section '" + std::string(expected_name) +
                            "': stream ended early");
  }
  if (section->name != expected_name) {
    return Status::DataLoss("expected section '" + std::string(expected_name) +
                            "', found '" + section->name + "' at offset " +
                            std::to_string(section->offset));
  }
  return std::move(*section);
}

IntegrityReport CheckIntegrity(std::istream& in,
                               std::string_view magic_prefix) {
  IntegrityReport report;
  Result<std::string> read = ReadStreamToString(in);
  if (!read.ok()) {
    report.overall = read.status();
    return report;
  }
  const std::string data = std::move(read).value();
  report.overall = Status::Ok();
  std::size_t pos = 0;
  const std::optional<std::string_view> magic = TakeLine(data, &pos);
  if (!magic.has_value() || !magic->starts_with(magic_prefix)) {
    report.overall = Status::IoError(
        "bad magic: expected a '" + std::string(magic_prefix) +
        "...' file, got '" +
        std::string(magic.value_or(data).substr(0, 64)) + "'");
    return report;
  }
  report.magic = std::string(*magic);

  auto note = [&report](Status problem) {
    if (report.overall.ok()) report.overall = std::move(problem);
  };

  bool saw_manifest = false;
  for (;;) {
    const std::uint64_t header_offset = pos;
    const std::optional<std::string_view> line = TakeLine(data, &pos);
    if (!line.has_value()) break;
    if (line->starts_with(kManifestTag)) {
      // Re-verify the manifest against what was actually scanned.
      saw_manifest = true;
      Result<Manifest> manifest =
          TakeManifest(data, &pos, *line, header_offset);
      if (!manifest.ok()) {
        note(manifest.status());
        return report;
      }
      report.manifest_ok = manifest->crc_ok && manifest->end_ok &&
                           manifest->entries.size() == report.sections.size();
      if (!report.manifest_ok) {
        note(Status::DataLoss(
            !manifest->crc_ok
                ? "manifest checksum mismatch"
                : (!manifest->end_ok ? "missing end marker after manifest"
                                     : "manifest section count mismatch")));
      }
      break;
    }
    Entry header;
    if (!ParseSectionHeader(*line, header_offset, &header)) {
      note(Status::DataLoss("malformed section header at offset " +
                            std::to_string(header_offset) + ": " +
                            std::string(*line)));
      return report;
    }
    SectionCheck check;
    check.name = header.name;
    check.offset = header_offset;
    check.length = header.length;
    check.stored_crc = header.crc;
    Result<std::string_view> payload = TakePayload(data, &pos, header);
    if (!payload.ok()) {
      report.sections.push_back(check);
      note(payload.status());
      return report;
    }
    check.actual_crc = Crc32c::Compute(*payload);
    check.ok = check.actual_crc == check.stored_crc;
    if (!check.ok) {
      note(Status::DataLoss("section '" + header.name + "' at offset " +
                            std::to_string(header_offset) +
                            " failed its checksum"));
    }
    report.sections.push_back(std::move(check));
  }
  if (!saw_manifest) {
    note(Status::DataLoss("truncated stream: manifest missing"));
  }
  return report;
}

}  // namespace bepi
