#include "sparse/io.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace bepi {
namespace {

// The payloads are the in-memory arrays byte for byte, so the format is
// only portable between hosts with this layout. Every supported target
// has it; a big-endian port would need byte swapping here.
static_assert(std::endian::native == std::endian::little,
              "binary CSR payloads assume a little-endian host");
static_assert(sizeof(index_t) == 8 && sizeof(real_t) == 8,
              "binary CSR payloads hold 8-byte indices and values");

constexpr std::size_t kWord = 8;
constexpr std::size_t kCsrHeaderBytes = 3 * kWord;

template <typename T>
void Append(std::string* out, const T* data, std::size_t count) {
  if (count == 0) return;
  out->append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

/// Copies `count` elements from `payload` at `*offset` and advances it.
/// Callers have already checked the payload length.
template <typename T>
void Take(std::string_view payload, std::size_t* offset, T* out,
          std::size_t count) {
  if (count == 0) return;
  std::memcpy(out, payload.data() + *offset, count * sizeof(T));
  *offset += count * sizeof(T);
}

}  // namespace

std::string EncodeCsr(const CsrMatrix& m) {
  const index_t header[3] = {m.rows(), m.cols(), m.nnz()};
  std::string out;
  out.reserve(kCsrHeaderBytes +
              kWord * (m.row_ptr().size() + 2 * m.values().size()));
  Append(&out, header, 3);
  Append(&out, m.row_ptr().data(), m.row_ptr().size());
  Append(&out, m.col_idx().data(), m.col_idx().size());
  Append(&out, m.values().data(), m.values().size());
  return out;
}

Result<CsrMatrix> DecodeCsr(std::string_view payload, index_t expect_rows,
                            index_t expect_cols) {
  if (payload.size() < kCsrHeaderBytes) {
    return Status::DataLoss("CSR payload of " +
                            std::to_string(payload.size()) +
                            " bytes is shorter than its header");
  }
  std::size_t offset = 0;
  index_t header[3];
  Take(payload, &offset, header, 3);
  const index_t rows = header[0], cols = header[1], nnz = header[2];
  if (rows < 0 || cols < 0 || nnz < 0) {
    return Status::DataLoss("CSR payload declares a negative dimension");
  }
  if ((expect_rows >= 0 && rows != expect_rows) ||
      (expect_cols >= 0 && cols != expect_cols)) {
    return Status::DataLoss(
        "CSR payload is " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", expected " + std::to_string(expect_rows) +
        "x" + std::to_string(expect_cols));
  }
  // The exact length must be 24 + 8 (rows + 1) + 16 nnz. Bounding each
  // count by the words present first keeps the sum from overflowing, and
  // nothing is allocated for a header the payload cannot back.
  const std::uint64_t words = (payload.size() - kCsrHeaderBytes) / kWord;
  const std::uint64_t r = static_cast<std::uint64_t>(rows);
  const std::uint64_t z = static_cast<std::uint64_t>(nnz);
  if (payload.size() % kWord != 0 || r + 1 > words || z > words ||
      r + 1 + 2 * z != words) {
    return Status::DataLoss(
        "CSR payload of " + std::to_string(payload.size()) +
        " bytes does not match its header (" + std::to_string(rows) + "x" +
        std::to_string(cols) + ", " + std::to_string(nnz) + " entries)");
  }
  std::vector<index_t> row_ptr(static_cast<std::size_t>(r) + 1);
  std::vector<index_t> col_idx(static_cast<std::size_t>(z));
  std::vector<real_t> values(static_cast<std::size_t>(z));
  Take(payload, &offset, row_ptr.data(), row_ptr.size());
  Take(payload, &offset, col_idx.data(), col_idx.size());
  Take(payload, &offset, values.data(), values.size());
  Result<CsrMatrix> m = CsrMatrix::FromParts(
      rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
  if (!m.ok()) {
    return Status::DataLoss("CSR payload is not a valid matrix: " +
                            m.status().message());
  }
  return m;
}

std::string EncodeIndexVector(const std::vector<index_t>& v) {
  const index_t count = static_cast<index_t>(v.size());
  std::string out;
  out.reserve(kWord * (v.size() + 1));
  Append(&out, &count, 1);
  Append(&out, v.data(), v.size());
  return out;
}

Result<std::vector<index_t>> DecodeIndexVector(std::string_view payload) {
  if (payload.size() < kWord || payload.size() % kWord != 0) {
    return Status::DataLoss("index vector payload of " +
                            std::to_string(payload.size()) +
                            " bytes is not a whole number of int64 words");
  }
  std::size_t offset = 0;
  index_t count = 0;
  Take(payload, &offset, &count, 1);
  if (count < 0 ||
      static_cast<std::uint64_t>(count) != payload.size() / kWord - 1) {
    return Status::DataLoss("index vector claims " + std::to_string(count) +
                            " entries in a " +
                            std::to_string(payload.size()) + "-byte payload");
  }
  std::vector<index_t> v(static_cast<std::size_t>(count));
  Take(payload, &offset, v.data(), v.size());
  return v;
}

}  // namespace bepi
