// Binary codec for the CSR matrices and index vectors the durable stores
// (model format v4, preprocessing checkpoints) hold. A payload is the raw
// little-endian arrays, so a round-trip is exact by construction and
// decoding is a length check plus a memcpy per array:
//
//   CSR:          int64 rows, cols, nnz
//                 int64 row_ptr[rows + 1]
//                 int64 col_idx[nnz]
//                 double values[nnz]       (IEEE-754 binary64)
//   index vector: int64 count
//                 int64 entries[count]
//
// The payload carries no checksum of its own: the section framing
// (common/sections.hpp) around it does.
#ifndef BEPI_SPARSE_IO_HPP_
#define BEPI_SPARSE_IO_HPP_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "sparse/csr.hpp"

namespace bepi {

std::string EncodeCsr(const CsrMatrix& m);

/// Decodes an EncodeCsr payload. Before anything is allocated, the header
/// must declare exactly `expect_rows` x `expect_cols` (when >= 0) and the
/// payload length must be exactly the one the header implies; the arrays
/// are then validated (monotone row_ptr, sorted unique in-range columns).
/// Every failure is DataLoss.
Result<CsrMatrix> DecodeCsr(std::string_view payload, index_t expect_rows = -1,
                            index_t expect_cols = -1);

std::string EncodeIndexVector(const std::vector<index_t>& v);

/// Decodes an EncodeIndexVector payload; the length must match the count
/// exactly. Failures are DataLoss.
Result<std::vector<index_t>> DecodeIndexVector(std::string_view payload);

}  // namespace bepi

#endif  // BEPI_SPARSE_IO_HPP_
