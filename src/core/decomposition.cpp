#include "core/decomposition.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/checkpoint.hpp"
#include "core/rwr.hpp"
#include "graph/deadend.hpp"
#include "graph/slashburn.hpp"
#include "sparse/coo.hpp"
#include "sparse/io.hpp"
#include "sparse/spgemm.hpp"
#include "solver/dense_lu.hpp"

namespace bepi {
namespace {

// Checkpoint stage names (file names under the checkpoint directory).
constexpr char kStageDeadend[] = "deadend";
constexpr char kStageSlashBurnRound[] = "slashburn.round";
constexpr char kStageReorder[] = "reorder";
constexpr char kStageFactor[] = "factor";
constexpr char kStageSchur[] = "schur";

using CheckpointSections = std::map<std::string, std::string>;

/// Dense LU without pivoting, valid for the strictly diagonally dominant
/// H11 blocks. Returns packed LU (L unit-lower below the diagonal, U on
/// and above).
Status FactorNoPivot(DenseMatrix* a) {
  const index_t n = a->rows();
  for (index_t k = 0; k < n; ++k) {
    const real_t pivot = a->At(k, k);
    if (pivot == 0.0) {
      return Status::FailedPrecondition("zero pivot in H11 block LU");
    }
    for (index_t i = k + 1; i < n; ++i) {
      const real_t factor = a->At(i, k) / pivot;
      a->At(i, k) = factor;
      if (factor == 0.0) continue;
      for (index_t j = k + 1; j < n; ++j) {
        a->At(i, j) -= factor * a->At(k, j);
      }
    }
  }
  return Status::Ok();
}

Result<const std::string*> FindPayload(const CheckpointSections& sections,
                                       const std::string& name) {
  auto it = sections.find(name);
  if (it == sections.end()) {
    return Status::DataLoss("checkpoint lacks a '" + name + "' section");
  }
  return &it->second;
}

Status DecodeDeadend(const CheckpointSections& sections, index_t n,
                     DeadendPartition* out) {
  BEPI_ASSIGN_OR_RETURN(const std::string* counts,
                        FindPayload(sections, "counts"));
  std::istringstream in(*counts);
  if (!(in >> out->num_non_deadends >> out->num_deadends)) {
    return Status::DataLoss("malformed deadend counts");
  }
  BEPI_ASSIGN_OR_RETURN(const std::string* perm,
                        FindPayload(sections, "perm"));
  BEPI_ASSIGN_OR_RETURN(out->perm, DecodeIndexVector(*perm));
  if (out->num_non_deadends < 0 || out->num_deadends < 0 ||
      out->num_non_deadends + out->num_deadends != n ||
      static_cast<index_t>(out->perm.size()) != n ||
      !IsPermutation(out->perm)) {
    return Status::DataLoss("deadend checkpoint is inconsistent");
  }
  return Status::Ok();
}

Status DecodeSlashBurnRound(const CheckpointSections& sections, index_t nn,
                            SlashBurnResult* out) {
  BEPI_ASSIGN_OR_RETURN(const std::string* counts,
                        FindPayload(sections, "counts"));
  std::istringstream in(*counts);
  if (!(in >> out->num_spokes >> out->num_hubs >> out->iterations)) {
    return Status::DataLoss("malformed SlashBurn round counts");
  }
  BEPI_ASSIGN_OR_RETURN(const std::string* perm,
                        FindPayload(sections, "perm"));
  BEPI_ASSIGN_OR_RETURN(out->perm, DecodeIndexVector(*perm));
  BEPI_ASSIGN_OR_RETURN(const std::string* blocks,
                        FindPayload(sections, "blocks"));
  BEPI_ASSIGN_OR_RETURN(out->block_sizes, DecodeIndexVector(*blocks));
  if (static_cast<index_t>(out->perm.size()) != nn) {
    return Status::DataLoss("SlashBurn round checkpoint is inconsistent");
  }
  // Deeper consistency (assigned-id accounting) is re-validated by
  // SlashBurn() itself before the state is trusted.
  return Status::Ok();
}

Status DecodeReorder(const CheckpointSections& sections,
                     HubSpokeDecomposition* dec) {
  BEPI_ASSIGN_OR_RETURN(const std::string* sizes,
                        FindPayload(sections, "sizes"));
  std::istringstream in(*sizes);
  index_t n = -1;
  if (!(in >> n >> dec->n1 >> dec->n2 >> dec->n3 >>
        dec->slashburn_iterations)) {
    return Status::DataLoss("malformed reorder sizes");
  }
  BEPI_ASSIGN_OR_RETURN(const std::string* perm,
                        FindPayload(sections, "perm"));
  BEPI_ASSIGN_OR_RETURN(dec->perm, DecodeIndexVector(*perm));
  BEPI_ASSIGN_OR_RETURN(const std::string* blocks,
                        FindPayload(sections, "blocks"));
  BEPI_ASSIGN_OR_RETURN(dec->block_sizes, DecodeIndexVector(*blocks));
  index_t block_sum = 0;
  for (index_t size : dec->block_sizes) {
    if (size <= 0) return Status::DataLoss("non-positive block size");
    block_sum += size;
  }
  if (n != dec->n || dec->n1 < 0 || dec->n2 < 0 || dec->n3 < 0 ||
      dec->n1 + dec->n2 + dec->n3 != dec->n || block_sum != dec->n1 ||
      static_cast<index_t>(dec->perm.size()) != dec->n ||
      !IsPermutation(dec->perm)) {
    return Status::DataLoss("reorder checkpoint is inconsistent");
  }
  return Status::Ok();
}

void AppendCsrToCoo(const CsrMatrix& m, CooMatrix* out) {
  for (index_t r = 0; r < m.rows(); ++r) {
    for (index_t p = m.row_ptr()[static_cast<std::size_t>(r)];
         p < m.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
      out->Add(r, m.col_idx()[static_cast<std::size_t>(p)],
               m.values()[static_cast<std::size_t>(p)]);
    }
  }
}

Status DecodeFactor(const CheckpointSections& sections, index_t n1,
                    std::size_t num_blocks, std::size_t* blocks_done,
                    CooMatrix* l1, CooMatrix* u1) {
  BEPI_ASSIGN_OR_RETURN(const std::string* progress,
                        FindPayload(sections, "progress"));
  std::istringstream in(*progress);
  std::uint64_t done = 0;
  if (!(in >> done) || done > num_blocks) {
    return Status::DataLoss("malformed factor progress");
  }
  BEPI_ASSIGN_OR_RETURN(const std::string* l1_payload,
                        FindPayload(sections, "l1"));
  BEPI_ASSIGN_OR_RETURN(CsrMatrix l1_csr, DecodeCsr(*l1_payload, n1, n1));
  BEPI_ASSIGN_OR_RETURN(const std::string* u1_payload,
                        FindPayload(sections, "u1"));
  BEPI_ASSIGN_OR_RETURN(CsrMatrix u1_csr, DecodeCsr(*u1_payload, n1, n1));
  AppendCsrToCoo(l1_csr, l1);
  AppendCsrToCoo(u1_csr, u1);
  *blocks_done = static_cast<std::size_t>(done);
  return Status::Ok();
}

Status WriteFactorCsrCheckpoint(CheckpointManager* checkpoints,
                                std::size_t blocks_done,
                                const CsrMatrix& l1_csr,
                                const CsrMatrix& u1_csr) {
  std::ostringstream progress;
  progress << blocks_done << "\n";
  return checkpoints->Write(kStageFactor, {{"progress", progress.str()},
                                           {"l1", EncodeCsr(l1_csr)},
                                           {"u1", EncodeCsr(u1_csr)}});
}

Status WriteFactorCheckpoint(CheckpointManager* checkpoints,
                             std::size_t blocks_done, const CooMatrix& l1,
                             const CooMatrix& u1) {
  // Partial COO state round-trips through sorted CSR; the final ToCsr()
  // sorts anyway, so the resumed run converges to the same matrices.
  BEPI_ASSIGN_OR_RETURN(CsrMatrix l1_csr, l1.ToCsr());
  BEPI_ASSIGN_OR_RETURN(CsrMatrix u1_csr, u1.ToCsr());
  return WriteFactorCsrCheckpoint(checkpoints, blocks_done, l1_csr, u1_csr);
}

/// Checkpoint writes are best-effort: a failure costs durability of this
/// resume point, never the run. (The checkpoint.crash SIGKILL site fires
/// inside Write itself, after a successful commit.)
void WarnOnCheckpointFailure(const Status& status, const char* stage) {
  if (!status.ok()) {
    BEPI_LOG(Warning) << "checkpoint write for stage '" << stage
                      << "' failed: " << status.ToString();
  }
}

void WarnOnResumeFailure(const Status& status, const char* stage) {
  BEPI_LOG(Warning) << "ignoring checkpoint for stage '" << stage
                    << "': " << status.ToString();
}

}  // namespace

Vector HubSpokeDecomposition::ApplyH11Inverse(const Vector& v) const {
  return u1_inv.Multiply(l1_inv.Multiply(v));
}

std::uint64_t HubSpokeDecomposition::CommonBytes() const {
  return l1_inv.ByteSize() + u1_inv.ByteSize() + h12.ByteSize() +
         h21.ByteSize() + h31.ByteSize() + h32.ByteSize();
}

Vector DecompositionKernels::ApplyH11Inverse(const Vector& v) const {
  return u1_inv.Multiply(l1_inv.Multiply(v));
}

void DecompositionKernels::ApplyH11InverseMulti(const real_t* v, index_t k,
                                                real_t* out,
                                                std::vector<real_t>* tmp) const {
  tmp->resize(static_cast<std::size_t>(l1_inv.rows()) *
              static_cast<std::size_t>(k));
  l1_inv.MultiplyMulti(v, k, tmp->data());
  u1_inv.MultiplyMulti(tmp->data(), k, out);
}

std::uint64_t DecompositionKernels::OwnedBytes() const {
  return l1_inv.ByteSize() + u1_inv.ByteSize() + h12.ByteSize() +
         h21.ByteSize() + h31.ByteSize() + h32.ByteSize() + schur.ByteSize();
}

DecompositionKernels BindDecompositionKernels(const HubSpokeDecomposition& dec,
                                              KernelPath requested) {
  DecompositionKernels k;
  const bool fits = FitsCompact(dec.l1_inv) && FitsCompact(dec.u1_inv) &&
                    FitsCompact(dec.h12) && FitsCompact(dec.h21) &&
                    FitsCompact(dec.h31) && FitsCompact(dec.h32) &&
                    FitsCompact(dec.schur);
  if (requested == KernelPath::kWide) {
    k.path = KernelPath::kWide;
    k.reason = "wide requested";
  } else if (fits) {
    k.path = KernelPath::kCompact;
    k.reason = requested == KernelPath::kCompact
                   ? "compact requested"
                   : "auto: all query matrices fit 32-bit indices";
  } else {
    k.path = KernelPath::kWide;
    k.reason = requested == KernelPath::kCompact
                   ? "compact requested but matrices exceed 32-bit limits"
                   : "auto: matrices exceed 32-bit limits";
  }
  k.l1_inv = KernelCsr::Bind(dec.l1_inv, k.path);
  k.u1_inv = KernelCsr::Bind(dec.u1_inv, k.path);
  k.h12 = KernelCsr::Bind(dec.h12, k.path);
  k.h21 = KernelCsr::Bind(dec.h21, k.path);
  k.h31 = KernelCsr::Bind(dec.h31, k.path);
  k.h32 = KernelCsr::Bind(dec.h32, k.path);
  k.schur = KernelCsr::Bind(dec.schur, k.path);
  return k;
}

Result<HubSpokeDecomposition> BuildDecomposition(
    const Graph& g, const DecompositionOptions& options, MemoryBudget* budget,
    CheckpointManager* checkpoints) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (!(options.restart_prob > 0.0) || !(options.restart_prob < 1.0)) {
    return Status::InvalidArgument("restart probability must be in (0, 1)");
  }
  HubSpokeDecomposition dec;
  dec.n = g.num_nodes();
  Timer timer;
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->Expired();
  };
  const auto cancel_status = [&options](const char* where) {
    return options.cancel->ToStatus(std::string("preprocess (") + where + ")");
  };

  // One span per pipeline stage, advanced at the same boundaries as the
  // stage timers so the exported trace mirrors the seconds breakdown.
  std::optional<TraceSpan> stage_span;
  stage_span.emplace("preprocess.reorder");

  // Steps 1+2: deadend reordering (Section 3.2.1) then hub-and-spoke
  // reordering of Ann via SlashBurn. A "reorder" checkpoint holds the
  // combined outcome and skips both.
  bool reorder_resumed = false;
  if (checkpoints != nullptr) {
    Result<CheckpointSections> ckpt = checkpoints->Read(kStageReorder);
    if (ckpt.ok()) {
      const Status decoded = DecodeReorder(*ckpt, &dec);
      if (decoded.ok()) {
        reorder_resumed = true;
      } else {
        WarnOnResumeFailure(decoded, kStageReorder);
      }
    }
  }
  if (!reorder_resumed) {
    DeadendPartition deadends;
    bool deadend_resumed = false;
    if (checkpoints != nullptr) {
      Result<CheckpointSections> ckpt = checkpoints->Read(kStageDeadend);
      if (ckpt.ok()) {
        const Status decoded = DecodeDeadend(*ckpt, dec.n, &deadends);
        if (decoded.ok()) {
          deadend_resumed = true;
        } else {
          WarnOnResumeFailure(decoded, kStageDeadend);
        }
      }
    }
    if (!deadend_resumed) {
      TraceSpan deadend_span("preprocess.deadend_reorder");
      deadends = ReorderDeadends(g);
      deadend_span.Arg("deadends", deadends.num_deadends);
      if (checkpoints != nullptr) {
        std::ostringstream counts;
        counts << deadends.num_non_deadends << " " << deadends.num_deadends
               << "\n";
        WarnOnCheckpointFailure(
            checkpoints->Write(kStageDeadend,
                               {{"counts", counts.str()},
                                {"perm", EncodeIndexVector(deadends.perm)}}),
            kStageDeadend);
      }
    }
    dec.n3 = deadends.num_deadends;
    const index_t nn = deadends.num_non_deadends;

    BEPI_ASSIGN_OR_RETURN(
        CsrMatrix a_deadend_ordered,
        PermuteSymmetric(g.adjacency(), deadends.perm));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix ann,
                          ExtractBlock(a_deadend_ordered, 0, nn, 0, nn));
    SlashBurnOptions sb_options;
    sb_options.k_ratio = options.hub_ratio;
    sb_options.hub_selection = options.hub_selection;
    sb_options.max_iterations = options.slashburn_max_iterations;
    // Round-level resume only makes sense for deterministic hub selection;
    // kRandom would diverge from the uninterrupted run (slashburn.hpp).
    SlashBurnResult round_state;
    const bool resumable =
        checkpoints != nullptr &&
        options.hub_selection == SlashBurnOptions::HubSelection::kDegree;
    Timer since_round_ckpt;
    if (resumable) {
      Result<CheckpointSections> ckpt =
          checkpoints->Read(kStageSlashBurnRound);
      if (ckpt.ok()) {
        const Status decoded = DecodeSlashBurnRound(*ckpt, nn, &round_state);
        if (decoded.ok()) {
          sb_options.resume_from = &round_state;
        } else {
          WarnOnResumeFailure(decoded, kStageSlashBurnRound);
        }
      }
      sb_options.round_hook = [&](const SlashBurnResult& partial) -> Status {
        // A cancellation (SIGINT) commits the round immediately — the
        // interval only throttles steady-state snapshots — so the resumed
        // run restarts from this exact round.
        const bool cancel_now = cancelled();
        if (!cancel_now &&
            since_round_ckpt.Seconds() < options.checkpoint_interval_seconds) {
          return Status::Ok();
        }
        std::ostringstream counts;
        counts << partial.num_spokes << " " << partial.num_hubs << " "
               << partial.iterations << "\n";
        WarnOnCheckpointFailure(
            checkpoints->Write(
                kStageSlashBurnRound,
                {{"counts", counts.str()},
                 {"perm", EncodeIndexVector(partial.perm)},
                 {"blocks", EncodeIndexVector(partial.block_sizes)}}),
            kStageSlashBurnRound);
        since_round_ckpt.Restart();
        if (cancel_now) return cancel_status("slashburn");
        return Status::Ok();
      };
    } else if (options.cancel != nullptr) {
      // No checkpointing (or non-resumable hub selection): still honour
      // the token at round boundaries, just without a snapshot to commit.
      sb_options.round_hook = [&](const SlashBurnResult&) -> Status {
        if (cancelled()) return cancel_status("slashburn");
        return Status::Ok();
      };
    }
    std::optional<TraceSpan> slashburn_span;
    slashburn_span.emplace("preprocess.slashburn");
    Result<SlashBurnResult> sb_result = SlashBurn(ann, sb_options);
    if (!sb_result.ok() && sb_options.resume_from != nullptr) {
      // A checkpoint that passed its checksum but fails SlashBurn's own
      // consistency validation is recomputed, not fatal.
      WarnOnResumeFailure(sb_result.status(), kStageSlashBurnRound);
      sb_options.resume_from = nullptr;
      sb_result = SlashBurn(ann, sb_options);
    }
    BEPI_ASSIGN_OR_RETURN(SlashBurnResult sb, std::move(sb_result));
    slashburn_span->Arg("rounds", sb.iterations);
    slashburn_span->Arg("hubs", sb.num_hubs);
    slashburn_span->Arg("spokes", sb.num_spokes);
    slashburn_span.reset();
    dec.n1 = sb.num_spokes;
    dec.n2 = sb.num_hubs;
    dec.block_sizes = std::move(sb.block_sizes);
    dec.slashburn_iterations = sb.iterations;

    // Full permutation: SlashBurn order on non-deadends, deadends
    // unchanged.
    Permutation hub_spoke_perm = IdentityPermutation(dec.n);
    for (index_t i = 0; i < nn; ++i) {
      hub_spoke_perm[static_cast<std::size_t>(i)] =
          sb.perm[static_cast<std::size_t>(i)];
    }
    dec.perm = ComposePermutations(hub_spoke_perm, deadends.perm);

    if (checkpoints != nullptr) {
      std::ostringstream sizes;
      sizes << dec.n << " " << dec.n1 << " " << dec.n2 << " " << dec.n3
            << " " << dec.slashburn_iterations << "\n";
      WarnOnCheckpointFailure(
          checkpoints->Write(kStageReorder,
                             {{"sizes", sizes.str()},
                              {"perm", EncodeIndexVector(dec.perm)},
                              {"blocks", EncodeIndexVector(dec.block_sizes)}}),
          kStageReorder);
      // The reorder snapshot supersedes its inputs; drop them so the
      // directory only holds live resume points.
      checkpoints->Invalidate(kStageSlashBurnRound);
      checkpoints->Invalidate(kStageDeadend);
    }
  }
  dec.reorder_seconds = timer.Seconds();
  // Stage boundary: the reorder checkpoint (if any) is durable, so an
  // interrupted run resumes directly into the factor stage.
  if (cancelled()) return cancel_status("reorder");
  stage_span->Arg("n1", dec.n1);
  stage_span->Arg("n2", dec.n2);
  stage_span->Arg("n3", dec.n3);
  stage_span.emplace("preprocess.build_h");

  // Step 3: H = I - (1-c) Ã^T in the new ordering (the normalization uses
  // the original out-degrees; edges to deadends count). Cheap relative to
  // factoring, so it is recomputed rather than checkpointed.
  timer.Restart();
  BEPI_ASSIGN_OR_RETURN(
      CsrMatrix normalized_perm,
      PermuteSymmetric(g.RowNormalizedAdjacency(), dec.perm));
  CsrMatrix h = BuildHFromNormalized(normalized_perm, options.restart_prob);

  // Step 4: partition H per Equation (5).
  const index_t b1 = dec.n1;
  const index_t b2 = dec.n1 + dec.n2;
  const index_t b3 = dec.n;
  BEPI_ASSIGN_OR_RETURN(dec.h11, ExtractBlock(h, 0, b1, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h12, ExtractBlock(h, 0, b1, b1, b2));
  BEPI_ASSIGN_OR_RETURN(dec.h21, ExtractBlock(h, b1, b2, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h22, ExtractBlock(h, b1, b2, b1, b2));
  BEPI_ASSIGN_OR_RETURN(dec.h31, ExtractBlock(h, b2, b3, 0, b1));
  BEPI_ASSIGN_OR_RETURN(dec.h32, ExtractBlock(h, b2, b3, b1, b2));
  if (budget != nullptr) {
    BEPI_RETURN_IF_ERROR(
        budget->Charge(dec.h12.ByteSize() + dec.h21.ByteSize() +
                           dec.h31.ByteSize() + dec.h32.ByteSize(),
                       "partition blocks of H"));
  }
  dec.build_seconds = timer.Seconds();
  stage_span.emplace("preprocess.block_lu");
  stage_span->Arg("blocks",
                  static_cast<std::int64_t>(dec.block_sizes.size()));

  // Step 5: per-block LU of H11 with explicitly inverted factors
  // (r1 = U1^{-1} (L1^{-1} ...) in the query phase). The "factor"
  // checkpoint records how many whole blocks are already inverted.
  timer.Restart();
  if (budget != nullptr) {
    std::uint64_t projected = 0;
    for (index_t size : dec.block_sizes) {
      const std::uint64_t s = static_cast<std::uint64_t>(size);
      // L^{-1} and U^{-1} of a block are triangular: ~s^2 values + indices.
      projected += s * s * (sizeof(real_t) + sizeof(index_t)) + 2 * s * 8;
    }
    BEPI_RETURN_IF_ERROR(budget->Charge(projected, "inverted LU factors of H11"));
  }
  const std::size_t num_blocks = dec.block_sizes.size();
  CooMatrix l1_coo(dec.n1, dec.n1), u1_coo(dec.n1, dec.n1);
  std::size_t blocks_done = 0;
  if (checkpoints != nullptr) {
    Result<CheckpointSections> ckpt = checkpoints->Read(kStageFactor);
    if (ckpt.ok()) {
      const Status decoded = DecodeFactor(*ckpt, dec.n1, num_blocks,
                                          &blocks_done, &l1_coo, &u1_coo);
      if (!decoded.ok()) {
        WarnOnResumeFailure(decoded, kStageFactor);
        blocks_done = 0;
        l1_coo = CooMatrix(dec.n1, dec.n1);
        u1_coo = CooMatrix(dec.n1, dec.n1);
      }
    }
  }
  const std::size_t blocks_resumed = blocks_done;
  index_t block_start = 0;
  for (std::size_t b = 0; b < blocks_resumed; ++b) {
    block_start += dec.block_sizes[b];
  }
  Timer since_factor_ckpt;
  // Each diagonal block factors independently, so blocks are farmed to the
  // thread pool in bounded batches; the COO staging buffers are then
  // appended serially in block order between batches. That keeps the
  // factor checkpoint's prefix-count semantics (blocks_done whole blocks,
  // in order) and the checkpoint bytes identical to a serial run, while
  // bounding the extra memory to one batch of dense inverses. Without a
  // pool the batch size is 1 — exactly the old one-block-at-a-time loop.
  struct BlockFactors {
    DenseMatrix l_inv{0, 0};
    DenseMatrix u_inv{0, 0};
    Status status = Status::Ok();
  };
  ThreadPool* pool = ParallelContext::Global().pool();
  const std::size_t max_batch_blocks =
      pool == nullptr ? 1 : 4 * static_cast<std::size_t>(pool->size());
  // A whole batch of dense factors is alive at once (working copy plus
  // L^{-1}/U^{-1}, each size^2 doubles per block), so batches are also
  // capped by bytes: the memory budget's remaining headroom when one is
  // set, a fixed default otherwise. A single block always proceeds — that
  // matches the serial baseline's peak.
  constexpr std::uint64_t kDefaultBatchBytes = 256ull << 20;
  std::uint64_t batch_byte_cap = kDefaultBatchBytes;
  if (budget != nullptr && !budget->unlimited()) {
    const std::uint64_t headroom =
        budget->budget_bytes() > budget->used_bytes()
            ? budget->budget_bytes() - budget->used_bytes()
            : 0;
    batch_byte_cap = std::min(kDefaultBatchBytes, headroom);
  }
  const auto block_transient_bytes = [&dec](std::size_t b) {
    const std::uint64_t s = static_cast<std::uint64_t>(dec.block_sizes[b]);
    return 3 * s * s * static_cast<std::uint64_t>(sizeof(real_t));
  };
  std::vector<index_t> block_starts(num_blocks, 0);
  {
    index_t start = 0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      block_starts[b] = start;
      start += dec.block_sizes[b];
    }
  }
  for (std::size_t batch_begin = blocks_resumed; batch_begin < num_blocks;) {
    std::size_t batch_end = batch_begin + 1;
    std::uint64_t batch_bytes = block_transient_bytes(batch_begin);
    while (batch_end < num_blocks &&
           batch_end - batch_begin < max_batch_blocks &&
           batch_bytes + block_transient_bytes(batch_end) <= batch_byte_cap) {
      batch_bytes += block_transient_bytes(batch_end);
      ++batch_end;
    }
    std::vector<BlockFactors> factors(batch_end - batch_begin);
    ParallelFor(
        static_cast<index_t>(batch_begin), static_cast<index_t>(batch_end), 1,
        [&](index_t bb, index_t be) {
          for (index_t b = bb; b < be; ++b) {
            BlockFactors& out =
                factors[static_cast<std::size_t>(b) - batch_begin];
            out.status = [&]() -> Status {
              const index_t start =
                  block_starts[static_cast<std::size_t>(b)];
              const index_t size = dec.block_sizes[static_cast<std::size_t>(b)];
              BEPI_ASSIGN_OR_RETURN(
                  CsrMatrix block_csr,
                  ExtractBlock(dec.h11, start, start + size, start,
                               start + size));
              DenseMatrix block = block_csr.ToDense();
              BEPI_RETURN_IF_ERROR(FactorNoPivot(&block));
              BEPI_ASSIGN_OR_RETURN(
                  out.l_inv,
                  InvertLowerTriangular(block, /*unit_diagonal=*/true));
              BEPI_ASSIGN_OR_RETURN(out.u_inv, InvertUpperTriangular(block));
              return Status::Ok();
            }();
          }
        });
    for (std::size_t b = batch_begin; b < batch_end; ++b) {
      const BlockFactors& f = factors[b - batch_begin];
      BEPI_RETURN_IF_ERROR(f.status);
      const index_t size = dec.block_sizes[b];
      BEPI_CHECK(block_start == block_starts[b]);
      for (index_t i = 0; i < size; ++i) {
        for (index_t j = 0; j <= i; ++j) {
          const real_t lv = i == j ? 1.0 : f.l_inv.At(i, j);
          if (lv != 0.0) l1_coo.Add(block_start + i, block_start + j, lv);
          const real_t uv = f.u_inv.At(j, i);
          if (uv != 0.0) u1_coo.Add(block_start + j, block_start + i, uv);
        }
      }
      block_start += size;
      ++blocks_done;
      // Cancellation commits the factor progress made so far (interval
      // ignored) before aborting, so the resumed run continues from block
      // blocks_done instead of the last interval snapshot.
      const bool cancel_now = cancelled();
      if (checkpoints != nullptr && blocks_done < num_blocks &&
          (cancel_now || since_factor_ckpt.Seconds() >=
                             options.checkpoint_interval_seconds)) {
        WarnOnCheckpointFailure(
            WriteFactorCheckpoint(checkpoints, blocks_done, l1_coo, u1_coo),
            kStageFactor);
        since_factor_ckpt.Restart();
      }
      if (cancel_now) return cancel_status("factor");
    }
    batch_begin = batch_end;
  }
  BEPI_CHECK(block_start == dec.n1);
  BEPI_ASSIGN_OR_RETURN(dec.l1_inv, l1_coo.ToCsr());
  BEPI_ASSIGN_OR_RETURN(dec.u1_inv, u1_coo.ToCsr());
  if (checkpoints != nullptr && blocks_resumed < num_blocks) {
    // The stage-boundary snapshot reuses the assembled CSR factors rather
    // than re-sorting the COO staging buffers a second time.
    WarnOnCheckpointFailure(
        WriteFactorCsrCheckpoint(checkpoints, num_blocks, dec.l1_inv,
                                 dec.u1_inv),
        kStageFactor);
  }
  dec.factor_seconds = timer.Seconds();
  // Stage boundary: the assembled factor checkpoint is durable.
  if (cancelled()) return cancel_status("factor");
  stage_span.emplace("preprocess.schur");

  // Step 6: Schur complement S = H22 - H21 (U1^{-1} (L1^{-1} H12)).
  timer.Restart();
  bool schur_resumed = false;
  if (checkpoints != nullptr) {
    Result<CheckpointSections> ckpt = checkpoints->Read(kStageSchur);
    if (ckpt.ok()) {
      const Status decoded = [&]() -> Status {
        BEPI_ASSIGN_OR_RETURN(const std::string* meta,
                              FindPayload(*ckpt, "meta"));
        std::istringstream in(*meta);
        if (!(in >> dec.product_nnz) || dec.product_nnz < 0) {
          return Status::DataLoss("malformed Schur metadata");
        }
        BEPI_ASSIGN_OR_RETURN(const std::string* schur,
                              FindPayload(*ckpt, "schur"));
        BEPI_ASSIGN_OR_RETURN(dec.schur, DecodeCsr(*schur, dec.n2, dec.n2));
        return Status::Ok();
      }();
      if (decoded.ok()) {
        schur_resumed = true;
      } else {
        WarnOnResumeFailure(decoded, kStageSchur);
      }
    }
  }
  if (!schur_resumed) {
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t1, Multiply(dec.l1_inv, dec.h12));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t2, Multiply(dec.u1_inv, t1));
    BEPI_ASSIGN_OR_RETURN(CsrMatrix t3, Multiply(dec.h21, t2));
    dec.product_nnz = t3.nnz();
    BEPI_ASSIGN_OR_RETURN(dec.schur, Subtract(dec.h22, t3));
    if (checkpoints != nullptr) {
      std::ostringstream meta;
      meta << dec.product_nnz << "\n";
      WarnOnCheckpointFailure(
          checkpoints->Write(kStageSchur, {{"meta", meta.str()},
                                           {"schur", EncodeCsr(dec.schur)}}),
          kStageSchur);
    }
  }
  if (budget != nullptr) {
    BEPI_RETURN_IF_ERROR(budget->Charge(dec.schur.ByteSize(),
                                        "Schur complement S"));
  }
  dec.schur_seconds = timer.Seconds();
  stage_span->Arg("schur_nnz", dec.schur.nnz());
  stage_span->Arg("resumed", static_cast<std::int64_t>(schur_resumed));
  return dec;
}

}  // namespace bepi
