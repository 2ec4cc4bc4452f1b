//===- solver/CompiledObjective.h - The solver kernel ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver kernel: lowers the ConstraintRows of a generated system
/// into an immutable, duplicate-coalesced CSR form and evaluates the
/// relaxed objective over it with a blocked, vectorized value sweep.
///
/// Compilation performs four lowerings:
///
///  1. **Canonicalization.** Each constraint Σ Lhs ≤ Σ Rhs + C becomes one
///     row Σ c_i·x_i ≤ C: Rhs terms move to the Lhs with negated
///     coefficients, terms are sorted by variable id, duplicate variables
///     are merged by summing coefficients (in double precision — the sum
///     of the original float coefficients is exact), and exact-zero
///     coefficients are dropped. Constraints are canonicalized a window at
///     a time into one reused term buffer (in parallel when a pool is
///     given); the pass makes no per-constraint allocation.
///
///  2. **Coalescing.** Big-code corpora instantiate the same (rep, role)
///     inequality thousands of times across files; canonically-identical
///     rows collapse into one row with an integer multiplicity. This is
///     exact: K identical hinges sum to K · max(0, V). Rows are found by a
///     64-bit hash of the canonical (C, var, coef) image in a flat
///     open-addressing table of row ids; equality is decided by comparing
///     the stored CSR row bitwise, never by the hash alone. Survivors keep
///     their first-occurrence order.
///
///  3. **CSR layout.** Survivors are stored in flat RowBegin / VarIdx /
///     Coef / Weight / C arrays.
///
///  4. **Blocked layout.** Within each shard, rows are stably sorted by
///     descending length and packed into SELL-C blocks of `Lanes` rows
///     (4 for the scalar and AVX2 tiers, 8 for AVX-512). A block stores its
///     coefficients lane-interleaved — entry (j, lane) at
///     `Off + j·Lanes + lane` — so one vector load per j advances every
///     lane's dot product by one term. Short lanes are padded with
///     (VarIdx 0, Coef 0.0) entries. The blocked operands are half-width
///     (16-bit variable ids, `float` coefficients) when the system has at
///     most 65,536 variables and every coefficient converts to `float` and
///     back unchanged, and full-width (32-bit ids, `double` coefficients)
///     otherwise. The compile picks the width once; the CSR arrays keep
///     full width either way.
///
/// A sweep runs the value pass over the blocks, storing each row's weighted
/// hinge H = Weight · max(V, 0), then an epilogue in the **original row
/// order** that sums H and scatters precomputed Weight·Coef products into
/// the gradient. The value pass is dispatched at construction to an
/// AVX-512, AVX2 or scalar tier (SELDON_SIMD=off|avx2 caps it). Why every
/// tier and every Jobs setting produce the same bits as a plain
/// row-at-a-time loop over the CSR rows:
///
///  * Each lane accumulates **its own row's** terms in CSR order,
///    `Acc = Acc + Coef·X` per step, with separate mul and add (no FMA —
///    CompiledObjective.cpp is built with -ffp-contract=off). A vector
///    add/mul rounds each lane independently, so the chain per row is the
///    same sequence of IEEE operations as a scalar loop.
///  * Half-width operands widen in-register before the same mul and add:
///    a zero-extended 16-bit id is the same index, and a `float`
///    coefficient converts to exactly the `double` it was narrowed from,
///    so every lane multiplies the same two doubles at either width.
///  * Padding appends `+ 0.0·X[0]` terms, which cannot change a finite
///    lane value (projection keeps X in [0, 1], so the product is +0.0 and
///    v + 0.0 == v for every finite v except -0.0 — and a row value of
///    ±0.0 is on the satisfied side of the `V <= 0` test either way).
///  * `max` then a separate multiply forms H; `H > 0` iff `V > 0` (weights
///    are ≥ 1), so H alone drives the epilogue.
///  * The epilogue accumulates H in ascending row order, skipping exact
///    zeros, and the scatter adds the `Weight · Coef` products — formed by
///    the same scalar multiply a row loop issues per term — to the same
///    variables in the same order. The AVX-512 tier first compacts the
///    violated rows with an order-preserving masked compress, which visits
///    the same rows in the same order without the per-row branch.
///  * Rows are sharded by a rule that depends only on the row count, and
///    shard partials are reduced in shard order.
///
/// Pins and the L1 term are applied in a flat epilogue over a `uint8_t`
/// mask.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_COMPILEDOBJECTIVE_H
#define SELDON_SOLVER_COMPILEDOBJECTIVE_H

#include "solver/Problem.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace seldon {

class ThreadPool;

namespace solver {

/// Shard partitioning rule: shards smaller than MinShardSize are not worth
/// a task dispatch; the cap bounds the per-shard gradient buffers
/// (MaxShards * NumVars doubles).
constexpr size_t MinShardSize = 1024;
constexpr size_t MaxShards = 32;

/// What the compilation pass did to the constraint system.
struct CompileStats {
  /// Constraints in the source system.
  size_t RowsBefore = 0;
  /// Rows surviving duplicate coalescing.
  size_t RowsAfter = 0;
  /// Terms (Lhs + Rhs) in the source system.
  size_t TermsBefore = 0;
  /// CSR entries after folding, merging, and coalescing.
  size_t NonZeros = 0;
  /// Largest multiplicity any coalesced row carries.
  size_t MaxMultiplicity = 0;

  /// Constraint-sweep traffic saved by coalescing: RowsBefore / RowsAfter.
  double dedupRatio() const {
    return RowsAfter == 0 ? 1.0
                          : static_cast<double>(RowsBefore) /
                                static_cast<double>(RowsAfter);
  }
};

/// The value-pass implementation a CompiledObjective dispatched to.
enum class KernelTier {
  Scalar, ///< Portable loops; the only tier on non-x86 or pre-AVX2 hosts.
  Avx2,   ///< 4 fp64 lanes per block.
  Avx512, ///< 8 fp64 lanes per block (AVX512F + AVX512VL).
};

/// Printable tier name: "scalar" | "avx2" | "avx512".
const char *kernelTierName(KernelTier Tier);

/// The relaxed objective of paper Eq. (9) over a compiled constraint
/// system.
class CompiledObjective {
public:
  /// Compiles \p Constraints (not retained), on \p Pool when set, which
  /// then also runs the sweeps (see setThreadPool). Throws
  /// std::runtime_error when the coalesced system overflows the 32-bit
  /// CSR offsets.
  CompiledObjective(size_t NumVars, const ConstraintRows &Constraints,
                    double Lambda, ThreadPool *Pool = nullptr);

  /// Evaluates sweeps on \p Pool (one task per shard); null reverts to
  /// serial execution with identical arithmetic. The pool must outlive
  /// the objective (or be reset to null first).
  void setThreadPool(ThreadPool *Pool) { this->Pool = Pool; }

  /// Pins variable \p Var to \p Value (seed labels). Pinned variables are
  /// reset by project() and carry no L1 penalty and no gradient.
  void pin(uint32_t Var, double Value);

  /// A feasible starting point: all zeros, pinned values applied.
  std::vector<double> initialPoint() const;

  /// The fused kernel: writes a subgradient into \p Grad
  /// (resized/zeroed) and returns the full objective value — hinge loss
  /// plus λ · Σ free x_v — in one constraint sweep.
  double valueAndGradient(const std::vector<double> &X,
                          std::vector<double> &Grad) const;

  /// Σ_r Weight_r · max(Σ c_i·x_i − C_r, 0).
  double hingeLoss(const std::vector<double> &X) const;

  /// Full objective: hinge loss + λ · Σ free x_v.
  double value(const std::vector<double> &X) const;

  /// Subgradient only (one sweep; prefer valueAndGradient in loops).
  void gradient(const std::vector<double> &X,
                std::vector<double> &Grad) const;

  /// Projects \p X onto the feasible set: clamps to [0, 1] and restores
  /// pinned values.
  void project(std::vector<double> &X) const;

  size_t numVars() const { return NumVars; }
  size_t numRows() const { return C.size(); }
  size_t numNonZeros() const { return VarIdx.size(); }
  double lambda() const { return Lambda; }
  bool isPinned(uint32_t Var) const { return Pinned[Var] != 0; }
  double pinnedValue(uint32_t Var) const { return PinnedValues[Var]; }
  const CompileStats &stats() const { return Stats; }
  size_t numShards() const { return Shards.size(); }

  /// The dispatched value-pass tier, fixed at construction.
  KernelTier tier() const { return Tier; }
  /// True when a vector tier (AVX2 or AVX-512) was dispatched.
  bool simdActive() const { return Tier != KernelTier::Scalar; }
  /// True when the value pass reads half-width operands (16-bit ids and
  /// float coefficients), fixed at construction.
  bool narrowOperands() const { return Narrow; }
  /// The best tier this host supports, capped by SELDON_SIMD
  /// (off|0|scalar forces Scalar, avx2 caps at Avx2). Read per call.
  static KernelTier hostTier();

  /// Read-only views of the compiled CSR rows (tests and diagnostics).
  const std::vector<uint32_t> &rowBegin() const { return RowBegin; }
  const std::vector<uint32_t> &varIdx() const { return VarIdx; }
  const std::vector<double> &coef() const { return Coef; }
  const std::vector<double> &weight() const { return Weight; }
  const std::vector<double> &rowConstant() const { return C; }

  /// Blocked-layout shape (tests and diagnostics).
  size_t numBlocks() const { return BlockWidth.size(); }
  size_t lanesPerBlock() const { return Lanes; }
  /// Padded entries the blocking added on top of numNonZeros().
  size_t paddedEntries() const {
    return (Narrow ? Half.Idx.size() : Full.Idx.size()) - VarIdx.size();
  }

private:
  /// The blocked variable ids and coefficients at one operand width.
  template <class IdxT, class ValT> struct Operands {
    std::vector<IdxT> Idx;
    std::vector<ValT> Val;
  };

  /// Row range [Begin, End) and its block range [BlockBegin, BlockEnd).
  struct Shard {
    size_t Begin = 0;
    size_t End = 0;
    size_t BlockBegin = 0;
    size_t BlockEnd = 0;
  };

  /// Runs \p Body(0 .. N-1) on the pool when set, else serially.
  void forEach(size_t N, const std::function<void(size_t)> &Body) const;

  /// Canonicalizes and coalesces \p Constraints into the CSR arrays.
  void compileRows(const ConstraintRows &Constraints);

  /// Builds the shards and the sliced layout from the CSR arrays.
  void buildBlocks();

  /// Runs the blocked value pass for one shard, storing each row's
  /// weighted hinge into RowHinge (indexed by original row).
  void valuePass(const Shard &S, const double *X) const;

  /// Original-order pass over rows [Begin, End): hinge total and (when
  /// \p GradOut is non-null) the gradient scatter.
  double shardEpilogue(size_t Begin, size_t End, double *GradOut) const;

  /// Runs every shard (on the pool when set) and reduces hinge partials
  /// and gradient buffers in shard order.
  double sweep(const std::vector<double> &X, bool WithGradient,
               std::vector<double> *Grad) const;

  size_t NumVars;
  double Lambda;
  KernelTier Tier;
  size_t Lanes;
  bool Narrow = false;

  /// CSR rows: row R spans [RowBegin[R], RowBegin[R + 1]) in VarIdx/Coef.
  std::vector<uint32_t> RowBegin;
  std::vector<uint32_t> VarIdx;
  std::vector<double> Coef;
  /// Integer multiplicity of each coalesced row (kept as double so the
  /// kernel never converts).
  std::vector<double> Weight;
  /// Row constants (the C of Σ c_i·x_i ≤ C).
  std::vector<double> C;

  /// Sliced layout. Block b covers lanes BlockRows[b·Lanes .. +Lanes)
  /// (Sentinel = numRows marks a padding lane), has width BlockWidth[b]
  /// and operands at BlockOff[b], lane-interleaved, in Half when Narrow
  /// and in Full otherwise (the other pair stays empty).
  std::vector<size_t> BlockOff;
  std::vector<uint32_t> BlockWidth;
  std::vector<uint32_t> BlockRows;
  Operands<uint32_t, double> Full;
  Operands<uint16_t, float> Half;
  std::vector<double> BNegC; ///< −C per lane.
  std::vector<double> BW;    ///< Weight per lane.
  /// Weight·Coef per CSR entry, in CSR order: the gradient scatter's
  /// operands.
  std::vector<double> WCoef;

  /// Flat pin mask (1 = pinned) and the pinned values.
  std::vector<uint8_t> Pinned;
  std::vector<double> PinnedValues;

  CompileStats Stats;

  std::vector<Shard> Shards;
  ThreadPool *Pool = nullptr;

  /// Per-row weighted hinge from the value pass (original row index).
  mutable std::vector<double> RowHinge;
  /// Violated-row compaction scratch for the AVX-512 epilogue; each
  /// shard writes only its own [Begin, End) subrange, so parallel sweeps
  /// never share a region.
  mutable std::vector<uint32_t> RScratch;
  mutable std::vector<double> HScratch;
  /// Per-shard reduction buffers, reused across iterations (only used
  /// when more than one shard exists).
  mutable std::vector<std::vector<double>> ShardGrad;
  mutable std::vector<double> ShardHinge;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_COMPILEDOBJECTIVE_H
