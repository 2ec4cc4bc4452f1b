//===- solver/CompiledObjective.cpp - The solver kernel -------------------===//
//
// Built with -ffp-contract=off (src/CMakeLists.txt): the bit-identity
// contract needs every mul and add below to round separately, and the
// AVX-512 target enables FMA, which contraction would otherwise fuse
// through the intrinsics.
//
//===----------------------------------------------------------------------===//

#include "solver/CompiledObjective.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SELDON_X86 1
#else
#define SELDON_X86 0
#endif

using namespace seldon;
using namespace seldon::solver;

namespace {

/// One canonical term: (variable, merged coefficient).
using CanonicalTerm = std::pair<uint32_t, double>;

/// Canonicalizes one constraint into \p Terms, which has room for all of
/// its Lhs and Rhs terms, and returns the canonical length: folds Rhs into
/// Lhs with negated coefficients, sorts by variable id, merges duplicates
/// by summing their coefficients in double (float + float is exact in
/// double), and drops terms whose merged coefficient cancelled to exactly
/// zero. -0.0 cannot survive: a zero sum is dropped.
size_t canonicalize(const LinearConstraint &LC, CanonicalTerm *Terms) {
  size_t N = 0;
  for (const Term &T : LC.Lhs)
    Terms[N++] = {T.Var, static_cast<double>(T.Coef)};
  for (const Term &T : LC.Rhs)
    Terms[N++] = {T.Var, -static_cast<double>(T.Coef)};
  std::sort(Terms, Terms + N,
            [](const auto &A, const auto &B) { return A.first < B.first; });

  size_t Out = 0;
  for (size_t I = 0; I < N;) {
    uint32_t Var = Terms[I].first;
    double Sum = 0.0;
    for (; I < N && Terms[I].first == Var; ++I)
      Sum += Terms[I].second;
    if (Sum != 0.0)
      Terms[Out++] = {Var, Sum};
  }
  return Out;
}

uint64_t bitsOf(double V) { return std::bit_cast<uint64_t>(V); }

uint64_t mixWord(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9E3779B97F4A7C15ULL;
  return H ^ (H >> 32);
}

/// 64-bit hash of a canonical row image (C, then each var and coef).
uint64_t hashRow(double C, const CanonicalTerm *Terms, size_t N) {
  uint64_t H = mixWord(0x243F6A8885A308D3ULL, bitsOf(C));
  for (size_t I = 0; I < N; ++I)
    H = mixWord(mixWord(H, Terms[I].first), bitsOf(Terms[I].second));
  // Finalizer (MurmurHash3 fmix64): every input bit reaches the low bits
  // the table indexes by.
  H ^= H >> 33;
  H *= 0xFF51AFD7ED558CCDULL;
  H ^= H >> 33;
  H *= 0xC4CEB9FE1A85EC53ULL;
  return H ^ (H >> 33);
}

/// RowBegin/VarIdx are uint32_t; a corpus past ~4.29B rows or non-zeros
/// would silently wrap the offsets and corrupt every row after the
/// overflow point. Compilation checks against this limit and fails with a
/// descriptive error instead. SELDON_TEST_CSR_LIMIT lowers the limit so
/// the guard can be unit-tested without allocating four billion entries.
uint64_t csrIndexLimit() {
  if (const char *Env = std::getenv("SELDON_TEST_CSR_LIMIT")) {
    char *End = nullptr;
    unsigned long long V = std::strtoull(Env, &End, 10);
    if (End != Env && *End == '\0' && V > 0)
      return V;
  }
  return std::numeric_limits<uint32_t>::max();
}

/// True when the blocked operands can be half-width without moving a bit:
/// every variable id fits 16 bits and every coefficient is a float. (The
/// range test comes first: narrowing a double past float's range is
/// undefined.)
bool fitsHalfWidth(size_t NumVars, const std::vector<double> &Coef) {
  if (NumVars > size_t(std::numeric_limits<uint16_t>::max()) + 1)
    return false;
  return std::all_of(Coef.begin(), Coef.end(), [](double V) {
    return std::fabs(V) <= std::numeric_limits<float>::max() &&
           bitsOf(static_cast<double>(static_cast<float>(V))) == bitsOf(V);
  });
}

// The value-pass tiers, each one template over the operand widths
// (uint32_t ids with double coefficients, or uint16_t with float). Each
// widens its operands to 32-bit indices and doubles, accumulates a lane's
// row in CSR term order with separate mul and add, then forms the
// weighted hinge Weight·max(V, 0) — a max followed by a separate
// multiply — so every tier at either width stores bit-identical per-row
// values.

template <class IdxT, class ValT>
void valuePassScalar(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                     const uint32_t *Width, const uint32_t *Rows,
                     const double *NegC, const double *Wt, const IdxT *Idx,
                     const ValT *Val, const double *X, uint32_t Sentinel,
                     double *RowHinge) {
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const size_t O = Off[B];
    const uint32_t W = Width[B];
    double Acc[4];
    for (int L = 0; L < 4; ++L)
      Acc[L] = NegC[4 * B + L];
    // Unrolled, so the four accumulators stay in registers at either
    // width.
    for (uint32_t J = 0; J < W; ++J)
#pragma GCC unroll 4
      for (int L = 0; L < 4; ++L)
        Acc[L] += static_cast<double>(Val[O + 4 * J + L]) *
                  X[Idx[O + 4 * J + L]];
    for (int L = 0; L < 4; ++L) {
      const uint32_t R = Rows[4 * B + L];
      // (Acc > 0 ? Acc : +0.0) mirrors vmaxpd's exact zero handling.
      if (R != Sentinel)
        RowHinge[R] = Wt[4 * B + L] * (Acc[L] > 0.0 ? Acc[L] : 0.0);
    }
  }
}

#if SELDON_X86

// Four lanes' operands for the AVX2 tier: ids as 32-bit lanes (a 16-bit
// id zero-extends), coefficients as doubles (a float converts exactly).
__attribute__((target("avx2"))) inline __m128i loadIdx4(const uint32_t *P) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
}
__attribute__((target("avx2"))) inline __m128i loadIdx4(const uint16_t *P) {
  return _mm_cvtepu16_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i *>(P)));
}
__attribute__((target("avx2"))) inline __m256d loadVal4(const double *P) {
  return _mm256_loadu_pd(P);
}
__attribute__((target("avx2"))) inline __m256d loadVal4(const float *P) {
  return _mm256_cvtps_pd(_mm_loadu_ps(P));
}

template <class IdxT, class ValT>
__attribute__((target("avx2")))
void valuePassAvx2(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                   const uint32_t *Width, const uint32_t *Rows,
                   const double *NegC, const double *Wt, const IdxT *Idx,
                   const ValT *Val, const double *X, uint32_t Sentinel,
                   double *RowHinge) {
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const uint32_t W = Width[B];
    const IdxT *IdxP = Idx + Off[B];
    const ValT *ValP = Val + Off[B];
    __m256d Acc = _mm256_loadu_pd(NegC + 4 * B);
    for (uint32_t J = 0; J < W; ++J) {
      __m256d Xv = _mm256_i32gather_pd(X, loadIdx4(IdxP + 4 * J), 8);
      __m256d Cv = loadVal4(ValP + 4 * J);
      Acc = _mm256_add_pd(Acc, _mm256_mul_pd(Cv, Xv));
    }
    __m256d Wv = _mm256_loadu_pd(Wt + 4 * B);
    __m256d Hv =
        _mm256_mul_pd(Wv, _mm256_max_pd(Acc, _mm256_setzero_pd()));
    alignas(32) double Lane[4];
    _mm256_store_pd(Lane, Hv);
    for (int L = 0; L < 4; ++L) {
      const uint32_t R = Rows[4 * B + L];
      if (R != Sentinel)
        RowHinge[R] = Lane[L];
    }
  }
}

// Eight lanes' operands for the AVX-512 tier, widened as loadIdx4 and
// loadVal4 do.
__attribute__((target("avx512f,avx512vl"))) inline __m256i
loadIdx8(const uint32_t *P) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
}
__attribute__((target("avx512f,avx512vl"))) inline __m256i
loadIdx8(const uint16_t *P) {
  return _mm256_cvtepu16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(P)));
}
__attribute__((target("avx512f,avx512vl"))) inline __m512d
loadVal8(const double *P) {
  return _mm512_loadu_pd(P);
}
__attribute__((target("avx512f,avx512vl"))) inline __m512d
loadVal8(const float *P) {
  return _mm512_cvtps_pd(_mm256_loadu_ps(P));
}

// The AVX-512 tier: the same per-lane arithmetic at twice the width, with
// masked scatter stores replacing the scalar sentinel branch. Rows within
// a block are distinct, so the scatter never conflicts.
template <class IdxT, class ValT>
__attribute__((target("avx512f,avx512vl")))
void valuePassAvx512(size_t BlockBegin, size_t BlockEnd, const size_t *Off,
                     const uint32_t *Width, const uint32_t *Rows,
                     const double *NegC, const double *Wt, const IdxT *Idx,
                     const ValT *Val, const double *X, uint32_t Sentinel,
                     double *RowHinge) {
  const __m256i Sent = _mm256_set1_epi32(static_cast<int>(Sentinel));
  for (size_t B = BlockBegin; B < BlockEnd; ++B) {
    const uint32_t W = Width[B];
    const IdxT *IdxP = Idx + Off[B];
    const ValT *ValP = Val + Off[B];
    __m512d Acc = _mm512_loadu_pd(NegC + 8 * B);
    for (uint32_t J = 0; J < W; ++J) {
      __m512d Xv = _mm512_i32gather_pd(loadIdx8(IdxP + 8 * J), X, 8);
      __m512d Cv = loadVal8(ValP + 8 * J);
      Acc = _mm512_add_pd(Acc, _mm512_mul_pd(Cv, Xv));
    }
    __m512d Wv = _mm512_loadu_pd(Wt + 8 * B);
    __m512d Hv =
        _mm512_mul_pd(Wv, _mm512_max_pd(Acc, _mm512_setzero_pd()));
    __m256i R = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(Rows + 8 * B));
    __mmask8 M = _mm256_cmpneq_epu32_mask(R, Sent);
    _mm512_mask_i32scatter_pd(RowHinge, M, R, Hv, 8);
  }
}

// Order-preserving violated-row compaction for the AVX-512 epilogue: the
// masked compress emits exactly the rows with H > 0, in ascending row
// order — the same set and sequence the branchy loop visits.
__attribute__((target("avx512f,avx512vl")))
size_t compressViolated(const double *H, size_t Begin, size_t End,
                        double *HOut, uint32_t *ROut) {
  size_t N = 0;
  size_t R = Begin;
  __m256i Idx = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(Begin)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i Step = _mm256_set1_epi32(8);
  const __m512d Zero = _mm512_setzero_pd();
  for (; R + 8 <= End; R += 8) {
    __m512d Hv = _mm512_loadu_pd(H + R);
    __mmask8 M = _mm512_cmp_pd_mask(Hv, Zero, _CMP_GT_OQ);
    _mm512_mask_compressstoreu_pd(HOut + N, M, Hv);
    _mm256_mask_compressstoreu_epi32(ROut + N, M, Idx);
    N += static_cast<unsigned>(__builtin_popcount(M));
    Idx = _mm256_add_epi32(Idx, Step);
  }
  for (; R < End; ++R)
    if (H[R] > 0.0) {
      HOut[N] = H[R];
      ROut[N] = static_cast<uint32_t>(R);
      ++N;
    }
  return N;
}

#endif // SELDON_X86

} // namespace

const char *seldon::solver::kernelTierName(KernelTier Tier) {
  switch (Tier) {
  case KernelTier::Scalar:
    return "scalar";
  case KernelTier::Avx2:
    return "avx2";
  case KernelTier::Avx512:
    return "avx512";
  }
  return "scalar";
}

KernelTier CompiledObjective::hostTier() {
  // SELDON_SIMD=off|0|scalar forces the scalar tier and SELDON_SIMD=avx2
  // caps the dispatch at the 256-bit kernels — the seams the
  // tier-equivalence tests use on AVX-512 hosts.
  const char *Env = std::getenv("SELDON_SIMD");
  if (Env && (!std::strcmp(Env, "off") || !std::strcmp(Env, "0") ||
              !std::strcmp(Env, "scalar")))
    return KernelTier::Scalar;
#if SELDON_X86
  if (!__builtin_cpu_supports("avx2"))
    return KernelTier::Scalar;
  if (Env && !std::strcmp(Env, "avx2"))
    return KernelTier::Avx2;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return KernelTier::Avx512;
  return KernelTier::Avx2;
#else
  return KernelTier::Scalar;
#endif
}

CompiledObjective::CompiledObjective(size_t NumVars,
                                     const ConstraintRows &Constraints,
                                     double Lambda, ThreadPool *Pool)
    : NumVars(NumVars), Lambda(Lambda), Tier(hostTier()),
      Lanes(Tier == KernelTier::Avx512 ? 8 : 4), Pinned(NumVars, 0),
      PinnedValues(NumVars, 0.0), Pool(Pool) {
  compileRows(Constraints);
  Narrow = fitsHalfWidth(NumVars, Coef);
  buildBlocks();
}

void CompiledObjective::forEach(
    size_t N, const std::function<void(size_t)> &Body) const {
  if (Pool)
    Pool->parallelFor(N, [&](size_t I, unsigned) { Body(I); });
  else
    for (size_t I = 0; I < N; ++I)
      Body(I);
}

void CompiledObjective::compileRows(const ConstraintRows &Constraints) {
  Stats.RowsBefore = Constraints.size();

  // Open addressing over row ids, sized once for the worst case (no
  // duplicates) at load factor <= 1/2, so it never rehashes. A slot packs
  // the row's hash tag (high 32 bits) over its row id, so most probes
  // settle without touching the rows.
  constexpr uint64_t Empty = ~uint64_t(0);
  constexpr uint64_t TagMask = ~uint64_t(0) << 32;
  const size_t Capacity =
      std::bit_ceil(std::max<size_t>(16, 2 * Constraints.size()));
  const size_t Mask = Capacity - 1;
  std::vector<uint64_t> Table(Capacity, Empty);

  // Constraints are canonicalized and hashed a window at a time into one
  // reused term buffer (in parallel when a pool is set: each constraint
  // owns a disjoint slice), then inserted serially in constraint order,
  // which keeps first-occurrence row order at any Jobs setting.
  constexpr size_t Window = 8192, Chunk = 1024;
  std::vector<CanonicalTerm> Terms;
  std::vector<uint32_t> Off(Window + 1), Len(Window);
  std::vector<uint64_t> Hash(Window);

  // Reserving the no-duplicate bounds up front spares the appends their
  // reallocation copies; capacity the survivors never touch stays
  // unbacked.
  Stats.TermsBefore = Constraints.numTerms();
  VarIdx.reserve(Stats.TermsBefore);
  Coef.reserve(Stats.TermsBefore);
  RowBegin.reserve(Constraints.size() + 1);
  Weight.reserve(Constraints.size());
  C.reserve(Constraints.size());

  RowBegin.push_back(0);
  const uint64_t IndexLimit = csrIndexLimit();
  for (size_t Lo = 0; Lo < Constraints.size(); Lo += Window) {
    const size_t N = std::min(Window, Constraints.size() - Lo);
    for (size_t I = 0; I < N; ++I) {
      const LinearConstraint &LC = Constraints[Lo + I];
      Off[I + 1] =
          Off[I] + static_cast<uint32_t>(LC.Lhs.size() + LC.Rhs.size());
    }
    Terms.resize(Off[N]);
    forEach((N + Chunk - 1) / Chunk, [&](size_t Ch) {
      for (size_t I = Ch * Chunk; I < std::min(N, (Ch + 1) * Chunk); ++I) {
        const LinearConstraint &LC = Constraints[Lo + I];
        Len[I] = static_cast<uint32_t>(
            canonicalize(LC, Terms.data() + Off[I]));
        Hash[I] = hashRow(LC.C, Terms.data() + Off[I], Len[I]);
      }
    });

    // Bitwise equality of canonical row I against stored row R: the same
    // test the row's byte image would give.
    auto SameRow = [&](size_t I, uint32_t R) {
      const CanonicalTerm *Row = Terms.data() + Off[I];
      const uint32_t Begin = RowBegin[R];
      if (RowBegin[R + 1] - Begin != Len[I] ||
          bitsOf(C[R]) != bitsOf(Constraints[Lo + I].C))
        return false;
      for (uint32_t K = 0; K < Len[I]; ++K)
        if (VarIdx[Begin + K] != Row[K].first ||
            bitsOf(Coef[Begin + K]) != bitsOf(Row[K].second))
          return false;
      return true;
    };
    constexpr size_t Ahead = 16;
    for (size_t I = 0; I < std::min(Ahead, N); ++I)
      __builtin_prefetch(&Table[Hash[I] & Mask]);
    for (size_t I = 0; I < N; ++I) {
      if (I + Ahead < N)
        __builtin_prefetch(&Table[Hash[I + Ahead] & Mask]);
#ifndef NDEBUG
      for (uint32_t K = 0; K < Len[I]; ++K)
        assert(Terms[Off[I] + K].first < NumVars &&
               "constraint references unknown variable");
#endif
      const uint64_t Tag = Hash[I] & TagMask;
      size_t Slot = Hash[I] & Mask;
      bool Found = false;
      for (; Table[Slot] != Empty; Slot = (Slot + 1) & Mask) {
        const uint32_t R = static_cast<uint32_t>(Table[Slot]);
        if ((Table[Slot] & TagMask) == Tag && SameRow(I, R)) {
          Weight[R] += 1.0;
          Found = true;
          break;
        }
      }
      if (Found)
        continue;
      if (static_cast<uint64_t>(C.size()) >= IndexLimit ||
          static_cast<uint64_t>(VarIdx.size()) + Len[I] > IndexLimit)
        throw std::runtime_error(
            "constraint system overflows the 32-bit CSR layout: " +
            std::to_string(C.size() + 1) + " coalesced rows / " +
            std::to_string(VarIdx.size() + Len[I]) +
            " non-zeros exceed the index limit of " +
            std::to_string(IndexLimit) +
            "; split the corpus into smaller solves");
      Table[Slot] = Tag | C.size();
      for (uint32_t K = 0; K < Len[I]; ++K) {
        VarIdx.push_back(Terms[Off[I] + K].first);
        Coef.push_back(Terms[Off[I] + K].second);
      }
      RowBegin.push_back(static_cast<uint32_t>(VarIdx.size()));
      Weight.push_back(1.0);
      C.push_back(Constraints[Lo + I].C);
    }
  }
  Stats.RowsAfter = C.size();
  Stats.NonZeros = VarIdx.size();
  for (double W : Weight)
    Stats.MaxMultiplicity =
        std::max(Stats.MaxMultiplicity, static_cast<size_t>(W));
}

void CompiledObjective::buildBlocks() {
  const size_t NumRows = C.size();
  const uint32_t Sentinel = static_cast<uint32_t>(NumRows);
  const size_t L = Lanes;

  RowHinge.assign(NumRows, 0.0);
  if (Tier == KernelTier::Avx512) {
    HScratch.assign(NumRows, 0.0);
    RScratch.assign(NumRows, 0);
  }
  WCoef.resize(Coef.size());

  // Fixed shard structure: a function of the row count only, so every
  // Jobs setting performs the same floating-point reductions.
  const size_t Size =
      std::max(MinShardSize, (NumRows + MaxShards - 1) / MaxShards);
  for (size_t Begin = 0; Begin < NumRows; Begin += Size)
    Shards.push_back({Begin, std::min(NumRows, Begin + Size), 0, 0});

  // Pass 1, per shard: the scatter operands — the same Weight·Coef scalar
  // product a row loop forms per violated term, so precomputing it cannot
  // change its rounding — and the shard's rows stably sorted by
  // descending length, so rows of similar length share a block and a
  // block's widest lane imposes little padding on the others. Stability
  // keeps equal-length rows in original order.
  std::vector<uint32_t> Order(NumRows);
  std::vector<size_t> ShardEntries(Shards.size());
  forEach(Shards.size(), [&](size_t SI) {
    const Shard &S = Shards[SI];
    for (size_t R = S.Begin; R < S.End; ++R)
      for (uint32_t K = RowBegin[R]; K < RowBegin[R + 1]; ++K)
        WCoef[K] = Weight[R] * Coef[K];
    uint32_t *O = Order.data() + S.Begin;
    std::iota(O, O + (S.End - S.Begin), static_cast<uint32_t>(S.Begin));
    std::stable_sort(O, O + (S.End - S.Begin), [&](uint32_t A, uint32_t B) {
      return RowBegin[A + 1] - RowBegin[A] > RowBegin[B + 1] - RowBegin[B];
    });
    size_t Entries = 0;
    for (size_t I = S.Begin; I < S.End; I += L) // Lane 0 is the longest.
      Entries += static_cast<size_t>(RowBegin[Order[I] + 1] -
                                     RowBegin[Order[I]]) *
                 L;
    ShardEntries[SI] = Entries;
  });

  // Lay the shards out back to back; each fills only its own blocks.
  size_t NumBlocks = 0, NumEntries = 0;
  std::vector<size_t> EntryBegin(Shards.size());
  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    Shard &S = Shards[SI];
    S.BlockBegin = NumBlocks;
    NumBlocks += (S.End - S.Begin + L - 1) / L;
    S.BlockEnd = NumBlocks;
    EntryBegin[SI] = NumEntries;
    NumEntries += ShardEntries[SI];
  }
  BlockOff.resize(NumBlocks);
  BlockWidth.resize(NumBlocks);
  BlockRows.assign(NumBlocks * L, Sentinel);
  BNegC.assign(NumBlocks * L, 0.0);
  BW.assign(NumBlocks * L, 0.0);

  // Pass 2, per shard: block b stores entry (j, lane) at
  // BlockOff[b] + j·Lanes + lane; short and empty lanes keep the padding
  // (VarIdx 0, Coef 0.0, Sentinel row, zero −C and weight).
  auto Lay = [&](auto &Ops) {
    using IdxT = typename decltype(Ops.Idx)::value_type;
    using ValT = typename decltype(Ops.Val)::value_type;
    Ops.Idx.assign(NumEntries, 0);
    Ops.Val.assign(NumEntries, 0);
    forEach(Shards.size(), [&](size_t SI) {
      const Shard &S = Shards[SI];
      size_t Off = EntryBegin[SI];
      for (size_t B = S.BlockBegin; B < S.BlockEnd; ++B) {
        const size_t First = S.Begin + (B - S.BlockBegin) * L;
        const uint32_t W =
            RowBegin[Order[First] + 1] - RowBegin[Order[First]];
        BlockOff[B] = Off;
        BlockWidth[B] = W;
        for (size_t Lane = 0; Lane < L && First + Lane < S.End; ++Lane) {
          const uint32_t Row = Order[First + Lane];
          BlockRows[B * L + Lane] = Row;
          BNegC[B * L + Lane] = -C[Row];
          BW[B * L + Lane] = Weight[Row];
          for (uint32_t J = 0; J < RowBegin[Row + 1] - RowBegin[Row]; ++J) {
            Ops.Idx[Off + J * L + Lane] =
                static_cast<IdxT>(VarIdx[RowBegin[Row] + J]);
            Ops.Val[Off + J * L + Lane] =
                static_cast<ValT>(Coef[RowBegin[Row] + J]);
          }
        }
        Off += static_cast<size_t>(W) * L;
      }
    });
  };
  if (Narrow)
    Lay(Half);
  else
    Lay(Full);
}

void CompiledObjective::pin(uint32_t Var, double Value) {
  assert(Var < NumVars);
  assert(Value >= 0.0 && Value <= 1.0 && "pinned values must lie in [0,1]");
  Pinned[Var] = 1;
  PinnedValues[Var] = Value;
}

std::vector<double> CompiledObjective::initialPoint() const {
  std::vector<double> X(NumVars, 0.0);
  project(X);
  return X;
}

void CompiledObjective::valuePass(const Shard &S, const double *X) const {
  const uint32_t Sentinel = static_cast<uint32_t>(numRows());
  auto Run = [&](const auto &Ops) {
#if SELDON_X86
    if (Tier == KernelTier::Avx512)
      return valuePassAvx512(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                             BlockWidth.data(), BlockRows.data(),
                             BNegC.data(), BW.data(), Ops.Idx.data(),
                             Ops.Val.data(), X, Sentinel, RowHinge.data());
    if (Tier == KernelTier::Avx2)
      return valuePassAvx2(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                           BlockWidth.data(), BlockRows.data(), BNegC.data(),
                           BW.data(), Ops.Idx.data(), Ops.Val.data(), X,
                           Sentinel, RowHinge.data());
#endif
    valuePassScalar(S.BlockBegin, S.BlockEnd, BlockOff.data(),
                    BlockWidth.data(), BlockRows.data(), BNegC.data(),
                    BW.data(), Ops.Idx.data(), Ops.Val.data(), X, Sentinel,
                    RowHinge.data());
  };
  if (Narrow)
    Run(Half);
  else
    Run(Full);
}

double CompiledObjective::shardEpilogue(size_t Begin, size_t End,
                                        double *GradOut) const {
  // Original row order: this is where bit-identity of the hinge total and
  // the gradient is anchored. H > 0 iff V > 0 (weights are >= 1, so the
  // product cannot underflow to zero), and for a violated row H is
  // exactly the Weight·V term a row loop adds.
  double Total = 0.0;
#if SELDON_X86
  if (Tier == KernelTier::Avx512) {
    // Branch-free variant: compact the violated rows (order-preserving),
    // then accumulate over the compact list. The scatter coalesces runs
    // of consecutive violated rows into one streaming pass over their
    // contiguous CSR entries — the same K sequence as per-row loops. The
    // hinge total still accumulates one row at a time, in order.
    uint32_t *ROut = RScratch.data() + Begin;
    double *HOut = HScratch.data() + Begin;
    const size_t N = compressViolated(RowHinge.data(), Begin, End, HOut, ROut);
    size_t I = 0;
    while (I < N) {
      const uint32_t R0 = ROut[I];
      uint32_t R1 = R0;
      Total += HOut[I];
      ++I;
      while (I < N && ROut[I] == R1 + 1) {
        R1 = ROut[I];
        Total += HOut[I];
        ++I;
      }
      if (GradOut)
        for (uint32_t K = RowBegin[R0]; K < RowBegin[R1 + 1]; ++K)
          GradOut[VarIdx[K]] += WCoef[K];
    }
    return Total;
  }
#endif
  for (size_t R = Begin; R < End; ++R) {
    const double H = RowHinge[R];
    if (H <= 0.0)
      continue; // Satisfied: no loss, subgradient 0.
    Total += H;
    if (GradOut)
      for (uint32_t K = RowBegin[R]; K < RowBegin[R + 1]; ++K)
        GradOut[VarIdx[K]] += WCoef[K];
  }
  return Total;
}

double CompiledObjective::sweep(const std::vector<double> &X,
                                bool WithGradient,
                                std::vector<double> *Grad) const {
  assert(X.size() == NumVars);
  if (WithGradient)
    Grad->assign(NumVars, 0.0);
  if (Shards.empty())
    return 0.0;
  if (Shards.size() == 1) {
    valuePass(Shards[0], X.data());
    return shardEpilogue(Shards[0].Begin, Shards[0].End,
                         WithGradient ? Grad->data() : nullptr);
  }

  ShardHinge.assign(Shards.size(), 0.0);
  if (WithGradient)
    ShardGrad.resize(Shards.size());
  forEach(Shards.size(), [&](size_t S) {
    valuePass(Shards[S], X.data());
    double *GradOut = nullptr;
    if (WithGradient) {
      ShardGrad[S].assign(NumVars, 0.0);
      GradOut = ShardGrad[S].data();
    }
    ShardHinge[S] = shardEpilogue(Shards[S].Begin, Shards[S].End, GradOut);
  });

  // Reduce in shard order (deterministic regardless of execution order).
  double Total = 0.0;
  for (double P : ShardHinge)
    Total += P;
  if (!WithGradient)
    return Total;

  // Reduce gradient buffers in shard order. Each variable's sum is an
  // independent fixed-order chain, so the reduction may fan out over
  // variable ranges without changing a single bit of the result.
  double *Out = Grad->data();
  auto ReduceRange = [&](size_t Begin, size_t End) {
    for (const std::vector<double> &Buf : ShardGrad)
      for (size_t V = Begin; V < End; ++V)
        Out[V] += Buf[V];
  };
  if (Pool && NumVars >= 4096) {
    // One chunk per thread: the caller and the pool's workers.
    unsigned Threads = Pool->numWorkers() + 1;
    size_t Chunk = (NumVars + Threads - 1) / Threads;
    forEach((NumVars + Chunk - 1) / Chunk, [&](size_t Ch) {
      ReduceRange(Ch * Chunk, std::min(NumVars, (Ch + 1) * Chunk));
    });
  } else {
    ReduceRange(0, NumVars);
  }
  return Total;
}

double CompiledObjective::valueAndGradient(const std::vector<double> &X,
                                           std::vector<double> &Grad) const {
  double Total = sweep(X, /*WithGradient=*/true, &Grad);
  // Flat epilogue over the pin mask: pinned variables lose their gradient
  // and carry no L1 term; free variables pick up +λ and λ·x. The L1
  // additions run in ascending variable order after the whole hinge term,
  // the same sequence value() performs.
  const uint8_t *Pin = Pinned.data();
  double *G = Grad.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V]) {
      G[V] = 0.0;
    } else {
      G[V] += Lambda;
      Total += Lambda * X[V];
    }
  }
  return Total;
}

double CompiledObjective::hingeLoss(const std::vector<double> &X) const {
  return sweep(X, /*WithGradient=*/false, nullptr);
}

double CompiledObjective::value(const std::vector<double> &X) const {
  double Total = hingeLoss(X);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V)
    if (!Pin[V])
      Total += Lambda * X[V];
  return Total;
}

void CompiledObjective::gradient(const std::vector<double> &X,
                                 std::vector<double> &Grad) const {
  sweep(X, /*WithGradient=*/true, &Grad);
  const uint8_t *Pin = Pinned.data();
  double *G = Grad.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      G[V] = 0.0;
    else
      G[V] += Lambda;
  }
}

void CompiledObjective::project(std::vector<double> &X) const {
  assert(X.size() == NumVars);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      X[V] = PinnedValues[V];
    else
      X[V] = std::clamp(X[V], 0.0, 1.0);
  }
}
