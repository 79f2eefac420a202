#ifndef CAPE_RELATIONAL_KERNELS_H_
#define CAPE_RELATIONAL_KERNELS_H_

// The relational kernels (DESIGN.md §14): every σ/γ scan in the engine is
// written once, over ColumnChunk views fed by one chunk driver
// (ScanChunks). A resident table yields zero-copy slices of its Column
// arrays; a non-resident table (storage/paged_table.h) yields pinned heap-
// file pages. "Paged vs resident" is only which chunk source a table has.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/result.h"
#include "relational/operators.h"
#include "relational/page_source.h"
#include "relational/table.h"

namespace cape {

/// Block/morsel width of the kernels: scans proceed in fixed-size runs of
/// this many rows, with byte masks and selection vectors sized to one
/// block. 2048 rows keeps a block's mask (2 KB), selection vector (8 KB),
/// and packed keys (16 KB) inside L1/L2 while amortizing the per-block stop
/// check to noise.
inline constexpr int64_t kKernelBlockSize = 2048;
static_assert(kKernelBlockSize == kStopCheckStride,
              "block kernels check the stop token once per block; the shared "
              "stride constant must match the block size so every scan in the "
              "engine has the same stop latency");

/// Rows per chunk of a resident table's scan (2^20): a multiple of the block
/// size, so block loops never straddle a chunk, and small enough that
/// chunk-local row offsets fit an int — heap-file pages obey the same two
/// rules. Slicing is free, so chunks are as large as that allows: most
/// resident tables are one chunk, and a selection over them grows its
/// output arrays in one exact step.
inline constexpr int64_t kResidentChunkRows = 512 * kKernelBlockSize;

/// The one scan driver under every kernel: calls `fn(const PageView&)` for
/// consecutive chunks of `table` in ascending row order and stops at the
/// first error. A resident table yields zero-copy Column slices of
/// kResidentChunkRows rows, touching no page source (so no pins, misses or
/// page stats). A non-resident table pins each page of its PageSource in
/// turn and prefetches the next while the current one is processed. The
/// stop token is checked before every chunk; `fn` checks it per block.
template <typename Fn>
Status ScanChunks(const Table& table, StopToken* stop, Fn&& fn) {
  if (table.rows_resident()) {
    const int64_t n = table.num_rows();
    std::vector<ColumnChunk> cols(static_cast<size_t>(table.num_columns()));
    for (int64_t begin = 0; begin < n; begin += kResidentChunkRows) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      for (size_t c = 0; c < cols.size(); ++c) {
        cols[c] = table.column(static_cast<int>(c)).Slice(begin);
      }
      const PageView view{begin, static_cast<int>(std::min(kResidentChunkRows, n - begin)),
                          cols.data()};
      CAPE_RETURN_IF_ERROR(fn(view));
    }
    return Status::OK();
  }
  PageSource& src = *table.page_source();
  const int64_t pages = src.num_pages();
  for (int64_t p = 0; p < pages; ++p) {
    CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    CAPE_ASSIGN_OR_RETURN(PageRef ref, src.Pin(p));
    // Prefetch the successor while p is pinned: with >= 2 frames the next
    // Pin hits; with a single frame the hint is skipped (the only frame is
    // pinned), so a minimal budget never double-reads.
    if (p + 1 < pages) src.Prefetch(p + 1);
    CAPE_RETURN_IF_ERROR(fn(ref.view()));
  }
  return Status::OK();
}

/// Conjunctive equality predicate compiled once and evaluated a block at a
/// time into a 0/1 byte mask. Semantics are RowEqualityMatcher's (NULL
/// matches NULL, cross-type numeric equality via Value::Compare's
/// !(x<v) && !(x>v) rule, string values resolved to dictionary codes,
/// absent/mismatched values short-circuiting via never_matches()).
///
/// The compiled conditions depend only on the table's schema and
/// dictionaries — identical for every chunk of a scan, resident or paged.
/// Column indices must be validated by the caller.
class BlockPredicate {
 public:
  BlockPredicate(const Table& table,
                 const std::vector<std::pair<int, Value>>& conditions);

  /// True when no row can possibly satisfy the conditions.
  bool never_matches() const { return never_matches_; }

  /// True when there are no conditions (every row matches).
  bool always_matches() const { return conds_.empty() && !never_matches_; }

  /// Sets mask[i] to 1 where chunk-local row `begin + i` satisfies every
  /// condition and 0 elsewhere, for i in [0, n). `chunks` holds one
  /// ColumnChunk per table column; n must be <= kKernelBlockSize.
  void EvalChunk(const ColumnChunk* chunks, int begin, int n, uint8_t* mask) const;

 private:
  enum class Kind : uint8_t {
    kCode,           // string column: dictionary code equality
    kNullCode,       // IS NULL on a string column (code < 0)
    kNullValidity,   // IS NULL on a numeric column (validity == 0)
    kInt64,          // exact int64 equality
    kDoubleEq,       // double column: Value::Compare numeric equality
    kInt64AsDouble,  // int64 column vs double value (rare; scalar loop)
  };
  struct Cond {
    int col_idx = 0;
    Kind kind = Kind::kCode;
    int32_t code = 0;
    int64_t i64 = 0;
    double f64 = 0.0;
  };

  static void EvalCond(const Cond& cond, const ColumnChunk& chunk, int begin, int n,
                       uint8_t* mask);

  std::vector<Cond> conds_;
  bool never_matches_ = false;
};

/// Number of rows satisfying `conditions`, counted straight off the block
/// masks — the existence/cardinality probe shape (user_question.cc).
Result<int64_t> CountFilterMatches(const Table& table,
                                   const std::vector<std::pair<int, Value>>& conditions,
                                   StopToken* stop = nullptr);

/// Fused σ → γ: exactly GroupByAggregate(*FilterEquals(table, conditions),
/// group_cols, aggs) — byte-identical output, same Status surface — without
/// materializing the filtered table: block masks feed chunk-local
/// selections, group keys are packed from the chunks, and aggregates
/// consume the selection directly. This is the retrieval-query shape
/// Q_{P,f} = γ_{V,agg(A)}(σ_{F=f}(R)) that the miners and explainers issue
/// thousands of times per request; with no conditions it *is*
/// GroupByAggregate.
Result<TablePtr> FilterGroupAggregate(const Table& table,
                                      const std::vector<std::pair<int, Value>>& conditions,
                                      const std::vector<int>& group_cols,
                                      const std::vector<AggregateSpec>& aggs,
                                      StopToken* stop = nullptr);

}  // namespace cape

#endif  // CAPE_RELATIONAL_KERNELS_H_
