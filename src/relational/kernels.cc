// Block/morsel kernels (DESIGN.md §14), one implementation each over the
// chunks ScanChunks feeds them (resident Column slices or pinned heap-file
// pages). Within a chunk, scans run in kKernelBlockSize-row blocks:
// conjunctive equality predicates evaluate into 0/1 byte masks via tight
// branch-free loops the compiler auto-vectorizes, masks compact into
// chunk-local selections, dense group keys pack a block at a time, and the
// fused FilterGroupAggregate feeds aggregates straight from the chunks — no
// materialized intermediate, no per-row std::function.
//
// Byte-identity argument (resident vs non-resident, any chunk size): every
// kernel visits rows in ascending global order, numbers groups in first-
// seen order (any injective keying yields the same numbering), accumulates
// floating-point sums in that order, and boxes values with Column::GetValue
// semantics — so the output depends on the rows alone.
//
// Loops tagged `// vec-hot` are asserted auto-vectorized by
// tools/check_vectorization.sh (gcc -O3 -fopt-info-vec); keep the tag on the
// `for` line. Loops deliberately left scalar: mask→selection compaction
// (loop-carried index), floating-point accumulation (addition order is part
// of the byte-identity contract), and per-group scatter updates
// (data-dependent indices).

#include "relational/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "common/macros.h"
#include "relational/operators_internal.h"

namespace cape {

namespace relational_internal {

namespace {

/// Boxes row `i` of `ch` exactly as Column::GetValue would: the chunk
/// arrays mirror the Column layout and `col` supplies the type and (for
/// strings) the dictionary.
Value ChunkValue(const ColumnChunk& ch, const Column& col, int64_t i) {
  if (ch.validity[i] == 0) return Value::Null();
  switch (col.type()) {
    case DataType::kInt64:
      return Value::Int64(ch.i64[i]);
    case DataType::kDouble:
      return Value::Double(ch.f64[i]);
    case DataType::kString:
      return Value::String(col.DictString(ch.codes[i]));
  }
  return Value::Null();
}

}  // namespace

/// Folds row `i` of `chunks` into the min/max state of `spec`: the
/// first-seen value is kept on ties. (Not in the header: only the kernels
/// fold min/max outside UpdateAggStates.)
void UpdateMinMax(const Table& table, const AggregateSpec& spec, const ColumnChunk* chunks,
                  int64_t i, AggState* state) {
  Value v = ChunkValue(chunks[spec.input_col], table.column(spec.input_col), i);
  if (v.is_null()) return;
  ++state->count;
  Value& best = state->extreme;
  if (best.is_null() || (spec.func == AggFunc::kMin ? v < best : best < v)) best = std::move(v);
}

std::vector<AggPlan> CompileAggPlans(const Table& table,
                                     const std::vector<AggregateSpec>& aggs) {
  std::vector<AggPlan> plans;
  plans.reserve(aggs.size());
  for (const AggregateSpec& spec : aggs) {
    AggPlan p;
    if (spec.input_col != AggregateSpec::kCountStar) {
      p.col_idx = spec.input_col;
      switch (spec.func) {
        case AggFunc::kCount:
          p.kind = AggKind::kCountCol;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          p.kind = table.column(spec.input_col).type() == DataType::kInt64
                       ? AggKind::kSumInt64
                       : AggKind::kSumDouble;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          p.kind = AggKind::kMinMax;
          break;
      }
    }
    plans.push_back(p);
  }
  return plans;
}

void UpdateAggStates(const Table& table, const std::vector<AggregateSpec>& aggs,
                     const std::vector<AggPlan>& plans, const ColumnChunk* chunks,
                     int64_t i, AggState* states) {
  for (size_t a = 0; a < plans.size(); ++a) {
    AggState& st = states[a];
    const AggPlan& p = plans[a];
    switch (p.kind) {
      case AggKind::kCountStar:
        ++st.count;
        break;
      case AggKind::kCountCol:
        if (chunks[p.col_idx].validity[i] != 0) ++st.count;
        break;
      case AggKind::kSumInt64: {
        const ColumnChunk& ch = chunks[p.col_idx];
        if (ch.validity[i] != 0) {
          ++st.count;
          const int64_t v = ch.i64[i];
          st.isum += v;
          st.dsum += static_cast<double>(v);
        }
        break;
      }
      case AggKind::kSumDouble: {
        const ColumnChunk& ch = chunks[p.col_idx];
        if (ch.validity[i] != 0) {
          ++st.count;
          st.dsum += ch.f64[i];
        }
        break;
      }
      case AggKind::kMinMax:
        UpdateMinMax(table, aggs[a], chunks, i, &st);
        break;
    }
  }
}

}  // namespace relational_internal

namespace {

using relational_internal::AggKind;
using relational_internal::AggPlan;
using relational_internal::AggState;
using relational_internal::ValidateAggSpec;
using relational_internal::ValidateColumnIndex;

Status ValidateConditions(const Table& table,
                          const std::vector<std::pair<int, Value>>& conditions) {
  for (const auto& [col, value] : conditions) {
    CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, col));
    (void)value;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mask and selection primitives.

int64_t CountMask(const uint8_t* mask, int n) {
  int64_t c = 0;
  for (int i = 0; i < n; ++i) c += mask[i];  // vec-hot
  return c;
}

int64_t CountMaskAndValid(const uint8_t* mask, const uint8_t* valid, int n) {
  int64_t c = 0;
  for (int i = 0; i < n; ++i) c += mask[i] & valid[i];  // vec-hot
  return c;
}

// The 8-byte compares write a same-width temporary: gcc cannot mix
// int64/double loads with byte-mask stores in one vector loop ("no vectype"),
// and baseline SSE2 has no 64-bit integer compare at all (pcmpeqq is SSE4.1).
// Equality therefore runs as a vectorizable XOR — tmp[i] == 0 iff
// data[i] == want — and the zero test folds into the scalar narrowing pass
// back in EvalCond. The helpers must stay noinline: inlined into the
// switch, gcc forward-propagates the temporary into the narrowing AND and
// recreates exactly the mixed-width loop the temporary exists to avoid.
[[gnu::noinline]] void MaskInt64Eq(const int64_t* data, int64_t want, int n,
                                   uint64_t* tmp) {
  const uint64_t w = static_cast<uint64_t>(want);
  for (int i = 0; i < n; ++i) tmp[i] = static_cast<uint64_t>(data[i]) ^ w;  // vec-hot
}

// Value::Compare's exact equality rule !(x<v) && !(x>v) treats NaN as equal
// to everything and -0.0 as equal to 0.0; a plain == would diverge. Both
// compares vectorize as SSE2 cmppd selects, leaving tmp[i] == 0.0 exactly
// when the row matches; the zero test runs in the scalar narrowing pass.
[[gnu::noinline]] void MaskDoubleEq(const double* data, double want, int n,
                                    double* tmp) {
  for (int i = 0; i < n; ++i) tmp[i] = ((data[i] < want) | (data[i] > want)) ? 1.0 : 0.0;  // vec-hot
}

/// Branch-free mask→selection compaction: every slot is written, the cursor
/// advances only on set mask bytes. Sequential by construction (loop-carried
/// k), so it stays scalar — the win is the absence of a mispredicted branch
/// per row, not SIMD. Selections hold chunk-local rows.
int CompactBlock(const uint8_t* mask, int n, int begin, int* out) {
  int k = 0;
  for (int i = 0; i < n; ++i) {
    out[k] = begin + i;
    k += mask[i];
  }
  return k;
}

/// Drives `fn(chunks, begin, n, mask)` over every block of `table` with the
/// predicate's mask already evaluated (all ones without conditions).
template <typename Fn>
Status ScanBlocks(const Table& table, const BlockPredicate& pred, StopToken* stop, Fn&& fn) {
  return ScanChunks(table, stop, [&](const PageView& view) -> Status {
    uint8_t mask[kKernelBlockSize];
    for (int b = 0; b < view.row_count; b += static_cast<int>(kKernelBlockSize)) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      const int bn = std::min<int>(static_cast<int>(kKernelBlockSize), view.row_count - b);
      pred.EvalChunk(view.cols, b, bn, mask);
      fn(view.cols, b, bn, mask);
    }
    return Status::OK();
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// BlockPredicate.

BlockPredicate::BlockPredicate(const Table& table,
                               const std::vector<std::pair<int, Value>>& conditions) {
  // Compilation rules mirror RowEqualityMatcher exactly; never_matches()
  // proofs are facts about the table's dictionaries and types.
  conds_.reserve(conditions.size());
  for (const auto& [col_idx, value] : conditions) {
    const Column& col = table.column(col_idx);
    Cond cond;
    cond.col_idx = col_idx;
    if (value.is_null()) {
      cond.kind = col.type() == DataType::kString ? Kind::kNullCode : Kind::kNullValidity;
    } else if (col.type() == DataType::kString) {
      if (value.type() != DataType::kString) {
        never_matches_ = true;  // numerics order before strings, never equal
        return;
      }
      cond.code = col.FindCode(value.string_value());
      if (cond.code == Column::kNullCode) {
        never_matches_ = true;  // value absent from dictionary: no row matches
        return;
      }
      cond.kind = Kind::kCode;
    } else if (value.type() == DataType::kString) {
      never_matches_ = true;  // string value vs numeric column: never equal
      return;
    } else if (col.type() == DataType::kInt64 && value.type() == DataType::kInt64) {
      cond.kind = Kind::kInt64;
      cond.i64 = value.int64_value();
    } else if (col.type() == DataType::kDouble) {
      cond.kind = Kind::kDoubleEq;
      cond.f64 = value.AsDouble();
    } else {
      cond.kind = Kind::kInt64AsDouble;
      cond.f64 = value.AsDouble();
    }
    conds_.push_back(cond);
  }
}

void BlockPredicate::EvalCond(const Cond& cond, const ColumnChunk& chunk, int begin, int n,
                              uint8_t* mask) {
  // Scratch for the 8-byte compares; see MaskInt64Eq/MaskDoubleEq for why
  // they run through a same-width temporary in a noinline helper. Each case
  // uses exactly one member — never both — so no punning occurs.
  union {
    uint64_t u64[kKernelBlockSize];
    double f64[kKernelBlockSize];
  } tmp;
  switch (cond.kind) {
    case Kind::kCode: {
      const int32_t* codes = chunk.codes + begin;
      const int32_t want = cond.code;
      // kNullCode (-1) never equals a real code, so no separate null check.
      for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(codes[i] == want);  // vec-hot
      break;
    }
    case Kind::kNullCode: {
      const int32_t* codes = chunk.codes + begin;
      for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(codes[i] < 0);  // vec-hot
      break;
    }
    case Kind::kNullValidity: {
      const uint8_t* valid = chunk.validity + begin;
      for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(valid[i] ^ 1);  // vec-hot
      break;
    }
    case Kind::kInt64: {
      MaskInt64Eq(chunk.i64 + begin, cond.i64, n, tmp.u64);
      // NULL slots store 0, so a want==0 condition needs the validity AND;
      // a null-free chunk skips it.
      if (chunk.null_count == 0) {
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.u64[i] == 0);
      } else {
        const uint8_t* valid = chunk.validity + begin;
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.u64[i] == 0) & valid[i];
      }
      break;
    }
    case Kind::kDoubleEq: {
      MaskDoubleEq(chunk.f64 + begin, cond.f64, n, tmp.f64);
      if (chunk.null_count == 0) {
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.f64[i] == 0.0);
      } else {
        const uint8_t* valid = chunk.validity + begin;
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.f64[i] == 0.0) & valid[i];
      }
      break;
    }
    case Kind::kInt64AsDouble: {
      // int64 column against a double condition value: the int64→double
      // conversion has no baseline-SSE2 vector form, so this rare shape
      // stays scalar.
      const int64_t* data = chunk.i64 + begin;
      const uint8_t* valid = chunk.validity + begin;
      const double want = cond.f64;
      for (int i = 0; i < n; ++i) {
        const double x = static_cast<double>(data[i]);
        mask[i] &= static_cast<uint8_t>(valid[i] & !(x < want) & !(x > want));
      }
      break;
    }
  }
}

void BlockPredicate::EvalChunk(const ColumnChunk* chunks, int begin, int n,
                               uint8_t* mask) const {
  std::memset(mask, 1, static_cast<size_t>(n));
  for (const Cond& cond : conds_) EvalCond(cond, chunks[cond.col_idx], begin, n, mask);
}

// ---------------------------------------------------------------------------
// σ: selection and counting.

Result<TablePtr> FilterEquals(const Table& table,
                              const std::vector<std::pair<int, Value>>& conditions,
                              StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  std::vector<Column> out;
  out.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) out.emplace_back(table.column(c).type());
  int64_t rows = 0;
  const BlockPredicate pred(table, conditions);
  if (pred.never_matches()) {
    // A condition value that cannot occur in its column (e.g. a string
    // absent from the dictionary) proves the selection is empty unscanned.
    if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
  } else {
    // Matched rows append in ascending order, so output dictionaries intern
    // strings in first-appearance order, as a row-by-row append would. A
    // whole chunk's selection appends at once: a table of one chunk grows
    // each output array exactly once.
    std::vector<int> sel;
    std::vector<std::vector<int32_t>> code_maps(out.size());
    CAPE_RETURN_IF_ERROR(ScanChunks(table, stop, [&](const PageView& view) -> Status {
      sel.resize(static_cast<size_t>(view.row_count));
      uint8_t mask[kKernelBlockSize];
      int k = 0;
      for (int b = 0; b < view.row_count; b += static_cast<int>(kKernelBlockSize)) {
        CAPE_RETURN_IF_STOPPED_BLOCK(stop);
        const int bn = std::min<int>(static_cast<int>(kKernelBlockSize), view.row_count - b);
        pred.EvalChunk(view.cols, b, bn, mask);
        k += CompactBlock(mask, bn, b, sel.data() + k);
      }
      for (size_t c = 0; c < out.size(); ++c) {
        out[c].AppendRows(table.column(static_cast<int>(c)), view.cols[c], sel.data(),
                          static_cast<size_t>(k), &code_maps[c]);
      }
      rows += k;
      return Status::OK();
    }));
  }
  return Table::FromColumns(table.schema(), std::move(out), rows);
}

Result<int64_t> CountFilterMatches(const Table& table,
                                   const std::vector<std::pair<int, Value>>& conditions,
                                   StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  const BlockPredicate pred(table, conditions);
  if (pred.never_matches()) {
    if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
    return int64_t{0};
  }
  int64_t count = 0;
  CAPE_RETURN_IF_ERROR(ScanBlocks(
      table, pred, stop,
      [&](const ColumnChunk*, int, int bn, const uint8_t* mask) { count += CountMask(mask, bn); }));
  return count;
}

// ---------------------------------------------------------------------------
// Fused filter→group→aggregate.

namespace {

/// Discovered groups in first-seen order — the numbering contract every
/// downstream consumer depends on. A new group's key values are appended to
/// the output's group columns at discovery, while its chunk is in hand (a
/// paged chunk may be evicted before finalize): one typed append per key
/// column per group, no boxed row.
struct GroupTable {
  GroupTable(const Table& table, const std::vector<int>& group_cols, size_t num_aggs)
      : table(table), group_cols(group_cols), num_aggs(num_aggs) {
    keys.reserve(group_cols.size());
    for (int c : group_cols) keys.emplace_back(table.column(c).type());
  }

  size_t AddGroup(int64_t i) {
    for (size_t k = 0; k < group_cols.size(); ++k) {
      const int c = group_cols[k];
      keys[k].AppendRows(table.column(c), chunks[c], &i, 1, /*code_map=*/nullptr);
    }
    if (num_groups % kGroupsPerBlock == 0) {
      state_blocks.emplace_back();
      state_blocks.back().reserve(kGroupsPerBlock * num_aggs);
    }
    state_blocks.back().resize(state_blocks.back().size() + num_aggs);
    return num_groups++;
  }

  AggState* StatesOf(size_t g) {
    return state_blocks[g / kGroupsPerBlock].data() + (g % kGroupsPerBlock) * num_aggs;
  }

  // Aggregate states live in fixed-capacity blocks that never move: a
  // growing group count appends a block instead of re-allocating one large
  // array, which keeps the parallel miners' per-query allocations small.
  static constexpr size_t kGroupsPerBlock = 1024;

  const Table& table;
  const std::vector<int>& group_cols;
  const size_t num_aggs;
  const ColumnChunk* chunks = nullptr;  // current chunk; set by the scan loop
  std::vector<Column> keys;             // output group columns
  std::vector<std::vector<AggState>> state_blocks;
  size_t num_groups = 0;
};

/// Group lookup via a direct-address array — one vector access per row for
/// small mixed-radix key spaces.
struct DirectSink {
  DirectSink(uint64_t domain, GroupTable* groups)
      : slots(static_cast<size_t>(domain), -1), groups(groups) {}

  size_t GidFor(uint64_t key, int64_t i) {
    int32_t& slot = slots[static_cast<size_t>(key)];
    if (slot < 0) slot = static_cast<int32_t>(groups->AddGroup(i));
    return static_cast<size_t>(slot);
  }

  std::vector<int32_t> slots;
  GroupTable* groups;
};

/// Group lookup via an exact uint64-keyed hash map for larger key spaces.
struct MapSink {
  MapSink(size_t expected, GroupTable* groups) : groups(groups) { map.reserve(expected); }

  size_t GidFor(uint64_t key, int64_t i) {
    auto [it, fresh] = map.try_emplace(key, groups->num_groups);
    if (fresh) groups->AddGroup(i);
    return it->second;
  }

  std::unordered_map<uint64_t, size_t> map;
  GroupTable* groups;
};

/// One column of the dense mixed-radix packed key (DESIGN.md §10): string
/// columns map onto dictionary codes, narrow int64 columns onto
/// value - base; NULL maps to digit 0.
struct DenseCol {
  int col_idx = 0;
  uint64_t stride = 1;
  int64_t base = 0;  // minimum value for int64 columns
  bool is_string = false;
};

/// Dense-key eligibility and layout: every group column must be a string or
/// an int64 with a value range narrower than 2^22, and the mixed-radix
/// domain product must fit uint64. The plan reads only table-level facts —
/// dictionary sizes and the column's int64 range (O(1) on both chunk
/// sources) — so a resident and a paged scan plan the same keys.
bool PlanDenseKeys(const Table& table, const std::vector<int>& group_cols,
                   std::vector<DenseCol>* dense, uint64_t* domain_product) {
  if (table.num_rows() >= (int64_t{1} << 31)) return false;
  *domain_product = 1;
  for (int c : group_cols) {
    const Column& col = table.column(c);
    DenseCol d{c, *domain_product, 0, false};
    uint64_t domain;  // cardinality + 1 slot for NULL
    if (col.type() == DataType::kString) {
      d.is_string = true;
      domain = static_cast<uint64_t>(col.dict_size()) + 1;
    } else if (col.type() == DataType::kInt64) {
      const Value lo = col.Min();
      const Value hi = col.Max();
      d.base = lo.is_null() ? 0 : lo.int64_value();
      const uint64_t width =
          lo.is_null() ? 0
                       : static_cast<uint64_t>(hi.int64_value()) - static_cast<uint64_t>(d.base);
      if (width >= (uint64_t{1} << 22)) return false;  // too sparse
      domain = width + 2;
    } else {
      return false;  // double group keys keep the generic encoder
    }
    if (*domain_product > std::numeric_limits<uint64_t>::max() / domain) {
      return false;  // mixed-radix product overflows uint64
    }
    *domain_product *= domain;
    dense->push_back(d);
  }
  return true;
}

/// Packs the mixed-radix keys of chunk-local rows [begin, begin + n).
void PackKeys(const std::vector<DenseCol>& dense, const ColumnChunk* chunks, int begin, int n,
              uint64_t* keys) {
  // gcc idiom-recognizes a zero-fill loop into memset anyway; be explicit.
  std::memset(keys, 0, static_cast<size_t>(n) * sizeof(uint64_t));
  for (const DenseCol& d : dense) {
    const ColumnChunk& ch = chunks[d.col_idx];
    const uint64_t stride = d.stride;
    if (d.is_string) {
      const int32_t* codes = ch.codes + begin;
      for (int i = 0; i < n; ++i) keys[i] += static_cast<uint64_t>(codes[i] + 1) * stride;  // vec-hot
    } else if (ch.null_count == 0) {
      const int64_t* data = ch.i64 + begin;
      const uint64_t base = static_cast<uint64_t>(d.base);
      for (int i = 0; i < n; ++i) keys[i] += (static_cast<uint64_t>(data[i]) - base + 1) * stride;  // vec-hot
    } else {
      // Nullable int64: the select between digit 0 (NULL) and value - base
      // mixes byte and quadword lanes, so it stays scalar; the fully-valid
      // fast path above is the common shape.
      const int64_t* data = ch.i64 + begin;
      const uint8_t* valid = ch.validity + begin;
      const uint64_t base = static_cast<uint64_t>(d.base);
      for (int i = 0; i < n; ++i) {
        keys[i] += (valid[i] != 0 ? static_cast<uint64_t>(data[i]) - base + 1 : 0) * stride;
      }
    }
  }
}

/// Scalar key pack for selections (gathered rows defeat SIMD; the filter
/// already shrank the row set).
uint64_t PackKey(const std::vector<DenseCol>& dense, const ColumnChunk* chunks, int i) {
  uint64_t key = 0;
  for (const DenseCol& d : dense) {
    const ColumnChunk& ch = chunks[d.col_idx];
    const uint64_t digit =
        d.is_string ? static_cast<uint64_t>(ch.codes[i] + 1)  // NULL -> 0
                    : (ch.validity[i] == 0 ? 0 : static_cast<uint64_t>(ch.i64[i] - d.base) + 1);
    key += digit * d.stride;
  }
  return key;
}

/// Everything a grouped scan reads besides its sink and key layout.
struct ScanCtx {
  const Table& table;
  const std::vector<AggregateSpec>& aggs;
  const std::vector<AggPlan>& plans;
  const BlockPredicate& pred;
  GroupTable* groups;
  StopToken* stop;
};

template <typename Sink>
Status DenseScan(const ScanCtx& ctx, const std::vector<DenseCol>& dense, Sink& sink) {
  GroupTable& groups = *ctx.groups;
  uint64_t keys[kKernelBlockSize];
  int sel[kKernelBlockSize];
  return ScanBlocks(
      ctx.table, ctx.pred, ctx.stop,
      [&](const ColumnChunk* chunks, int b, int bn, const uint8_t* mask) {
        groups.chunks = chunks;
        if (ctx.pred.always_matches()) {
          PackKeys(dense, chunks, b, bn, keys);
          for (int i = 0; i < bn; ++i) {
            const size_t g = sink.GidFor(keys[i], b + i);
            UpdateAggStates(ctx.table, ctx.aggs, ctx.plans, chunks, b + i, groups.StatesOf(g));
          }
          return;
        }
        const int k = CompactBlock(mask, bn, b, sel);
        for (int j = 0; j < k; ++j) {
          const int i = sel[j];
          const size_t g = sink.GidFor(PackKey(dense, chunks, i), i);
          UpdateAggStates(ctx.table, ctx.aggs, ctx.plans, chunks, i, groups.StatesOf(g));
        }
      });
}

/// Generic fallback (double group keys, wide int ranges, overflowing domain
/// products): GroupKeyEncoder's byte keys, hashed once per row, collisions
/// resolved by key bytes.
Status EncoderScan(const ScanCtx& ctx, const std::vector<int>& group_cols, size_t expected) {
  GroupTable& groups = *ctx.groups;
  std::vector<DataType> types;
  for (int c : group_cols) types.push_back(ctx.table.column(c).type());
  std::unordered_map<uint64_t, std::vector<size_t>> group_buckets;
  std::vector<std::string> group_keys;
  group_buckets.reserve(expected);
  group_keys.reserve(expected);
  std::string key;
  int sel[kKernelBlockSize];
  return ScanBlocks(
      ctx.table, ctx.pred, ctx.stop,
      [&](const ColumnChunk* chunks, int b, int bn, const uint8_t* mask) {
        groups.chunks = chunks;
        const int k = CompactBlock(mask, bn, b, sel);
        for (int j = 0; j < k; ++j) {
          const int i = sel[j];
          key.clear();
          for (size_t c = 0; c < group_cols.size(); ++c) {
            GroupKeyEncoder::EncodeCell(types[c], chunks[group_cols[c]], i, &key);
          }
          const uint64_t hash = HashBytes(key.data(), key.size());
          std::vector<size_t>& bucket = group_buckets[hash];
          size_t group = groups.num_groups;
          for (size_t candidate : bucket) {
            if (group_keys[candidate] == key) {
              group = candidate;
              break;
            }
          }
          if (group == groups.num_groups) {
            bucket.push_back(group);
            group_keys.push_back(key);
            groups.AddGroup(i);
          }
          UpdateAggStates(ctx.table, ctx.aggs, ctx.plans, chunks, i, groups.StatesOf(group));
        }
      });
}

Status GroupScan(const ScanCtx& ctx, const std::vector<int>& group_cols) {
  // One sizing rule for every scan, from table-level facts only: a scan
  // groups at most num_rows rows. An unfiltered scan expects about a
  // quarter of them as groups; a filtered one cannot know its selection
  // size up front, so its hash tables start small and grow.
  const int64_t n = ctx.table.num_rows();
  const size_t expected = ctx.pred.always_matches() ? static_cast<size_t>(n / 4 + 1) : 0;
  std::vector<DenseCol> dense;
  uint64_t domain_product = 1;
  if (!PlanDenseKeys(ctx.table, group_cols, &dense, &domain_product)) {
    return EncoderScan(ctx, group_cols, expected);
  }
  // Small key spaces use a direct-address table; larger ones an exact
  // uint64-keyed hash map.
  const uint64_t direct_cap = static_cast<uint64_t>(std::max<int64_t>(n, 1024)) * 4;
  if (domain_product <= direct_cap) {
    DirectSink sink(domain_product, ctx.groups);
    return DenseScan(ctx, dense, sink);
  }
  MapSink sink(expected, ctx.groups);
  return DenseScan(ctx, dense, sink);
}

/// Global aggregation (no group columns): one state vector, aggregates
/// consume the block mask / selection directly — count(*) is a mask
/// popcount, count(col) a mask∧validity popcount, sums walk the selection
/// in row order (floating-point addition order is part of the identity
/// contract).
Status SingleGroupScan(const ScanCtx& ctx, AggState* states) {
  bool need_sel = false;
  for (const AggPlan& p : ctx.plans) {
    if (p.kind != AggKind::kCountStar && p.kind != AggKind::kCountCol) need_sel = true;
  }
  int sel[kKernelBlockSize];
  return ScanBlocks(
      ctx.table, ctx.pred, ctx.stop,
      [&](const ColumnChunk* chunks, int b, int bn, const uint8_t* mask) {
        const int k = need_sel ? CompactBlock(mask, bn, b, sel) : 0;
        for (size_t a = 0; a < ctx.plans.size(); ++a) {
          AggState& st = states[a];
          const AggPlan& p = ctx.plans[a];
          switch (p.kind) {
            case AggKind::kCountStar:
              st.count += CountMask(mask, bn);
              break;
            case AggKind::kCountCol: {
              const ColumnChunk& ch = chunks[p.col_idx];
              st.count += ch.null_count == 0 ? CountMask(mask, bn)
                                             : CountMaskAndValid(mask, ch.validity + b, bn);
              break;
            }
            case AggKind::kSumInt64: {
              const ColumnChunk& ch = chunks[p.col_idx];
              for (int j = 0; j < k; ++j) {
                const int i = sel[j];
                if (ch.validity[i] == 0) continue;
                ++st.count;
                const int64_t v = ch.i64[i];
                st.isum += v;
                st.dsum += static_cast<double>(v);
              }
              break;
            }
            case AggKind::kSumDouble: {
              const ColumnChunk& ch = chunks[p.col_idx];
              for (int j = 0; j < k; ++j) {
                const int i = sel[j];
                if (ch.validity[i] == 0) continue;
                ++st.count;
                st.dsum += ch.f64[i];
              }
              break;
            }
            case AggKind::kMinMax:
              for (int j = 0; j < k; ++j) {
                UpdateMinMax(ctx.table, ctx.aggs[a], chunks, sel[j], &st);
              }
              break;
          }
        }
      });
}

}  // namespace

Result<TablePtr> FilterGroupAggregate(const Table& table,
                                      const std::vector<std::pair<int, Value>>& conditions,
                                      const std::vector<int>& group_cols,
                                      const std::vector<AggregateSpec>& aggs,
                                      StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  for (int c : group_cols) CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, c));
  for (const AggregateSpec& spec : aggs) CAPE_RETURN_IF_ERROR(ValidateAggSpec(table, spec));

  // Output schema: group columns then aggregates.
  std::vector<Field> out_fields;
  out_fields.reserve(group_cols.size() + aggs.size());
  for (int c : group_cols) out_fields.push_back(table.schema()->field(c));
  for (const AggregateSpec& spec : aggs) {
    out_fields.push_back(
        Field{spec.output_name, relational_internal::AggOutputType(table, spec), true});
  }

  GroupTable groups(table, group_cols, aggs.size());
  const std::vector<AggPlan> plans = relational_internal::CompileAggPlans(table, aggs);
  const BlockPredicate pred(table, conditions);
  const ScanCtx ctx{table, aggs, plans, pred, &groups, stop};
  if (group_cols.empty()) {
    // Aggregation without grouping yields exactly one row even on empty
    // input.
    groups.AddGroup(0);
  }
  if (pred.never_matches()) {
    // The selection is provably empty without a scan.
    if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
  } else if (group_cols.empty()) {
    CAPE_RETURN_IF_ERROR(SingleGroupScan(ctx, groups.StatesOf(0)));
  } else {
    CAPE_RETURN_IF_ERROR(GroupScan(ctx, group_cols));
  }

  std::vector<Column> out = std::move(groups.keys);
  for (size_t a = 0; a < aggs.size(); ++a) {
    Column col(out_fields[group_cols.size() + a].type);
    col.Reserve(static_cast<int64_t>(groups.num_groups));
    for (size_t g = 0; g < groups.num_groups; ++g) {
      if ((g & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      CAPE_RETURN_IF_ERROR(col.AppendValue(relational_internal::FinalizeAggState(
          table, aggs[a], groups.StatesOf(g)[a])));
    }
    out.push_back(std::move(col));
  }
  return Table::FromColumns(Schema::Make(std::move(out_fields)), std::move(out),
                            static_cast<int64_t>(groups.num_groups));
}

}  // namespace cape
