#ifndef CAPE_RELATIONAL_COLUMN_H_
#define CAPE_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.h"
#include "relational/value.h"

namespace cape {

/// A run of one column's rows as raw arrays, laid out exactly like the
/// Column arrays below: the kernels (kernels.h) index these pointers with
/// chunk-local row offsets. A chunk is either a zero-copy slice of a
/// resident Column (Column::Slice) or one column of a pinned heap-file page
/// (storage/heap_file.h). Pointers for the non-matching types are null;
/// `validity` is always populated. NULL slots hold 0 / 0.0 / kNullCode.
struct ColumnChunk {
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const int32_t* codes = nullptr;
  /// NULL slots the chunk may hold: 0 proves it holds none, which lets the
  /// kernels take their no-null fast paths. Pages count their own slots; a
  /// resident slice carries its column's total.
  int64_t null_count = 0;
};

/// Columnar storage for one attribute: a typed value vector plus a validity
/// vector. Appending a Value of the wrong type is a TypeError; NULL appends
/// store a default-constructed slot with validity=false.
///
/// String columns are dictionary-encoded (DESIGN.md §10): each row stores a
/// 4-byte code into an interned dictionary, with codes assigned in
/// first-appearance order. The dictionary is append-only and every entry is
/// referenced by at least one non-null row, so distinct-count and min/max
/// reduce to dictionary operations, and the hot group/filter/sort kernels in
/// operators.cc compare codes instead of heap-resident strings.
class Column {
 public:
  /// Code stored for NULL rows of a string column. Valid rows always carry a
  /// code in [0, dict_size()).
  static constexpr int32_t kNullCode = -1;

  explicit Column(DataType type);

  DataType type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(validity_.size()); }

  void Reserve(int64_t capacity);

  /// Pre-sizes the string dictionary (entries and hash buckets). No-op for
  /// numeric columns.
  void ReserveDict(int64_t capacity);

  /// Appends a value; Status::TypeError when the value's type mismatches.
  Status AppendValue(const Value& value);
  void AppendNull();

  /// Typed fast-path appenders (no per-call type dispatch). Calling the
  /// wrong one for this column's type is a programming error (CHECKed).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  bool IsNull(int64_t row) const { return !validity_[static_cast<size_t>(row)]; }

  /// Boxed access; returns Value::Null() for null slots.
  Value GetValue(int64_t row) const;

  /// Typed access; undefined for nulls or mismatched type (GetString returns
  /// the empty string for null rows, matching the pre-dictionary storage).
  int64_t GetInt64(int64_t row) const { return int64_data_[static_cast<size_t>(row)]; }
  double GetDouble(int64_t row) const { return double_data_[static_cast<size_t>(row)]; }
  const std::string& GetString(int64_t row) const {
    const int32_t code = codes_[static_cast<size_t>(row)];
    return code < 0 ? EmptyString() : dict_[static_cast<size_t>(code)];
  }

  /// Dictionary code of `row` (string columns only); kNullCode for nulls.
  /// Two rows carry the same code iff they hold the same string, which is
  /// what lets equality-heavy kernels run on integers.
  int32_t GetCode(int64_t row) const { return codes_[static_cast<size_t>(row)]; }

  /// Number of NULL slots, maintained on every append. Kernels branch to a
  /// no-null fast path (skip the validity tests entirely) when it is 0.
  int64_t null_count() const { return null_count_; }

  /// Zero-copy view of rows [begin, size()) for the kernels (kernels.h).
  /// Valid until the next append; row i of the chunk is row begin + i here.
  ColumnChunk Slice(int64_t begin) const;

  /// Number of interned dictionary entries (string columns only).
  int64_t dict_size() const { return static_cast<int64_t>(dict_.size()); }

  /// The string interned under `code`; code must be in [0, dict_size()).
  const std::string& DictString(int32_t code) const {
    return dict_[static_cast<size_t>(code)];
  }

  /// Code of `s`, or kNullCode when `s` was never appended. A miss proves no
  /// row of this column equals `s` — equality selections short-circuit on it.
  int32_t FindCode(const std::string& s) const;

  /// Sorted-code remap: ranks[code_a] < ranks[code_b] iff
  /// DictString(code_a) < DictString(code_b). Codes are first-appearance
  /// ordered, so sort kernels build this O(d log d) remap once per sort and
  /// then compare pure integers. Computed on demand (stateless, and the
  /// mining kernels sort freshly materialized tables that would never hit a
  /// cache anyway).
  std::vector<int32_t> SortedCodeRanks() const;

  /// Numeric view of row (int64 widened to double). NULL rows read as 0.0 —
  /// callers for which 0 is meaningful must pre-filter with IsNull. Calling
  /// this on a string column is a programming error (CHECKed); callers that
  /// feed mixed predictor columns into constant-model fits must substitute
  /// their own placeholder for non-numeric columns.
  double GetNumeric(int64_t row) const;

  /// Appends rows rows[0, n) of `chunk`, a chunk of `src`, without boxing
  /// through Value; `src` (same type, CHECKed) resolves the chunk's string
  /// codes. A `code_map` memoizes the src->dst code translation (pass an
  /// empty vector, and the same one again for further rows of `src`), so a
  /// large selection interns each distinct string once instead of once per
  /// row; null interns every string cell.
  /// Instantiated for int (chunk-local) and int64_t (resident) indices.
  template <typename Index>
  void AppendRows(const Column& src, const ColumnChunk& chunk, const Index* rows, size_t n,
                  std::vector<int32_t>* code_map);

  /// AppendRows for `rows` of the resident column `src`.
  void AppendManyFrom(const Column& src, const std::vector<int64_t>& rows);

  /// Number of distinct non-null values. O(1) for string columns (the
  /// dictionary is exactly the distinct set); hash-based O(n) otherwise.
  int64_t CountDistinct() const;

  /// Minimum / maximum as Values; Null when the column is all-null/empty.
  /// String columns scan the dictionary (O(d)) instead of the rows, int64
  /// columns answer from a range kept on every append (O(1)), and double
  /// columns run one typed scan.
  Value Min() const { return Extreme(/*want_max=*/false); }
  Value Max() const { return Extreme(/*want_max=*/true); }

  /// Folds this column's full content — type, validity bitmap, typed data,
  /// and (for string columns) the dictionary plus per-row codes — into `h`.
  /// Two columns with equal logical content built by the same append
  /// sequence hash equal; any row/dictionary mutation changes the digest.
  /// Feeds Table::Fingerprint for pattern-cache invalidation.
  void HashContent(Fnv64* h) const;

  /// Folds rows [begin, end) into `h` as a per-row canonical stream: the
  /// validity flag, then the raw int64/double payload (null slots hold 0 /
  /// 0.0) or the row's string content (null rows hash as the empty string —
  /// the flag disambiguates). Unlike HashContent, the stream for row i does
  /// not depend on rows > i (string rows hash their content, not a
  /// dictionary code), so a running Fnv64 can be extended row-by-row as the
  /// column grows: HashRows(h, 0, k) then HashRows(h, k, n) produces the
  /// same digest as HashRows(h, 0, n). This is what makes
  /// Table::Fingerprint O(delta) on append.
  void HashRows(Fnv64* h, int64_t begin, int64_t end) const;

  /// Installs a heap-file dictionary into an empty string column (paged
  /// tables keep dictionaries resident while rows live on disk). Entries
  /// must be distinct and in file code order, so GetCode/FindCode/DictString
  /// agree with the codes stored in the pages. TypeError on numeric columns;
  /// InvalidArgument on non-empty columns or duplicate entries.
  Status LoadDictionary(std::vector<std::string> entries);

  /// Installs file-global statistics for a column whose rows are not
  /// resident: null_count()/Min()/Max() answer from these instead of
  /// scanning (there are no rows to scan). The stats come from the heap-file
  /// trailer, which the writer computed over the exact row stream.
  void SetPagedStats(int64_t null_count, Value min, Value max);

  /// Drops all row storage (data, validity, null count) but keeps the
  /// dictionary and its index. The heap-file writer reuses one Column as a
  /// per-page accumulator: codes stay stable across pages because the
  /// dictionary persists while rows are flushed.
  void ClearRowsKeepDict();

  /// Releases row-array capacity beyond size(). Tables adopting columns
  /// grown append by append (Table::FromColumns) call it, so a result kept
  /// for a whole mining run costs its rows, not its growth slack.
  void ShrinkToFit();

 private:
  static const std::string& EmptyString();

  /// Interns `v`, returning its code (existing or freshly assigned).
  int32_t InternString(std::string v);

  /// Pushes one valid int64 value and widens the kept range.
  void PushInt64(int64_t v);

  Value Extreme(bool want_max) const;

  DataType type_;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<uint8_t> validity_;  // 1 = valid; vector<uint8_t> beats vector<bool> here
  int64_t null_count_ = 0;         // count of 0-entries in validity_
  // Dictionary encoding (string columns only): per-row codes plus the
  // interned dictionary in first-appearance order and its lookup index.
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
  // Range of the valid int64 values (int64 columns only), kept on append;
  // empty (min > max) until the first valid value.
  int64_t int64_min_ = std::numeric_limits<int64_t>::max();
  int64_t int64_max_ = std::numeric_limits<int64_t>::min();
  // File-global stats for paged (non-resident) columns; see SetPagedStats.
  bool has_paged_stats_ = false;
  Value paged_min_ = Value::Null();
  Value paged_max_ = Value::Null();
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_COLUMN_H_
