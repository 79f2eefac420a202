#ifndef CAPE_RELATIONAL_TABLE_H_
#define CAPE_RELATIONAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "relational/column.h"
#include "relational/page_source.h"
#include "relational/schema.h"

namespace cape {

/// A materialized row: one Value per schema field.
using Row = std::vector<Value>;

/// An immutable-by-convention, in-memory columnar relation.
///
/// Tables are built by appending rows (or via operators in operators.h)
/// and then treated as read-only; they are shared via shared_ptr.
class Table {
 public:
  explicit Table(std::shared_ptr<Schema> schema);

  /// Builds a table from rows, validating arity and types.
  static Result<std::shared_ptr<Table>> FromRows(std::shared_ptr<Schema> schema,
                                                 const std::vector<Row>& rows);

  /// Adopts column-at-a-time built columns, one per schema field with the
  /// field's type and `num_rows` rows each (the row count is explicit so a
  /// zero-column table can still hold rows), trimmed to their size.
  static Result<std::shared_ptr<Table>> FromColumns(std::shared_ptr<Schema> schema,
                                                    std::vector<Column> columns,
                                                    int64_t num_rows);

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }

  /// Mutable column access. Hands out storage the fingerprint cache cannot
  /// see through, so it drops the cached digest: the next Fingerprint()
  /// rehashes from row 0.
  Column& mutable_column(int i) {
    InvalidateFingerprint();
    return columns_[static_cast<size_t>(i)];
  }

  /// Column lookup by name; NotFound for unknown names.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; the row must have one Value per column of compatible
  /// type (NULLs allowed anywhere).
  Status AppendRow(const Row& row);

  /// Checks that `row` could be appended (arity and per-cell types) without
  /// mutating anything. Batch appenders validate every row up front so a
  /// bad row rejects the whole batch instead of leaving a prefix appended.
  Status ValidateRow(const Row& row) const;

  /// Pre-sizes all columns.
  void Reserve(int64_t capacity);

  /// Bulk-appends the given rows of `src`, which must share this table's
  /// schema (by pointer or by equality). Column-at-a-time, no Value boxing
  /// — the fast path for selection, sorting and limits.
  Status AppendRowsFrom(const Table& src, const std::vector<int64_t>& rows);

  Value GetValue(int64_t row, int col) const { return column(col).GetValue(row); }

  /// Materializes row `row` as a vector of Values.
  Row GetRow(int64_t row) const;

  /// Projection of row `row` onto the given column indices.
  Row GetRowProjection(int64_t row, const std::vector<int>& cols) const;

  /// Renders up to `max_rows` rows as an aligned ASCII table for debugging
  /// and example output.
  std::string ToString(int64_t max_rows = 20) const;

  /// Verifies internal consistency (column sizes match, no duplicate field
  /// names). Intended for tests and after bulk construction.
  Status Validate() const;

  /// Content fingerprint over the schema digest, row count, and every
  /// column's per-row content stream (validity, typed payloads, string
  /// contents). Equal-content tables fingerprint equal; any appended row,
  /// changed cell, or schema difference changes it. This is the cache key
  /// half that invalidates persisted pattern sets when the underlying
  /// relation changes (PatternCache).
  ///
  /// The digest is cached and chain-extended: each column keeps a running
  /// Fnv64 state over rows [0, rows_hashed), so a fingerprint after an
  /// append only hashes the delta rows — O(delta), not O(table). The cached
  /// states are a pure function of row content (Column::HashRows), so
  /// append-then-fingerprint equals a fresh-load fingerprint of the same
  /// rows. mutable_column() invalidates the cache (next call rehashes from
  /// row 0). Thread-safe. Non-resident paged tables hash the page source's
  /// content digest instead of the (absent) columns.
  uint64_t Fingerprint() const;

  /// Makes this (empty) table non-resident over a paged row source
  /// (storage/paged_table.h): its row count comes from the source, its
  /// columns stay row-free (dictionaries and paged stats only), and every
  /// kernel scan pins the source's pages instead of slicing the columns.
  Status AttachPageSource(std::shared_ptr<PageSource> source);

  /// The attached page source, or null. Shared so engine stats can snapshot
  /// cache counters while scans hold pins.
  const std::shared_ptr<PageSource>& page_source() const { return page_source_; }

  /// True when this table's rows are materialized in its columns, i.e. it
  /// has no page source.
  bool rows_resident() const { return page_source_ == nullptr; }

 private:
  /// Cached incremental fingerprint state: one running per-column Fnv64 over
  /// rows [0, rows_hashed). Behind a unique_ptr so Table stays movable-only
  /// in a controlled way (the Mutex is neither copyable nor movable) and the
  /// cell can be mutated from the const Fingerprint() path.
  struct FingerprintCell {
    Mutex mu;
    bool valid CAPE_GUARDED_BY(mu) = false;
    int64_t rows_hashed CAPE_GUARDED_BY(mu) = 0;
    std::vector<Fnv64> col_states CAPE_GUARDED_BY(mu);
  };

  void InvalidateFingerprint();

  std::shared_ptr<Schema> schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  std::shared_ptr<PageSource> page_source_;
  std::unique_ptr<FingerprintCell> fingerprint_cell_;
};

using TablePtr = std::shared_ptr<Table>;

/// Convenience: builds a schema and empty table in one call.
TablePtr MakeEmptyTable(std::vector<Field> fields);

}  // namespace cape

#endif  // CAPE_RELATIONAL_TABLE_H_
