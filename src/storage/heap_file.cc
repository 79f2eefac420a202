#include "storage/heap_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/macros.h"

namespace cape {
namespace {

constexpr int64_t kPreambleBytes = 4096;
constexpr int64_t kPageHeaderBytes = 64;
constexpr uint32_t kVersion = 1;
constexpr char kMagic[8] = {'C', 'A', 'P', 'E', 'H', 'F', '0', '1'};
constexpr uint64_t kPageMagic = 0x3130474150455043ULL;  // "CPEPAG01" LE-ish

int64_t Align8(int64_t n) { return (n + 7) & ~int64_t{7}; }

int64_t ElemBytes(DataType type) {
  return type == DataType::kString ? 4 : 8;  // int32 codes vs int64/double
}

/// Per-column slice offsets within a page, shared by writer and reader so
/// the layout is defined in exactly one place. Each slice is
///   [null_count: i64][validity: rows_per_page bytes][pad][data: 8-aligned]
/// and page_bytes comes out as the aligned end of the last slice.
struct PageLayout {
  std::vector<int64_t> slice_off;  ///< Start of each column's slice.
  std::vector<int64_t> data_off;   ///< Start of each column's typed data.
  int64_t page_bytes = 0;
};

PageLayout ComputeLayout(const Schema& schema, int64_t rows_per_page) {
  PageLayout layout;
  int64_t off = kPageHeaderBytes;
  for (int c = 0; c < schema.num_fields(); ++c) {
    layout.slice_off.push_back(off);
    const int64_t data = Align8(off + 8 + rows_per_page);
    layout.data_off.push_back(data);
    off = Align8(data + rows_per_page * ElemBytes(schema.field(c).type));
  }
  layout.page_bytes = off;
  return layout;
}

// Little serialization helpers: native-endian memcpy (heap files are
// machine-local scratch/cache artifacts, not an interchange format).
void PutBytes(std::vector<uint8_t>* out, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  out->insert(out->end(), b, b + n);
}
void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
void PutU32(std::vector<uint8_t>* out, uint32_t v) { PutBytes(out, &v, sizeof(v)); }
void PutU64(std::vector<uint8_t>* out, uint64_t v) { PutBytes(out, &v, sizeof(v)); }
void PutI64(std::vector<uint8_t>* out, int64_t v) { PutBytes(out, &v, sizeof(v)); }
void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  PutBytes(out, s.data(), s.size());
}
void PutValue(std::vector<uint8_t>* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, 0);
  } else if (v.type() == DataType::kInt64) {
    PutU8(out, 1);
    PutI64(out, v.int64_value());
  } else if (v.type() == DataType::kDouble) {
    PutU8(out, 2);
    const double d = v.double_value();
    PutBytes(out, &d, sizeof(d));
  } else {
    PutU8(out, 3);
    PutString(out, v.string_value());
  }
}

/// Bounds-checked reader over a byte span (trailer parsing).
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status Take(void* out, size_t n) {
    if (pos_ + n > size_) return Status::IOError("heap file trailer truncated");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Result<uint8_t> U8() {
    uint8_t v = 0;
    CAPE_RETURN_IF_ERROR(Take(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v = 0;
    CAPE_RETURN_IF_ERROR(Take(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> I64() {
    int64_t v = 0;
    CAPE_RETURN_IF_ERROR(Take(&v, sizeof(v)));
    return v;
  }
  Result<std::string> String() {
    CAPE_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos_ + len > size_) return Status::IOError("heap file trailer truncated");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }
  Result<Value> TakeValue() {
    CAPE_ASSIGN_OR_RETURN(uint8_t tag, U8());
    switch (tag) {
      case 0:
        return Value::Null();
      case 1: {
        CAPE_ASSIGN_OR_RETURN(int64_t v, I64());
        return Value::Int64(v);
      }
      case 2: {
        double v;
        CAPE_RETURN_IF_ERROR(Take(&v, sizeof(v)));
        return Value::Double(v);
      }
      case 3: {
        CAPE_ASSIGN_OR_RETURN(std::string s, String());
        return Value::String(std::move(s));
      }
      default:
        return Status::IOError("heap file trailer: bad value tag");
    }
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

uint64_t ChecksumPayload(const uint8_t* page, int64_t page_bytes) {
  Fnv64 h;
  h.Update(page + kPageHeaderBytes, static_cast<size_t>(page_bytes - kPageHeaderBytes));
  return h.digest();
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

HeapFileWriter::HeapFileWriter(std::string path, std::shared_ptr<Schema> schema,
                               int64_t rows_per_page)
    : path_(std::move(path)), schema_(std::move(schema)), rows_per_page_(rows_per_page) {
  for (int c = 0; c < schema_->num_fields(); ++c) {
    staging_.emplace_back(schema_->field(c).type);
    staging_.back().Reserve(rows_per_page_);
  }
  stats_.resize(static_cast<size_t>(schema_->num_fields()));
}

Result<std::unique_ptr<HeapFileWriter>> HeapFileWriter::Create(
    const std::string& path, std::shared_ptr<Schema> schema, int64_t rows_per_page) {
  if (schema == nullptr || schema->num_fields() == 0) {
    return Status::InvalidArgument("heap file needs a non-empty schema");
  }
  if (rows_per_page <= 0 || rows_per_page % 2048 != 0) {
    return Status::InvalidArgument(
        "rows_per_page must be a positive multiple of the 2048-row kernel "
        "block, got " + std::to_string(rows_per_page));
  }
  auto writer = std::unique_ptr<HeapFileWriter>(
      new HeapFileWriter(path, std::move(schema), rows_per_page));
  writer->file_ = std::fopen(path.c_str(), "wb");
  if (writer->file_ == nullptr) {
    return Status::IOError("cannot create heap file '" + path + "'");
  }
  // Reserve the preamble slot; the real preamble lands in Finish once the
  // geometry and digest are known.
  std::vector<uint8_t> zeros(static_cast<size_t>(kPreambleBytes), 0);
  if (std::fwrite(zeros.data(), 1, zeros.size(), writer->file_) != zeros.size()) {
    return Status::IOError("cannot write heap file preamble to '" + path + "'");
  }
  const PageLayout layout = ComputeLayout(*writer->schema_, rows_per_page);
  writer->page_buf_.resize(static_cast<size_t>(layout.page_bytes));
  return writer;
}

HeapFileWriter::~HeapFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status HeapFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("heap file writer already finished");
  const int num_cols = schema_->num_fields();
  if (static_cast<int>(row.size()) != num_cols) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(num_cols));
  }
  // Validate every cell before mutating any staging column (same contract
  // as Table::AppendRow: a failed append leaves the writer unchanged).
  for (int c = 0; c < num_cols; ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_null()) continue;
    const DataType col_type = schema_->field(c).type;
    const bool ok = (v.type() == col_type) ||
                    (col_type == DataType::kDouble && v.is_numeric());
    if (!ok) {
      return Status::TypeError("cell " + std::to_string(c) + " has type " +
                               DataTypeToString(v.type()) + ", column expects " +
                               DataTypeToString(col_type));
    }
  }
  for (int c = 0; c < num_cols; ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    Status st = staging_[static_cast<size_t>(c)].AppendValue(v);
    CAPE_DCHECK(st.ok());  // lint:allow(check-in-status-fn) pre-validated above
    HeapFileColumnStats& cs = stats_[static_cast<size_t>(c)];
    if (v.is_null()) {
      ++cs.null_total;
      continue;
    }
    // Normalize through the column type so stats compare the way the
    // in-memory Column::Min/Max box values (int64 widens in double cols).
    const Value norm = schema_->field(c).type == DataType::kDouble &&
                               v.type() == DataType::kInt64
                           ? Value::Double(static_cast<double>(v.int64_value()))
                           : v;
    if (cs.min.is_null() || norm < cs.min) cs.min = norm;
    if (cs.max.is_null() || cs.max < norm) cs.max = norm;
  }
  ++rows_written_;
  if (staging_[0].size() == rows_per_page_) return FlushPage();
  return Status::OK();
}

Status HeapFileWriter::FlushPage() {
  const int64_t rows = staging_[0].size();
  if (rows == 0) return Status::OK();
  const PageLayout layout = ComputeLayout(*schema_, rows_per_page_);
  std::memset(page_buf_.data(), 0, page_buf_.size());
  uint8_t* buf = page_buf_.data();
  const int64_t row_begin = pages_written_ * rows_per_page_;
  std::memcpy(buf, &kPageMagic, sizeof(kPageMagic));
  std::memcpy(buf + 8, &row_begin, sizeof(row_begin));
  std::memcpy(buf + 16, &rows, sizeof(rows));
  for (int c = 0; c < schema_->num_fields(); ++c) {
    Column& col = staging_[static_cast<size_t>(c)];
    uint8_t* slice = buf + layout.slice_off[static_cast<size_t>(c)];
    const ColumnChunk rows_view = col.Slice(0);
    const int64_t nulls = col.null_count();
    std::memcpy(slice, &nulls, sizeof(nulls));
    std::memcpy(slice + 8, rows_view.validity, static_cast<size_t>(rows));
    uint8_t* data = buf + layout.data_off[static_cast<size_t>(c)];
    switch (col.type()) {
      case DataType::kInt64:
        std::memcpy(data, rows_view.i64, static_cast<size_t>(rows) * 8);
        break;
      case DataType::kDouble:
        std::memcpy(data, rows_view.f64, static_cast<size_t>(rows) * 8);
        break;
      case DataType::kString:
        std::memcpy(data, rows_view.codes, static_cast<size_t>(rows) * 4);
        break;
    }
    col.ClearRowsKeepDict();
  }
  const uint64_t checksum = ChecksumPayload(buf, layout.page_bytes);
  std::memcpy(buf + 24, &checksum, sizeof(checksum));
  if (std::fwrite(buf, 1, page_buf_.size(), file_) != page_buf_.size()) {
    return Status::IOError("short write to heap file '" + path_ + "'");
  }
  page_checksums_.push_back(checksum);
  ++pages_written_;
  return Status::OK();
}

Status HeapFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("heap file writer already finished");
  CAPE_RETURN_IF_ERROR(FlushPage());
  finished_ = true;

  const PageLayout layout = ComputeLayout(*schema_, rows_per_page_);
  std::vector<uint8_t> trailer;
  for (int c = 0; c < schema_->num_fields(); ++c) {
    const Field& f = schema_->field(c);
    PutString(&trailer, f.name);
    PutU8(&trailer, static_cast<uint8_t>(f.type));
    PutU8(&trailer, f.nullable ? 1 : 0);
  }
  for (const HeapFileColumnStats& cs : stats_) {
    PutI64(&trailer, cs.null_total);
    PutValue(&trailer, cs.min);
    PutValue(&trailer, cs.max);
  }
  for (const Column& col : staging_) {
    PutI64(&trailer, col.dict_size());
    for (int32_t code = 0; code < col.dict_size(); ++code) {
      PutString(&trailer, col.DictString(code));
    }
  }
  const int64_t trailer_offset = kPreambleBytes + pages_written_ * layout.page_bytes;
  if (std::fwrite(trailer.data(), 1, trailer.size(), file_) != trailer.size()) {
    return Status::IOError("short trailer write to heap file '" + path_ + "'");
  }

  Fnv64 digest;
  digest.UpdateU64(schema_->Digest());
  digest.UpdateI64(rows_written_);
  for (uint64_t cs : page_checksums_) digest.UpdateU64(cs);
  digest.Update(trailer.data(), trailer.size());

  std::vector<uint8_t> preamble;
  preamble.reserve(static_cast<size_t>(kPreambleBytes));
  PutBytes(&preamble, kMagic, sizeof(kMagic));
  PutU32(&preamble, kVersion);
  PutU32(&preamble, static_cast<uint32_t>(schema_->num_fields()));
  PutI64(&preamble, rows_written_);
  PutI64(&preamble, rows_per_page_);
  PutI64(&preamble, layout.page_bytes);
  PutI64(&preamble, pages_written_);
  PutI64(&preamble, trailer_offset);
  PutI64(&preamble, static_cast<int64_t>(trailer.size()));
  PutU64(&preamble, digest.digest());
  PutU64(&preamble, HashBytes(preamble.data(), preamble.size()));
  preamble.resize(static_cast<size_t>(kPreambleBytes), 0);
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(preamble.data(), 1, preamble.size(), file_) != preamble.size() ||
      std::fflush(file_) != 0) {
    return Status::IOError("cannot finalize heap file '" + path_ + "'");
  }
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.

HeapFile::~HeapFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::shared_ptr<HeapFile>> HeapFile::Open(const std::string& path) {
  auto file = std::shared_ptr<HeapFile>(new HeapFile());
  file->path_ = path;
  file->fd_ = ::open(path.c_str(), O_RDONLY);  // lint:allow(raw-file-io) storage owns file IO
  if (file->fd_ < 0) {
    return Status::IOError("cannot open heap file '" + path + "'");
  }
  uint8_t preamble[kPreambleBytes];
  if (::pread(file->fd_, preamble, sizeof(preamble), 0) !=
      static_cast<ssize_t>(sizeof(preamble))) {
    return Status::IOError("heap file '" + path + "' has no preamble");
  }
  if (std::memcmp(preamble, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("'" + path + "' is not a CAPE heap file");
  }
  size_t pos = sizeof(kMagic);
  auto take = [&](void* out, size_t n) {
    std::memcpy(out, preamble + pos, n);
    pos += n;
  };
  uint32_t version, num_cols;
  int64_t trailer_offset, trailer_bytes;
  take(&version, 4);
  take(&num_cols, 4);
  take(&file->num_rows_, 8);
  take(&file->rows_per_page_, 8);
  take(&file->page_bytes_, 8);
  take(&file->num_pages_, 8);
  take(&trailer_offset, 8);
  take(&trailer_bytes, 8);
  take(&file->content_digest_, 8);
  const uint64_t want_checksum = HashBytes(preamble, pos);
  uint64_t got_checksum;
  take(&got_checksum, 8);
  if (version != kVersion) {
    return Status::IOError("heap file '" + path + "' has unsupported version " +
                           std::to_string(version));
  }
  if (want_checksum != got_checksum) {
    return Status::IOError("heap file '" + path + "' preamble checksum mismatch");
  }
  if (num_cols == 0 || file->num_rows_ < 0 || file->rows_per_page_ <= 0 ||
      trailer_bytes < 0 ||
      file->num_pages_ !=
          (file->num_rows_ + file->rows_per_page_ - 1) / file->rows_per_page_) {
    return Status::IOError("heap file '" + path + "' has inconsistent geometry");
  }

  std::vector<uint8_t> trailer(static_cast<size_t>(trailer_bytes));
  if (trailer_bytes > 0 &&
      ::pread(file->fd_, trailer.data(), trailer.size(), trailer_offset) !=
          static_cast<ssize_t>(trailer.size())) {
    return Status::IOError("heap file '" + path + "' trailer unreadable");
  }
  Cursor cur(trailer.data(), trailer.size());
  std::vector<Field> fields;
  for (uint32_t c = 0; c < num_cols; ++c) {
    Field f;
    CAPE_ASSIGN_OR_RETURN(f.name, cur.String());
    CAPE_ASSIGN_OR_RETURN(uint8_t type, cur.U8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("heap file '" + path + "' has bad column type");
    }
    f.type = static_cast<DataType>(type);
    CAPE_ASSIGN_OR_RETURN(uint8_t nullable, cur.U8());
    f.nullable = nullable != 0;
    fields.push_back(std::move(f));
  }
  for (uint32_t c = 0; c < num_cols; ++c) {
    HeapFileColumnStats cs;
    CAPE_ASSIGN_OR_RETURN(cs.null_total, cur.I64());
    CAPE_ASSIGN_OR_RETURN(cs.min, cur.TakeValue());
    CAPE_ASSIGN_OR_RETURN(cs.max, cur.TakeValue());
    file->stats_.push_back(std::move(cs));
  }
  for (uint32_t c = 0; c < num_cols; ++c) {
    CAPE_ASSIGN_OR_RETURN(int64_t dict_size, cur.I64());
    if (dict_size < 0) return Status::IOError("heap file dictionary underflow");
    std::vector<std::string> dict;
    dict.reserve(static_cast<size_t>(dict_size));
    for (int64_t i = 0; i < dict_size; ++i) {
      CAPE_ASSIGN_OR_RETURN(std::string entry, cur.String());
      dict.push_back(std::move(entry));
    }
    file->dicts_.push_back(std::move(dict));
  }
  if (!cur.exhausted()) {
    return Status::IOError("heap file '" + path + "' has trailing trailer bytes");
  }

  file->schema_ = Schema::Make(std::move(fields));
  const PageLayout layout = ComputeLayout(*file->schema_, file->rows_per_page_);
  if (layout.page_bytes != file->page_bytes_) {
    return Status::IOError("heap file '" + path + "' page geometry mismatch");
  }
  file->col_offsets_ = layout.slice_off;
  file->data_offsets_ = layout.data_off;
  return file;
}

Status HeapFile::ReadPage(int64_t page, uint8_t* buf) const {
  if (page < 0 || page >= num_pages_) {
    return Status::OutOfRange("page " + std::to_string(page) + " out of range [0, " +
                              std::to_string(num_pages_) + ")");
  }
  CAPE_FAILPOINT("storage.page_read");
  const int64_t offset = kPreambleBytes + page * page_bytes_;
  if (::pread(fd_, buf, static_cast<size_t>(page_bytes_), offset) !=
      static_cast<ssize_t>(page_bytes_)) {
    return Status::IOError("short page read from heap file '" + path_ + "'");
  }
  uint64_t magic, checksum;
  int64_t row_begin, row_count;
  std::memcpy(&magic, buf, 8);
  std::memcpy(&row_begin, buf + 8, 8);
  std::memcpy(&row_count, buf + 16, 8);
  std::memcpy(&checksum, buf + 24, 8);
  if (magic != kPageMagic || row_begin != page * rows_per_page_ || row_count <= 0 ||
      row_count > rows_per_page_ || row_begin + row_count > num_rows_) {
    return Status::IOError("heap file '" + path_ + "' page " + std::to_string(page) +
                           " has a corrupt header");
  }
  if (ChecksumPayload(buf, page_bytes_) != checksum) {
    return Status::IOError("heap file '" + path_ + "' page " + std::to_string(page) +
                           " failed its checksum");
  }
  return Status::OK();
}

Status HeapFile::ParsePage(const uint8_t* buf, int64_t* row_begin, int* row_count,
                           std::vector<ColumnChunk>* chunks) const {
  int64_t rows;
  std::memcpy(row_begin, buf + 8, 8);
  std::memcpy(&rows, buf + 16, 8);
  *row_count = static_cast<int>(rows);
  chunks->clear();
  chunks->reserve(static_cast<size_t>(schema_->num_fields()));
  for (int c = 0; c < schema_->num_fields(); ++c) {
    const uint8_t* slice = buf + col_offsets_[static_cast<size_t>(c)];
    const uint8_t* data = buf + data_offsets_[static_cast<size_t>(c)];
    ColumnChunk ch;
    std::memcpy(&ch.null_count, slice, 8);
    ch.validity = slice + 8;
    switch (schema_->field(c).type) {
      case DataType::kInt64:
        ch.i64 = reinterpret_cast<const int64_t*>(data);
        break;
      case DataType::kDouble:
        ch.f64 = reinterpret_cast<const double*>(data);
        break;
      case DataType::kString:
        ch.codes = reinterpret_cast<const int32_t*>(data);
        break;
    }
    chunks->push_back(ch);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

Status WriteTableToHeapFile(const Table& table, const std::string& path,
                            int64_t rows_per_page) {
  if (!table.rows_resident()) {
    return Status::InvalidArgument("WriteTableToHeapFile requires resident rows");
  }
  CAPE_ASSIGN_OR_RETURN(auto writer,
                        HeapFileWriter::Create(path, table.schema(), rows_per_page));
  // analyzer:allow-next-line(cancellation) offline file builder, not request path
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    CAPE_RETURN_IF_ERROR(writer->Append(table.GetRow(r)));
  }
  return writer->Finish();
}

}  // namespace cape
