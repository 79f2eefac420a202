#include "relational/column.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/macros.h"

namespace cape {

Column::Column(DataType type) : type_(type) {}

const std::string& Column::EmptyString() {
  static const std::string empty;
  return empty;
}

void Column::Reserve(int64_t capacity) {
  const auto cap = static_cast<size_t>(capacity);
  validity_.reserve(cap);
  switch (type_) {
    case DataType::kInt64:
      int64_data_.reserve(cap);
      break;
    case DataType::kDouble:
      double_data_.reserve(cap);
      break;
    case DataType::kString:
      codes_.reserve(cap);
      break;
  }
}

void Column::ReserveDict(int64_t capacity) {
  if (type_ != DataType::kString) return;
  const auto cap = static_cast<size_t>(capacity);
  dict_.reserve(cap);
  dict_index_.reserve(cap);
}

Status Column::AppendValue(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (value.type() == DataType::kInt64) {
        AppendInt64(value.int64_value());
        return Status::OK();
      }
      break;
    case DataType::kDouble:
      // Accept int64 into double columns (lossless for our domains).
      if (value.is_numeric()) {
        AppendDouble(value.AsDouble());
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (value.type() == DataType::kString) {
        AppendString(value.string_value());
        return Status::OK();
      }
      break;
  }
  return Status::TypeError(std::string("cannot append ") + DataTypeToString(value.type()) +
                           " value '" + value.ToString() + "' to " +
                           DataTypeToString(type_) + " column");
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      double_data_.push_back(0.0);
      break;
    case DataType::kString:
      codes_.push_back(kNullCode);
      break;
  }
  validity_.push_back(0);
  ++null_count_;
}

void Column::PushInt64(int64_t v) {
  int64_min_ = std::min(int64_min_, v);
  int64_max_ = std::max(int64_max_, v);
  int64_data_.push_back(v);
}

void Column::AppendInt64(int64_t v) {
  CAPE_DCHECK(type_ == DataType::kInt64);
  PushInt64(v);
  validity_.push_back(1);
}

void Column::AppendDouble(double v) {
  CAPE_DCHECK(type_ == DataType::kDouble);
  double_data_.push_back(v);
  validity_.push_back(1);
}

int32_t Column::InternString(std::string v) {
  auto it = dict_index_.find(v);
  if (it != dict_index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(dict_.size());
  dict_.push_back(v);
  dict_index_.emplace(std::move(v), code);
  return code;
}

void Column::AppendString(std::string v) {
  CAPE_DCHECK(type_ == DataType::kString);
  codes_.push_back(InternString(std::move(v)));
  validity_.push_back(1);
}

int32_t Column::FindCode(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? kNullCode : it->second;
}

std::vector<int32_t> Column::SortedCodeRanks() const {
  std::vector<int32_t> order(dict_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
    return dict_[static_cast<size_t>(a)] < dict_[static_cast<size_t>(b)];
  });
  std::vector<int32_t> ranks(dict_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(order[i])] = static_cast<int32_t>(i);
  }
  return ranks;
}

Value Column::GetValue(int64_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(GetInt64(row));
    case DataType::kDouble:
      return Value::Double(GetDouble(row));
    case DataType::kString:
      return Value::String(GetString(row));
  }
  return Value::Null();
}

double Column::GetNumeric(int64_t row) const {
  CAPE_DCHECK(type_ != DataType::kString)
      << "GetNumeric on a string column (callers must check IsNumericType)";
  if (IsNull(row)) return 0.0;
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(GetInt64(row));
    case DataType::kDouble:
      return GetDouble(row);
    case DataType::kString:
      break;
  }
  return 0.0;
}

template <typename Index>
void Column::AppendRows(const Column& src, const ColumnChunk& chunk, const Index* rows,
                        size_t n, std::vector<int32_t>* code_map) {
  CAPE_DCHECK(src.type_ == type_);
  // Gathers into pre-grown arrays. NULL slots hold 0 / 0.0 / kNullCode in
  // every chunk, so copying them stores exactly what AppendNull would.
  const size_t base = validity_.size();
  validity_.resize(base + n);
  uint8_t* valid = validity_.data() + base;
  int64_t nulls = 0;
  for (size_t j = 0; j < n; ++j) {
    valid[j] = chunk.validity[static_cast<size_t>(rows[j])];
    nulls += 1 - valid[j];
  }
  null_count_ += nulls;
  switch (type_) {
    case DataType::kInt64: {
      int64_data_.resize(base + n);
      int64_t* out = int64_data_.data() + base;
      int64_t lo = int64_min_;
      int64_t hi = int64_max_;
      for (size_t j = 0; j < n; ++j) {
        const int64_t v = chunk.i64[static_cast<size_t>(rows[j])];
        out[j] = v;
        lo = std::min(lo, valid[j] != 0 ? v : lo);
        hi = std::max(hi, valid[j] != 0 ? v : hi);
      }
      int64_min_ = lo;
      int64_max_ = hi;
      return;
    }
    case DataType::kDouble: {
      double_data_.resize(base + n);
      double* out = double_data_.data() + base;
      for (size_t j = 0; j < n; ++j) out[j] = chunk.f64[static_cast<size_t>(rows[j])];
      return;
    }
    case DataType::kString: {
      // Memoized src->dst code translation: each distinct source code pays
      // one hash lookup, every further occurrence is a vector read.
      if (code_map != nullptr && code_map->size() != static_cast<size_t>(src.dict_size())) {
        code_map->assign(static_cast<size_t>(src.dict_size()), kNullCode);
      }
      codes_.resize(base + n);
      int32_t* out = codes_.data() + base;
      for (size_t j = 0; j < n; ++j) {
        const int32_t src_code = chunk.codes[static_cast<size_t>(rows[j])];
        if (src_code < 0) {
          out[j] = kNullCode;
        } else if (code_map == nullptr) {
          out[j] = InternString(src.dict_[static_cast<size_t>(src_code)]);
        } else {
          int32_t& dst_code = (*code_map)[static_cast<size_t>(src_code)];
          if (dst_code < 0) dst_code = InternString(src.dict_[static_cast<size_t>(src_code)]);
          out[j] = dst_code;
        }
      }
      return;
    }
  }
}

template void Column::AppendRows<int>(const Column&, const ColumnChunk&, const int*, size_t,
                                      std::vector<int32_t>*);
template void Column::AppendRows<int64_t>(const Column&, const ColumnChunk&, const int64_t*,
                                          size_t, std::vector<int32_t>*);

void Column::AppendManyFrom(const Column& src, const std::vector<int64_t>& rows) {
  std::vector<int32_t> code_map;
  AppendRows(src, src.Slice(0), rows.data(), rows.size(), &code_map);
}

int64_t Column::CountDistinct() const {
  switch (type_) {
    case DataType::kInt64: {
      std::unordered_set<int64_t> seen;
      for (int64_t i = 0; i < size(); ++i) {
        if (!IsNull(i)) seen.insert(GetInt64(i));
      }
      return static_cast<int64_t>(seen.size());
    }
    case DataType::kDouble: {
      std::unordered_set<double> seen;
      for (int64_t i = 0; i < size(); ++i) {
        if (!IsNull(i)) seen.insert(GetDouble(i));
      }
      return static_cast<int64_t>(seen.size());
    }
    case DataType::kString:
      // The dictionary is append-only and every entry was interned by a
      // non-null row append, so it *is* the distinct set.
      return dict_size();
  }
  return 0;
}

Status Column::LoadDictionary(std::vector<std::string> entries) {
  if (type_ != DataType::kString) {
    return Status::TypeError("LoadDictionary on a non-string column");
  }
  if (!dict_.empty() || !codes_.empty()) {
    return Status::InvalidArgument("LoadDictionary on a non-empty column");
  }
  dict_ = std::move(entries);
  dict_index_.reserve(dict_.size());
  for (size_t i = 0; i < dict_.size(); ++i) {
    const auto [it, inserted] = dict_index_.emplace(dict_[i], static_cast<int32_t>(i));
    (void)it;
    if (!inserted) {
      dict_.clear();
      dict_index_.clear();
      return Status::InvalidArgument("duplicate dictionary entry in heap file");
    }
  }
  return Status::OK();
}

void Column::SetPagedStats(int64_t null_count, Value min, Value max) {
  has_paged_stats_ = true;
  null_count_ = null_count;
  paged_min_ = std::move(min);
  paged_max_ = std::move(max);
}

void Column::ShrinkToFit() {
  int64_data_.shrink_to_fit();
  double_data_.shrink_to_fit();
  codes_.shrink_to_fit();
  validity_.shrink_to_fit();
}

void Column::ClearRowsKeepDict() {
  int64_data_.clear();
  double_data_.clear();
  codes_.clear();
  validity_.clear();
  null_count_ = 0;
  int64_min_ = std::numeric_limits<int64_t>::max();
  int64_max_ = std::numeric_limits<int64_t>::min();
}

ColumnChunk Column::Slice(int64_t begin) const {
  const auto b = static_cast<size_t>(begin);
  ColumnChunk ch;
  ch.validity = validity_.data() + b;
  switch (type_) {
    case DataType::kInt64:
      ch.i64 = int64_data_.data() + b;
      break;
    case DataType::kDouble:
      ch.f64 = double_data_.data() + b;
      break;
    case DataType::kString:
      ch.codes = codes_.data() + b;
      break;
  }
  ch.null_count = null_count_;
  return ch;
}

Value Column::Extreme(bool want_max) const {
  if (has_paged_stats_) return want_max ? paged_max_ : paged_min_;
  switch (type_) {
    case DataType::kInt64:
      if (null_count_ == size()) return Value::Null();
      return Value::Int64(want_max ? int64_max_ : int64_min_);
    case DataType::kDouble: {
      // Value::Compare's numeric rule is a plain < on doubles, so the typed
      // scan keeps the first of equal (or NaN-incomparable) values.
      bool any = false;
      double best = 0.0;
      for (size_t i = 0; i < double_data_.size(); ++i) {
        if (validity_[i] == 0) continue;
        const double v = double_data_[i];
        if (!any || (want_max ? best < v : v < best)) best = v;
        any = true;
      }
      return any ? Value::Double(best) : Value::Null();
    }
    case DataType::kString: {
      const std::string* best = nullptr;
      for (const std::string& s : dict_) {
        if (best == nullptr || (want_max ? *best < s : s < *best)) best = &s;
      }
      return best == nullptr ? Value::Null() : Value::String(*best);
    }
  }
  return Value::Null();
}

void Column::HashContent(Fnv64* h) const {
  h->UpdateU8(static_cast<uint8_t>(type_));
  h->UpdateU64(validity_.size());
  if (!validity_.empty()) h->Update(validity_.data(), validity_.size());
  switch (type_) {
    case DataType::kInt64:
      if (!int64_data_.empty()) {
        h->Update(int64_data_.data(), int64_data_.size() * sizeof(int64_t));
      }
      break;
    case DataType::kDouble:
      if (!double_data_.empty()) {
        h->Update(double_data_.data(), double_data_.size() * sizeof(double));
      }
      break;
    case DataType::kString:
      // Codes are first-appearance ordered, so (dictionary, codes) is a
      // canonical function of the appended string sequence.
      h->UpdateU64(dict_.size());
      for (const std::string& s : dict_) h->UpdateString(s);
      if (!codes_.empty()) h->Update(codes_.data(), codes_.size() * sizeof(int32_t));
      break;
  }
}

void Column::HashRows(Fnv64* h, int64_t begin, int64_t end) const {
  for (int64_t row = begin; row < end; ++row) {
    const size_t i = static_cast<size_t>(row);
    h->UpdateU8(validity_[i]);
    switch (type_) {
      case DataType::kInt64:
        h->UpdateI64(int64_data_[i]);
        break;
      case DataType::kDouble:
        h->UpdateDouble(double_data_[i]);
        break;
      case DataType::kString:
        h->UpdateString(GetString(row));
        break;
    }
  }
}

}  // namespace cape
