#include "registry/table.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace laminar::registry {
namespace {

telemetry::Counter& OpCounter(const char* op) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_registry_ops_total", std::string("op=\"") + op + "\"");
}

bool TypeMatches(ColumnType type, const Value& v) {
  switch (type) {
    case ColumnType::kInt: return v.is_int();
    case ColumnType::kDouble: return v.is_number();
    case ColumnType::kBool: return v.is_bool();
    case ColumnType::kString:
    case ColumnType::kClob: return v.is_string();
  }
  return false;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (const std::string& col : schema_.unique_columns) {
    indexes_[col];  // unique columns are always indexed
  }
  for (const std::string& col : schema_.indexed_columns) {
    indexes_[col];
  }
  for (const std::string& col : schema_.counted_columns) {
    counts_[col];
  }
}

const ColumnSpec* Table::FindColumn(const std::string& name) const {
  for (const ColumnSpec& c : schema_.columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string Table::IndexKey(const Value& v) { return v.ToJson(); }

Status Table::ValidateTypes(const Row& row, bool partial) const {
  if (!row.is_object()) {
    return Status::InvalidArgument("row must be an object");
  }
  for (const auto& [key, value] : row.as_object()) {
    if (key == schema_.primary_key) {
      return Status::InvalidArgument("primary key '" + key +
                                     "' is assigned by the table");
    }
    const ColumnSpec* col = FindColumn(key);
    if (col == nullptr) {
      return Status::InvalidArgument("unknown column '" + key + "' in table " +
                                     schema_.name);
    }
    if (value.is_null()) {
      if (!col->nullable) {
        return Status::InvalidArgument("column '" + key + "' is not nullable");
      }
      continue;
    }
    if (!TypeMatches(col->type, value)) {
      return Status::InvalidArgument("type mismatch for column '" + key +
                                     "' in table " + schema_.name);
    }
    if (col->type == ColumnType::kString &&
        value.as_string().size() > schema_.string_limit) {
      return Status::InvalidArgument(
          "value for String column '" + key + "' exceeds VARCHAR(" +
          std::to_string(schema_.string_limit) +
          ") — use a Clob column for large objects");
    }
  }
  if (!partial) {
    for (const ColumnSpec& col : schema_.columns) {
      if (!col.nullable && !row.contains(col.name)) {
        return Status::InvalidArgument("missing non-nullable column '" +
                                       col.name + "' in table " +
                                       schema_.name);
      }
    }
  }
  return Status::Ok();
}

Status Table::CheckUnique(const Row& row, int64_t ignore_id) const {
  for (const std::string& col : schema_.unique_columns) {
    const Value& v = row.at(col);
    if (v.is_null()) continue;
    auto idx = indexes_.find(col);
    if (idx == indexes_.end()) continue;
    auto it = idx->second.find(IndexKey(v));
    if (it == idx->second.end()) continue;
    for (int64_t id : it->second) {
      if (id != ignore_id) {
        return Status::AlreadyExists("duplicate value for unique column '" +
                                     col + "' in table " + schema_.name);
      }
    }
  }
  return Status::Ok();
}

void Table::IndexRow(int64_t id, const Row& row) {
  for (auto& [col, buckets] : indexes_) {
    const Value& v = row.at(col);
    if (v.is_null()) continue;
    buckets[IndexKey(v)].push_back(id);
  }
  for (auto& [col, counts] : counts_) ++counts[row.at(col).as_string()];
}

void Table::DeindexRow(int64_t id, const Row& row) {
  for (auto& [col, buckets] : indexes_) {
    const Value& v = row.at(col);
    if (v.is_null()) continue;
    auto it = buckets.find(IndexKey(v));
    if (it == buckets.end()) continue;
    std::erase(it->second, id);
    if (it->second.empty()) buckets.erase(it);
  }
  for (auto& [col, counts] : counts_) {
    auto it = counts.find(row.at(col).as_string());
    if (it != counts.end() && --it->second == 0) counts.erase(it);
  }
}

Result<int64_t> Table::Insert(Row row) {
  Status st = ValidateTypes(row, /*partial=*/false);
  if (!st.ok()) return st;
  st = CheckUnique(row, /*ignore_id=*/-1);
  if (!st.ok()) return st;
  static telemetry::Counter& inserts = OpCounter("insert");
  inserts.Inc();
  int64_t id = next_id_++;
  row[schema_.primary_key] = id;
  IndexRow(id, row);
  auto [it, unused] = rows_.emplace(id, std::move(row));
  ++version_;
  if (wal_ != nullptr) wal_->Append(schema_.name, "insert", id, &it->second);
  return id;
}

Result<Row> Table::Get(int64_t id) const {
  static telemetry::Counter& gets = OpCounter("get");
  gets.Inc();
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound("no row " + std::to_string(id) + " in table " +
                            schema_.name);
  }
  return it->second;
}

Status Table::Update(int64_t id, const Row& fields) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return Status::NotFound("no row " + std::to_string(id) + " in table " +
                            schema_.name);
  }
  Status st = ValidateTypes(fields, /*partial=*/true);
  if (!st.ok()) return st;
  // Merge into a candidate and re-check uniqueness.
  Row merged = it->second;
  for (const auto& [key, value] : fields.as_object()) {
    merged[key] = value;
  }
  st = CheckUnique(merged, id);
  if (!st.ok()) return st;
  static telemetry::Counter& updates = OpCounter("update");
  updates.Inc();
  DeindexRow(id, it->second);
  it->second = std::move(merged);
  IndexRow(id, it->second);
  ++version_;
  if (wal_ != nullptr) wal_->Append(schema_.name, "update", id, &fields);
  return Status::Ok();
}

bool Table::Erase(int64_t id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return false;
  static telemetry::Counter& erases = OpCounter("erase");
  erases.Inc();
  DeindexRow(id, it->second);
  rows_.erase(it);
  ++version_;
  if (wal_ != nullptr) wal_->Append(schema_.name, "erase", id, nullptr);
  return true;
}

std::vector<Row> Table::FindBy(const std::string& column,
                               const Value& value) const {
  static telemetry::Counter& index_lookups = OpCounter("find_indexed");
  static telemetry::Counter& scans = OpCounter("find_scan");
  std::vector<Row> out;
  auto idx = indexes_.find(column);
  if (idx != indexes_.end()) {
    stats_.index_lookups.fetch_add(1, std::memory_order_relaxed);
    index_lookups.Inc();
    auto it = idx->second.find(IndexKey(value));
    if (it != idx->second.end()) {
      std::vector<int64_t> ids = it->second;
      std::sort(ids.begin(), ids.end());
      for (int64_t id : ids) out.push_back(rows_.at(id));
    }
    return out;
  }
  stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
  scans.Inc();
  for (const auto& [id, row] : rows_) {
    if (row.at(column) == value) out.push_back(row);
  }
  stats_.rows_scanned.fetch_add(rows_.size(), std::memory_order_relaxed);
  return out;
}

const std::unordered_map<std::string, size_t>& Table::RowCounts(
    const std::string& column) const {
  static const std::unordered_map<std::string, size_t> kNone;
  auto it = counts_.find(column);
  return it != counts_.end() ? it->second : kNone;
}

std::vector<Row> Table::Scan(const std::function<bool(const Row&)>& pred) const {
  static telemetry::Counter& scans = OpCounter("scan");
  scans.Inc();
  stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
  std::vector<Row> out;
  for (const auto& [id, row] : rows_) {
    if (pred(row)) out.push_back(row);
  }
  stats_.rows_scanned.fetch_add(rows_.size(), std::memory_order_relaxed);
  return out;
}

std::vector<Row> Table::All() const {
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (const auto& [id, row] : rows_) out.push_back(row);
  return out;
}

void Table::Clear() {
  ClearNoLog();
  if (wal_ != nullptr) wal_->Append(schema_.name, "clear", 0, nullptr);
}

void Table::ClearNoLog() {
  rows_.clear();
  for (auto& [col, buckets] : indexes_) buckets.clear();
  for (auto& [col, counts] : counts_) counts.clear();
  next_id_ = 1;
  ++version_;
}

Value Table::ToJson() const {
  Value obj = Value::MakeObject();
  obj["next_id"] = next_id_;
  Value rows = Value::MakeArray();
  for (const auto& [id, row] : rows_) rows.push_back(row);
  obj["rows"] = std::move(rows);
  return obj;
}

Status Table::CheckRows(const Value& table_obj) const {
  for (const Value& row : table_obj.at("rows").as_array()) {
    if (!row.is_object()) {
      return Status::ParseError("table row is not an object");
    }
    if (row.GetInt(schema_.primary_key, -1) < 1) {
      return Status::ParseError("row missing primary key in table " +
                                schema_.name);
    }
  }
  return Status::Ok();
}

Status Table::LoadRows(const Value& table_obj) {
  if (Status st = CheckRows(table_obj); !st.ok()) return st;
  ClearNoLog();  // restoring a snapshot is not a logged mutation
  int64_t max_id = 0;
  for (const Value& row : table_obj.at("rows").as_array()) {
    int64_t id = row.GetInt(schema_.primary_key, -1);
    // A repeated id keeps its first row, and is indexed and counted once.
    if (rows_.emplace(id, row).second) IndexRow(id, row);
    max_id = std::max(max_id, id);
  }
  int64_t stored_next = table_obj.GetInt("next_id", max_id + 1);
  next_id_ = std::max(stored_next, max_id + 1);
  return Status::Ok();
}

Status Table::RestoreRow(Row row) {
  if (!row.is_object()) {
    return Status::ParseError("restored row is not an object");
  }
  int64_t id = row.GetInt(schema_.primary_key, -1);
  if (id < 1) return Status::ParseError("restored row missing primary key");
  auto it = rows_.find(id);
  if (it != rows_.end()) {
    DeindexRow(id, it->second);
    rows_.erase(it);
  }
  IndexRow(id, row);
  rows_.emplace(id, std::move(row));
  next_id_ = std::max(next_id_, id + 1);
  ++version_;
  return Status::Ok();
}

}  // namespace laminar::registry
