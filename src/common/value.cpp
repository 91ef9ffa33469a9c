#include "common/value.hpp"

#include <charconv>

#include "common/json.hpp"

namespace laminar {
namespace {

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}
const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}
const Value::Array& EmptyArray() {
  static const Value::Array kEmpty;
  return kEmpty;
}
const Value::Object& EmptyObject() {
  static const Value::Object kEmpty;
  return kEmpty;
}

void EscapeInto(std::string& out, const std::string& s) {
  out += '"';
  size_t run = 0;  // start of the pending verbatim run
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

}  // namespace

Value& ValueObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Value());
  return entries_.back().second;
}

const Value* ValueObject::Find(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* ValueObject::Find(std::string_view key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void ValueObject::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return;
    }
  }
}

bool operator==(const ValueObject& a, const ValueObject& b) {
  return a.entries_ == b.entries_;
}

bool Value::as_bool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return *i != 0;
  return fallback;
}

int64_t Value::as_int(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return *i;
  if (const double* d = std::get_if<double>(&data_)) return static_cast<int64_t>(*d);
  if (const bool* b = std::get_if<bool>(&data_)) return *b ? 1 : 0;
  return fallback;
}

double Value::as_double(double fallback) const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return static_cast<double>(*i);
  return fallback;
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  return EmptyString();
}

const Value::Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  return EmptyArray();
}

Value::Array& Value::mutable_array() {
  if (!is_array()) data_ = Array{};
  return std::get<Array>(data_);
}

void Value::push_back(Value v) { mutable_array().push_back(std::move(v)); }

size_t Value::size() const {
  if (const Array* a = std::get_if<Array>(&data_)) return a->size();
  if (const Object* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

const Value::Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  return EmptyObject();
}

Value::Object& Value::mutable_object() {
  if (!is_object()) data_ = Object{};
  return std::get<Object>(data_);
}

const Value& Value::at(std::string_view key) const {
  if (const Object* o = std::get_if<Object>(&data_)) {
    if (const Value* v = o->Find(key)) return *v;
  }
  return NullValue();
}

bool Value::contains(std::string_view key) const {
  const Object* o = std::get_if<Object>(&data_);
  return o != nullptr && o->contains(key);
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value& v = at(key);
  return v.is_string() ? v.as_string() : std::move(fallback);
}

int64_t Value::GetInt(std::string_view key, int64_t fallback) const {
  const Value& v = at(key);
  return v.is_number() || v.is_bool() ? v.as_int(fallback) : fallback;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value& v = at(key);
  return v.is_number() ? v.as_double(fallback) : fallback;
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value& v = at(key);
  return v.is_bool() || v.is_int() ? v.as_bool(fallback) : fallback;
}

namespace {

void SerializeInto(std::string& out, const Value& v, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v.as_int()).ptr);
  } else if (v.is_double()) {
    char buf[json::kMaxNumberChars];
    out.append(buf, json::WriteNumber(buf, v.as_double()));
  } else if (v.is_string()) {
    EscapeInto(out, v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      SerializeInto(out, arr[i], indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, val] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      EscapeInto(out, k);
      out += indent < 0 ? ":" : ": ";
      SerializeInto(out, val, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

}  // namespace

std::string Value::ToJson() const {
  std::string out;
  SerializeInto(out, *this, /*indent=*/-1, 0);
  return out;
}

std::string Value::ToJsonPretty() const {
  std::string out;
  SerializeInto(out, *this, /*indent=*/2, 0);
  return out;
}

}  // namespace laminar
