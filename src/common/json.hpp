// JSON parsing into laminar::Value, and the number writer every JSON
// serializer shares.
//
// The wire protocol, registry persistence and SPT-embedding storage
// ('sptEmbedding' column is JSON, per the paper's Fig. 6 schema) all parse
// through here. Strict-ish RFC 8259: rejects trailing garbage, accepts UTF-8
// passthrough, supports \uXXXX escapes (with surrogate pairs).
#pragma once

#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"

namespace laminar::json {

/// Parses exactly one JSON document (plus surrounding whitespace).
Result<Value> Parse(std::string_view text);

/// Parses a document that is one array of numbers (plus surrounding
/// whitespace) into `out`, each number converted as Value::as_double would
/// convert it, without building a Value tree. Returns false, with `out` in
/// an unspecified state, for any other document, including arrays that
/// hold a non-number. The stored-embedding reader (embed::FromJson) uses
/// this on every registration and reindex.
bool ParseNumberArray(std::string_view text, std::vector<float>& out);

/// Room WriteNumber needs. Its longest text, "-2.2250738585072014e-308",
/// is 24 bytes.
inline constexpr size_t kMaxNumberChars = 32;

/// Writes `d` as a JSON number to `p` (which must have kMaxNumberChars of
/// room) and returns the end: the shortest of %.15g, %.16g and %.17g that
/// parses back to `d`, with ".0" added to whole values so they re-parse as
/// doubles; NaN and Inf become null. Value::ToJson and the stored-column
/// writers (embed::ToJson) all go through here, so a column's bytes never
/// depend on which of them wrote it.
char* WriteNumber(char* p, double d);

}  // namespace laminar::json
