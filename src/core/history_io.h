// Copyright 2026 The ccr Authors.
//
// Textual serialization of histories, so recorded executions can be stored,
// shipped, and audited offline (see examples/history_audit). One event per
// line, whitespace-separated:
//
//   invoke   <txn> <object> <code> <name> [args...]
//   response <txn> <object> <result>
//   commit   <txn> <object>
//   abort    <txn> <object>
//
// Values are typed literals: i:42, s:ok, b:true, u: (unit). Object and
// operation names must not contain whitespace. Lines starting with '#' and
// blank lines are ignored.

#ifndef CCR_CORE_HISTORY_IO_H_
#define CCR_CORE_HISTORY_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/history.h"

namespace ccr {

// Serializes a history (one event per line, trailing newline).
std::string SerializeHistory(const History& history);

// Parses the serialization format. Validates well-formedness (the result
// is a real History). Errors carry the offending line number.
StatusOr<History> ParseHistory(const std::string& text);

// Typed-literal encoding of one value (i:/s:/b:/u:). String bodies are
// raw: callers that frame literals as whitespace-delimited tokens escape
// them (the wire codec escapes whole literals, the journal string bodies).
std::string SerializeValue(const Value& value);

// Inverse of SerializeValue. An int body follows strtoll over its C
// string: it ends at the first NUL, may lead with C-locale whitespace and
// a sign, and must not overflow int64.
StatusOr<Value> ParseValue(std::string_view token);

}  // namespace ccr

#endif  // CCR_CORE_HISTORY_IO_H_
