// Copyright 2026 The ccr Authors.

#include "core/history_io.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace ccr {

std::string SerializeValue(const Value& value) {
  if (value.is_unit()) return "u:";
  if (value.is_int()) {
    return StrFormat("i:%lld", static_cast<long long>(value.AsInt()));
  }
  if (value.is_bool()) return value.AsBool() ? "b:true" : "b:false";
  return "s:" + value.AsString();
}

namespace {

// strtoll(body.c_str(), &end, 10) accepted iff it consumed the whole C
// string without overflow — the int literals ParseValue has always taken.
bool ParseIntBody(std::string_view body, int64_t* out) {
  if (body.empty()) return false;
  body = body.substr(0, body.find('\0'));  // the C string ends at a NUL
  size_t i = 0;
  while (i < body.size() && IsAsciiSpace(body[i])) ++i;
  const bool negative = i < body.size() && body[i] == '-';
  if (i < body.size() && (body[i] == '-' || body[i] == '+')) ++i;
  if (i == body.size() || body[i] < '0' || body[i] > '9') {
    // No conversion: strtoll leaves `end` at the start of the C string,
    // which is its terminator only when the string is empty.
    *out = 0;
    return body.empty();
  }
  uint64_t magnitude = 0;
  if (!ParseDecimal(body.substr(i), &magnitude)) return false;
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (negative ? 1 : 0);
  if (magnitude > limit) return false;
  *out = negative ? static_cast<int64_t>(0 - magnitude)
                  : static_cast<int64_t>(magnitude);
  return true;
}

}  // namespace

StatusOr<Value> ParseValue(std::string_view token) {
  if (token.size() < 2 || token[1] != ':') {
    return Status::InvalidArgument("malformed value literal: " +
                                   std::string(token));
  }
  const std::string_view body = token.substr(2);
  switch (token[0]) {
    case 'u':
      if (!body.empty()) {
        return Status::InvalidArgument("unit literal with payload: " +
                                       std::string(token));
      }
      return Value::MakeUnit();
    case 'i': {
      int64_t v = 0;
      if (!ParseIntBody(body, &v)) {
        return Status::InvalidArgument("bad int literal: " +
                                       std::string(token));
      }
      return Value(v);
    }
    case 'b':
      if (body == "true") return Value(true);
      if (body == "false") return Value(false);
      return Status::InvalidArgument("bad bool literal: " +
                                     std::string(token));
    case 's':
      return Value(std::string(body));
    default:
      return Status::InvalidArgument("unknown value tag: " +
                                     std::string(token));
  }
}

std::string SerializeHistory(const History& history) {
  std::string out;
  for (const Event& e : history.events()) {
    switch (e.kind()) {
      case EventKind::kInvoke: {
        const Invocation& inv = e.invocation();
        out += StrFormat("invoke %llu %s %d %s",
                         static_cast<unsigned long long>(e.txn()),
                         e.object().c_str(), inv.code(), inv.name().c_str());
        for (const Value& arg : inv.args()) {
          out += " ";
          out += SerializeValue(arg);
        }
        break;
      }
      case EventKind::kResponse:
        out += StrFormat("response %llu %s %s",
                         static_cast<unsigned long long>(e.txn()),
                         e.object().c_str(),
                         SerializeValue(e.result()).c_str());
        break;
      case EventKind::kCommit:
        out += StrFormat("commit %llu %s",
                         static_cast<unsigned long long>(e.txn()),
                         e.object().c_str());
        break;
      case EventKind::kAbort:
        out += StrFormat("abort %llu %s",
                         static_cast<unsigned long long>(e.txn()),
                         e.object().c_str());
        break;
    }
    out += '\n';
  }
  return out;
}

namespace {

Status LineError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("line %zu: %s", line_no, message.c_str()));
}

}  // namespace

StatusOr<History> ParseHistory(const std::string& text) {
  History history;
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    unsigned long long txn_raw = 0;
    std::string object;
    if (!(fields >> kind >> txn_raw >> object)) {
      return LineError(line_no, "expected '<kind> <txn> <object>'");
    }
    const TxnId txn = static_cast<TxnId>(txn_raw);
    Status status = Status::OK();
    if (kind == "invoke") {
      int code = 0;
      std::string name;
      if (!(fields >> code >> name)) {
        return LineError(line_no, "invoke needs '<code> <name>'");
      }
      std::vector<Value> args;
      std::string token;
      while (fields >> token) {
        StatusOr<Value> v = ParseValue(token);
        if (!v.ok()) return LineError(line_no, v.status().message());
        args.push_back(std::move(*v));
      }
      status = history.Append(
          Event::Invoke(txn, Invocation(object, code, name, args)));
    } else if (kind == "response") {
      std::string token;
      if (!(fields >> token)) {
        return LineError(line_no, "response needs a result value");
      }
      StatusOr<Value> v = ParseValue(token);
      if (!v.ok()) return LineError(line_no, v.status().message());
      status = history.Append(Event::Response(txn, object, *v));
    } else if (kind == "commit") {
      status = history.Append(Event::Commit(txn, object));
    } else if (kind == "abort") {
      status = history.Append(Event::Abort(txn, object));
    } else {
      return LineError(line_no, "unknown event kind '" + kind + "'");
    }
    if (!status.ok()) return LineError(line_no, status.message());
  }
  return history;
}

}  // namespace ccr
