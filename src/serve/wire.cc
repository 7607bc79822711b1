// Copyright 2026 The ccr Authors.

#include "serve/wire.h"

#include <cstdint>

#include "adt/state_codec.h"
#include "common/string_util.h"
#include "core/history_io.h"
#include "txn/journal_format.h"

namespace ccr {
namespace {

uint32_t ReadLe32(std::string_view buffer, size_t pos) {
  return static_cast<uint32_t>(static_cast<uint8_t>(buffer[pos])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buffer[pos + 1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buffer[pos + 2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buffer[pos + 3])) << 24);
}

// Splits the head frame off `buffer`: OK + payload + consumed, kUnavailable
// while the frame is still arriving, kInternal on checksum damage.
Status TakeFrame(std::string_view buffer, std::string_view* payload,
                 size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < kJournalFrameHeaderSize) {
    return Status::Unavailable("incomplete frame header");
  }
  const uint32_t len = ReadLe32(buffer, 0);
  if (buffer.size() - kJournalFrameHeaderSize < len) {
    return Status::Unavailable("incomplete frame payload");
  }
  uint32_t intact_len = 0;
  if (!IntactJournalFrameAt(buffer, 0, &intact_len) || intact_len != len) {
    return Status::Internal("wire frame failed its checksum");
  }
  *payload = buffer.substr(kJournalFrameHeaderSize, len);
  *consumed = kJournalFrameHeaderSize + len;
  return Status::OK();
}

StatusOr<uint64_t> ParseU64(std::string_view token, const char* what) {
  uint64_t v = 0;
  if (!ParseDecimal(token, &v)) {
    return Status::InvalidArgument(
        StrFormat("bad %s: %.*s", what, static_cast<int>(token.size()),
                  token.data()));
  }
  return v;
}

StatusOr<std::string> Unescape(std::string_view token, const char* what) {
  StatusOr<std::string> raw = UnescapeToken(token);
  if (!raw.ok()) {
    return Status::InvalidArgument(
        StrFormat("bad %s token: %s", what, raw.status().ToString().c_str()));
  }
  return raw;
}

}  // namespace

std::string EncodeRequest(const WireRequest& request) {
  std::string payload = StrFormat(
      "req %llu %zu\n", static_cast<unsigned long long>(request.request_id),
      request.ops.size());
  for (const BatchOp& op : request.ops) {
    payload += StrFormat("op %s %s %d %s %zu",
                         EscapeToken(op.object).c_str(),
                         EscapeToken(op.factory).c_str(), op.inv.code(),
                         EscapeToken(op.inv.name()).c_str(),
                         op.inv.args().size());
    for (const Value& arg : op.inv.args()) {
      payload += ' ';
      payload += EscapeToken(SerializeValue(arg));
    }
    payload += '\n';
  }
  return FrameBlob(payload);
}

std::string EncodeResponse(const WireResponse& response) {
  std::string payload = StrFormat(
      "res %llu %d %s %zu\n",
      static_cast<unsigned long long>(response.request_id),
      static_cast<int>(response.code), EscapeToken(response.message).c_str(),
      response.values.size());
  for (const Value& value : response.values) {
    payload += "val ";
    payload += EscapeToken(SerializeValue(value));
    payload += '\n';
  }
  return FrameBlob(payload);
}

Status DecodeRequest(std::string_view buffer, WireRequest* out,
                     size_t* consumed) {
  std::string_view payload;
  CCR_RETURN_IF_ERROR(TakeFrame(buffer, &payload, consumed));
  std::vector<std::string_view> lines;
  while (!payload.empty()) {
    const size_t nl = payload.find('\n');
    if (nl == std::string_view::npos) {
      return Status::InvalidArgument("request payload missing newline");
    }
    lines.push_back(payload.substr(0, nl));
    payload.remove_prefix(nl + 1);
  }
  if (lines.empty()) return Status::InvalidArgument("empty request payload");
  std::vector<std::string_view> head = SplitTokens(lines[0]);
  if (head.size() != 3 || head[0] != "req") {
    return Status::InvalidArgument("malformed request header");
  }
  StatusOr<uint64_t> id = ParseU64(head[1], "request id");
  if (!id.ok()) return id.status();
  StatusOr<uint64_t> nops = ParseU64(head[2], "op count");
  if (!nops.ok()) return nops.status();
  if (lines.size() != 1 + *nops) {
    return Status::InvalidArgument("request op count disagrees with body");
  }
  WireRequest request;
  request.request_id = *id;
  request.ops.reserve(*nops);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string_view> t = SplitTokens(lines[i]);
    if (t.size() < 6 || t[0] != "op") {
      return Status::InvalidArgument("malformed op line");
    }
    StatusOr<std::string> object = Unescape(t[1], "object");
    if (!object.ok()) return object.status();
    StatusOr<std::string> factory = Unescape(t[2], "factory");
    if (!factory.ok()) return factory.status();
    StatusOr<int64_t> code = ParseInt64Token(t[3]);
    if (!code.ok()) return code.status();
    StatusOr<std::string> name = Unescape(t[4], "op name");
    if (!name.ok()) return name.status();
    StatusOr<uint64_t> nargs = ParseU64(t[5], "arg count");
    if (!nargs.ok()) return nargs.status();
    if (t.size() != 6 + *nargs) {
      return Status::InvalidArgument("op arg count disagrees with line");
    }
    std::vector<Value> args;
    args.reserve(*nargs);
    for (size_t a = 6; a < t.size(); ++a) {
      StatusOr<std::string> literal = Unescape(t[a], "arg");
      if (!literal.ok()) return literal.status();
      StatusOr<Value> value = ParseValue(*literal);
      if (!value.ok()) return value.status();
      args.push_back(std::move(*value));
    }
    BatchOp op;
    op.object = *object;
    op.factory = std::move(*factory);
    op.inv = Invocation(std::move(*object), static_cast<int>(*code),
                        std::move(*name), std::move(args));
    request.ops.push_back(std::move(op));
  }
  *out = std::move(request);
  return Status::OK();
}

Status DecodeResponse(std::string_view buffer, WireResponse* out,
                      size_t* consumed) {
  std::string_view payload;
  CCR_RETURN_IF_ERROR(TakeFrame(buffer, &payload, consumed));
  std::vector<std::string_view> lines;
  while (!payload.empty()) {
    const size_t nl = payload.find('\n');
    if (nl == std::string_view::npos) {
      return Status::InvalidArgument("response payload missing newline");
    }
    lines.push_back(payload.substr(0, nl));
    payload.remove_prefix(nl + 1);
  }
  if (lines.empty()) return Status::InvalidArgument("empty response payload");
  std::vector<std::string_view> head = SplitTokens(lines[0]);
  if (head.size() != 5 || head[0] != "res") {
    return Status::InvalidArgument("malformed response header");
  }
  StatusOr<uint64_t> id = ParseU64(head[1], "request id");
  if (!id.ok()) return id.status();
  StatusOr<int64_t> code = ParseInt64Token(head[2]);
  if (!code.ok()) return code.status();
  if (*code < 0 || *code > static_cast<int64_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("response status code out of range");
  }
  StatusOr<std::string> message = Unescape(head[3], "status message");
  if (!message.ok()) return message.status();
  StatusOr<uint64_t> nvals = ParseU64(head[4], "value count");
  if (!nvals.ok()) return nvals.status();
  if (lines.size() != 1 + *nvals) {
    return Status::InvalidArgument("response value count disagrees with body");
  }
  WireResponse response;
  response.request_id = *id;
  response.code = static_cast<StatusCode>(*code);
  response.message = std::move(*message);
  response.values.reserve(*nvals);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string_view> t = SplitTokens(lines[i]);
    if (t.size() != 2 || t[0] != "val") {
      return Status::InvalidArgument("malformed value line");
    }
    StatusOr<std::string> literal = Unescape(t[1], "value");
    if (!literal.ok()) return literal.status();
    StatusOr<Value> value = ParseValue(*literal);
    if (!value.ok()) return value.status();
    response.values.push_back(std::move(*value));
  }
  *out = std::move(response);
  return Status::OK();
}

}  // namespace ccr
