// Copyright 2026 The ccr Authors.

#include "adt/state_codec.h"

#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"

namespace ccr {

std::string EncodeInt64State(int64_t v) {
  return StrFormat("i %lld", static_cast<long long>(v));
}

StatusOr<int64_t> DecodeInt64State(std::string_view encoded) {
  const std::vector<std::string_view> tokens = SplitTokens(encoded);
  if (tokens.size() != 2 || tokens[0] != "i") {
    return Status::InvalidArgument("int64 state must be 'i <v>': " +
                                   std::string(encoded));
  }
  return ParseInt64Token(tokens[1]);
}

std::string EncodeInt64List(const std::vector<int64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    out += StrFormat("%lld", static_cast<long long>(values[i]));
  }
  return out;
}

StatusOr<std::vector<int64_t>> DecodeInt64List(std::string_view encoded) {
  std::vector<int64_t> out;
  for (const std::string_view token : SplitTokens(encoded)) {
    StatusOr<int64_t> v = ParseInt64Token(token);
    if (!v.ok()) return v.status();
    out.push_back(*v);
  }
  return out;
}

std::vector<std::string_view> SplitTokens(std::string_view encoded) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < encoded.size()) {
    while (pos < encoded.size() && encoded[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < encoded.size() && encoded[end] != ' ') ++end;
    if (end > pos) out.push_back(encoded.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

StatusOr<int64_t> ParseInt64Token(std::string_view token) {
  const std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (buf.empty() || end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed integer token: " + buf);
  }
  return static_cast<int64_t>(v);
}

}  // namespace ccr
