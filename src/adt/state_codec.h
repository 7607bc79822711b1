// Copyright 2026 The ccr Authors.
//
// Shared helpers for the ADT state codecs (Adt::EncodeState /
// Adt::DecodeState): whitespace-separated integer lists and the single
// "i <v>" integer form the Int64State ADTs share. Encodings are
// newline-free by construction — a checkpoint image stores one object's
// state per line (txn/checkpoint.h).

#ifndef CCR_ADT_STATE_CODEC_H_
#define CCR_ADT_STATE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"  // EscapeToken / UnescapeToken (KV keys)

namespace ccr {

// "i <v>" — the Int64State encoding.
std::string EncodeInt64State(int64_t v);
StatusOr<int64_t> DecodeInt64State(std::string_view encoded);

// Space-separated decimal integers; the empty list encodes to "".
std::string EncodeInt64List(const std::vector<int64_t>& values);
StatusOr<std::vector<int64_t>> DecodeInt64List(std::string_view encoded);

// Splits on runs of spaces (no other whitespace appears in encodings).
std::vector<std::string_view> SplitTokens(std::string_view encoded);

StatusOr<int64_t> ParseInt64Token(std::string_view token);

}  // namespace ccr

#endif  // CCR_ADT_STATE_CODEC_H_
