// Copyright 2026 The ccr Authors.
//
// Small string helpers: printf-style formatting, joining, a fixed-width
// ASCII table printer used by the benchmark binaries to render the paper's
// figures, and the copy-free splitting, integer and token-escaping
// primitives the durable text codecs (journal, checkpoint, state, wire)
// share.

#ifndef CCR_COMMON_STRING_UTIL_H_
#define CCR_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace ccr {

// printf into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

// The C-locale whitespace set (space, \t, \n, \v, \f, \r): the bytes
// std::istream's >> splits tokens on.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Splits the next line off `*rest`: `*line` receives the bytes up to (not
// including) the next '\n', or the remainder when none follows. False once
// `*rest` is empty — std::getline's contract, without copying.
bool NextLine(std::string_view* rest, std::string_view* line);

// Splits the next run of non-whitespace bytes (IsAsciiSpace) off `*rest`,
// skipping leading whitespace — std::istream's >> for a string, without
// copying. False when only whitespace remains.
bool NextToken(std::string_view* rest, std::string_view* token);

// Parses the WHOLE token as a decimal integer: digits only, plus a leading
// '-' for signed types; no whitespace, no '+', no overflow.
template <typename Int>
bool ParseDecimal(std::string_view token, Int* out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Appends the decimal rendering of `v` (std::to_chars: no locale, no
// format string).
template <typename Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, ptr);
}

// The byte count AppendDecimal(out, v) appends, counted without rendering
// the digits (a sizing pass runs before every journal record's encode).
template <typename Int>
size_t DecimalSize(Int v) {
  using Unsigned = std::make_unsigned_t<Int>;
  size_t size = 1;
  Unsigned magnitude = static_cast<Unsigned>(v);
  if constexpr (std::is_signed_v<Int>) {
    if (v < 0) {
      magnitude = Unsigned{0} - magnitude;  // exact for the minimum too
      ++size;                               // the '-'
    }
  }
  for (; magnitude >= 10; magnitude /= 10) ++size;
  return size;
}

// Percent-escapes a raw byte string into a single space-free, newline-free,
// control-byte-free token (used for KV keys, wire strings and journaled
// string literals). Empty strings encode to the sentinel "%"; '%', space,
// DEL and every control byte (NUL included) become lowercase %hh escapes so
// tokens survive c_str()-based formatting and one-record-per-line formats.
// Every other byte (UTF-8 included) passes through raw.
std::string EscapeToken(std::string_view raw);
StatusOr<std::string> UnescapeToken(std::string_view token);

// EscapeToken's byte escaping appended to `*out`, without the empty-string
// sentinel: an empty `raw` appends nothing.
void AppendEscaped(std::string* out, std::string_view raw);

// The byte count AppendEscaped(out, raw) appends.
size_t EscapedSize(std::string_view raw);

// Renders rows as a fixed-width table with a header row and a separator
// line, e.g. for the Figure 6-1 / 6-2 commutativity matrices.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // The formatted table, ending with a newline.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ccr

#endif  // CCR_COMMON_STRING_UTIL_H_
