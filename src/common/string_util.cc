// Copyright 2026 The ccr Authors.

#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

#include "common/macros.h"

namespace ccr {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  CCR_CHECK(needed >= 0);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    *line = *rest;
    *rest = std::string_view();
  } else {
    *line = rest->substr(0, nl);
    rest->remove_prefix(nl + 1);
  }
  return true;
}

bool NextToken(std::string_view* rest, std::string_view* token) {
  size_t begin = 0;
  while (begin < rest->size() && IsAsciiSpace((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsAsciiSpace((*rest)[end])) ++end;
  *token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return end > begin;
}

namespace {

bool NeedsEscape(char c) {
  // Escape the escape char itself, every control byte (NUL through 0x1f —
  // a raw NUL would truncate any later c_str()-based formatting, and \n
  // would break the one-record-per-line formats), space (the token
  // separator), and DEL. High bytes (UTF-8) pass through raw.
  const unsigned char u = static_cast<unsigned char>(c);
  return c == '%' || u <= 0x20 || u == 0x7f;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void AppendEscaped(std::string* out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t clean = 0;  // start of the pending run of bytes that pass raw
  for (size_t i = 0; i < raw.size(); ++i) {
    if (!NeedsEscape(raw[i])) continue;
    out->append(raw.data() + clean, i - clean);
    const unsigned char u = static_cast<unsigned char>(raw[i]);
    const char escape[3] = {'%', kHex[u >> 4], kHex[u & 0xf]};
    out->append(escape, sizeof(escape));
    clean = i + 1;
  }
  out->append(raw.data() + clean, raw.size() - clean);
}

size_t EscapedSize(std::string_view raw) {
  size_t size = raw.size();
  for (const char c : raw) {
    if (NeedsEscape(c)) size += 2;  // one byte becomes %hh
  }
  return size;
}

std::string EscapeToken(std::string_view raw) {
  if (raw.empty()) return "%";  // lone '%': the empty-string sentinel
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(&out, raw);
  return out;
}

StatusOr<std::string> UnescapeToken(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::InvalidArgument("truncated escape in token: " +
                                     std::string(token));
    }
    const int hi = HexDigit(token[i + 1]);
    const int lo = HexDigit(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad escape in token: " +
                                     std::string(token));
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  CCR_CHECK_MSG(row.size() == header_.size(),
                "row has %zu cells, header has %zu", row.size(),
                header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line += "  ";
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
    }
    // Trim trailing spaces.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace ccr
