// Copyright 2026 The ccr Authors.

#include "txn/journal_format.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/history_io.h"

namespace ccr {
namespace {

void StoreLe32(char* at, uint32_t v) {
  at[0] = static_cast<char>(v & 0xff);
  at[1] = static_cast<char>((v >> 8) & 0xff);
  at[2] = static_cast<char>((v >> 16) & 0xff);
  at[3] = static_cast<char>((v >> 24) & 0xff);
}

// Every frame is built here, in one buffer allocated once: a header
// placeholder, the `payload_size` bytes `append_payload(&out)` writes,
// then the length and the CRC32C over them filled in.
template <typename AppendPayload>
std::string EncodeFrame(size_t payload_size,
                        const AppendPayload& append_payload) {
  std::string out;
  out.reserve(kJournalFrameHeaderSize + payload_size);
  out.resize(kJournalFrameHeaderSize);
  append_payload(&out);
  const size_t len = out.size() - kJournalFrameHeaderSize;
  StoreLe32(&out[0], static_cast<uint32_t>(len));
  StoreLe32(&out[4], Crc32c(out.data() + kJournalFrameHeaderSize, len));
  return out;
}

uint32_t ReadLe32(std::string_view image, size_t pos) {
  return static_cast<uint32_t>(static_cast<uint8_t>(image[pos])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(image[pos + 3])) << 24);
}

}  // namespace

// True iff an intact frame (in-bounds length, matching checksum) starts at
// `pos`. Decodability of the payload is checked separately by the scanner.
bool IntactJournalFrameAt(std::string_view image, size_t pos,
                          uint32_t* payload_len) {
  if (pos + kJournalFrameHeaderSize > image.size()) return false;
  const uint32_t len = ReadLe32(image, pos);
  if (len > image.size() - pos - kJournalFrameHeaderSize) return false;
  if (Crc32c(image.data() + pos + kJournalFrameHeaderSize, len) !=
      ReadLe32(image, pos + 4)) {
    return false;
  }
  if (payload_len != nullptr) *payload_len = len;
  return true;
}

// True iff an intact frame starts anywhere strictly after `from`. Used to
// tell a torn/corrupt tail (no durable data follows — truncate) from
// mid-journal corruption (durable data follows — reject). The byte-by-byte
// probe is O(tail²) in the worst case, but runs only on damaged images and
// a false positive needs a 2^-32 checksum collision inside garbage.
bool IntactJournalFrameAfter(std::string_view image, size_t from) {
  for (size_t pos = from + 1;
       pos + kJournalFrameHeaderSize <= image.size(); ++pos) {
    if (IntactJournalFrameAt(image, pos, nullptr)) return true;
  }
  return false;
}

std::string FrameBlob(std::string_view payload) {
  return EncodeFrame(payload.size(),
                     [payload](std::string* out) { out->append(payload); });
}

StatusOr<std::string> UnframeBlob(std::string_view image) {
  uint32_t len = 0;
  if (!IntactJournalFrameAt(image, 0, &len)) {
    return Status::Internal("framed blob damaged (torn write or bit rot)");
  }
  if (kJournalFrameHeaderSize + len != image.size()) {
    return Status::Internal(
        StrFormat("framed blob has %zu trailing bytes",
                  image.size() - kJournalFrameHeaderSize - len));
  }
  return std::string(image.substr(kJournalFrameHeaderSize, len));
}

bool IsJournalName(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7f) return false;
  }
  return true;
}

namespace {

// One value literal as the journal writes it: SerializeValue's typed
// encoding, with a string body escaped so it stays a single token.
void AppendValueLiteral(std::string* out, const Value& value) {
  if (value.is_string()) {
    out->append("s:");
    AppendEscaped(out, value.AsString());
  } else if (value.is_int()) {
    out->append("i:");
    AppendDecimal(out, value.AsInt());
  } else if (value.is_bool()) {
    out->append(value.AsBool() ? "b:true" : "b:false");
  } else {
    out->append("u:");
  }
}

// The byte count AppendValueLiteral writes for `value`.
size_t ValueLiteralSize(const Value& value) {
  if (value.is_string()) return 2 + EscapedSize(value.AsString());
  if (value.is_int()) return 2 + DecimalSize(value.AsInt());
  if (value.is_bool()) return value.AsBool() ? 6 : 7;
  return 2;
}

// Inverse of AppendValueLiteral into `*out`. The common forms (an
// unescaped string body, a plain decimal int) are decoded in place; every
// other literal goes through ParseValue, so the accepted set is exactly
// ParseValue's plus the escaped string bodies.
Status ParseValueLiteral(std::string_view token, Value* out) {
  if (token.size() >= 2 && token[1] == ':') {
    const std::string_view body = token.substr(2);
    int64_t v = 0;
    if (token[0] == 's') {
      if (body.find('%') == std::string_view::npos) {
        *out = Value(std::string(body));
        return Status::OK();
      }
      StatusOr<std::string> raw = UnescapeToken(body);
      if (!raw.ok()) return raw.status();
      *out = Value(std::move(*raw));
      return Status::OK();
    }
    if (token[0] == 'i' && ParseDecimal(body, &v)) {
      *out = Value(v);
      return Status::OK();
    }
  }
  StatusOr<Value> parsed = ParseValue(token);
  if (!parsed.ok()) return parsed.status();
  *out = std::move(*parsed);
  return Status::OK();
}

// Appends the operation of one "op <object> <code> <name> <result>
// [args...]" line (without its newline) to `*ops`.
Status DecodeOpLine(std::string_view line, OpSeq* ops) {
  std::string_view rest = line;
  std::string_view tag, object, code_token, name, token;
  int code = 0;
  if (!NextToken(&rest, &tag) || tag != "op" || !NextToken(&rest, &object) ||
      !IsJournalName(object) || !NextToken(&rest, &code_token) ||
      !ParseDecimal(code_token, &code) || !NextToken(&rest, &name)) {
    return Status::InvalidArgument("malformed op line: " + std::string(line));
  }
  if (!NextToken(&rest, &token)) {
    return Status::InvalidArgument("op line missing result: " +
                                   std::string(line));
  }
  Value result;
  CCR_RETURN_IF_ERROR(ParseValueLiteral(token, &result));
  std::vector<Value> args;
  while (NextToken(&rest, &token)) {
    CCR_RETURN_IF_ERROR(ParseValueLiteral(token, &args.emplace_back()));
  }
  ops->emplace_back(
      Invocation(ObjectId(object), code, std::string(name), std::move(args)),
      std::move(result));
  return Status::OK();
}

// DecodeCommitPayload's body, filling `*record` in place (DecodeEntryPayload
// decodes straight into its entry).
Status DecodeCommitInto(std::string_view payload,
                        Journal::CommitRecord* record) {
  std::string_view line;
  if (!NextLine(&payload, &line)) {
    return Status::InvalidArgument("empty commit payload");
  }
  std::string_view tag, txn_token, extra;
  if (!NextToken(&line, &tag) || tag != "txn" ||
      !NextToken(&line, &txn_token) ||
      !ParseDecimal(txn_token, &record->txn) || record->txn == kInvalidTxn ||
      NextToken(&line, &extra)) {
    return Status::InvalidArgument("commit payload must start 'txn <id>'");
  }
  record->ops.reserve(static_cast<size_t>(
      std::count(payload.begin(), payload.end(), '\n')));
  while (NextLine(&payload, &line)) {
    if (!line.empty()) CCR_RETURN_IF_ERROR(DecodeOpLine(line, &record->ops));
  }
  return Status::OK();
}

// The exact byte count AppendCommitPayload writes, so a record's buffer
// is allocated once.
size_t CommitPayloadSize(const Journal::CommitRecord& record) {
  size_t size = 5 + DecimalSize(record.txn);  // "txn <id>\n"
  for (const Operation& op : record.ops) {
    // "op <object> <code> <name> <result>[ <arg>...]\n"
    size += 3 + op.object().size() + 1 + DecimalSize(op.code()) + 1 +
            op.name().size() + 1 + ValueLiteralSize(op.result()) + 1;
    for (const Value& arg : op.args()) size += 1 + ValueLiteralSize(arg);
  }
  return size;
}

void AppendCommitPayload(std::string* out,
                         const Journal::CommitRecord& record) {
  out->append("txn ");
  AppendDecimal(out, record.txn);
  out->push_back('\n');
  for (const Operation& op : record.ops) {
    out->append("op ");
    out->append(op.object());
    out->push_back(' ');
    AppendDecimal(out, op.code());
    out->push_back(' ');
    out->append(op.name());
    out->push_back(' ');
    AppendValueLiteral(out, op.result());
    for (const Value& arg : op.args()) {
      out->push_back(' ');
      AppendValueLiteral(out, arg);
    }
    out->push_back('\n');
  }
}

// The exact byte count AppendLifecyclePayload writes; refuses (fatal) a
// record whose names the payload could not carry.
size_t LifecyclePayloadSize(const LifecycleRecord& record) {
  CCR_CHECK_MSG(IsJournalName(record.object),
                "lifecycle record object id '%s' is not a journal name",
                record.object.c_str());
  if (record.kind == LifecycleRecord::Kind::kCreate) {
    CCR_CHECK_MSG(IsJournalName(record.factory),
                  "create record for '%s' needs a journal-name factory "
                  "(got '%s')",
                  record.object.c_str(), record.factory.c_str());
    // "create <object> <factory>\n"
    return 7 + record.object.size() + 1 + record.factory.size() + 1;
  }
  return 5 + record.object.size() + 1;  // "drop <object>\n"
}

void AppendLifecyclePayload(std::string* out, const LifecycleRecord& record) {
  const bool create = record.kind == LifecycleRecord::Kind::kCreate;
  out->append(create ? "create " : "drop ");
  out->append(record.object);
  if (create) {
    out->push_back(' ');
    out->append(record.factory);
  }
  out->push_back('\n');
}

}  // namespace

std::string EncodeCommitPayload(const Journal::CommitRecord& record) {
  std::string out;
  out.reserve(CommitPayloadSize(record));
  AppendCommitPayload(&out, record);
  return out;
}

StatusOr<Journal::CommitRecord> DecodeCommitPayload(std::string_view payload) {
  Journal::CommitRecord record{kInvalidTxn, {}};
  CCR_RETURN_IF_ERROR(DecodeCommitInto(payload, &record));
  return record;
}

std::string EncodeCommitRecord(const Journal::CommitRecord& record) {
  return EncodeFrame(CommitPayloadSize(record), [&record](std::string* out) {
    AppendCommitPayload(out, record);
  });
}

std::string EncodeLifecyclePayload(const LifecycleRecord& record) {
  std::string out;
  out.reserve(LifecyclePayloadSize(record));
  AppendLifecyclePayload(&out, record);
  return out;
}

StatusOr<LifecycleRecord> DecodeLifecyclePayload(std::string_view payload) {
  std::string_view tag, object, factory, extra;
  if (!NextToken(&payload, &tag) || !NextToken(&payload, &object) ||
      !IsJournalName(object)) {
    return Status::InvalidArgument("malformed lifecycle payload");
  }
  LifecycleRecord record;
  record.object = ObjectId(object);
  if (tag == "create") {
    record.kind = LifecycleRecord::Kind::kCreate;
    if (!NextToken(&payload, &factory) || !IsJournalName(factory)) {
      return Status::InvalidArgument("create record missing factory name");
    }
    record.factory = std::string(factory);
  } else if (tag == "drop") {
    record.kind = LifecycleRecord::Kind::kDrop;
  } else {
    return Status::InvalidArgument("unknown lifecycle tag: " +
                                   std::string(tag));
  }
  if (NextToken(&payload, &extra)) {
    return Status::InvalidArgument("trailing tokens in lifecycle payload");
  }
  return record;
}

std::string EncodeEntryPayload(const Journal::Entry& entry) {
  return entry.is_lifecycle ? EncodeLifecyclePayload(entry.lifecycle)
                            : EncodeCommitPayload(entry.commit);
}

StatusOr<Journal::Entry> DecodeEntryPayload(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view tag;
  NextToken(&rest, &tag);
  Journal::Entry entry;
  if (tag == "create" || tag == "drop") {
    StatusOr<LifecycleRecord> lifecycle = DecodeLifecyclePayload(payload);
    if (!lifecycle.ok()) return lifecycle.status();
    entry.is_lifecycle = true;
    entry.lifecycle = std::move(*lifecycle);
    return entry;
  }
  CCR_RETURN_IF_ERROR(DecodeCommitInto(payload, &entry.commit));
  return entry;
}

std::string EncodeEntryRecord(const Journal::Entry& entry) {
  if (!entry.is_lifecycle) return EncodeCommitRecord(entry.commit);
  const LifecycleRecord& record = entry.lifecycle;
  return EncodeFrame(LifecyclePayloadSize(record), [&record](std::string* out) {
    AppendLifecyclePayload(out, record);
  });
}

std::string RecoveryReport::ToString() const {
  return StrFormat("replayed=%zu skipped=%zu truncated=%zuB corrupt_tail=%s",
                   records_replayed, records_skipped, bytes_truncated,
                   corrupt_tail ? "yes" : "no");
}

Status ForEachJournalEntry(std::string_view image, Lsn after_lsn,
                           const JournalEntryFn& fn, RecoveryReport* report) {
  RecoveryReport local;
  size_t offset = 0;
  Lsn lsn = 1;
  while (offset < image.size()) {
    uint32_t len = 0;
    bool damaged = !IntactJournalFrameAt(image, offset, &len);
    if (!damaged && lsn > after_lsn) {
      StatusOr<Journal::Entry> decoded = DecodeEntryPayload(
          image.substr(offset + kJournalFrameHeaderSize, len));
      damaged = !decoded.ok();
      if (!damaged) {
        CCR_RETURN_IF_ERROR(fn(lsn, std::move(*decoded)));
        ++local.records_replayed;
      }
    } else if (!damaged) {
      // Covered by the checkpoint: CRC already validated, skip the decode.
      ++local.records_skipped;
    }
    if (damaged) {
      if (IntactJournalFrameAfter(image, offset)) {
        return Status::Internal(StrFormat(
            "journal corrupt mid-image: damaged record at byte %zu is "
            "followed by an intact one — a durable prefix was damaged",
            offset));
      }
      // The failure is the tail the crash (or bit rot) interrupted: that
      // transaction never reached its durability point, so truncating it
      // recovers exactly the committed prefix.
      local.bytes_truncated = image.size() - offset;
      local.corrupt_tail = true;
      break;
    }
    ++lsn;
    offset += kJournalFrameHeaderSize + len;
  }
  if (report != nullptr) *report = local;
  return Status::OK();
}

}  // namespace ccr
