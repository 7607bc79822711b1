// Copyright 2026 The ccr Authors.
//
// Durable on-disk format of the redo journal. Each commit record is framed
// as
//
//   [u32 payload_size][u32 crc32c(payload)][payload bytes]
//
// with both integers little-endian. The payload is textual, reusing the
// operation/value encoding of core/history_io: a first line naming the
// committing transaction, then one line per operation in the record's
// (response/intentions) order:
//
//   txn <id>
//   op <object> <code> <name> <result-literal> [arg-literals...]
//
// Object ids, codes and names are written raw; value literals use
// core/history_io's typed encoding (i:/s:/b:/u:) except that a string body
// is percent-escaped (EscapeToken's bytes; "" stays "s:"), so a string
// holding spaces, newlines or '%' stays one token.
//
// The CRC covers the payload only; the length prefix is validated
// structurally (a frame must fit inside the image). A record's frame
// reaching the disk in full, checksum intact, IS the transaction's
// durability point at that object.
//
// Crash images are scanned with a torn-tail truncation rule:
//
//   * a record whose frame runs past the end of the image, or whose
//     checksum fails, ends the valid prefix;
//   * if no intact record exists anywhere after the failure point, the
//     failure is a torn/corrupt *tail* — the write the crash interrupted
//     (or bit rot on the final record). Its transaction never reached its
//     durability point; the tail is truncated and reported, and recovery
//     proceeds from the valid prefix;
//   * if an intact record DOES follow, the journal is corrupt in the
//     middle — a prefix that was once durable has been damaged, which no
//     truncation rule can repair honestly. The scan rejects the image
//     (kInternal) instead of silently dropping committed transactions.

#ifndef CCR_TXN_JOURNAL_FORMAT_H_
#define CCR_TXN_JOURNAL_FORMAT_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "txn/journal.h"

namespace ccr {

// Frame header: u32 payload size + u32 crc32c.
inline constexpr size_t kJournalFrameHeaderSize = 8;

// Frames an arbitrary payload in the journal's [len][crc][payload] format.
// Used for commit records, segment headers, and checkpoint images alike —
// one checksummed container format for everything durable.
std::string FrameBlob(std::string_view payload);

// Inverse of FrameBlob for a single-frame image (checkpoint files): the
// image must be exactly one intact frame. kInternal on damage (torn write
// or bit rot) or trailing bytes.
StatusOr<std::string> UnframeBlob(std::string_view image);

// True iff an intact frame (in-bounds length, matching checksum) starts at
// `pos` of `image`; `payload_len` (optional) receives its payload size.
bool IntactJournalFrameAt(std::string_view image, size_t pos,
                          uint32_t* payload_len);

// True iff an intact frame starts anywhere strictly after `from` — the
// probe that distinguishes a torn tail from mid-journal corruption.
bool IntactJournalFrameAfter(std::string_view image, size_t from);

// The one rule for names the journal, checkpoint and store formats write
// unescaped — object ids and factory names: non-empty, with no space,
// control byte (<= 0x20) or DEL. TxnManager refuses ids that break it
// before anything is built or journaled.
bool IsJournalName(std::string_view name);

// The textual payload of one commit record (no frame).
std::string EncodeCommitPayload(const Journal::CommitRecord& record);

// Inverse of EncodeCommitPayload. kInvalidArgument on malformed payloads
// (only reachable through writer bugs or checksum collisions — the scanner
// verifies the CRC first): every token must be whole, so "txn -1",
// "txn 1 2" or a code with trailing bytes are refused.
StatusOr<Journal::CommitRecord> DecodeCommitPayload(std::string_view payload);

// The full framed bytes of one commit record as the writer appends them,
// encoded into one buffer allocated once at its final size.
std::string EncodeCommitRecord(const Journal::CommitRecord& record);

// The textual payload of one object-lifecycle record:
//
//   create <object> <factory>
//   drop <object>
//
// Object ids and factory names must satisfy IsJournalName (fatal
// otherwise: callers validate first); creates must name a factory — a
// create that no factory can replay would be unrecoverable by
// construction.
std::string EncodeLifecyclePayload(const LifecycleRecord& record);

// Inverse of EncodeLifecyclePayload.
StatusOr<LifecycleRecord> DecodeLifecyclePayload(std::string_view payload);

// The textual payload of one journal entry (commit or lifecycle) and its
// framed bytes (one buffer, as EncodeCommitRecord). Decode dispatches on
// the payload's first token ("txn", "create", "drop").
std::string EncodeEntryPayload(const Journal::Entry& entry);
StatusOr<Journal::Entry> DecodeEntryPayload(std::string_view payload);
std::string EncodeEntryRecord(const Journal::Entry& entry);

// What a journal scan found and did — of a crash image or a segmented
// directory (restart reports both sources in this one shape; segment
// counts stay 0 outside directories).
struct RecoveryReport {
  size_t segments = 0;          // segments visited (incl. ignored artifacts)
  size_t records_replayed = 0;  // intact records delivered to the visitor
  size_t records_skipped = 0;   // intact records at or below after_lsn
  size_t bytes_truncated = 0;   // tail bytes dropped by the truncation rule
  bool corrupt_tail = false;    // true iff a torn/corrupt tail was dropped
  // Final segments with no intact header — the artifact a crash during
  // rotation (file created, header unwritten/torn) leaves behind.
  size_t artifacts_ignored = 0;

  std::string ToString() const;
};

// Receives one scanned journal entry and its LSN; non-OK aborts the scan
// with that error.
using JournalEntryFn = std::function<Status(Lsn, Journal::Entry&&)>;

// Streams the entries (commit + lifecycle records) of a crash image in
// order, applying the torn-tail truncation rule above, without
// materializing more than one decoded entry at a time. LSNs count from 1;
// entries with LSN <= after_lsn are checksum-verified but not decoded or
// delivered (a checkpoint whose anchor the caller passes covers them).
// Mid-journal corruption returns kInternal; a truncated tail is reported,
// not an error. `report` (optional) receives the outcome of a completed
// scan.
Status ForEachJournalEntry(std::string_view image, Lsn after_lsn,
                           const JournalEntryFn& fn, RecoveryReport* report);

// Scans a journal image as found after a crash and returns the valid
// prefix as an in-memory Journal, applying the torn-tail truncation rule
// above. `report` (optional) receives what happened. Mid-journal
// corruption — an intact record after a damaged one — returns kInternal.
// (Validates every record, then keeps the valid prefix's bytes; restart
// paths stream with ForEachJournalEntry instead.)
StatusOr<Journal> ScanJournalImage(std::string_view image,
                                   RecoveryReport* report);

// The image `journal`'s entries leave on disk: their frames in LSN order,
// as a crash image that lost nothing (ScanJournalImage reads it back) —
// the view's bytes, which are exactly what a pipeline's sink received.
std::string EncodeJournalImage(const Journal& journal);

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_FORMAT_H_
