// Copyright 2026 The ccr Authors.
//
// The byte-level side of the durable journal: a sink abstraction over the
// "disk" (in-memory image for tests, a real append-only file, a segmented
// directory for deployments) and a JournalWriter that appends encoded
// journal frames to a sink. ScanJournalImage (journal_format.h) reads a crash
// image back under the torn-tail truncation rule.
//
// Faults are injected at the sink boundary, which is exactly where real
// crashes land: named CrashPoints kill the simulated machine inside the
// segmented sink, the checkpointer and the store; the crash driver
// (sim/crash_harness.h) wraps the sink to die at, or tear, a given record
// or to fail an append or sync; at-rest bit rot flips bytes in the stored
// image (FlipByte).

#ifndef CCR_TXN_JOURNAL_IO_H_
#define CCR_TXN_JOURNAL_IO_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "txn/journal_format.h"

namespace ccr {

// fsyncs a directory fd so created/renamed/unlinked entries are durable.
// File creation, segment rotation, truncation, and checkpoint rename all
// require it — fdatasync on a file makes bytes durable, only the directory
// fsync makes the name -> inode link (or its removal) durable.
Status SyncDir(const std::string& dir);

// SyncDir on `path`'s parent directory.
Status SyncParentDir(const std::string& path);

// Names of regular files directly in `dir` (unsorted, no "."/"..").
StatusOr<std::vector<std::string>> ListDir(const std::string& dir);

// Named crash points for maintenance-path fault injection (checkpoint
// write, segment rotation, truncation). A component consults Hit(point) at
// each named step; once the armed point fires the simulated process is
// dead — Hit returns true for every subsequent call, so all further
// durable operations fail fast with kUnavailable and nothing more reaches
// the disk. Thread-safe (a checkpoint thread and the flusher may share
// one).
class CrashPoints {
 public:
  CrashPoints() = default;

  // Arms one point; replaces any previous armament.
  void Arm(std::string point) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = std::move(point);
  }

  // True if the component must die here: either `point` is the armed one
  // (fires it) or the process already died at an earlier point.
  bool Hit(std::string_view point) {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return true;
    if (!armed_.empty() && point == armed_) {
      dead_ = true;
      fired_ = true;
      return true;
    }
    return false;
  }

  bool dead() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dead_;
  }
  // True iff the armed point was actually reached (vs. dead never set).
  bool fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

 private:
  mutable std::mutex mu_;
  std::string armed_;
  bool dead_ = false;
  bool fired_ = false;
};

// Destination for journal bytes. Append-only; Sync is the durability
// barrier (a record is crash-safe only once the Sync after it returns).
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  virtual Status Append(std::string_view bytes) = 0;
  virtual Status Sync() = 0;
};

// The simulation's disk: an inspectable (and corruptible) byte string.
class MemorySink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }

  const std::string& image() const { return image_; }
  std::string* mutable_image() { return &image_; }

 private:
  std::string image_;
};

// A real append-only file. Sync flushes user-space buffers and issues
// fdatasync, the actual durability point.
class FileSink : public ByteSink {
 public:
  // Opens (creating or truncating) `path` for appending, then fsyncs the
  // parent directory so the newly created directory entry is itself
  // durable (see journal_io.cc for the crash-consistency rule).
  static StatusOr<std::unique_ptr<FileSink>> Open(const std::string& path);

  ~FileSink() override;

  Status Append(std::string_view bytes) override;
  Status Sync() override;

  // Flushes and closes, surfacing fflush/fclose errors — a buffered write
  // can fail as late as close, and dropping that error would silently lose
  // journal bytes. Idempotent; the destructor falls back to a
  // close-and-log for sinks never explicitly closed.
  Status Close();

 private:
  explicit FileSink(std::FILE* file) : file_(file) {}

  std::FILE* file_;
};

// Reads a whole journal image back from a file (the post-crash disk).
StatusOr<std::string> ReadFileImage(const std::string& path);

// ---------------------------------------------------------------------------
// Segmented journal: journal.000001, journal.000002, ... in one directory.
// Each segment starts with a header frame whose payload is "seg <lsn>\n"
// (the LSN of its first commit record), followed by commit-record frames.
// Rotation seals the active segment (sync + close) and opens the next;
// truncation deletes sealed segments whose records all lie at or below a
// durable checkpoint's anchor LSN — the active segment is never deleted.
// ---------------------------------------------------------------------------

// File name of segment `seq` inside `dir`.
std::string SegmentFileName(uint64_t seq);

struct SegmentedSinkOptions {
  // Rotate once the active segment's record bytes exceed this.
  uint64_t max_segment_bytes = 1 << 20;
  // Optional fault injection for rotation/truncation crash points
  // (rot.before_seal_sync, rot.before_seal_close, rot.after_create,
  // rot.before_header_sync, trunc.before_unlink, trunc.after_unlink,
  // trunc.before_dirsync). Not owned; may be shared with a Checkpointer.
  CrashPoints* crash = nullptr;
};

// A ByteSink writing a segmented journal. Each Append call must carry
// exactly one full encoded record frame (JournalWriter appends whole
// frames) — the sink counts records to assign segment-header LSNs.
// Thread-safe: a checkpoint thread may truncate while the flusher appends.
class SegmentedFileSink : public ByteSink {
 public:
  // Opens a NEW active segment in `dir` whose first record will carry
  // `first_lsn`. Trailing headerless rotation-crash artifacts are
  // unlinked, and a torn tail of the last intact segment is physically
  // truncated (it was tolerable only while that segment was final; once
  // this open creates a higher-numbered segment it would read as
  // mid-sequence damage). Sealed records are never touched, and the new
  // segment's sequence number is one past the highest already present, so
  // an artifact never gets overwritten.
  static StatusOr<std::unique_ptr<SegmentedFileSink>> Open(
      const std::string& dir, Lsn first_lsn,
      SegmentedSinkOptions options = {});

  // Appends one record frame, rotating first if the active segment is
  // full. kUnavailable once an armed crash point has fired (the simulated
  // process is dead; no bytes of this record reach the disk).
  Status Append(std::string_view bytes) override;
  Status Sync() override;

  // Deletes every sealed segment whose records all have LSN <= anchor,
  // then fsyncs the directory. The caller must hold a durable checkpoint
  // covering `anchor` (the DESIGN.md §4 invariant: a segment may be
  // deleted only when a durable checkpoint covers its highest LSN).
  Status TruncateBelow(Lsn anchor);

  // Live segments (sealed + active) and the LSN the next Append gets.
  size_t segment_count() const;
  Lsn next_lsn() const;
  const std::string& dir() const { return dir_; }

 private:
  struct Sealed {
    uint64_t seq;
    Lsn first_lsn;
    Lsn last_lsn;
    std::string path;
  };

  SegmentedFileSink(std::string dir, uint64_t seq, Lsn first_lsn,
                    SegmentedSinkOptions options,
                    std::unique_ptr<FileSink> active);

  // Seals the active segment and opens segment active_seq_+1. Caller
  // holds mu_.
  Status RotateLocked();
  // Creates segment `seq` with its header frame for `first_lsn` and makes
  // it the active segment. Caller holds mu_.
  Status OpenSegmentLocked(uint64_t seq, Lsn first_lsn);

  const std::string dir_;
  const SegmentedSinkOptions options_;

  mutable std::mutex mu_;
  uint64_t active_seq_;
  Lsn active_first_lsn_;
  uint64_t active_record_bytes_ = 0;
  Lsn next_lsn_;
  std::unique_ptr<FileSink> active_;
  std::vector<Sealed> sealed_;
};

// Streams the entries (commit + lifecycle records) of a segmented journal
// directory in LSN order, skipping entries with LSN <= after_lsn (they are
// covered by the checkpoint whose anchor the caller passes) — the same
// contract as ForEachJournalEntry over a single image. Validates segment
// continuity: the first surviving segment must start at or below
// after_lsn + 1 and each subsequent segment must continue exactly where
// the previous ended (kInternal otherwise — truncation outran its
// checkpoint or a segment vanished). A torn tail is legal only in the
// final segment; damage anywhere else is kInternal.
Status ForEachSegmentedEntry(const std::string& dir, Lsn after_lsn,
                             const JournalEntryFn& fn,
                             RecoveryReport* report);

// Commit-records-only view of ForEachSegmentedEntry: lifecycle entries are
// skipped (still counted in the report — they occupy LSN slots).
Status ForEachSegmentedRecord(
    const std::string& dir, Lsn after_lsn,
    const std::function<Status(Lsn, Journal::CommitRecord&&)>& fn,
    RecoveryReport* report);

// XORs `mask` into byte `offset` of a stored image (at-rest bit rot).
void FlipByte(std::string* image, size_t offset, uint8_t mask = 0x01);

// Appends encoded journal frames to a sink, one sink append per frame
// (EncodeEntryRecord; the appending thread encoded it). Calls are expected
// to be externally serialized (GroupCommitPipeline appends under its mutex
// in kSync mode and from its single flusher thread otherwise).
class JournalWriter {
 public:
  explicit JournalWriter(ByteSink* sink);

  // Appends one frame without syncing. The record is NOT durable until the
  // next Sync() returns; the pipeline syncs after every record in kSync
  // mode and once per batch otherwise, and acknowledges committers only
  // after that sync.
  Status Append(std::string_view frame);

  // Durability barrier for everything appended so far.
  Status Sync();

  size_t records_appended() const { return records_appended_; }
  // The image's end offset: read after a record's append, it is that
  // record's end, where an image cut is a crash right after the record.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  ByteSink* sink_;
  size_t records_appended_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_IO_H_
