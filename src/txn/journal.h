// Copyright 2026 The ccr Authors.
//
// Crash recovery — the extension the paper explicitly defers ("we focus on
// recovery from transaction aborts, and ignore crash recovery... we expect
// a similar analysis to apply"). We implement the natural REDO-journal
// design both recovery methods share:
//
//   * at commit, the transaction's operations are appended to a durable
//     journal as one atomic commit record (for DU this is literally the
//     intentions list; for UIP it is the transaction's slice of the
//     operation log, in response order);
//   * a crash loses all volatile state (current state, operation log,
//     workspaces, locks, active transactions);
//   * recovery replays the journal's commit records in order, rebuilding
//     the committed state.
//
// Replaying commit records in commit order is legal and equieffective to
// the pre-crash committed state precisely because the engine's histories
// are dynamic atomic and the commit order is consistent with precedes —
// i.e., the abort-recovery theory is what makes this crash recovery
// correct, which is the interaction the paper is about.
//
// Each record is encoded once, by the appending thread before it takes the
// journal mutex, into the checksummed frame of journal_format.h. The
// journal keeps those frame bytes as its volatile view (it dies with the
// process in a simulated crash), packed into chunks; the readers below
// decode them on demand. Durability has one path: attaching a
// GroupCommitPipeline (set_pipeline) hands every frame to a durable byte
// sink — synced per record in the pipeline's kSync mode, per batch in
// kGroup — so the sink receives exactly the view's bytes. Crash recovery
// reads the entries back from either of two sources — a crash image or a
// segmented directory — through one restart driver
// (TxnManager::RestartFromImage / RestartFromDir).

#ifndef CCR_TXN_JOURNAL_H_
#define CCR_TXN_JOURNAL_H_

#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/adt.h"
#include "core/event.h"

namespace ccr {

class GroupCommitPipeline;
struct RecoveryReport;

// Log sequence number: the 1-based position of a commit record in the
// shared journal. LSNs are assigned under the journal mutex, so LSN order
// is exactly the journal's record order (and hence commit order). kNoLsn
// means "nothing was journaled" — no journal attached, or a read-free
// transaction.
using Lsn = uint64_t;
inline constexpr Lsn kNoLsn = 0;

// Object lifecycle event in the journal: dynamically created objects record
// a `create` (with the registered factory that can rebuild them on restart)
// and dropped objects record a `drop`. Lifecycle records occupy LSN slots
// exactly like commit records — the journal is one totally ordered log, so
// replay sees creates/drops interleaved with commits in the order they
// happened.
struct LifecycleRecord {
  enum class Kind { kCreate, kDrop };
  Kind kind = Kind::kCreate;
  ObjectId object;
  // Registered factory name (create only; empty for drop). Restart looks
  // this up in the restarted manager's factory registry to re-instantiate
  // the object before replaying its tail.
  std::string factory;
};

class Journal {
 public:
  struct CommitRecord {
    TxnId txn = kInvalidTxn;
    OpSeq ops;
  };

  // One LSN slot: either a commit record or a lifecycle record.
  struct Entry {
    bool is_lifecycle = false;
    CommitRecord commit;        // valid when !is_lifecycle
    LifecycleRecord lifecycle;  // valid when is_lifecycle

    static Entry Commit(TxnId txn, OpSeq ops) {
      Entry e;
      e.commit = CommitRecord{txn, std::move(ops)};
      return e;
    }
    static Entry Lifecycle(LifecycleRecord record) {
      Entry e;
      e.is_lifecycle = true;
      e.lifecycle = std::move(record);
      return e;
    }
  };

  Journal() = default;

  // A journal holding the given commit records or entries (used by tests
  // and audits that construct crash images directly).
  explicit Journal(const std::vector<CommitRecord>& records);
  explicit Journal(const std::vector<Entry>& entries);

  // Movable so StatusOr<Journal> works (ScanJournalImage). The mutex is
  // not moved — the source must be quiescent, which recovery-time use is.
  Journal(Journal&& other) noexcept { *this = std::move(other); }
  Journal& operator=(Journal&& other) noexcept {
    chunks_ = std::move(other.chunks_);
    size_ = std::exchange(other.size_, 0);
    base_lsn_ = other.base_lsn_;
    pipeline_ = other.pipeline_;
    return *this;
  }

  // Durable mode: every append is *sequenced* through `pipeline` (assigned
  // an LSN under the journal mutex, so the pipeline sees entries in commit
  // order). In kGroup/kRelaxed mode the append returns without touching
  // the disk — the background flusher syncs batches; in kSync mode the
  // append+fdatasync happens inline, one sync per record. The journal's
  // LSN space is the pipeline's: its first append gets the pipeline's
  // first_lsn (a post-restart pipeline continues the durable journal's
  // LSN space; Engine::Open sets that up). Set before the first append;
  // the pipeline must outlive the journal's last append. nullptr detaches
  // (volatile-only again).
  void set_pipeline(GroupCommitPipeline* pipeline);

  // Highest LSN assigned so far (base + record count) — the anchor a
  // fuzzy checkpoint captures before walking objects.
  Lsn high_lsn() const;

  // Appends one atomic commit record and returns its LSN (kNoLsn when the
  // journal is volatile-only — no pipeline attached; the record's frame is
  // still kept). The record is durable only once the pipeline's
  // watermark reaches the returned LSN; the transaction's ack must wait
  // for it (TxnManager::Commit does). A poisoned pipeline refuses the
  // record: its failure status is returned and nothing is kept.
  StatusOr<Lsn> AppendCommit(TxnId txn, OpSeq ops);

  // Appends one object-lifecycle record (create/drop). Same durability
  // semantics as AppendCommit: the returned LSN is durable only once the
  // pipeline watermark covers it.
  StatusOr<Lsn> AppendLifecycle(LifecycleRecord record);

  // All commit records, in commit order, lifecycle records elided.
  // Decodes every frame into a new vector; prefer ForEachRecord on hot or
  // O(n²)-prone paths (crash-at-every-prefix audits).
  std::vector<CommitRecord> Records() const;

  // All entries (commit + lifecycle) in LSN order, decoded into a new
  // vector.
  std::vector<Entry> Entries() const;

  // Visits every commit record in commit order, decoding one frame at a
  // time, skipping lifecycle records. The journal mutex is held for the
  // whole visitation: `fn` must not reenter this journal or block on
  // anything that appends to it.
  void ForEachRecord(const std::function<void(const CommitRecord&)>& fn) const;

  // Entry count (commit + lifecycle records).
  size_t size() const;

  // The journal as it would be found after a crash that happened when only
  // the first `n` entries had reached the disk.
  Journal Prefix(size_t n) const;

 private:
  // Read the view's bytes as they are (journal_format.cc).
  friend StatusOr<Journal> ScanJournalImage(std::string_view image,
                                            RecoveryReport* report);
  friend std::string EncodeJournalImage(const Journal& journal);

  // A journal whose view is `frames`: `count` whole frames back to back.
  Journal(std::string frames, size_t count);

  // Shared append path for an encoded frame: keeps it in the view, assigns
  // the LSN and sequences it into the pipeline.
  StatusOr<Lsn> AppendFrame(std::string frame);
  // Copies `frame` to the end of the view. Caller holds mu_ or owns the
  // journal alone.
  void KeepLocked(std::string_view frame);
  // Decodes every entry of the view in LSN order. Caller holds mu_.
  void ForEachEntryLocked(const std::function<void(Entry&&)>& fn) const;

  mutable std::mutex mu_;
  // The view: every frame in LSN order, packed into chunks that never
  // reallocate, so no append copies earlier bytes. A frame never spans
  // two chunks.
  std::vector<std::string> chunks_;
  size_t size_ = 0;  // frames in the view
  Lsn base_lsn_ = 0;
  GroupCommitPipeline* pipeline_ = nullptr;
};

// Crash recovery: rebuilds the committed state of an object by replaying
// the journal's commit records in order from the ADT's initial state.
// Fatal (CCR_CHECK) if a record fails to replay — that would mean the
// journal was written under a conflict relation too weak for its recovery
// method.
std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const Journal& journal);

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_H_
