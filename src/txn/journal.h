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
// The journal is a sequencer in front of a sink. Each record is encoded
// once, by the appending thread before it takes the journal mutex, into
// the checksummed frame of journal_format.h, and handed to the attached
// GroupCommitPipeline, which assigns its LSN and writes it to a durable
// byte sink — synced per record in the pipeline's kSync mode, per batch in
// kGroup. A volatile engine that wants its records logs to a kSync
// pipeline over a MemorySink; one that does not attaches no journal.
// Readers scan the sink's bytes, not the journal: ForEachJournalEntry over
// an image, ForEachSegmentedEntry over a directory — the scanners restart
// itself uses (TxnManager::RestartFromImage / RestartFromDir).
//
// The journal still keeps the frames it appends (the view, read through
// ForEachRecord). It exists only for ccrbench's serve_point audit, and goes
// away when that benchmark reads the journal directory instead.

#ifndef CCR_TXN_JOURNAL_H_
#define CCR_TXN_JOURNAL_H_

#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/event.h"

namespace ccr {

class GroupCommitPipeline;

// Log sequence number: the 1-based position of a record in the shared
// journal. The pipeline assigns every LSN, under the journal mutex, so LSN
// order is exactly the journal's record order (and hence commit order).
// kNoLsn means "nothing was journaled" — no journal attached, or a
// transaction that applied no operation.
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

  // Attaches the pipeline that sequences every append: it assigns each
  // record's LSN (under the journal mutex, so the pipeline sees entries in
  // commit order) and makes it durable — in kGroup/kRelaxed mode the
  // append returns without touching the disk and the background flusher
  // syncs batches; in kSync mode the append+fdatasync happens inline. A
  // post-restart pipeline continues the durable journal's LSN space at its
  // first_lsn (Engine::Open sets that up). Set before the first append, to
  // a pipeline (null is fatal) that outlives the journal's last append.
  void set_pipeline(GroupCommitPipeline* pipeline);

  // The LSN of the newest append (the pipeline's first_lsn - 1 before the
  // first) — the anchor a fuzzy checkpoint captures before walking
  // objects. Still answers once the pipeline is gone.
  Lsn high_lsn() const;

  // Appends one atomic commit record and returns its LSN. The record is
  // durable only once the pipeline's watermark reaches the returned LSN;
  // the transaction's ack must wait for it (TxnManager::Commit does). A
  // poisoned pipeline refuses the record: its failure status is returned
  // and nothing is kept. Fatal with no pipeline attached.
  StatusOr<Lsn> AppendCommit(TxnId txn, OpSeq ops);

  // Appends one object-lifecycle record (create/drop). Same durability
  // semantics as AppendCommit: the returned LSN is durable only once the
  // pipeline watermark covers it.
  StatusOr<Lsn> AppendLifecycle(LifecycleRecord record);

  // Visits every commit record of the view in commit order, decoding one
  // frame at a time, skipping lifecycle records. The journal mutex is held
  // for the whole visitation: `fn` must not reenter this journal or block
  // on anything that appends to it. For ccrbench's serve_point audit only;
  // every other reader scans the sink's bytes.
  void ForEachRecord(const std::function<void(const CommitRecord&)>& fn) const;

  // Entry count of the view (commit + lifecycle records).
  size_t size() const;

 private:
  // Shared append path for an encoded frame: keeps it in the view and
  // sequences it into the pipeline, which assigns its LSN.
  StatusOr<Lsn> AppendFrame(std::string frame);
  // Copies `frame` to the end of the view. Caller holds mu_.
  void KeepLocked(std::string_view frame);

  mutable std::mutex mu_;
  // The view: every frame in LSN order, packed into chunks that never
  // reallocate, so no append copies earlier bytes. A frame never spans
  // two chunks.
  std::vector<std::string> chunks_;
  size_t size_ = 0;  // frames in the view
  Lsn high_lsn_ = kNoLsn;
  GroupCommitPipeline* pipeline_ = nullptr;
};

}  // namespace ccr

#endif  // CCR_TXN_JOURNAL_H_
