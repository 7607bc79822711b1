// Copyright 2026 The ccr Authors.
//
// Recovery managers — concrete implementations of the paper's two View
// functions (Section 5) for the runtime engine. A recovery manager owns the
// representation of one object's state and answers three questions: what
// outcomes are possible for an invocation in a transaction's view, how to
// record a chosen operation, and what to do at commit/abort. Commit is two
// phases (collect the redo ops, finalize the state) so the transaction
// manager can journal every touched object's ops as one record in between.
//
// Managers are not thread-safe; the owning AtomicObject's mutex guards them.

#ifndef CCR_TXN_RECOVERY_MANAGER_H_
#define CCR_TXN_RECOVERY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/spec.h"
#include "txn/journal.h"

namespace ccr {

// Operation counters for the PERF-ABORT experiment: where each recovery
// method pays — UIP pays on abort (undo/replay), DU pays on commit
// (intention application).
struct RecoveryStats {
  uint64_t applies = 0;          // operations executed
  uint64_t commits = 0;          // transactions committed
  uint64_t aborts = 0;           // transactions aborted
  uint64_t replay_ops = 0;       // ops re-applied during UIP abort replay
  uint64_t inverse_ops = 0;      // inverse ops applied during UIP abort
  uint64_t intention_ops = 0;    // intentions applied at DU commit
  uint64_t workspace_rebuilds = 0;  // DU workspace recomputations
};

class RecoveryManager {
 public:
  virtual ~RecoveryManager() = default;

  virtual std::string name() const = 0;

  // Attaches a redo journal: from now on, CollectCommit hands out the
  // transaction's operations for its commit record (crash-recovery support;
  // see txn/journal.h). Optional; set before first use.
  void set_journal(Journal* journal) { journal_ = journal; }
  Journal* journal() const { return journal_; }

  // The outcomes (result, next view state) enabled for `inv` in `txn`'s
  // current view. Empty when the invocation is disabled there (partial
  // operations): the caller may block until the view changes.
  virtual std::vector<Outcome> Candidates(TxnId txn,
                                          const Invocation& inv) = 0;

  // Records the chosen operation; `next` must be the matching Candidates
  // outcome's state.
  virtual void Apply(TxnId txn, const Operation& op,
                     std::unique_ptr<SpecState> next) = 0;

  // Commit, phase 1 (collect): appends `txn`'s redo operations — in the
  // order replay must apply them, and only when a journal is attached — to
  // *redo. The caller folds every touched object's ops into ONE commit
  // record and journals it once, reporting the record's LSN back through
  // the owning object. Implementations keep this phase cheap and leave the
  // outcome to FinalizeCommit (or Abort, when the record is refused): the
  // caller appends the record between the two phases, so the group-commit
  // sync overlaps the fold work instead of waiting behind it.
  virtual void CollectCommit(TxnId txn, OpSeq* redo) = 0;

  // Commit, phase 2 (finalize): marks `txn` committed and runs the state
  // transition (UIP's checkpoint fold, DU's intention application). Called
  // at most once after CollectCommit, under the same continuous hold of
  // the owning object's mutex.
  virtual void FinalizeCommit(TxnId txn) = 0;

  virtual void Abort(TxnId txn) = 0;

  // Both commit phases for a transaction known only to this object, with
  // its record appended to the attached journal in between. Crash replay
  // uses it with the journal detached. A refused append (a poisoned
  // pipeline) aborts the transaction instead and returns the failure.
  Status Commit(TxnId txn) {
    OpSeq redo;
    CollectCommit(txn, &redo);
    if (journal_ != nullptr && !redo.empty()) {
      const Status appended =
          journal_->AppendCommit(txn, std::move(redo)).status();
      if (!appended.ok()) {
        Abort(txn);
        return appended;
      }
    }
    FinalizeCommit(txn);
    return Status::OK();
  }

  // Snapshot of the state all *non-aborted* work yields under this method's
  // view semantics (UIP: the single current state; DU: the committed base).
  virtual std::unique_ptr<SpecState> CurrentState() const = 0;

  // Snapshot of the state reflecting committed transactions only.
  virtual std::unique_ptr<SpecState> CommittedState() const = 0;

  // Replaces the committed state wholesale and discards all in-flight
  // per-transaction bookkeeping. Recovery-only: used to install a
  // checkpointed committed image before tail replay, and to reset an object
  // when replay fails partway (fail-atomic restart). Must not be called
  // while transactions are active at this object.
  virtual void InstallCommittedState(std::unique_ptr<SpecState> state) = 0;

  const RecoveryStats& stats() const { return stats_; }

 protected:
  RecoveryStats stats_;
  Journal* journal_ = nullptr;
};

}  // namespace ccr

#endif  // CCR_TXN_RECOVERY_MANAGER_H_
