// Copyright 2026 The ccr Authors.
//
// Update-in-place recovery. One current state serves every transaction —
// the literal implementation of UIP(H,A) = Opseq(H | ACT − Aborted(H)).
// Executing an operation updates the current state immediately; commit is
// free; abort must expunge the transaction's operations.
//
// Two abort strategies:
//   * kReplay — remove the transaction's entries from the operation log and
//     rebuild the current state by replaying the survivors from the base
//     state. Always correct: it recomputes the View definition verbatim.
//     This is what makes *concurrent updates* recoverable, where classical
//     before-image (value) logging would wipe out other transactions' work —
//     the paper's criticism of Hadzilacos-style recovery.
//   * kInverse — apply the ADT's inverse operations for the transaction's
//     log entries, newest first, to the current state. Correct when every
//     surviving operation's effect commutes with the undone operation's
//     inverse (true for the arithmetic ADTs); falls back to replay when the
//     ADT provides no inverse.
//
// A committed prefix of the log is continuously folded into the base state
// (checkpointing), so log length is bounded by live-transaction footprint.
// The log allocates nothing while empty and gives its memory back when
// InstallCommittedState clears it (eviction, restart reset), so an idle or
// evicted object pays nothing for it.

#ifndef CCR_TXN_UIP_RECOVERY_H_
#define CCR_TXN_UIP_RECOVERY_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/adt.h"
#include "txn/recovery_manager.h"

namespace ccr {

enum class UipUndoStrategy {
  kReplay,
  kInverse,
};

class UipRecovery final : public RecoveryManager {
 public:
  UipRecovery(std::shared_ptr<const Adt> adt,
              UipUndoStrategy strategy = UipUndoStrategy::kReplay);

  std::string name() const override;

  std::vector<Outcome> Candidates(TxnId txn, const Invocation& inv) override;
  void Apply(TxnId txn, const Operation& op,
             std::unique_ptr<SpecState> next) override;
  void CollectCommit(TxnId txn, OpSeq* redo) override;
  void FinalizeCommit(TxnId txn) override;
  void Abort(TxnId txn) override;
  std::unique_ptr<SpecState> CurrentState() const override;
  std::unique_ptr<SpecState> CommittedState() const override;
  void InstallCommittedState(std::unique_ptr<SpecState> state) override;

  // Log length after checkpointing (for tests and diagnostics).
  size_t log_size() const { return log_.size(); }
  // Distinct transactions with entries still in the log.
  size_t live_txns_in_log() const { return live_counts_.size(); }

 private:
  struct LogEntry {
    TxnId txn;
    Operation op;
  };

  // Folds committed log prefix entries into the base state.
  void Checkpoint();
  void AbortByReplay(TxnId txn);
  void AbortByInverse(TxnId txn);

  std::shared_ptr<const Adt> adt_;
  UipUndoStrategy strategy_;

  std::unique_ptr<SpecState> base_;     // committed, checkpointed prefix
  std::unique_ptr<SpecState> current_;  // base + all logged operations
  std::vector<LogEntry> log_;           // response order
  std::set<TxnId> committed_in_log_;    // committed but not yet folded

  // Per-transaction accounting so commit and Checkpoint are O(ops of the
  // transaction) instead of O(log): remaining log entries per transaction,
  // and (only when a journal is attached) the accumulated redo ops of each
  // still-active transaction.
  std::map<TxnId, size_t> live_counts_;
  std::map<TxnId, OpSeq> pending_ops_;
};

}  // namespace ccr

#endif  // CCR_TXN_UIP_RECOVERY_H_
