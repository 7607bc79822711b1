// Copyright 2026 The ccr Authors.

#include "txn/uip_recovery.h"

#include "common/macros.h"

namespace ccr {

UipRecovery::UipRecovery(std::shared_ptr<const Adt> adt,
                         UipUndoStrategy strategy)
    : adt_(std::move(adt)), strategy_(strategy) {
  base_ = adt_->spec().InitialState();
  current_ = base_->Clone();
  if (strategy_ == UipUndoStrategy::kInverse && !adt_->supports_inverse()) {
    strategy_ = UipUndoStrategy::kReplay;
  }
}

std::string UipRecovery::name() const {
  return strategy_ == UipUndoStrategy::kInverse ? "UIP/inverse" : "UIP/replay";
}

std::vector<Outcome> UipRecovery::Candidates(TxnId txn,
                                             const Invocation& inv) {
  (void)txn;  // UIP's view is the same for every transaction.
  return adt_->spec().Outcomes(*current_, inv);
}

void UipRecovery::Apply(TxnId txn, const Operation& op,
                        std::unique_ptr<SpecState> next) {
  ++stats_.applies;
  current_ = std::move(next);
  log_.push_back(LogEntry{txn, op});
  ++live_counts_[txn];
  // Accumulate the redo record as operations execute (the journal contract
  // is "attached before first use"), so Commit never scans the log.
  if (journal_ != nullptr) pending_ops_[txn].push_back(op);
}

void UipRecovery::CollectCommit(TxnId txn, OpSeq* redo) {
  // Hand the transaction's operations, in response order, to the caller's
  // commit record; marking the transaction committed and the log fold wait
  // for FinalizeCommit so the record's group-commit sync runs concurrently
  // with them (and a refused record can still abort). An op-free
  // transaction contributes nothing: an empty record redoes nothing and
  // only bloats the journal and slows replay. Reads are ops: they journal.
  if (journal_ != nullptr) {
    auto it = pending_ops_.find(txn);
    if (it != pending_ops_.end()) {
      redo->insert(redo->end(), std::make_move_iterator(it->second.begin()),
                   std::make_move_iterator(it->second.end()));
      pending_ops_.erase(it);
    }
  }
}

void UipRecovery::FinalizeCommit(TxnId txn) {
  ++stats_.commits;
  // A transaction with no log entries has nothing to fold; remembering it
  // would leak (nothing ever erases it again).
  if (live_counts_.count(txn) > 0) committed_in_log_.insert(txn);
  Checkpoint();
}

void UipRecovery::Checkpoint() {
  size_t folded = 0;
  while (folded < log_.size() &&
         committed_in_log_.count(log_[folded].txn) > 0) {
    const LogEntry& entry = log_[folded++];
    auto nexts = adt_->spec().Next(*base_, entry.op);
    CCR_CHECK_MSG(nexts.size() == 1,
                  "checkpoint replay of %s had %zu successors",
                  entry.op.ToString().c_str(), nexts.size());
    base_ = std::move(nexts[0]);
    // Per-transaction counts replace the old full-log rescan: a committed
    // transaction is forgotten the moment its last entry folds.
    auto count_it = live_counts_.find(entry.txn);
    if (--count_it->second == 0) {
      live_counts_.erase(count_it);
      committed_in_log_.erase(entry.txn);
    }
  }
  // One erase per fold, so the survivors shift once, not once per entry.
  log_.erase(log_.begin(), log_.begin() + static_cast<ptrdiff_t>(folded));
}

void UipRecovery::Abort(TxnId txn) {
  ++stats_.aborts;
  if (strategy_ == UipUndoStrategy::kInverse) {
    AbortByInverse(txn);
  } else {
    AbortByReplay(txn);
  }
  // Both strategies remove every log entry of `txn`.
  live_counts_.erase(txn);
  pending_ops_.erase(txn);
  Checkpoint();
}

void UipRecovery::AbortByReplay(TxnId txn) {
  std::erase_if(log_,
                [txn](const LogEntry& entry) { return entry.txn == txn; });
  // Rebuild the current state: base followed by the surviving log.
  std::unique_ptr<SpecState> state = base_->Clone();
  for (const LogEntry& entry : log_) {
    auto nexts = adt_->spec().Next(*state, entry.op);
    CCR_CHECK_MSG(nexts.size() == 1,
                  "UIP replay of %s had %zu successors — the conflict "
                  "relation admitted a non-recoverable interleaving",
                  entry.op.ToString().c_str(), nexts.size());
    state = std::move(nexts[0]);
    ++stats_.replay_ops;
  }
  current_ = std::move(state);
}

void UipRecovery::AbortByInverse(TxnId txn) {
  // Undo the transaction's operations newest-first against the current
  // state, then drop them from the log.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->txn != txn) continue;
    auto undone = adt_->InverseApply(*current_, it->op);
    CCR_CHECK_MSG(undone.has_value(), "no inverse for %s",
                  it->op.ToString().c_str());
    current_ = std::move(*undone);
    ++stats_.inverse_ops;
  }
  std::erase_if(log_,
                [txn](const LogEntry& entry) { return entry.txn == txn; });
}

std::unique_ptr<SpecState> UipRecovery::CurrentState() const {
  return current_->Clone();
}

std::unique_ptr<SpecState> UipRecovery::CommittedState() const {
  std::unique_ptr<SpecState> state = base_->Clone();
  for (const LogEntry& entry : log_) {
    if (committed_in_log_.count(entry.txn) == 0) continue;
    auto nexts = adt_->spec().Next(*state, entry.op);
    // Skipping active transactions' entries may make a committed entry
    // inapplicable in mid-log corner cases only when the conflict relation
    // was too weak; surface that loudly.
    CCR_CHECK_MSG(nexts.size() == 1, "committed-state replay stuck at %s",
                  entry.op.ToString().c_str());
    state = std::move(nexts[0]);
  }
  return state;
}

void UipRecovery::InstallCommittedState(std::unique_ptr<SpecState> state) {
  base_ = std::move(state);
  current_ = base_->Clone();
  std::vector<LogEntry>().swap(log_);  // clear() would keep the capacity
  committed_in_log_.clear();
  live_counts_.clear();
  pending_ops_.clear();
}

}  // namespace ccr
