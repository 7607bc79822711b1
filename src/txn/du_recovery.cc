// Copyright 2026 The ccr Authors.

#include "txn/du_recovery.h"

#include "common/macros.h"

namespace ccr {

DuRecovery::DuRecovery(std::shared_ptr<const Adt> adt)
    : adt_(std::move(adt)) {
  base_ = adt_->spec().InitialState();
}

DuRecovery::Workspace& DuRecovery::Refresh(TxnId txn) {
  Workspace& ws = workspaces_[txn];
  if (ws.state != nullptr && ws.base_version == base_version_) return ws;
  // Rebuild: replay the intentions list on the current base. Under a
  // conflict relation containing NFC this always succeeds (forward
  // commutativity pushes the committed operations in front of the
  // intentions); a failure means the conflict relation was too weak.
  std::unique_ptr<SpecState> state = base_->Clone();
  for (const Operation& op : ws.intentions) {
    auto nexts = adt_->spec().Next(*state, op);
    CCR_CHECK_MSG(nexts.size() == 1,
                  "DU workspace replay stuck at %s — conflict relation "
                  "admitted a non-recoverable interleaving",
                  op.ToString().c_str());
    state = std::move(nexts[0]);
  }
  ws.state = std::move(state);
  ws.base_version = base_version_;
  if (!ws.intentions.empty()) ++stats_.workspace_rebuilds;
  return ws;
}

std::vector<Outcome> DuRecovery::Candidates(TxnId txn,
                                            const Invocation& inv) {
  return adt_->spec().Outcomes(*Refresh(txn).state, inv);
}

void DuRecovery::Apply(TxnId txn, const Operation& op,
                       std::unique_ptr<SpecState> next) {
  ++stats_.applies;
  Workspace& ws = Refresh(txn);
  ws.intentions.push_back(op);
  ws.state = std::move(next);
}

void DuRecovery::CollectCommit(TxnId txn, OpSeq* redo) {
  // The intentions list is literally the redo record: copy it into the
  // caller's commit record. The application to the base — DU's entire
  // commit cost — waits for FinalizeCommit so it overlaps the record's
  // group-commit sync. A workspace created by Candidates alone (every
  // invocation disabled) has no intentions and contributes nothing.
  auto it = workspaces_.find(txn);
  if (it == workspaces_.end()) return;  // op-free transaction
  if (journal_ != nullptr) {
    redo->insert(redo->end(), it->second.intentions.begin(),
                 it->second.intentions.end());
  }
}

void DuRecovery::FinalizeCommit(TxnId txn) {
  ++stats_.commits;
  auto it = workspaces_.find(txn);
  if (it == workspaces_.end()) return;  // op-free transaction
  // Apply the intentions list to the base copy, in list order.
  for (const Operation& op : it->second.intentions) {
    auto nexts = adt_->spec().Next(*base_, op);
    CCR_CHECK_MSG(nexts.size() == 1, "DU commit stuck applying %s",
                  op.ToString().c_str());
    base_ = std::move(nexts[0]);
    ++stats_.intention_ops;
  }
  workspaces_.erase(it);
  ++base_version_;
}

void DuRecovery::Abort(TxnId txn) {
  ++stats_.aborts;
  workspaces_.erase(txn);  // discard the intentions list — that's all
}

std::unique_ptr<SpecState> DuRecovery::CurrentState() const {
  return base_->Clone();
}

std::unique_ptr<SpecState> DuRecovery::CommittedState() const {
  return base_->Clone();
}


void DuRecovery::InstallCommittedState(std::unique_ptr<SpecState> state) {
  base_ = std::move(state);
  ++base_version_;  // invalidate any cached workspace states
  workspaces_.clear();
}

size_t DuRecovery::intentions_size(TxnId txn) const {
  auto it = workspaces_.find(txn);
  return it == workspaces_.end() ? 0 : it->second.intentions.size();
}

}  // namespace ccr
