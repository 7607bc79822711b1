// Copyright 2026 The ccr Authors.
//
// Deferred-update recovery via intentions lists — the literal
// implementation of DU(H,A) = Opseq(Serial(H|Committed, CommitOrder)) ·
// Opseq(H|A). The base state reflects committed transactions in commit
// order; each active transaction accumulates an intentions list. A
// transaction's view is base ⊕ its own intentions (a cached private
// workspace, rebuilt when the base advances). Abort discards the list;
// commit applies it to the base — cheap aborts, commit-time work: the cost
// trade-off Section 5 discusses.

#ifndef CCR_TXN_DU_RECOVERY_H_
#define CCR_TXN_DU_RECOVERY_H_

#include <map>
#include <memory>

#include "core/adt.h"
#include "txn/recovery_manager.h"

namespace ccr {

class DuRecovery final : public RecoveryManager {
 public:
  explicit DuRecovery(std::shared_ptr<const Adt> adt);

  std::string name() const override { return "DU"; }

  std::vector<Outcome> Candidates(TxnId txn, const Invocation& inv) override;
  void Apply(TxnId txn, const Operation& op,
             std::unique_ptr<SpecState> next) override;
  void CollectCommit(TxnId txn, OpSeq* redo) override;
  void FinalizeCommit(TxnId txn) override;
  void Abort(TxnId txn) override;
  std::unique_ptr<SpecState> CurrentState() const override;
  std::unique_ptr<SpecState> CommittedState() const override;
  void InstallCommittedState(std::unique_ptr<SpecState> state) override;

  size_t intentions_size(TxnId txn) const;

 private:
  struct Workspace {
    OpSeq intentions;
    std::unique_ptr<SpecState> state;  // base ⊕ intentions, at base_version
    uint64_t base_version = 0;
  };

  // Returns the up-to-date workspace for `txn`, rebuilding its cached state
  // if the base has advanced since it was computed.
  Workspace& Refresh(TxnId txn);

  std::shared_ptr<const Adt> adt_;
  std::unique_ptr<SpecState> base_;  // committed state, in commit order
  uint64_t base_version_ = 1;
  std::map<TxnId, Workspace> workspaces_;
};

}  // namespace ccr

#endif  // CCR_TXN_DU_RECOVERY_H_
