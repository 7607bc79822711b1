// Copyright 2026 The ccr Authors.
//
// Transaction handles. A transaction is driven by exactly one client thread
// (the paper's model allows no intra-transaction concurrency); the
// cross-thread interactions are (a) the kill/commit arbitration word, written
// by deadlock resolution racing the owner's commit, and (b) the wait
// registration, read by TxnManager::Kill to wake a blocked victim directly.

#ifndef CCR_TXN_TRANSACTION_H_
#define CCR_TXN_TRANSACTION_H_

#include <atomic>
#include <vector>

#include "common/macros.h"
#include "core/event.h"

namespace ccr {

class AtomicObject;

enum class TxnState { kActive, kCommitted, kAborted };

// The kill/commit arbitration outcome. Exactly one of Kill and Commit may
// win: a transaction the deadlock detector promised other waiters would
// abort must never commit, and a transaction that latched its commit can no
// longer be wounded (its commit is about to release the locks anyway, which
// breaks the cycle just as an abort would).
enum class TxnResolution : uint8_t { kOpen, kKilled, kCommitLatched };

class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  CCR_DISALLOW_COPY_AND_ASSIGN(Transaction);

  TxnId id() const { return id_; }

  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }

  // Deadlock-victim flag; won by TryKill, possibly from another thread.
  bool killed() const { return resolution_.load() == TxnResolution::kKilled; }

  // Claims this transaction as a deadlock victim. Returns false if the
  // transaction already latched its commit (or was already killed): the
  // kill is then a no-op and the caller must not count a victim.
  bool TryKill() {
    TxnResolution expected = TxnResolution::kOpen;
    return resolution_.compare_exchange_strong(expected,
                                               TxnResolution::kKilled);
  }

  // Claims the right to commit. Returns false if a kill won the race, in
  // which case the caller must abort instead. seq_cst (the default) on both
  // CAS sides makes the active->committed transition atomic w.r.t. Kill.
  bool TryLatchCommit() {
    TxnResolution expected = TxnResolution::kOpen;
    return resolution_.compare_exchange_strong(expected,
                                               TxnResolution::kCommitLatched);
  }

  // The object this transaction is currently blocked at, if any. Published
  // by AtomicObject::Execute when it enqueues a waiter and read by
  // TxnManager::Kill to deliver a direct wakeup. seq_cst stores/loads pair
  // with the killed-flag accesses so a kill either is observed by the
  // victim's pre-sleep check or sees the victim's registration.
  AtomicObject* waiting_at() const { return waiting_at_.load(); }

  // Objects this transaction executed operations at (commit/abort scope).
  const std::vector<AtomicObject*>& touched() const { return touched_; }

 private:
  friend class TxnManager;
  friend class AtomicObject;

  void Touch(AtomicObject* object) {
    for (AtomicObject* o : touched_) {
      if (o == object) return;
    }
    touched_.push_back(object);
  }

  void set_state(TxnState state) { state_ = state; }
  void set_waiting_at(AtomicObject* object) { waiting_at_.store(object); }

  const TxnId id_;
  TxnState state_ = TxnState::kActive;
  std::atomic<TxnResolution> resolution_{TxnResolution::kOpen};
  std::atomic<AtomicObject*> waiting_at_{nullptr};
  std::vector<AtomicObject*> touched_;
};

}  // namespace ccr

#endif  // CCR_TXN_TRANSACTION_H_
