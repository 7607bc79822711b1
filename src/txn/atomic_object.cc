// Copyright 2026 The ccr Authors.

#include "txn/atomic_object.h"

#include <algorithm>

#include "common/string_util.h"

namespace ccr {

AtomicObject::AtomicObject(ObjectId id, std::shared_ptr<const Adt> adt,
                           std::shared_ptr<const ConflictRelation> conflict,
                           std::unique_ptr<RecoveryManager> recovery,
                           AtomicObjectOptions options)
    : id_(std::move(id)),
      adt_(std::move(adt)),
      conflict_(std::move(conflict)),
      recovery_(std::move(recovery)),
      options_(options),
      choice_rng_(options.choice_seed) {
  CCR_CHECK(adt_ != nullptr && conflict_ != nullptr && recovery_ != nullptr);
}

void AtomicObject::CollectBlockers(TxnId txn, const Operation& candidate,
                                   std::vector<TxnId>* out) const {
  for (const auto& [holder, ops] : held_) {
    if (holder == txn) continue;
    for (const Operation& held_op : ops) {
      if (conflict_->Conflicts(candidate, held_op)) {
        out->push_back(holder);
        break;
      }
    }
  }
}

void AtomicObject::SignalLocked(Waiter* waiter) {
  if (waiter->signaled) return;
  waiter->signaled = true;
  ++stats_.wakeups;
  waiter->cv.notify_one();
}

void AtomicObject::WakeOnFinishLocked(TxnId finished) {
  for (Waiter* w : queue_) {
    // A finished blocker releases its conflicting locks; a view-waiter
    // (empty blockers) may see its partial operation enabled by the
    // committed/undone state.
    if (w->blockers.empty() ||
        std::find(w->blockers.begin(), w->blockers.end(), finished) !=
            w->blockers.end()) {
      SignalLocked(w);
    }
  }
}

void AtomicObject::WakeOnViewChangeLocked() {
  for (Waiter* w : queue_) {
    if (w->blockers.empty()) SignalLocked(w);
  }
}

void AtomicObject::WakeKilled(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Waiter* w : queue_) {
    if (w->txn == txn) {
      ++stats_.kill_wakeups;
      SignalLocked(w);
      return;
    }
  }
}

StatusOr<Value> AtomicObject::ExecuteLoop(Transaction* txn,
                                          const Invocation& inv,
                                          std::unique_lock<std::mutex>& lk,
                                          Waiter& waiter, bool& enqueued) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.lock_timeout;
  std::vector<TxnId> kill_targets;

  for (;;) {
    if (txn->killed()) {
      if (detector_ != nullptr) detector_->RemoveWait(txn->id());
      ++stats_.deadlock_victims;
      return Status::Deadlock(
          StrFormat("%s chosen as deadlock victim", TxnName(txn->id()).c_str()));
    }

    std::vector<Outcome> candidates = recovery_->Candidates(txn->id(), inv);
    // For nondeterministic outcomes, rotate the starting point so choices
    // are spread (seeded, hence reproducible).
    size_t start = 0;
    if (candidates.size() > 1) {
      start = choice_rng_.Uniform(candidates.size());
    }

    // Collected into the waiter frame's scratch buffer, which ping-pongs
    // with waiter.blockers below so the contended path reuses capacity
    // instead of allocating fresh vectors per candidate per wakeup.
    std::vector<TxnId>& blockers = waiter.scratch;
    blockers.clear();
    for (size_t k = 0; k < candidates.size(); ++k) {
      Outcome& outcome = candidates[(start + k) % candidates.size()];
      const Operation candidate(inv, outcome.result);
      const size_t before = blockers.size();
      CollectBlockers(txn->id(), candidate, &blockers);
      if (blockers.size() == before) {
        // Enabled and conflict-free: execute.
        recovery_->Apply(txn->id(), candidate, std::move(outcome.next));
        held_[txn->id()].push_back(candidate);
        ++stats_.executes;
        if (detector_ != nullptr) detector_->RemoveWait(txn->id());
        if (recorder_ != nullptr) {
          recorder_->Record(
              Event::Response(txn->id(), id_, candidate.result()));
        }
        // Executing an operation can enable waiters' partial operations.
        WakeOnViewChangeLocked();
        return candidate.result();
      }
    }

    // Blocked: either every enabled outcome conflicts, or the invocation is
    // disabled in this view (blockers empty — a partial operation).
    if (!blockers.empty()) ++stats_.conflicts;
    std::sort(blockers.begin(), blockers.end());
    blockers.erase(std::unique(blockers.begin(), blockers.end()),
                   blockers.end());

    if (!enqueued) {
      enqueued = true;
      ++stats_.waits;
      queue_.push_back(&waiter);
      stats_.max_queue_depth =
          std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
      // Publish the registration before the pre-sleep killed() check below:
      // a concurrent Kill either stores the kill flag first (we observe it
      // and return) or loads this registration and signals our waiter.
      txn->set_waiting_at(this);
    }
    // Swap, don't move: last round's blockers vector becomes next round's
    // scratch, keeping both capacities alive.
    waiter.blockers.swap(blockers);

    kill_targets.clear();
    if (options_.policy == DeadlockPolicy::kDetect && detector_ != nullptr &&
        !waiter.blockers.empty()) {
      const TxnId victim = detector_->AddWait(txn->id(), waiter.blockers);
      if (victim == txn->id()) {
        detector_->RemoveWait(txn->id());
        ++stats_.deadlock_victims;
        return Status::Deadlock(StrFormat(
            "%s chosen as deadlock victim at %s",
            TxnName(txn->id()).c_str(), id_.c_str()));
      }
      if (victim != kInvalidTxn && kill_fn_) kill_targets.push_back(victim);
    } else if (options_.policy == DeadlockPolicy::kWoundWait && kill_fn_) {
      // An older waiter wounds younger holders; a younger waiter just waits.
      for (TxnId holder : waiter.blockers) {
        if (holder > txn->id()) kill_targets.push_back(holder);
      }
    }
    if (!kill_targets.empty()) {
      // Issue kills without mu_: Kill takes the manager lock and may take
      // the victim's waiting object's lock (WakeKilled), so calling it here
      // while holding mu_ would order object mutexes against each other.
      lk.unlock();
      for (TxnId victim : kill_targets) kill_fn_(victim);
      lk.lock();
      // The wounds are delivered; fall through to sleep. The victims' aborts
      // release their locks here and wake us — re-killing in a spin would
      // be wasted work (TryKill makes repeats no-ops anyway).
    }

    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      if (detector_ != nullptr) detector_->RemoveWait(txn->id());
      ++stats_.timeouts;
      return Status::TimedOut(StrFormat(
          "%s timed out waiting at %s for %s", TxnName(txn->id()).c_str(),
          id_.c_str(), inv.ToString().c_str()));
    }
    if (!waiter.signaled && !txn->killed()) {
      waiter.cv.wait_until(lk, deadline);
      if (!waiter.signaled && !txn->killed() &&
          std::chrono::steady_clock::now() < deadline) {
        ++stats_.spurious_wakeups;
      }
    }
    waiter.signaled = false;
  }
}

Status AtomicObject::ExecuteGroup(Transaction* txn,
                                  std::span<const Invocation* const> invs,
                                  std::span<Value> out) {
  CCR_CHECK(txn != nullptr && out.size() == invs.size());
  if (invs.empty()) return Status::OK();
  for (const Invocation* inv : invs) {
    if (inv->object() != id_) {
      return Status::InvalidArgument(
          StrFormat("invocation for %s sent to %s", inv->object().c_str(),
                    id_.c_str()));
    }
  }
  if (!txn->active()) {
    return Status::IllegalState("transaction is not active");
  }
  txn->Touch(this);

  referenced_.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lk(mu_);
  if (dropped_) {
    // The caller's directory lookup raced a Drop: the pointer is still
    // valid (graveyard), the object is gone. No lock was acquired here.
    return Status::NotFound("object " + id_ + " was dropped");
  }
  CCR_RETURN_IF_ERROR(FaultInLocked());
  Waiter waiter(txn->id());
  for (size_t i = 0; i < invs.size(); ++i) {
    // Invoke is recorded under mu_: the recorder shard's mutex is a leaf
    // below every object mutex, and per-object event order is what the
    // checkers rely on.
    if (recorder_ != nullptr) {
      recorder_->Record(Event::Invoke(txn->id(), *invs[i]));
    }
    bool enqueued = false;
    const auto enqueue_time = std::chrono::steady_clock::now();
    StatusOr<Value> result = ExecuteLoop(txn, *invs[i], lk, waiter, enqueued);
    if (enqueued) {
      queue_.remove(&waiter);
      txn->set_waiting_at(nullptr);
      stats_.wait_time_us.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - enqueue_time)
              .count()));
      // Reset the frame for the next op: a signal meant for the finished
      // wait must not leak into a later op's first sleep.
      waiter.signaled = false;
      waiter.blockers.clear();
    }
    if (!result.ok()) return result.status();
    out[i] = std::move(*result);
  }
  return Status::OK();
}

StatusOr<Value> AtomicObject::Execute(Transaction* txn,
                                      const Invocation& inv) {
  const Invocation* const invs[] = {&inv};
  Value result;
  CCR_RETURN_IF_ERROR(ExecuteGroup(txn, invs, std::span<Value>(&result, 1)));
  return result;
}

std::unique_lock<std::mutex> AtomicObject::LockForCommit() {
  return std::unique_lock<std::mutex>(mu_);
}

void AtomicObject::CollectCommitLocked(TxnId txn, OpSeq* redo) {
  // The caller appends the record and hands its LSN to
  // FinalizeCommitLocked — or, when the record is refused, undoes the
  // transaction with AbortLocked; the detector Forget is the manager's (it
  // issues one for the whole transaction after the objects unlock).
  recovery_->CollectCommit(txn, redo);
}

void AtomicObject::FinalizeCommitLocked(TxnId txn, Lsn lsn) {
  recovery_->FinalizeCommit(txn);
  if (lsn > last_lsn_) last_lsn_ = lsn;
  ++commit_tick_;
  held_.erase(txn);
  // Recorded under mu_ so the object-local event order matches effect
  // order — dynamic atomicity is a local property (Lemma 1), so per-object
  // order is exactly what the offline checkers rely on.
  if (recorder_ != nullptr) recorder_->Record(Event::Commit(txn, id_));
  WakeOnFinishLocked(txn);
}

void AtomicObject::Abort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  AbortLocked(txn);
}

void AtomicObject::AbortLocked(TxnId txn) {
  recovery_->Abort(txn);
  held_.erase(txn);
  if (recorder_ != nullptr) recorder_->Record(Event::Abort(txn, id_));
  WakeOnFinishLocked(txn);
}

Status AtomicObject::ReplayCommitted(TxnId txn, const OpSeq& ops, Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  CCR_RETURN_IF_ERROR(FaultInLocked());
  for (const Operation& op : ops) {
    std::vector<Outcome> outcomes = recovery_->Candidates(txn, op.inv());
    bool applied = false;
    for (Outcome& outcome : outcomes) {
      if (outcome.result != op.result()) continue;
      recovery_->Apply(txn, op, std::move(outcome.next));
      applied = true;
      break;
    }
    if (!applied) {
      return Status::Internal(StrFormat(
          "crash replay stuck: %s of %s not enabled at %s",
          op.ToString().c_str(), TxnName(txn).c_str(), id_.c_str()));
    }
  }
  const Status committed = recovery_->Commit(txn);
  if (lsn != kNoLsn && lsn > last_lsn_) last_lsn_ = lsn;
  ++commit_tick_;
  return committed;
}

std::unique_ptr<SpecState> AtomicObject::CommittedState() {
  std::lock_guard<std::mutex> lock(mu_);
  // Callers long predate eviction and dereference unconditionally, so the
  // non-null contract stands: an evicted object whose image cannot be
  // faulted back in fails loudly instead of returning a null nobody
  // checks.
  const Status faulted = FaultInLocked();
  CCR_CHECK_MSG(faulted.ok(), "cannot fault %s in for CommittedState: %s",
                id_.c_str(), faulted.ToString().c_str());
  return recovery_->CommittedState();
}

AtomicObject::CheckpointSnapshot AtomicObject::SnapshotForCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  // State and LSN under one acquisition of the mutex commits sequence their
  // records under: every record with lsn <= last_lsn_ is in this state,
  // every later one is not — the exact page-LSN pairing fuzzy replay needs.
  CheckpointSnapshot snap;
  // Evicted: the state lives in the store, installed there under this same
  // mutex and frozen while evicted — report a null state and let the
  // checkpoint reuse the store image instead of paying a fault-in.
  if (!evicted_) snap.state = recovery_->CommittedState();
  snap.lsn = last_lsn_;
  return snap;
}

Status AtomicObject::FaultInLocked() {
  if (!evicted_) return Status::OK();
  if (!store_fault_) {
    return Status::IllegalState("object " + id_ +
                                " is evicted and no store fault handler "
                                "is wired");
  }
  StatusOr<std::pair<std::string, Lsn>> image = store_fault_();
  if (!image.ok()) return image.status();
  if (image->second != last_lsn_) {
    return Status::Internal(StrFormat(
        "store image of %s is at lsn %llu but the object evicted at %llu",
        id_.c_str(), static_cast<unsigned long long>(image->second),
        static_cast<unsigned long long>(last_lsn_)));
  }
  StatusOr<std::unique_ptr<SpecState>> state = adt_->DecodeState(image->first);
  if (!state.ok()) return state.status();
  recovery_->InstallCommittedState(std::move(*state));
  evicted_ = false;
  ++stats_.fault_ins;
  if (evicted_counter_ != nullptr) {
    evicted_counter_->fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

StatusOr<AtomicObject::EvictTicket> AtomicObject::BeginEvict() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dropped_) {
    return Status::IllegalState("cannot evict dropped object " + id_);
  }
  if (evicted_) {
    return Status::IllegalState("object " + id_ + " is already evicted");
  }
  if (!held_.empty() || !queue_.empty()) {
    return Status::IllegalState(StrFormat(
        "cannot evict %s: %zu transaction(s) hold operation locks and %zu "
        "wait here",
        id_.c_str(), held_.size(), queue_.size()));
  }
  if (!adt_->supports_state_codec()) {
    return Status::NotSupported("ADT " + adt_->name() +
                                " has no state codec — not evictable");
  }
  EvictTicket ticket;
  ticket.lsn = last_lsn_;
  ticket.tick = commit_tick_;
  ticket.encoded = adt_->EncodeState(*recovery_->CommittedState());
  return ticket;
}

bool AtomicObject::EvictTicketCurrentLocked(const EvictTicket& ticket) const {
  return !dropped_ && !evicted_ && held_.empty() && queue_.empty() &&
         commit_tick_ == ticket.tick;
}

bool AtomicObject::EvictTicketCurrent(const EvictTicket& ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictTicketCurrentLocked(ticket);
}

bool AtomicObject::FinishEvict(const EvictTicket& ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!EvictTicketCurrentLocked(ticket)) {
    // The object moved on between BeginEvict and here (new commit, new
    // waiter, a drop). The image already written is stale but sound — its
    // LSN is monotone over any older image — so just abandon the eviction.
    // The commit tick, not the LSN, is what detects a raced commit: with a
    // volatile journal every commit sequences at kNoLsn, and an
    // Execute+Commit completing entirely inside the two-phase gap would
    // leave the LSN looking untouched.
    return false;
  }
  recovery_->InstallCommittedState(adt_->spec().InitialState());
  evicted_ = true;
  ++stats_.evictions;
  if (evicted_counter_ != nullptr) {
    evicted_counter_->fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool AtomicObject::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

void AtomicObject::InstallCheckpoint(std::unique_ptr<SpecState> state,
                                     Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_->InstallCommittedState(std::move(state));
  last_lsn_ = lsn;
  ++commit_tick_;
  held_.clear();
  if (evicted_) {
    evicted_ = false;
    if (evicted_counter_ != nullptr) {
      evicted_counter_->fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void AtomicObject::ResetForRecovery() {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_->InstallCommittedState(adt_->spec().InitialState());
  last_lsn_ = kNoLsn;
  ++commit_tick_;
  held_.clear();
  dropped_ = false;
  if (evicted_) {
    evicted_ = false;
    if (evicted_counter_ != nullptr) {
      evicted_counter_->fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

Status AtomicObject::MarkDropped() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dropped_) return Status::OK();
  if (!held_.empty() || !queue_.empty()) {
    return Status::IllegalState(StrFormat(
        "cannot drop %s: %zu transaction(s) hold operation locks and %zu "
        "wait here",
        id_.c_str(), held_.size(), queue_.size()));
  }
  dropped_ = true;
  return Status::OK();
}

bool AtomicObject::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Lsn AtomicObject::last_committed_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

ObjectStats AtomicObject::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RecoveryStats AtomicObject::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_->stats();
}

}  // namespace ccr
