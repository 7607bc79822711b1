// Copyright 2026 The ccr Authors.
//
// AtomicObject: the runtime counterpart of the paper's
// I(X, Spec, View, Conflict) — an object that owns a serial specification
// (via its Adt), a conflict relation, and a recovery manager, and executes
// operations for concurrent transactions under conflict-based locking.
//
// Locks are implicit, exactly as in the paper: the operations a transaction
// has executed *are* its locks. A new operation may respond only when it
// conflicts with no operation held by a different active transaction;
// otherwise the caller blocks until the holders finish (or deadlock
// resolution / timeout intervenes). Partial operations (queue dequeue on
// empty, counter decrement below the floor) also block, waiting for the
// view to enable them.
//
// Blocking is event-driven: each blocked caller sits in a per-object FIFO
// wait queue, registered with the transactions it is blocked on (or, for a
// disabled partial operation, with an empty blocker set meaning "any view
// change"). Execute/Commit/Abort wake only the waiters whose blockers
// actually changed, and TxnManager::Kill wakes a victim directly through
// its wait registration — no polling slice anywhere on the hot path.

#ifndef CCR_TXN_ATOMIC_OBJECT_H_
#define CCR_TXN_ATOMIC_OBJECT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "common/latency_recorder.h"
#include "common/random.h"
#include "common/status.h"
#include "core/adt.h"
#include "core/conflict_relation.h"
#include "txn/deadlock.h"
#include "txn/history_recorder.h"
#include "txn/recovery_manager.h"
#include "txn/transaction.h"

namespace ccr {

// How lock waits are resolved.
enum class DeadlockPolicy {
  kDetect,     // waits-for graph; youngest on the cycle dies
  kTimeout,    // no graph; waits give up after the lock timeout
  kWoundWait,  // an older waiter wounds (kills) younger holders
};

struct AtomicObjectOptions {
  std::chrono::milliseconds lock_timeout{500};
  DeadlockPolicy policy = DeadlockPolicy::kDetect;
  // For nondeterministic specs: pick among enabled outcomes at random
  // (seeded) instead of always the first.
  uint64_t choice_seed = 1;
};

// Per-object contention counters and wait-time histogram.
struct ObjectStats {
  uint64_t executes = 0;       // operations executed successfully
  uint64_t conflicts = 0;      // times a request found a conflicting holder
  uint64_t waits = 0;          // times a request actually slept
  uint64_t deadlock_victims = 0;
  uint64_t timeouts = 0;
  uint64_t evictions = 0;      // state evicted to the persistent store
  uint64_t fault_ins = 0;      // state faulted back in from the store
  uint64_t wakeups = 0;           // targeted signals delivered to waiters
  uint64_t spurious_wakeups = 0;  // sleeper woke unsignaled before deadline
  uint64_t kill_wakeups = 0;      // direct victim wakeups from Kill
  uint64_t max_queue_depth = 0;   // wait-queue high-water mark
  LatencyRecorder wait_time_us;   // total blocked time per waiting Execute
};

class AtomicObject {
 public:
  AtomicObject(ObjectId id, std::shared_ptr<const Adt> adt,
               std::shared_ptr<const ConflictRelation> conflict,
               std::unique_ptr<RecoveryManager> recovery,
               AtomicObjectOptions options = {});

  CCR_DISALLOW_COPY_AND_ASSIGN(AtomicObject);

  const ObjectId& id() const { return id_; }
  const Adt& adt() const { return *adt_; }
  const ConflictRelation& conflict() const { return *conflict_; }
  RecoveryManager& recovery() { return *recovery_; }

  // Wires (set once, before use; both optional).
  // Registers this object's own append shard: records taken inside this
  // object's critical section never contend with other objects'.
  void set_recorder(HistoryRecorder* recorder) {
    recorder_ = recorder == nullptr ? nullptr : recorder->RegisterShard();
  }
  void set_detector(DeadlockDetector* detector) { detector_ = detector; }
  void set_kill_fn(std::function<void(TxnId)> kill_fn) {
    kill_fn_ = std::move(kill_fn);
  }

  // Executes a group of operations for `txn` under ONE acquisition of this
  // object's mutex, blocking on conflicts and disabled partial operations
  // (one waiter frame reused across the group). invs[i]'s result lands in
  // out[i]; `out` must be as long as `invs`. The first failing op fails the
  // whole call (the caller aborts the transaction, which releases the
  // earlier ops' locks). Errors:
  //   kDeadlock — `txn` was chosen as a victim (caller must abort it),
  //   kTimedOut — the lock timeout elapsed,
  //   kInvalidArgument — invocation addressed to a different object.
  Status ExecuteGroup(Transaction* txn,
                      std::span<const Invocation* const> invs,
                      std::span<Value> out);

  // One-op ExecuteGroup.
  StatusOr<Value> Execute(Transaction* txn, const Invocation& inv);

  // Aborts this transaction's work at this object: releases its operation
  // locks, lets recovery undo, and wakes the waiters blocked on it. Called
  // by the manager for each touched object.
  void Abort(TxnId txn);

  // Commit protocol (TxnManager::CommitAsync). The manager commits every
  // transaction with ONE journal append: it locks every touched object in
  // canonical (ObjectId sort) order via LockForCommit, runs
  // CollectCommitLocked at each — which folds the object's redo ops into
  // the shared record — appends the record while still holding ALL the
  // locks (so the record's LSN orders before any record that can read from
  // this transaction, preserving the early-lock-release safety argument),
  // then runs FinalizeCommitLocked at each object: the deferred commit
  // state transition (after the append, so the group-commit sync overlaps
  // the fold work instead of queueing behind it), the install of the
  // record's LSN (kNoLsn: the object contributed no ops), the release of
  // the operation locks and the waiter wakeup — or, for a record the
  // pipeline refused, AbortLocked. The *Locked calls require the lock
  // returned by LockForCommit to be held; the same mutex also pairs state
  // and LSN for SnapshotForCheckpoint, so a fuzzy checkpoint can never
  // observe the transaction's state without its LSN.
  std::unique_lock<std::mutex> LockForCommit();
  void CollectCommitLocked(TxnId txn, OpSeq* redo);
  void FinalizeCommitLocked(TxnId txn, Lsn lsn);
  void AbortLocked(TxnId txn);

  // Wakes `txn`'s waiter (if it is blocked here) so a kill is observed
  // immediately instead of at the next timeout. Called by TxnManager::Kill
  // after winning the kill/commit arbitration; the caller must hold no
  // object or manager locks.
  void WakeKilled(TxnId txn);

  // Crash-restart replay (TxnManager::Restart): re-applies one committed
  // transaction's operations at this object through the recovery manager
  // and commits them, bypassing conflict locking and history recording —
  // recovery replays with no active transactions, and the replayed events
  // belong to the pre-crash history, not this run's. `lsn` is the record's
  // journal position (advances last_committed_lsn); parallel restart may
  // call this from several threads, but always with distinct objects per
  // thread — within one object, calls stay ordered. Requires each op's
  // recorded result to be enabled in the replay view (kInternal otherwise:
  // the journal was written under a conflict relation too weak for its
  // recovery method, or the image lies).
  Status ReplayCommitted(TxnId txn, const OpSeq& ops, Lsn lsn = kNoLsn);

  // Committed-state snapshot, for invariant checks outside any transaction.
  // Faults an evicted state back in first (so it needs the fault handler
  // when the object is evicted — hence non-const). Never returns null: a
  // fault-in failure (store error on an evicted object) CCR_CHECKs, since
  // callers predate eviction and dereference unconditionally.
  std::unique_ptr<SpecState> CommittedState();

  // Fuzzy-checkpoint support. A snapshot pairs the committed state with the
  // LSN of the last commit record sequenced at this object; both are read
  // under the same critical section that sequences commits, so the pair is
  // exact: replaying records with lsn > snapshot.lsn onto snapshot.state
  // reconstructs any later committed state. For an EVICTED object the
  // snapshot carries a null state: the store's image (written at eviction
  // under this same mutex, and unchangeable while the object stays
  // evicted) is the current state, so the checkpoint reuses it instead of
  // faulting the object in.
  struct CheckpointSnapshot {
    std::unique_ptr<SpecState> state;  // null <=> evicted
    Lsn lsn = kNoLsn;
  };
  CheckpointSnapshot SnapshotForCheckpoint() const;

  // --- Cold-object eviction (TxnManager::EvictObject drives this) ---
  //
  // Eviction swaps the object's heavy committed state for its ADT-codec
  // encoding in the persistent store; the AtomicObject shell itself stays
  // in the directory (so raced Find pointers stay valid and the directory
  // needs no unbounded graveyard), and the state is faulted back in on the
  // next Execute. The protocol is two-phase so no lock is held across the
  // store write:
  //
  //   1. BeginEvict: under mu_, refuse unless quiescent (no operation
  //      locks, no waiters — the same condition MarkDropped requires, plus
  //      not dropped/evicted and a state codec); return the encoded state
  //      and its LSN.
  //   2. The caller makes the image durable enough (WaitWatermark on the
  //      ticket LSN so the image never reflects records the journal could
  //      still lose), then — inside one store-mutex critical section —
  //      skips a stale ticket (EvictTicketCurrent: another eviction may
  //      have stored a newer image meanwhile), Puts the image and calls
  //      FinishEvict. An object observed evicted under the store mutex
  //      therefore always has a store image at exactly its last committed
  //      LSN, which is what FaultInLocked's LSN-equality check and the
  //      checkpoint batch's staleness skip both rely on.
  //   3. FinishEvict: re-checks that nothing moved (still quiescent,
  //      commit tick unchanged); on success frees the state and marks the
  //      object evicted. Returns false when the object moved on — the
  //      written image is then stale but still sound: its LSN is monotone
  //      over any earlier image, so it covers everything any durable
  //      checkpoint anchor requires, and the next checkpoint or eviction
  //      refreshes it.
  //
  // The raced-commit check compares the ticket's commit tick, not its
  // LSN: with a volatile journal (or none) every commit sequences at
  // kNoLsn, so an Execute+Commit completing entirely inside the two-phase
  // gap would leave the LSN unchanged and the stale image would silently
  // swallow the commit. The tick advances on every state-changing commit,
  // replay, and checkpoint install regardless of journal mode.
  struct EvictTicket {
    std::string encoded;
    Lsn lsn = kNoLsn;
    uint64_t tick = 0;  // commit_tick_ at capture
  };
  StatusOr<EvictTicket> BeginEvict();
  bool FinishEvict(const EvictTicket& ticket);
  // Whether FinishEvict would still accept `ticket` (nothing moved since
  // BeginEvict).
  bool EvictTicketCurrent(const EvictTicket& ticket) const;
  bool evicted() const;

  // Fault handler: fetches this object's (encoded state, lsn) image from
  // the store. Called under mu_ on the first touch of an evicted object;
  // must not reenter this object or take any object/stripe lock.
  using StoreFaultFn =
      std::function<StatusOr<std::pair<std::string, Lsn>>()>;
  void set_store_fault(StoreFaultFn fn) { store_fault_ = std::move(fn); }

  // Manager-wide evicted-shell counter (optional): FinishEvict increments,
  // fault-in decrements, so the manager's residency sweep reads one atomic
  // instead of polling every object.
  void set_evicted_counter(std::atomic<size_t>* counter) {
    evicted_counter_ = counter;
  }

  // Second-chance (CLOCK) reference bit for the eviction sweep: Execute
  // sets it; the sweep clears it and only evicts objects it found clear.
  bool TestAndClearReferenced() {
    return referenced_.exchange(false, std::memory_order_relaxed);
  }

  // Restart-only: replaces the committed state with a checkpoint image and
  // primes last_committed_lsn so tail replay skips covered records.
  void InstallCheckpoint(std::unique_ptr<SpecState> state, Lsn lsn);

  // Restart-only: back to the ADT's initial state, discarding all recovery
  // bookkeeping — the fail-atomic landing point when a restart errors out.
  // Also clears the dropped flag (a restart re-creating this id starts a
  // fresh incarnation).
  void ResetForRecovery();

  // Object-lifecycle support (the striped directory's Drop path).
  // MarkDropped refuses while any transaction holds operation locks or
  // waits here — the live-transaction refusal: a transaction that touched
  // this object holds its operation locks until commit/abort, so an empty
  // held_ + queue_ means no live transaction can still observe it. Once
  // marked, Execute returns kNotFound: a raced lookup that obtained this
  // pointer just before the drop dereferences valid memory (the
  // directory's graveyard keeps it alive) and fails cleanly.
  Status MarkDropped();
  bool dropped() const;

  // Registered factory that can re-instantiate this object on restart
  // (empty for eagerly registered objects). Set once at creation, before
  // the object is published.
  void set_factory_name(std::string name) { factory_name_ = std::move(name); }
  const std::string& factory_name() const { return factory_name_; }

  // LSN of the newest commit record sequenced at this object (kNoLsn if
  // none since the last reset/restart without a checkpoint).
  Lsn last_committed_lsn() const;

  ObjectStats stats() const;
  RecoveryStats recovery_stats() const;

 private:
  // One blocked Execute call. Lives on the caller's stack; queue_ holds a
  // pointer for the duration of the block. All fields are guarded by mu_.
  struct Waiter {
    explicit Waiter(TxnId t) : txn(t) {
      blockers.reserve(8);
      scratch.reserve(8);
    }
    const TxnId txn;
    std::condition_variable cv;
    // Transactions whose locks block this waiter; empty means the waiter's
    // invocation is disabled in its view (a partial operation) and any
    // state change may enable it.
    std::vector<TxnId> blockers;
    // Collection buffer for the next round's blockers; swapped with
    // `blockers` each wait-loop iteration so the contended path allocates
    // nothing after warmup.
    std::vector<TxnId> scratch;
    bool signaled = false;
  };

  // The wait loop proper; called with `lk` held, returns with it held.
  // Queue registration/cleanup is handled by ExecuteGroup around this.
  StatusOr<Value> ExecuteLoop(Transaction* txn, const Invocation& inv,
                              std::unique_lock<std::mutex>& lk,
                              Waiter& waiter, bool& enqueued);

  bool EvictTicketCurrentLocked(const EvictTicket& ticket) const;

  // Installs the store image over the evicted placeholder; caller holds
  // mu_. No-op when resident.
  Status FaultInLocked();

  // Appends the transactions (other than `txn`) holding operations that
  // conflict with `candidate` onto `out`. Caller holds mu_.
  void CollectBlockers(TxnId txn, const Operation& candidate,
                       std::vector<TxnId>* out) const;

  // Wake primitives; caller holds mu_.
  void SignalLocked(Waiter* waiter);
  // A transaction finished (committed or aborted): wake waiters blocked on
  // it, plus view-waiters (commit/abort changes the visible state).
  void WakeOnFinishLocked(TxnId finished);
  // The view changed (an operation executed): wake view-waiters only.
  void WakeOnViewChangeLocked();

  const ObjectId id_;
  std::shared_ptr<const Adt> adt_;
  std::shared_ptr<const ConflictRelation> conflict_;
  std::unique_ptr<RecoveryManager> recovery_;
  AtomicObjectOptions options_;

  HistoryRecorder::Shard* recorder_ = nullptr;
  DeadlockDetector* detector_ = nullptr;
  std::function<void(TxnId)> kill_fn_;
  StoreFaultFn store_fault_;
  std::atomic<size_t>* evicted_counter_ = nullptr;
  std::string factory_name_;  // set before publication, then immutable
  std::atomic<bool> referenced_{false};  // CLOCK bit for the eviction sweep

  mutable std::mutex mu_;
  bool dropped_ = false;         // set by MarkDropped; Execute refuses
  bool evicted_ = false;         // state lives in the store, not here
  Lsn last_lsn_ = kNoLsn;        // newest commit LSN sequenced here
  // Monotone count of state-changing events (commits, replays, checkpoint
  // installs) — FinishEvict's raced-commit detector. LSNs cannot serve
  // here: a volatile journal sequences every commit at kNoLsn.
  uint64_t commit_tick_ = 0;
  std::map<TxnId, OpSeq> held_;  // operation locks of active transactions
  std::list<Waiter*> queue_;     // blocked callers, FIFO arrival order
  Random choice_rng_;
  ObjectStats stats_;
};

}  // namespace ccr

#endif  // CCR_TXN_ATOMIC_OBJECT_H_
