// Copyright 2026 The ccr Authors.
//
// TxnManager: transaction lifecycle, atomic commitment across objects (the
// paper's "commit at one or more objects, never commit-and-abort": every
// transaction, however it executed, commits under ONE journal record),
// deadlock victim handling, and the retry loop client code uses.
//
// Contract: a transaction is driven by one thread. After Execute returns a
// retryable error (kConflict / kDeadlock / kTimedOut), the transaction MUST
// be aborted, not reused; RunTransaction handles this (abort + fresh
// transaction + backoff).

#ifndef CCR_TXN_TXN_MANAGER_H_
#define CCR_TXN_TXN_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "txn/atomic_object.h"
#include "txn/checkpoint.h"
#include "txn/journal_io.h"
#include "txn/object_directory.h"

namespace ccr {

class GroupCommitPipeline;
class Journal;
class ObjectStore;

struct TxnManagerOptions {
  bool record_history = true;
  // How the recorder takes events off the objects' hot paths: sharded
  // buffers validated at snapshot time (default), or the eager global-mutex
  // oracle that validates every append (see history_recorder.h).
  RecorderMode recorder_mode = RecorderMode::kSharded;
  DeadlockPolicy policy = DeadlockPolicy::kDetect;
  std::chrono::milliseconds lock_timeout{500};
  int max_retries = 1000;
  // Stripes of the object directory (power of two; 0 picks a default from
  // hardware concurrency). See object_directory.h.
  size_t stripe_count = 0;
  // Cold-object eviction watermarks, active only with an object store
  // attached (set_object_store). When the resident-object estimate exceeds
  // the high watermark, a sweep evicts quiescent objects (CLOCK second
  // chance over the recently-referenced bit) down to the low watermark
  // (which defaults to the high one when 0). 0 high watermark: eviction
  // disabled.
  size_t evict_high_watermark = 0;
  size_t evict_low_watermark = 0;
};

// Aggregate outcome counters.
struct ManagerStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t retries = 0;     // retryable failures that were retried
  uint64_t kills = 0;       // deadlock wounds/victims issued
};

struct RestartOptions {
  // Threads replaying the post-checkpoint tail. The tail is bucketed per
  // object (object states are independent; within one object records stay
  // in LSN order), so the useful maximum is the number of objects with a
  // non-empty tail.
  int replay_threads = 1;
  // Store-backed restarts only: defer dynamically created objects whose
  // image lives in the store and which the journal tail never names.
  // Deferred objects stay out of the directory — their store image IS
  // their state — and fault back in on first GetOrCreate/Execute touch.
  // Restart cost becomes O(tail + touched objects), not O(population).
  bool lazy_store_install = false;
};

// What a restart found and did — the same shape for every entry source.
struct RestartSummary {
  Lsn checkpoint_anchor = 0;      // 0: no checkpoint, full replay
  size_t checkpoint_objects = 0;  // object states installed from the image
  size_t tail_records = 0;        // records replayed past the anchor
  // Per-object record deliveries dropped because the object's own
  // checkpoint LSN already covered them (the fuzzy overshoot).
  size_t tail_skipped = 0;
  // Lifecycle outcomes: objects re-created through the factory registry
  // (image `dyn` entries + tail `create` records) and objects whose final
  // journaled state is dropped (retired after replay).
  size_t objects_created = 0;
  size_t objects_dropped = 0;
  Lsn high_lsn = 0;               // newest LSN on disk; journals resume after
  TxnId max_txn = 0;              // watermark restored (checkpoint + tail)
  // Store-backed restart: whether the image came from the object store's
  // meta record (vs a checkpoint file), and how many image objects were
  // left deferred in the store (lazy_store_install).
  bool from_store = false;
  size_t store_deferred = 0;
  // The journal scan's outcome (segment counts stay 0 for an image).
  RecoveryReport scan;
};

// Everything a factory must supply to instantiate one object: the ADT, its
// conflict relation, and its recovery manager. The manager wires recorder,
// detector, kill function, lock options, and the lifecycle journal itself.
struct ObjectConfig {
  std::shared_ptr<const Adt> adt;
  std::shared_ptr<const ConflictRelation> conflict;
  std::unique_ptr<RecoveryManager> recovery;
};

// Builds the config for a lazily created object. Runs under the owning
// directory stripe's exclusive lock: must not touch the manager or the
// directory.
using ObjectFactory = std::function<ObjectConfig(const ObjectId&)>;

// One operation of a multi-key batch (TxnManager::ExecuteBatch): the target
// object, the factory that may create it on first touch (empty: the object
// must already exist), and the invocation itself. inv.object() must equal
// `object`.
struct BatchOp {
  ObjectId object;
  std::string factory;
  Invocation inv;
};

class TxnManager {
 public:
  explicit TxnManager(TxnManagerOptions options = {});

  CCR_DISALLOW_COPY_AND_ASSIGN(TxnManager);

  // Creates and registers an object with this manager's recorder, detector,
  // kill function, lock timeout, and policy. `id` must be a journal name
  // (IsJournalName; fatal otherwise — eager registration is setup code).
  AtomicObject* AddObject(ObjectId id, std::shared_ptr<const Adt> adt,
                          std::shared_ptr<const ConflictRelation> conflict,
                          std::unique_ptr<RecoveryManager> recovery);

  // Registers a factory for lazy object creation. Names must be journal
  // names (IsJournalName: they are journaled in create records and
  // checkpoint `dyn` lines). Registering before restart is mandatory for
  // any factory the journal names. Fatal on duplicate name.
  void RegisterFactory(const std::string& name, ObjectFactory factory);

  // Returns the object named `id`, creating it through `factory_name` on
  // first touch (exactly one creator under a race). A created object's
  // recovery manager is attached to the lifecycle journal, and a `create`
  // record is journaled before the object becomes visible — so the create's
  // LSN precedes every commit record of the object. kInvalidArgument when
  // `id` is not a journal name (IsJournalName), before anything is built or
  // journaled; kNotFound when the factory is unknown; the pipeline's
  // kUnavailable failure once it has fail-stopped (GroupCommitPipeline).
  StatusOr<AtomicObject*> GetOrCreate(const ObjectId& id,
                                      const std::string& factory_name);

  // Drops `id`: refuses (kIllegalState) while any transaction holds locks
  // or waits at the object; otherwise journals a `drop` record and retires
  // the object — lookups stop returning it, raced Execute calls fail with
  // kNotFound, and memory stays valid until restart. kNotFound when absent;
  // the pipeline's failure when the drop record cannot be made durable
  // (the store key is then left alone).
  Status DropObject(const ObjectId& id);

  // The journal create/drop records are appended to (usually the same
  // journal every object's recovery manager feeds). Unset: lifecycle
  // events stay volatile — restart will not re-create dynamic objects.
  // Also the journal attached to lazily created objects' recovery
  // managers. Set before the first GetOrCreate/DropObject.
  void set_lifecycle_journal(Journal* journal) {
    lifecycle_journal_ = journal;
  }
  Journal* lifecycle_journal() const { return lifecycle_journal_; }

  // Attaches the persistent object-store backend. Enables cold-object
  // eviction (EvictObject / the watermark sweep), store-image fault-in on
  // directory misses, store-backed checkpoints (CheckpointerOptions::
  // store must be this same store), and store-preferring restarts. Set
  // before the first transaction; optional. Not owned.
  void set_object_store(ObjectStore* store) { store_ = store; }
  ObjectStore* object_store() const { return store_; }

  // Serializes every store write batch this manager issues (eviction Puts,
  // drop Deletes, the checkpoint batch). DropObject holds it for the whole
  // drop, from before its record is sequenced until its key Delete, so no
  // checkpoint anchor can cover a drop whose key still stands. First in
  // the lock order: never acquired while a directory stripe or object
  // mutex is held.
  std::mutex& store_mutex() { return store_mu_; }

  // Evicts `id`'s committed state to the object store: encodes it under
  // the object mutex, waits until the durable watermark covers its last
  // LSN in every durability mode (the image must never run ahead of the
  // recoverable journal; a fail-stopped pipeline fails the eviction before
  // anything is written), Puts the image
  // (buffered — the next checkpoint sync hardens it), and swaps the
  // in-memory state for a placeholder. The object's shell stays in the
  // directory; first touch faults the state back in. kIllegalState without
  // a store or while the object is busy (locks held / waiters queued);
  // kNotSupported when its ADT lacks a state codec. An eviction abandoned
  // by a raced commit, drop or eviction returns OK without evicting.
  Status EvictObject(const ObjectId& id);

  // EvictObject's second phase for a ticket `obj->BeginEvict()` issued:
  // the durable wait, then the image Put and evicted flip under the store
  // mutex — skipped when the ticket is stale there (a commit, drop or
  // completed eviction since BeginEvict). Requires a store.
  Status CompleteEvict(AtomicObject* obj,
                       const AtomicObject::EvictTicket& ticket);

  // Watermark sweep (no-op unless a store is attached and
  // evict_high_watermark > 0): when the resident estimate exceeds the high
  // watermark, evicts quiescent, not-recently-referenced objects (CLOCK
  // second chance) down to the low watermark. Called from the Execute
  // paths on a sampled tick; safe to call directly. Returns the number of
  // objects evicted by this call.
  size_t MaybeEvict();

  // Objects whose state currently lives only in the store.
  size_t evicted_objects() const {
    return evicted_count_.load(std::memory_order_relaxed);
  }
  // Estimate of directory objects holding in-memory state (approx_live
  // minus evicted; the eviction watermarks gate on this).
  size_t resident_objects() const {
    const size_t live = directory_.approx_live();
    const size_t evicted = evicted_objects();
    return live >= evicted ? live - evicted : 0;
  }

  AtomicObject* object(const ObjectId& id) const;

  // All live objects, sorted by id. Snapshots one directory stripe at a
  // time — never a global lock; used by crash harnesses to attach journals
  // and audit recovered state, and by the checkpoint walk.
  std::vector<AtomicObject*> objects() const;

  // Directory-layer counters (stripes, live/retired objects, creates,
  // drops, max stripe depth).
  DirectoryStats directory_stats() const { return directory_.stats(); }

  // Crash restart. Two entry sources feed one driver: a crash image (the
  // durable journal's post-crash bytes, scanned under the torn-tail
  // truncation rule — mid-journal corruption is kInternal) and a segmented
  // journal directory. Call on a freshly built manager (same objects
  // re-added and factories registered, no live transactions —
  // kIllegalState otherwise).
  //
  // The driver installs the newest checkpoint — the attached store's meta
  // record, else (directories only) the newest intact checkpoint file —
  // then scans only the entries past its anchor: lifecycle records
  // re-create and drop objects through the factory registry, and commit
  // records are bucketed per object, skipping per object what its
  // checkpoint LSN already covers, and replayed through the objects'
  // recovery managers fanned out over options.replay_threads. Restart cost
  // is the post-checkpoint tail, not total history. Records naming
  // unknown objects (unless a later drop record resolves them) or
  // operations not enabled at replay are kInternal — the journal and the
  // system configuration disagree. Journals attached to the recovery
  // managers are detached for the duration (replayed commits are already
  // durable; re-journaling them would double them).
  //
  // Fail-atomic: on any error every object is reset to its ADT's initial
  // state and replay-created objects are never published — a
  // half-replayed restart never leaks into service as a valid one. The
  // caller may retry with a repaired journal or discard the manager. On
  // success, journaling resumes at summary.high_lsn + 1: Engine::Open
  // (engine/engine.h) restarts a directory and resumes it that way.
  StatusOr<RestartSummary> RestartFromImage(std::string_view image,
                                            RestartOptions options = {});
  StatusOr<RestartSummary> RestartFromDir(const std::string& dir,
                                          RestartOptions options = {});

  // Attaches the group-commit pipeline whose durable watermark gates
  // commit acknowledgment: Commit returns only once the transaction's
  // highest sequenced LSN is durable (a no-op in the pipeline's kSync and
  // kRelaxed modes). The journals attached to this manager's objects must
  // feed the same pipeline. Set before the first transaction; optional.
  void set_commit_pipeline(GroupCommitPipeline* pipeline) {
    pipeline_ = pipeline;
  }
  GroupCommitPipeline* commit_pipeline() const { return pipeline_; }

  // Transaction lifecycle. Commit journals the transaction's ops at every
  // touched object as one commit record — replayed all-or-nothing by every
  // restart source — and acknowledges durability: when a group-commit
  // pipeline is attached, it releases every touched object's locks first
  // (early lock release) and only then blocks until the record's LSN is
  // durable. A transaction's objects must share one journal (or have none).
  // Once the pipeline has fail-stopped, Commit returns its kUnavailable
  // failure: a record the pipeline refuses — and a transaction with
  // nothing to journal, such as a read — is undone and aborted, and a
  // record it sequenced but could not make durable is not acknowledged.
  std::shared_ptr<Transaction> Begin();
  StatusOr<Value> Execute(Transaction* txn, const Invocation& inv);
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  // Non-blocking commit for async front ends: runs the whole commit
  // protocol (latch arbitration, the one-record commit, bookkeeping) but
  // does NOT wait for durability. Returns the transaction's highest
  // sequenced LSN; the caller owns the acknowledgment — typically
  // GroupCommitPipeline::OnDurable(lsn, ...) — and must not report the
  // commit to anyone before that point fires.
  // kNoLsn means nothing was journaled (volatile objects): ack immediately.
  // On error (e.g. kDeadlock when a kill won the arbitration, or a
  // fail-stopped pipeline's failure) the transaction is already aborted,
  // exactly like Commit.
  StatusOr<Lsn> CommitAsync(Transaction* txn);

  // Executes a whole multi-key batch for `txn` in one call: ops are grouped
  // by object, every object is resolved in one directory pass (shared-mode
  // stripe lookups, GetOrCreate through op.factory for lazy keys — kNotFound
  // when an absent key names no factory), and each object's op-group runs
  // under a single acquisition of its mutex, objects visited in canonical
  // (sorted ObjectId) order. Any two batches acquire objects in the same
  // global order, so batch-vs-batch deadlock is impossible by construction;
  // within one object the caller's op order is preserved, and cross-object
  // reordering is effect-equal because object states are independent.
  // Results land in the ops' original positions. Errors follow Execute's
  // contract (the caller must abort `txn` on retryable failures). Commit
  // is the same one-record commit as for Execute-built transactions; a
  // batch saves directory passes and mutex acquisitions, not records.
  StatusOr<std::vector<Value>> ExecuteBatch(Transaction* txn,
                                            std::span<const BatchOp> ops);

  // Runs `body` in a fresh transaction, committing on success and retrying
  // on retryable failures (with randomized backoff) up to
  // options.max_retries times. `body` returning a non-retryable error
  // aborts and returns that error.
  Status RunTransaction(const std::function<Status(Transaction*)>& body);

  // Marks a transaction as a deadlock victim.
  void Kill(TxnId txn);

  // Highest transaction id assigned so far (0 before the first Begin).
  // Checkpoints store it so a restart whose journal tail is empty still
  // refuses to reuse pre-crash ids.
  TxnId max_assigned_txn() const {
    return next_txn_.load(std::memory_order_relaxed) - 1;
  }

  // Ensures ids <= txn are never assigned again. Restart calls this with
  // the checkpoint's max_txn and the tail's highest replayed id; harnesses
  // mirroring a foreign record stream call it directly.
  void AdvanceTxnWatermark(TxnId txn);

  // History recorded so far (empty when record_history is false).
  History SnapshotHistory() const;
  bool recording() const { return options_.record_history; }

  // Recording-layer counters (events recorded, snapshots served) — the
  // driver reports these per run.
  RecorderStats recorder_stats() const { return recorder_.stats(); }

  ManagerStats stats() const;

  // Contention counters summed (and the queue-depth high-water mark maxed,
  // wait-time histograms merged) across all objects — the driver reports
  // these per run.
  ObjectStats AggregateObjectStats() const;

  DeadlockDetector* detector() { return &detector_; }

 private:
  // Mutable object state during a restart replay: one hash index from
  // object id to everything the replay knows about it, so a tail op costs
  // one probe. Lifecycle records change the id->object mapping mid-replay:
  // creates instantiate objects through the factory registry (or reset an
  // existing id to a fresh incarnation), drops retire them. Created objects
  // stay owned here — outside the directory — until Finalize, so an errored
  // restart discards them without ever publishing (the fail-atomicity
  // guarantee extends to lifecycle). Single-threaded: the driver applies
  // lifecycle effects during its (serial) scan, before the parallel tail
  // fan-out.
  class ReplayContext {
   public:
    static constexpr size_t kNoBucket = static_cast<size_t>(-1);

    struct Slot {
      // Registered or replay-created object (nullptr: the id has not been
      // materialized — it is deferred, orphaned, or only named).
      AtomicObject* object = nullptr;
      // Owns `object` when this replay created it (until Finalize).
      std::unique_ptr<AtomicObject> created;
      // The checkpoint image's LSN for the id: tail records at or below it
      // are already reflected in the installed state (kNoLsn: none).
      Lsn ckpt_lsn = kNoLsn;
      // Lazy store restart: the parked image entry, installed only if the
      // tail names the id.
      const CheckpointImage::ObjectEntry* deferred = nullptr;
      size_t bucket = kNoBucket;  // index of the id's tail bucket
      bool dropped = false;       // journaled drop applied, no create since
      // A drop of an id this replay never materialized: its store key must
      // die again, and any ops naming it are the superseded incarnation's.
      bool store_dead = false;
      // Ops named the id while nothing had materialized it; an error
      // unless a later drop (store_dead) shows they were superseded.
      bool orphan_ops = false;

      // The object while it is live in the replay (not dropped).
      AtomicObject* live() const { return dropped ? nullptr : object; }
    };

    explicit ReplayContext(TxnManager* manager);

    // Sizes the index up front: registered objects plus image entries
    // cover every id but the tail's creates.
    void Reserve(size_t ids);

    // Enters a registered manager object.
    void AddRegistered(AtomicObject* object);

    // The id's slot, or nullptr when the replay has never seen the id.
    Slot* Find(const ObjectId& id);
    // The id's slot, inserted empty on first sight.
    Slot& Get(const ObjectId& id);

    // Outcome of applying a journaled `create <id> <factory>`.
    struct CreateResult {
      AtomicObject* object = nullptr;
      // True when the id already existed (pre-registered, or a create
      // following a drop of the same id). A create record is an
      // incarnation boundary; the CALLER orders the reset to initial state
      // into the object's replay bucket.
      bool existed = false;
    };

    // Applies a journaled create to `id`'s slot: re-instantiates through
    // the registry (kInternal when the factory is unknown — configuration
    // and journal disagree) or un-drops/returns the existing object (see
    // CreateResult).
    StatusOr<CreateResult> ApplyCreate(const ObjectId& id, Slot& slot,
                                       const std::string& factory);

    // Applies a journaled `drop <id>`. kInternal when `id` is absent or
    // already dropped.
    Status ApplyDrop(const ObjectId& id, Slot& slot);

    // kInternal naming an id whose ops no object and no later drop
    // explain (the smallest such id, for a stable message).
    Status CheckOrphans() const;

    // Keys whose store entry must be deleted after a successful replay:
    // every id whose journaled drop was applied, and every orphan drop. A
    // pre-crash buffered Delete may have been lost, and once the journal's
    // drop record is truncated a surviving key would resurrect the object.
    std::vector<ObjectId> StoreDeadIds() const;

    // Success-path publication: inserts surviving created objects into the
    // manager's directory (attaching the lifecycle journal to their
    // recovery managers), retires objects whose final state is dropped,
    // and reports the counts. Call exactly once, only when replay
    // succeeded.
    void Finalize(size_t* objects_created, size_t* objects_dropped);

   private:
    TxnManager* const manager_;
    std::unordered_map<ObjectId, Slot> index_;
  };

  // A restart entry source: visits the journal entries with LSN > after_lsn
  // in LSN order (ForEachJournalEntry's contract), filling `report`.
  using EntryScan = std::function<Status(
      Lsn after_lsn, const JournalEntryFn& fn, RecoveryReport* report)>;

  // The one restart driver behind RestartFromImage and RestartFromDir
  // (see RestartFromImage for the contract). `checkpoint_dir`
  // names where checkpoint files live when the store holds no checkpoint
  // (empty: the store's checkpoint only).
  StatusOr<RestartSummary> RestartFrom(const EntryScan& scan,
                                       const std::string& checkpoint_dir,
                                       RestartOptions options);

  // Instantiates an object wired to this manager (recorder shard, deadlock
  // detector registration, kill function, lock options, factory name).
  std::unique_ptr<AtomicObject> BuildObject(ObjectId id, ObjectConfig config,
                                            std::string factory_name);

  // Looks up a registered factory; kNotFound names the factory.
  StatusOr<ObjectFactory> FindFactory(const std::string& name) const;

  // Reads `id`'s store image for AtomicObject fault-in: the raw encoded
  // state plus the LSN it reflects. kNotFound when the store has no key.
  StatusOr<std::pair<std::string, Lsn>> ReadStoreImage(const ObjectId& id);

  // Whether `id` is mid-DropObject (its store key is doomed).
  bool Dropping(const ObjectId& id) const;

  // Directory-miss path for Execute/ExecuteBatch: materializes a lazily
  // deferred object from the attached store's image (through the image's
  // own factory, journaling no create record). kNotFound "no object named
  // <id>" without a store, or when the store has no image or the image
  // names no factory.
  StatusOr<AtomicObject*> ResolveMiss(const ObjectId& id);

  // Installs a checkpoint image's object entries into a restart (creating
  // dyn entries through the factory registry), recording each entry's LSN
  // in its slot and counting each installed state into `*installed`. With
  // `deferred` non-null (lazy store restart), dyn entries for objects the
  // directory does not know are not materialized — they are parked in
  // their slots (Slot::deferred) for on-demand install and counted into
  // `*deferred`.
  Status InstallImageObjects(ReplayContext& ctx, const CheckpointImage& image,
                             size_t* installed, size_t* deferred);

  TxnManagerOptions options_;
  HistoryRecorder recorder_;
  DeadlockDetector detector_;
  GroupCommitPipeline* pipeline_ = nullptr;
  Journal* lifecycle_journal_ = nullptr;
  ObjectStore* store_ = nullptr;

  // Serializes all store write batches (lock-order head; see
  // store_mutex()).
  std::mutex store_mu_;

  // Objects currently evicted (AtomicObject maintains it through the
  // attached counter hook).
  std::atomic<size_t> evicted_count_{0};

  // Single-sweeper latch and sampling tick for MaybeEvict.
  std::atomic_flag evict_sweep_ = ATOMIC_FLAG_INIT;
  std::atomic<uint64_t> evict_tick_{0};

  // Ids mid-DropObject: between directory retirement and the store key
  // Delete there is a window where GetOrCreate's store fault-in could read
  // the doomed key and resurrect the dropped state. The fault-in path
  // treats ids in this set as having no store image.
  mutable std::mutex dropping_mu_;
  std::set<ObjectId> dropping_;

  std::atomic<TxnId> next_txn_{1};

  // Outcome counters are lock-free: Begin/Commit/Abort touch no shared
  // mutex for them, so the commit fast path never serializes on a global
  // lock.
  std::atomic<uint64_t> begun_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> kills_{0};

  mutable std::shared_mutex factories_mu_;
  std::unordered_map<std::string, ObjectFactory> factories_;

  // The object directory replaces the old global mutex + std::map: lookups
  // take one stripe's shared lock; creates/drops one stripe's exclusive
  // lock.
  ObjectDirectory directory_;

  // Live-transaction table, striped by txn id so Begin/Commit/Abort of
  // different transactions do not serialize on one mutex. Kill and the
  // restart live-check take single stripes.
  static constexpr size_t kLiveStripes = 64;  // power of two
  struct LiveStripe {
    std::mutex mu;
    std::unordered_map<TxnId, std::shared_ptr<Transaction>> txns;
  };
  LiveStripe& live_stripe(TxnId txn) const {
    return live_[static_cast<size_t>(txn) & (kLiveStripes - 1)];
  }
  mutable std::array<LiveStripe, kLiveStripes> live_;
};

}  // namespace ccr

#endif  // CCR_TXN_TXN_MANAGER_H_
