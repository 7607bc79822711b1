// Copyright 2026 The ccr Authors.

#include "txn/txn_manager.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"

namespace ccr {

TxnManager::TxnManager(TxnManagerOptions options)
    : options_(options),
      recorder_(RecorderOptions{options.recorder_mode}),
      directory_(options.stripe_count) {}

std::unique_ptr<AtomicObject> TxnManager::BuildObject(ObjectId id,
                                                      ObjectConfig config,
                                                      std::string factory_name) {
  AtomicObjectOptions obj_options;
  obj_options.lock_timeout = options_.lock_timeout;
  obj_options.policy = options_.policy;
  auto object = std::make_unique<AtomicObject>(
      std::move(id), std::move(config.adt), std::move(config.conflict),
      std::move(config.recovery), obj_options);
  if (options_.record_history) object->set_recorder(&recorder_);
  if (options_.policy == DeadlockPolicy::kDetect) {
    object->set_detector(&detector_);
  }
  object->set_kill_fn([this](TxnId victim) { Kill(victim); });
  object->set_factory_name(std::move(factory_name));
  // Store hooks are installed unconditionally: the fault path checks for a
  // store at call time, and it can only be reached on an evicted object —
  // which requires a store to begin with.
  AtomicObject* raw = object.get();
  object->set_store_fault([this, raw] { return ReadStoreImage(raw->id()); });
  object->set_evicted_counter(&evicted_count_);
  return object;
}

StatusOr<std::pair<std::string, Lsn>> TxnManager::ReadStoreImage(
    const ObjectId& id) {
  if (store_ == nullptr) {
    return Status::IllegalState("no object store attached");
  }
  StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
  if (!value.ok()) return value.status();
  StatusOr<CheckpointImage::ObjectEntry> image = DecodeStoreObjectValue(*value);
  if (!image.ok()) return image.status();
  return std::make_pair(std::move(image->encoded), image->lsn);
}

bool TxnManager::Dropping(const ObjectId& id) const {
  std::lock_guard<std::mutex> lock(dropping_mu_);
  return dropping_.count(id) != 0;
}

AtomicObject* TxnManager::AddObject(
    ObjectId id, std::shared_ptr<const Adt> adt,
    std::shared_ptr<const ConflictRelation> conflict,
    std::unique_ptr<RecoveryManager> recovery) {
  CCR_CHECK_MSG(IsJournalName(id), "object id '%s' is not a journal name",
                id.c_str());
  ObjectConfig config;
  config.adt = std::move(adt);
  config.conflict = std::move(conflict);
  config.recovery = std::move(recovery);
  std::unique_ptr<AtomicObject> object =
      BuildObject(id, std::move(config), std::string());
  return directory_.Insert(id, std::move(object));
}

void TxnManager::RegisterFactory(const std::string& name,
                                 ObjectFactory factory) {
  CCR_CHECK_MSG(IsJournalName(name),
                "factory name '%s' is not a journal name", name.c_str());
  CCR_CHECK(factory != nullptr);
  std::unique_lock<std::shared_mutex> lock(factories_mu_);
  CCR_CHECK_MSG(factories_.emplace(name, std::move(factory)).second,
                "duplicate factory name %s", name.c_str());
}

StatusOr<ObjectFactory> TxnManager::FindFactory(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(factories_mu_);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound(StrFormat("no factory named %s", name.c_str()));
  }
  return it->second;
}

StatusOr<AtomicObject*> TxnManager::GetOrCreate(
    const ObjectId& id, const std::string& factory_name) {
  if (!IsJournalName(id)) {
    return Status::InvalidArgument(StrFormat(
        "object id '%s' is not a journal name (non-empty, no space, control "
        "byte or DEL)", id.c_str()));
  }
  MaybeEvict();
  Lsn create_lsn = kNoLsn;
  bool created = false;
  StatusOr<AtomicObject*> obj = directory_.GetOrCreate(
      id,
      [&]() -> StatusOr<std::unique_ptr<AtomicObject>> {
        // Store fault-in first: a lazily deferred object (lazy restart, or
        // a future eviction design that releases shells) re-enters the
        // directory from its store image, journaling NO create record —
        // its original create is either still in the journal or covered by
        // the image's LSN, so replay stays consistent. Ids mid-DropObject
        // are excluded: their key is doomed, and reading it would
        // resurrect the dropped state into the fresh incarnation.
        if (store_ != nullptr && !Dropping(id)) {
          StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
          if (value.ok()) {
            StatusOr<CheckpointImage::ObjectEntry> img =
                DecodeStoreObjectValue(*value);
            if (!img.ok()) return img.status();
            const std::string& fname =
                img->factory.empty() ? factory_name : img->factory;
            StatusOr<ObjectFactory> factory = FindFactory(fname);
            if (!factory.ok()) return factory.status();
            std::unique_ptr<AtomicObject> built =
                BuildObject(id, (*factory)(id), fname);
            StatusOr<std::unique_ptr<SpecState>> state =
                built->adt().DecodeState(img->encoded);
            if (!state.ok()) return state.status();
            built->InstallCheckpoint(std::move(*state), img->lsn);
            if (lifecycle_journal_ != nullptr) {
              built->recovery().set_journal(lifecycle_journal_);
            }
            return StatusOr<std::unique_ptr<AtomicObject>>(std::move(built));
          }
          if (value.status().code() != StatusCode::kNotFound) {
            return value.status();
          }
        }
        StatusOr<ObjectFactory> factory = FindFactory(factory_name);
        if (!factory.ok()) return factory.status();
        std::unique_ptr<AtomicObject> built =
            BuildObject(id, (*factory)(id), factory_name);
        if (lifecycle_journal_ != nullptr) {
          built->recovery().set_journal(lifecycle_journal_);
          // Journal the create before publication (we still hold the
          // stripe's exclusive lock): the create's LSN precedes every
          // commit record that can name this object, so replay always
          // sees the create first.
          LifecycleRecord record;
          record.kind = LifecycleRecord::Kind::kCreate;
          record.object = id;
          record.factory = factory_name;
          StatusOr<Lsn> lsn =
              lifecycle_journal_->AppendLifecycle(std::move(record));
          if (!lsn.ok()) return lsn.status();
          create_lsn = *lsn;
        }
        return StatusOr<std::unique_ptr<AtomicObject>>(std::move(built));
      },
      &created);
  if (!obj.ok()) return obj.status();
  // Only the creating caller waits for durability; racers that found the
  // object proceed immediately — any commit they acknowledge waits for a
  // higher LSN, which transitively covers the create.
  if (created && pipeline_ != nullptr && create_lsn != kNoLsn) {
    CCR_RETURN_IF_ERROR(pipeline_->WaitDurable(create_lsn));
  }
  return *obj;
}

Status TxnManager::DropObject(const ObjectId& id) {
  Lsn drop_lsn = kNoLsn;
  // With a store the whole drop holds the store mutex, from before its
  // record is sequenced until its key Delete: a checkpoint whose anchor
  // covers the record lands its batch after the Delete. Otherwise restart,
  // which scans only past the anchor, could reinstall the dropped object
  // from its stale key.
  std::unique_lock<std::mutex> store_lock;
  if (store_ != nullptr) {
    store_lock = std::unique_lock<std::mutex>(store_mu_);
    // Flag the id before retirement: between directory retirement and the
    // store key Delete below, GetOrCreate's fault-in could otherwise read
    // the doomed key and resurrect the dropped state as a new incarnation.
    std::lock_guard<std::mutex> lock(dropping_mu_);
    dropping_.insert(id);
  }
  const auto unflag = [&] {
    if (store_ != nullptr) {
      std::lock_guard<std::mutex> lock(dropping_mu_);
      dropping_.erase(id);
    }
  };
  const Status status = directory_.Drop(id, [&](AtomicObject* obj) {
    // MarkDropped succeeding means no transaction holds locks or waits at
    // the object, and commits sequence their records inside the same
    // object mutex MarkDropped takes — so every commit record naming this
    // object is already journaled, and the drop record below lands after
    // all of them. New Executes fail with kNotFound from here on.
    CCR_RETURN_IF_ERROR(obj->MarkDropped());
    if (lifecycle_journal_ != nullptr) {
      LifecycleRecord record;
      record.kind = LifecycleRecord::Kind::kDrop;
      record.object = id;
      StatusOr<Lsn> lsn =
          lifecycle_journal_->AppendLifecycle(std::move(record));
      if (!lsn.ok()) return lsn.status();
      drop_lsn = *lsn;
    }
    return Status::OK();
  });
  if (!status.ok()) {
    unflag();
    return status;
  }
  if (pipeline_ != nullptr && drop_lsn != kNoLsn) {
    // Not durable: the key must not be deleted (restart still holds the
    // object's images and journal), so leave it flagged and report.
    CCR_RETURN_IF_ERROR(pipeline_->WaitDurable(drop_lsn));
  }
  if (store_ != nullptr) {
    // Delete the store key AFTER the directory retirement returned (never
    // under a stripe lock) and after the drop record is durable. Buffered
    // is sound: journal truncation only ever follows a later durable
    // checkpoint, whose sync hardens this Delete first (append-order
    // property); until then the journaled drop record re-kills the key at
    // restart. On failure the drop stands (it is journaled) but the id
    // stays flagged, so fault-in keeps refusing the stale key.
    StoreWriteBatch batch;
    batch.Delete(StoreObjectKey(id));
    CCR_RETURN_IF_ERROR(
        store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered));
  }
  unflag();
  return Status::OK();
}

Status TxnManager::EvictObject(const ObjectId& id) {
  if (store_ == nullptr) {
    return Status::IllegalState("no object store attached — cannot evict");
  }
  AtomicObject* obj = directory_.Find(id);
  if (obj == nullptr) {
    return Status::NotFound(StrFormat("no object named %s", id.c_str()));
  }
  StatusOr<AtomicObject::EvictTicket> ticket = obj->BeginEvict();
  if (!ticket.ok()) return ticket.status();
  return CompleteEvict(obj, *ticket);
}

Status TxnManager::CompleteEvict(AtomicObject* obj,
                                 const AtomicObject::EvictTicket& ticket) {
  CCR_CHECK(store_ != nullptr);
  // Two-phase gap — no object mutex held across the I/O below. First make
  // the image's LSN durable: an image ahead of the recoverable journal
  // would restart into state the journal cannot justify. The watermark, not
  // the ack point — kRelaxed acks before it. A poisoned pipeline fails the
  // wait and the image is never written.
  if (pipeline_ != nullptr) {
    CCR_RETURN_IF_ERROR(pipeline_->WaitWatermark(ticket.lsn));
  }
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    // A drop that raced the ticket has already retired the object and
    // Deletes its key under this same mutex — skip the Put rather than
    // resurrect the key. Likewise a stale ticket: another eviction may
    // have completed in the gap (after a commit the ticket missed), and
    // this older image would overwrite its newer one — a lost update the
    // LSN check at fault-in cannot see when commits sequence at kNoLsn.
    // Checked under the store mutex, so no eviction completes between the
    // check and the Put.
    if (directory_.Find(obj->id()) == nullptr ||
        !obj->EvictTicketCurrent(ticket)) {
      return Status::OK();
    }
    StoreWriteBatch batch;
    batch.Put(StoreObjectKey(obj->id()),
              EncodeStoreObjectValue(ticket.lsn, obj->factory_name(),
                                     ticket.encoded));
    // Buffered: the next checkpoint sync hardens it. Until then the
    // journal alone reconstructs the state — WaitWatermark above
    // guarantees the journal reaches at least the image's LSN.
    CCR_RETURN_IF_ERROR(
        store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered));
    // Flip under the same store-mutex hold that wrote the image: anyone
    // observing evicted() under the store mutex (the checkpoint batch's
    // staleness recheck) can then rely on the key holding an image at
    // exactly the object's last committed LSN — the invariant fault-in's
    // LSN-equality check enforces. Flipping outside the mutex would let a
    // checkpoint overwrite the fresh image with its older walk snapshot
    // in the write-to-flip window.
    //
    // false: a commit or drop raced the gap and the eviction is
    // abandoned. The Put stays behind as a stale-but-sound image — its
    // LSN covers everything any durable anchor requires, and the next
    // checkpoint or eviction refreshes it.
    obj->FinishEvict(ticket);
  }
  return Status::OK();
}

size_t TxnManager::MaybeEvict() {
  if (store_ == nullptr || options_.evict_high_watermark == 0) return 0;
  // Sampled: the resident estimate is two relaxed loads, but there is no
  // need to consider sweeping on every Execute.
  if ((evict_tick_.fetch_add(1, std::memory_order_relaxed) & 0xf) != 0) {
    return 0;
  }
  if (resident_objects() <= options_.evict_high_watermark) return 0;
  if (evict_sweep_.test_and_set(std::memory_order_acquire)) return 0;
  const size_t low = options_.evict_low_watermark == 0
                         ? options_.evict_high_watermark
                         : options_.evict_low_watermark;
  size_t evicted = 0;
  const std::vector<AtomicObject*> objs = directory_.Snapshot();
  // CLOCK second chance: the first pass spares (and clears) each object's
  // recently-referenced bit, the second takes whatever is quiescent.
  // Busy objects (locks held, waiters, raced commits) just fail their
  // BeginEvict and are skipped.
  for (int pass = 0; pass < 2 && resident_objects() > low; ++pass) {
    for (AtomicObject* obj : objs) {
      if (resident_objects() <= low) break;
      if (obj->evicted()) continue;
      if (pass == 0 && obj->TestAndClearReferenced()) continue;
      const size_t before = evicted_objects();
      if (EvictObject(obj->id()).ok() && evicted_objects() > before) {
        ++evicted;
      }
    }
  }
  evict_sweep_.clear(std::memory_order_release);
  return evicted;
}

AtomicObject* TxnManager::object(const ObjectId& id) const {
  return directory_.Find(id);
}

std::vector<AtomicObject*> TxnManager::objects() const {
  return directory_.Snapshot();
}

TxnManager::ReplayContext::ReplayContext(TxnManager* manager)
    : manager_(manager) {}

void TxnManager::ReplayContext::Reserve(size_t ids) { index_.reserve(ids); }

void TxnManager::ReplayContext::AddRegistered(AtomicObject* object) {
  index_[object->id()].object = object;
}

TxnManager::ReplayContext::Slot* TxnManager::ReplayContext::Find(
    const ObjectId& id) {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &it->second;
}

TxnManager::ReplayContext::Slot& TxnManager::ReplayContext::Get(
    const ObjectId& id) {
  return index_[id];
}

StatusOr<TxnManager::ReplayContext::CreateResult>
TxnManager::ReplayContext::ApplyCreate(const ObjectId& id, Slot& slot,
                                       const std::string& factory) {
  if (slot.object != nullptr) {
    // The id exists (registered, image-installed or created earlier in the
    // replay); a create after its drop starts a fresh incarnation in the
    // same object.
    slot.dropped = false;
    return CreateResult{slot.object, /*existed=*/true};
  }
  StatusOr<ObjectFactory> found = manager_->FindFactory(factory);
  if (!found.ok()) {
    return Status::Internal(StrFormat(
        "restart re-creates object %s through unregistered factory %s — "
        "restart system does not match the journaled one", id.c_str(),
        factory.c_str()));
  }
  slot.created = manager_->BuildObject(id, (*found)(id), factory);
  slot.object = slot.created.get();
  return CreateResult{slot.object, /*existed=*/false};
}

Status TxnManager::ReplayContext::ApplyDrop(const ObjectId& id, Slot& slot) {
  if (slot.live() == nullptr) {
    return Status::Internal(StrFormat(
        "journal drops %s object %s — journal and replay state disagree",
        slot.dropped ? "already-dropped" : "unknown", id.c_str()));
  }
  slot.dropped = true;
  return Status::OK();
}

Status TxnManager::ReplayContext::CheckOrphans() const {
  const ObjectId* unknown = nullptr;
  for (const auto& [id, slot] : index_) {
    if (slot.orphan_ops && !slot.store_dead &&
        (unknown == nullptr || id < *unknown)) {
      unknown = &id;
    }
  }
  if (unknown == nullptr) return Status::OK();
  return Status::Internal(StrFormat(
      "journal names unknown object %s — restart system does not match the "
      "journaled one", unknown->c_str()));
}

std::vector<ObjectId> TxnManager::ReplayContext::StoreDeadIds() const {
  std::vector<ObjectId> ids;
  for (const auto& [id, slot] : index_) {
    if (slot.dropped || slot.store_dead) ids.push_back(id);
  }
  return ids;
}

void TxnManager::ReplayContext::Finalize(size_t* objects_created,
                                         size_t* objects_dropped) {
  size_t created_count = 0;
  size_t dropped_count = 0;
  for (auto& [id, slot] : index_) {
    if (slot.dropped) {
      ++dropped_count;
      // A replay-created object whose final state is dropped was never
      // published; it dies with its slot. A pre-registered one is retired
      // for real — no journaling, its drop record is already durable.
      if (slot.created != nullptr) continue;
      const Status s = manager_->directory_.Drop(
          id, [](AtomicObject* obj) { return obj->MarkDropped(); });
      CCR_CHECK_MSG(s.ok(), "cannot retire %s after replay: %s", id.c_str(),
                    s.ToString().c_str());
      continue;
    }
    if (slot.created == nullptr) continue;
    // Publication: attach the manager's lifecycle journal so post-restart
    // commits of this object journal like any other object's, then insert.
    if (manager_->lifecycle_journal_ != nullptr) {
      slot.created->recovery().set_journal(manager_->lifecycle_journal_);
    }
    manager_->directory_.Insert(id, std::move(slot.created));
    ++created_count;
  }
  if (objects_created != nullptr) *objects_created = created_count;
  if (objects_dropped != nullptr) *objects_dropped = dropped_count;
}

Status TxnManager::InstallImageObjects(ReplayContext& ctx,
                                       const CheckpointImage& image,
                                       size_t* installed, size_t* deferred) {
  for (const CheckpointImage::ObjectEntry& entry : image.objects) {
    ReplayContext::Slot& slot = ctx.Get(entry.id);
    AtomicObject* obj = slot.live();
    if (obj == nullptr) {
      if (entry.factory.empty()) {
        return Status::Internal(StrFormat(
            "checkpoint names unknown object %s — restart system does "
            "not match the checkpointed one", entry.id.c_str()));
      }
      slot.ckpt_lsn = entry.lsn;
      if (deferred != nullptr) {
        // Lazy store restart: park the entry — it materializes only if
        // the tail names it, otherwise its store image stays the state of
        // record and first touch faults it in.
        slot.deferred = &entry;
        ++*deferred;
        continue;
      }
      StatusOr<ReplayContext::CreateResult> created =
          ctx.ApplyCreate(entry.id, slot, entry.factory);
      if (!created.ok()) return created.status();
      obj = created->object;
    } else {
      slot.ckpt_lsn = entry.lsn;
    }
    StatusOr<std::unique_ptr<SpecState>> state =
        obj->adt().DecodeState(entry.encoded);
    if (!state.ok()) return state.status();
    obj->InstallCheckpoint(std::move(*state), entry.lsn);
    ++*installed;
  }
  return Status::OK();
}

StatusOr<RestartSummary> TxnManager::RestartFromImage(std::string_view image,
                                                      RestartOptions options) {
  return RestartFrom(
      [image](Lsn after_lsn, const JournalEntryFn& fn,
              RecoveryReport* report) {
        return ForEachJournalEntry(image, after_lsn, fn, report);
      },
      /*checkpoint_dir=*/"", options);
}

StatusOr<RestartSummary> TxnManager::RestartFromDir(const std::string& dir,
                                                    RestartOptions options) {
  return RestartFrom(
      [&dir](Lsn after_lsn, const JournalEntryFn& fn,
             RecoveryReport* report) {
        return ForEachSegmentedEntry(dir, after_lsn, fn, report);
      },
      dir, options);
}

namespace {

// One unit of an object's tail replay: a commit record's ops at that
// object, or (create_reset) an incarnation boundary that carries no ops.
struct TailEntry {
  bool create_reset;
  TxnId txn;
  Lsn lsn;
  OpSeq ops;
};

using TailBucket = std::pair<AtomicObject*, std::vector<TailEntry>>;

// Replays the per-object buckets over up to `max_threads` workers. Each
// worker owns whole buckets (claimed off an atomic cursor), so a given
// object is replayed by exactly one thread and needs no cross-thread
// ordering. A worker frees each bucket's entries as soon as it has
// replayed them, so the freeing fans out with the replay.
Status ReplayBuckets(std::vector<TailBucket>& buckets, int max_threads) {
  const auto replay = [](TailBucket& bucket) {
    std::vector<TailEntry> entries = std::move(bucket.second);
    for (TailEntry& entry : entries) {
      if (entry.create_reset) {
        bucket.first->ResetForRecovery();
        continue;
      }
      CCR_RETURN_IF_ERROR(
          bucket.first->ReplayCommitted(entry.txn, entry.ops, entry.lsn));
    }
    return Status::OK();
  };
  const int threads = std::max(
      1, std::min<int>(max_threads, static_cast<int>(buckets.size())));
  if (threads == 1) {
    for (TailBucket& bucket : buckets) CCR_RETURN_IF_ERROR(replay(bucket));
    return Status::OK();
  }
  std::atomic<size_t> cursor{0};
  std::mutex error_mu;
  Status status = Status::OK();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= buckets.size()) return;
        const Status s = replay(buckets[i]);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (status.ok()) status = s;
          return;
        }
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  return status;
}

}  // namespace

StatusOr<RestartSummary> TxnManager::RestartFrom(
    const EntryScan& scan, const std::string& checkpoint_dir,
    RestartOptions options) {
  for (size_t i = 0; i < kLiveStripes; ++i) {
    std::lock_guard<std::mutex> lock(live_[i].mu);
    if (!live_[i].txns.empty()) {
      return Status::IllegalState(
          "Restart with live transactions — recovery runs on a fresh "
          "manager before any transaction begins");
    }
  }
  // Detach journals during replay: the records being replayed are already
  // durable, and re-appending them would double the journal. One walk of
  // the directory detaches them and seeds the replay index; the context
  // layers lifecycle effects (creates, drops) on top without touching the
  // directory until Finalize.
  std::vector<std::pair<AtomicObject*, Journal*>> detached;
  detached.reserve(directory_.approx_live());
  directory_.ForEach([&detached](AtomicObject* obj) {
    detached.emplace_back(obj, obj->recovery().journal());
    obj->recovery().set_journal(nullptr);
  });
  ReplayContext ctx(this);
  RestartSummary summary;

  const Status status = [&]() -> Status {
    // Prefer the store's checkpoint (its meta record) over the monolithic
    // file: with a store attached the file may not even be written
    // (CheckpointerOptions::also_write_file). A store without a meta
    // record yields the empty image and falls back to the file.
    CheckpointImage image;
    if (store_ != nullptr) {
      StatusOr<CheckpointImage> from_store = LoadCheckpointFromStore(store_);
      if (!from_store.ok()) return from_store.status();
      if (from_store->anchor != 0 || !from_store->objects.empty()) {
        image = std::move(*from_store);
        summary.from_store = true;
      }
    }
    if (!summary.from_store && !checkpoint_dir.empty()) {
      StatusOr<CheckpointImage> from_file =
          Checkpointer::LoadNewest(checkpoint_dir);
      if (!from_file.ok()) return from_file.status();
      image = std::move(*from_file);
    }
    summary.checkpoint_anchor = image.anchor;
    ctx.Reserve(detached.size() + image.objects.size());
    for (const auto& [obj, journal] : detached) ctx.AddRegistered(obj);

    // Install the checkpointed states. `dyn` entries name objects this
    // manager never registered — re-instantiate them through the factory
    // registry first (or, under lazy_store_install, defer them until the
    // tail names them). An `obj` entry naming an unknown object is a
    // configuration mismatch (its truncated records are unrecoverable
    // elsewhere); a manager object missing from the image simply replays
    // its whole (surviving) history from the initial state.
    const bool lazy = options.lazy_store_install && summary.from_store;
    CCR_RETURN_IF_ERROR(
        InstallImageObjects(ctx, image, &summary.checkpoint_objects,
                            lazy ? &summary.store_deferred : nullptr));

    // Un-parks a deferred image entry (the tail materialized, dropped or
    // re-created its object).
    const auto undefer = [&](ReplayContext::Slot& slot) {
      if (slot.deferred == nullptr) return;
      slot.deferred = nullptr;
      --summary.store_deferred;
    };

    // Materializes a deferred image entry once the tail names its object.
    // Runs during the serial scan only.
    const auto materialize =
        [&](ReplayContext::Slot& slot) -> StatusOr<AtomicObject*> {
      const CheckpointImage::ObjectEntry& entry = *slot.deferred;
      StatusOr<ReplayContext::CreateResult> created =
          ctx.ApplyCreate(entry.id, slot, entry.factory);
      if (!created.ok()) return created.status();
      StatusOr<std::unique_ptr<SpecState>> state =
          created->object->adt().DecodeState(entry.encoded);
      if (!state.ok()) return state.status();
      created->object->InstallCheckpoint(std::move(*state), entry.lsn);
      ++summary.checkpoint_objects;
      undefer(slot);
      return created->object;
    };

    // Bucket the tail per object. Within a bucket, entries keep LSN order
    // — including `create_reset` markers, which place an incarnation
    // boundary between an older incarnation's (purged) records and the new
    // incarnation's ops. Across buckets there is no ordering requirement
    // (object states are independent), which is exactly what lets the
    // replay fan out.
    std::vector<TailBucket> buckets;
    auto bucket_for = [&](ReplayContext::Slot& slot,
                          AtomicObject* obj) -> std::vector<TailEntry>& {
      if (slot.bucket == ReplayContext::kNoBucket) {
        slot.bucket = buckets.size();
        buckets.emplace_back(obj, std::vector<TailEntry>{});
      }
      return buckets[slot.bucket].second;
    };

    // Ops naming an id that is neither registered, image-installed, nor
    // tail-created: legal only when a later `drop` record shows the whole
    // incarnation was superseded by the checkpoint (the object was dropped
    // before the image walk, so the image has no entry, but its pre-drop
    // tail records survive). Flagged in the slot (orphan_ops) and judged
    // once the scan completes.
    bool saw_orphan_ops = false;

    TxnId max_txn = image.max_txn;
    Lsn high_lsn = image.anchor;
    CCR_RETURN_IF_ERROR(scan(
        image.anchor,
        [&](Lsn lsn, Journal::Entry&& entry) {
          high_lsn = std::max(high_lsn, lsn);
          if (entry.is_lifecycle) {
            const LifecycleRecord& lc = entry.lifecycle;
            ReplayContext::Slot& slot = ctx.Get(lc.object);
            if (lsn <= slot.ckpt_lsn) {
              // Fuzzy overshoot: the object's snapshot was taken after this
              // lifecycle event, so the image already reflects it (an
              // incarnation's checkpoint LSN is 0 or exceeds its create LSN
              // — a covered create's incarnation is the image's own).
              ++summary.tail_skipped;
              return Status::OK();
            }
            if (lc.kind == LifecycleRecord::Kind::kDrop) {
              if (slot.object == nullptr) {
                // Drop of an id this restart never materialized: a lazily
                // deferred object (it never materializes) or the orphaned
                // ops of a checkpoint-superseded incarnation. Either way its
                // store key must die again — a pre-crash buffered Delete
                // may have been lost.
                if (slot.deferred != nullptr) {
                  undefer(slot);
                  slot.ckpt_lsn = kNoLsn;
                }
                slot.store_dead = true;
                ++summary.tail_records;
                return Status::OK();
              }
              CCR_RETURN_IF_ERROR(ctx.ApplyDrop(lc.object, slot));
              // The dropped incarnation's buffered tail is dead state: purge
              // it instead of replaying a partial history whose effect the
              // drop (or a following create's reset) discards anyway.
              if (slot.bucket != ReplayContext::kNoBucket) {
                buckets[slot.bucket].second.clear();
              }
              ++summary.tail_records;
              return Status::OK();
            }
            // An uncovered create supersedes any parked image: the new
            // incarnation starts fresh (its ops all carry LSNs above the
            // stale image's, so the slot's checkpoint LSN can never cover
            // them).
            undefer(slot);
            StatusOr<ReplayContext::CreateResult> created =
                ctx.ApplyCreate(lc.object, slot, lc.factory);
            if (!created.ok()) return created.status();
            if (created->existed) {
              // The object already holds state (image install, or the
              // registered initial state): order the incarnation reset into
              // its bucket so it lands between the old incarnation's records
              // and the new one's ops.
              bucket_for(slot, created->object)
                  .push_back(TailEntry{true, 0, lsn, OpSeq{}});
            }
            ++summary.tail_records;
            return Status::OK();
          }
          const TxnId txn = entry.commit.txn;
          max_txn = std::max(max_txn, txn);
          for (Operation& op : entry.commit.ops) {
            ReplayContext::Slot* slot = ctx.Find(op.object());
            AtomicObject* obj = slot == nullptr ? nullptr : slot->live();
            if (obj == nullptr) {
              if (slot != nullptr && slot->deferred != nullptr) {
                if (lsn <= slot->deferred->lsn) {
                  // Covered by the parked image: skip without
                  // materializing — the object stays deferred.
                  ++summary.tail_skipped;
                  continue;
                }
                StatusOr<AtomicObject*> mat = materialize(*slot);
                if (!mat.ok()) return mat.status();
                obj = *mat;
              } else if (slot != nullptr && slot->dropped) {
                return Status::Internal(StrFormat(
                    "journal names object %s after its drop record",
                    op.object().c_str()));
              } else {
                ctx.Get(op.object()).orphan_ops = true;
                saw_orphan_ops = true;
                continue;
              }
            }
            if (lsn <= slot->ckpt_lsn) {
              // The fuzzy overshoot: this object's snapshot already includes
              // the record even though it lies past the anchor.
              ++summary.tail_skipped;
              continue;
            }
            std::vector<TailEntry>& bucket = bucket_for(*slot, obj);
            if (bucket.empty() || bucket.back().create_reset ||
                bucket.back().lsn != lsn) {
              bucket.push_back(TailEntry{false, txn, lsn, OpSeq{}});
            }
            // Moved, not listed in OpSeq{...}: an initializer list would
            // copy the operation.
            bucket.back().ops.push_back(std::move(op));
          }
          ++summary.tail_records;
          return Status::OK();
        },
        &summary.scan));
    if (saw_orphan_ops) CCR_RETURN_IF_ERROR(ctx.CheckOrphans());
    CCR_RETURN_IF_ERROR(ReplayBuckets(buckets, options.replay_threads));

    if (store_ != nullptr) {
      // Store reconcile: re-delete the keys of every object this replay saw
      // dropped. A pre-crash buffered Delete may have been lost; once the
      // journal's drop record is truncated, a surviving key would resurrect
      // the object at the next restart. Buffered is sound here too —
      // truncation only follows a later durable checkpoint whose sync
      // hardens this batch, and until then the journal still carries the
      // drop record, so the next restart re-issues the Delete.
      StoreWriteBatch batch;
      for (const ObjectId& id : ctx.StoreDeadIds()) {
        batch.Delete(StoreObjectKey(id));
      }
      if (!batch.empty()) {
        std::lock_guard<std::mutex> lock(store_mu_);
        CCR_RETURN_IF_ERROR(
            store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered));
      }
    }

    // Post-restart transactions must not reuse replayed ids: a reused id
    // would journal a second commit record under an id that already has
    // one.
    AdvanceTxnWatermark(max_txn);
    summary.max_txn = max_txn;
    summary.high_lsn = high_lsn;
    return Status::OK();
  }();

  if (!status.ok()) {
    // Fail-atomicity: a half-replayed manager must not pass for a recovered
    // one. Reset every object to its initial state while the journals are
    // still detached, so the error path leaves exactly the "empty system" a
    // caller can reason about (retry, or discard). Replay-created objects
    // were never published — they die with the context.
    for (const auto& [obj, journal] : detached) obj->ResetForRecovery();
  }
  for (const auto& [obj, journal] : detached) {
    obj->recovery().set_journal(journal);
  }
  if (!status.ok()) return status;
  ctx.Finalize(&summary.objects_created, &summary.objects_dropped);
  return summary;
}

std::shared_ptr<Transaction> TxnManager::Begin() {
  auto txn = std::make_shared<Transaction>(
      next_txn_.fetch_add(1, std::memory_order_relaxed));
  LiveStripe& stripe = live_stripe(txn->id());
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.emplace(txn->id(), txn);
  }
  begun_.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

StatusOr<Value> TxnManager::Execute(Transaction* txn, const Invocation& inv) {
  MaybeEvict();
  AtomicObject* obj = directory_.Find(inv.object());
  if (obj == nullptr) {
    StatusOr<AtomicObject*> resolved = ResolveMiss(inv.object());
    if (!resolved.ok()) return resolved.status();
    obj = *resolved;
  }
  return obj->Execute(txn, inv);
}

StatusOr<AtomicObject*> TxnManager::ResolveMiss(const ObjectId& id) {
  const auto missing = [&id] {
    return Status::NotFound(StrFormat("no object named %s", id.c_str()));
  };
  if (store_ == nullptr || Dropping(id)) return missing();
  // Possibly a lazily deferred object whose image lives in the store.
  StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
  if (!value.ok()) {
    if (value.status().code() == StatusCode::kNotFound) return missing();
    return value.status();
  }
  StatusOr<CheckpointImage::ObjectEntry> img = DecodeStoreObjectValue(*value);
  if (!img.ok()) return img.status();
  // A registered object's image names no factory: registered objects never
  // leave the directory, so the miss means the object is gone — a stray
  // key must not resurrect it.
  if (img->factory.empty()) return missing();
  StatusOr<AtomicObject*> obj = GetOrCreate(id, img->factory);
  if (!obj.ok() && obj.status().code() == StatusCode::kNotFound) {
    return missing();
  }
  return obj;
}

StatusOr<std::vector<Value>> TxnManager::ExecuteBatch(
    Transaction* txn, std::span<const BatchOp> ops) {
  CCR_CHECK(txn != nullptr);
  MaybeEvict();
  if (ops.empty()) return std::vector<Value>{};

  // Group ops by object without building a keyed container: sort the op
  // indices by object id, then contiguous runs of `order` are the groups.
  // The ascending-id visit order IS the canonical global lock order: every
  // batch walks objects in ascending ObjectId, so two batches can never
  // hold-and-wait against each other in a cycle. (stable_sort keeps each
  // object's ops in caller order within its run.)
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].inv.object() != ops[i].object) {
      return Status::InvalidArgument(StrFormat(
          "batch op %zu: invocation for %s filed under object %s", i,
          ops[i].inv.object().c_str(), ops[i].object.c_str()));
    }
  }
  std::vector<size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&ops](size_t a, size_t b) {
    return ops[a].object < ops[b].object;
  });
  // runs[g] = first position in `order` of group g (plus a sentinel end).
  std::vector<size_t> runs;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (pos == 0 || ops[order[pos - 1]].object != ops[order[pos]].object) {
      runs.push_back(pos);
    }
  }
  runs.push_back(order.size());
  const size_t groups = runs.size() - 1;

  // One directory pass: stripe-grouped shared-mode lookups for every key at
  // once, then GetOrCreate for the misses that name a factory and the
  // store fault-in for the rest.
  std::vector<const ObjectId*> ids;
  ids.reserve(groups);
  for (size_t g = 0; g < groups; ++g) ids.push_back(&ops[order[runs[g]]].object);
  std::vector<AtomicObject*> found;
  directory_.FindBatch(ids, &found);
  for (size_t g = 0; g < groups; ++g) {
    if (found[g] != nullptr) continue;
    // First non-empty factory any of the group's ops names.
    const std::string* factory = nullptr;
    for (size_t pos = runs[g]; pos < runs[g + 1] && factory == nullptr;
         ++pos) {
      if (!ops[order[pos]].factory.empty()) factory = &ops[order[pos]].factory;
    }
    StatusOr<AtomicObject*> resolved = factory == nullptr
                                           ? ResolveMiss(*ids[g])
                                           : GetOrCreate(*ids[g], *factory);
    if (!resolved.ok()) return resolved.status();
    found[g] = *resolved;
  }

  // Execute each object's op-group under one acquisition of its mutex, in
  // canonical order, scattering results back to the callers' positions.
  std::vector<Value> results(ops.size());
  std::vector<const Invocation*> invs;
  std::vector<Value> group_results;
  for (size_t g = 0; g < groups; ++g) {
    invs.clear();
    for (size_t pos = runs[g]; pos < runs[g + 1]; ++pos) {
      invs.push_back(&ops[order[pos]].inv);
    }
    group_results.resize(invs.size());
    CCR_RETURN_IF_ERROR(found[g]->ExecuteGroup(txn, invs, group_results));
    for (size_t k = 0; k < invs.size(); ++k) {
      results[order[runs[g] + k]] = std::move(group_results[k]);
    }
  }
  return results;
}

Status TxnManager::Commit(Transaction* txn) {
  // The ack-latency clock only matters when a pipeline will record it;
  // without one, the commit fast path reads no clock at all.
  const auto commit_start = pipeline_ == nullptr
                                ? std::chrono::steady_clock::time_point{}
                                : std::chrono::steady_clock::now();
  StatusOr<Lsn> high_lsn = CommitAsync(txn);
  if (!high_lsn.ok()) return high_lsn.status();
  // The acknowledgment point: with a pipeline attached, block (holding no
  // locks) until the transaction's highest LSN is durable. LSNs are
  // assigned in commit order under the journal mutex, so waiting for our
  // own highest LSN transitively waits for every commit this transaction
  // could have read from — an acknowledged commit never depends on a
  // lost one.
  if (pipeline_ != nullptr && *high_lsn != kNoLsn) {
    CCR_RETURN_IF_ERROR(pipeline_->WaitDurable(*high_lsn));
    pipeline_->RecordAckLatency(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - commit_start)
            .count()));
  }
  return Status::OK();
}

StatusOr<Lsn> TxnManager::CommitAsync(Transaction* txn) {
  CCR_CHECK(txn != nullptr);
  if (!txn->active()) {
    return Status::IllegalState("commit of a finished transaction");
  }
  if (!txn->TryLatchCommit()) {
    // A kill won the arbitration (possibly racing this very call): the
    // victim must abort; committing would violate the victim choice another
    // waiter depends on. The CAS makes the active->committed transition
    // atomic w.r.t. Kill — a kill can no longer land between a flag check
    // and the commit below.
    const Status s = Abort(txn);
    // A failed abort here would leak the victim's operation locks forever —
    // every waiter parked on them would starve. It can only fail if the
    // transaction already finished, which the active() check above and the
    // one-driving-thread contract exclude; anything else is corruption.
    CCR_CHECK_MSG(s.ok(), "abort of commit-racing kill victim %s failed: %s",
                  TxnName(txn->id()).c_str(), s.ToString().c_str());
    return Status::Deadlock(StrFormat(
        "%s was killed before commit", TxnName(txn->id()).c_str()));
  }
  // Atomic commitment: ONE commit record covers every touched object
  // (single-process, so no prepare phase is needed — there is no partial
  // failure mode). Canonical order: every commit locks its objects
  // in ascending ObjectId, a total order — concurrent commits can never
  // hold-and-wait in a cycle. Every other path (Execute, the checkpoint
  // walk, MarkDropped) holds one object mutex at a time, so the lock
  // hierarchy stays acyclic: objects (canonical order) -> journal ->
  // pipeline. No global manager lock anywhere on this path:
  // the live-table stripe below is keyed by txn id and the outcome counter
  // is a lone atomic.
  std::vector<AtomicObject*>& objs = txn->touched_;
  std::sort(objs.begin(), objs.end(),
            [](const AtomicObject* a, const AtomicObject* b) {
              return a->id() < b->id();
            });

  // Hold every object's mutex from redo collection through the journal
  // append. Two invariants depend on this span: (a) early lock release —
  // the record's LSN is assigned before any of the transaction's operation
  // locks become visible as released to a *committing* successor, so
  // every commit that read from this one sequences a higher LSN and an
  // acknowledged commit never depends on a lost one; (b) fuzzy-checkpoint
  // exactness — SnapshotForCheckpoint takes the same mutex, so no
  // checkpoint can pair the new state with a pre-commit LSN.
  struct Held {
    std::unique_lock<std::mutex> lock;
    bool wrote = false;  // contributed ops to the commit record
  };
  std::vector<Held> held;
  held.reserve(objs.size());
  for (AtomicObject* obj : objs) held.push_back(Held{obj->LockForCommit()});

  // ONE record for the whole transaction: the engine wires every object to
  // the same journal (or none), and objects without a journal contribute
  // no ops — so a non-empty redo always has exactly one journal to go to.
  Journal* journal = nullptr;
  OpSeq redo;
  for (size_t i = 0; i < objs.size(); ++i) {
    Journal* const own = objs[i]->recovery().journal();
    if (own != nullptr) {
      CCR_CHECK_MSG(journal == nullptr || journal == own,
                    "%s touched objects on two journals",
                    TxnName(txn->id()).c_str());
      journal = own;
    }
    const size_t before = redo.size();
    objs[i]->CollectCommitLocked(txn->id(), &redo);
    held[i].wrote = redo.size() > before;
  }
  // A poisoned pipeline refuses the record; with nothing to journal it
  // still fails the commit, since what was read may be lost at restart.
  StatusOr<Lsn> lsn = kNoLsn;
  if (!redo.empty()) {
    lsn = journal->AppendCommit(txn->id(), std::move(redo));
  } else if (pipeline_ != nullptr && !pipeline_->status().ok()) {
    lsn = pipeline_->status();
  }

  // The deferred per-object state transitions (UIP's checkpoint fold, DU's
  // intention application) run after the record is sequenced: the
  // group-commit flusher is already syncing it while this CPU work
  // proceeds, instead of the sync queueing behind it. Each object's mutex
  // drops as soon as its own finalize completes — the record's LSN is
  // already assigned, so invariant (a) holds, and the object's state is
  // commit-complete, so a checkpoint snapshot taken the instant the lock
  // releases pairs the new state with the new LSN. A refused transaction
  // is undone at each object before its mutex drops: no later transaction
  // sees effects the journal never got.
  for (size_t i = 0; i < objs.size(); ++i) {
    if (lsn.ok()) {
      objs[i]->FinalizeCommitLocked(txn->id(), held[i].wrote ? *lsn : kNoLsn);
    } else {
      objs[i]->AbortLocked(txn->id());
    }
    held[i].lock.unlock();
  }
  txn->set_state(lsn.ok() ? TxnState::kCommitted : TxnState::kAborted);
  detector_.Forget(txn->id());
  {
    LiveStripe& stripe = live_stripe(txn->id());
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.erase(txn->id());
  }
  (lsn.ok() ? committed_ : aborted_).fetch_add(1, std::memory_order_relaxed);
  return lsn;
}

Status TxnManager::Abort(Transaction* txn) {
  CCR_CHECK(txn != nullptr);
  if (!txn->active()) {
    return Status::IllegalState("abort of a finished transaction");
  }
  for (AtomicObject* obj : txn->touched()) {
    obj->Abort(txn->id());
  }
  txn->set_state(TxnState::kAborted);
  detector_.Forget(txn->id());
  {
    LiveStripe& stripe = live_stripe(txn->id());
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.erase(txn->id());
  }
  aborted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TxnManager::RunTransaction(
    const std::function<Status(Transaction*)>& body) {
  Random backoff_rng(next_txn_.load(std::memory_order_relaxed) * 7919 + 17);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    std::shared_ptr<Transaction> txn = Begin();
    Status s = body(txn.get());
    if (s.ok()) {
      s = Commit(txn.get());
      if (s.ok()) return s;
    } else if (txn->active()) {
      Abort(txn.get());
    }
    if (!s.IsRetryable()) return s;
    // A failure on the last attempt is not retried: it counts no retry and
    // sleeps no backoff, so retries == attempts - 1 exactly.
    if (attempt == options_.max_retries) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    // Randomized bounded backoff to break livelock among symmetric retriers.
    const int shift = std::min(attempt, 8);
    const uint64_t max_us = 32ull << shift;
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoff_rng.Uniform(max_us) + 1));
  }
  return Status::Aborted("transaction retry budget exhausted");
}

void TxnManager::AdvanceTxnWatermark(TxnId txn) {
  TxnId expected = next_txn_.load(std::memory_order_relaxed);
  while (txn + 1 > expected &&
         !next_txn_.compare_exchange_weak(expected, txn + 1,
                                          std::memory_order_relaxed)) {
  }
}

void TxnManager::Kill(TxnId txn) {
  std::shared_ptr<Transaction> victim;
  {
    LiveStripe& stripe = live_stripe(txn);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.txns.find(txn);
    if (it == stripe.txns.end()) return;  // already finished
    victim = it->second;
  }
  // Arbitrate against a racing Commit: if the commit latched first, this
  // kill is a no-op (the commit releases the locks, which unblocks the
  // cycle just as the abort would have).
  if (!victim->TryKill()) return;
  kills_.fetch_add(1, std::memory_order_relaxed);
  // Wake the victim directly at the object it is blocked at (if any), so a
  // kill is observed immediately rather than at the next timeout. TryKill
  // (seq_cst) precedes this load, pairing with the victim's registration
  // store + pre-sleep killed() check in AtomicObject::ExecuteLoop.
  if (AtomicObject* at = victim->waiting_at()) at->WakeKilled(victim->id());
}

History TxnManager::SnapshotHistory() const { return recorder_.Snapshot(); }

ManagerStats TxnManager::stats() const {
  ManagerStats stats;
  stats.begun = begun_.load(std::memory_order_relaxed);
  stats.committed = committed_.load(std::memory_order_relaxed);
  stats.aborted = aborted_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.kills = kills_.load(std::memory_order_relaxed);
  return stats;
}

ObjectStats TxnManager::AggregateObjectStats() const {
  ObjectStats total;
  // Retired (dropped) objects keep contributing their counters: aggregates
  // must stay monotone across drops — drivers report deltas per run.
  directory_.ForEach(
      [&total](AtomicObject* obj) {
        const ObjectStats s = obj->stats();
        total.executes += s.executes;
        total.conflicts += s.conflicts;
        total.waits += s.waits;
        total.deadlock_victims += s.deadlock_victims;
        total.timeouts += s.timeouts;
        total.wakeups += s.wakeups;
        total.spurious_wakeups += s.spurious_wakeups;
        total.kill_wakeups += s.kill_wakeups;
        total.max_queue_depth =
            std::max(total.max_queue_depth, s.max_queue_depth);
        total.evictions += s.evictions;
        total.fault_ins += s.fault_ins;
        total.wait_time_us.Merge(s.wait_time_us);
      },
      /*include_retired=*/true);
  return total;
}

}  // namespace ccr
