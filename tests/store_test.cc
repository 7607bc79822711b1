// Copyright 2026 The ccr Authors.
//
// The persistent storage tier: ObjectStore backend contracts (atomic
// batches, torn-tail repair, artifact unlinking, compaction, reopen
// index rebuild, crash/failure injection), cold-object eviction through
// the TxnManager (evict / fault-in round trips, races against lazy
// GetOrCreate and DropObject, the watermark CLOCK sweep, fuzzy
// checkpoints over evicted objects), store-preferring and lazy restarts,
// dropped-key reconciliation, and the store-backend crash sweep (every
// store.* point, UIP and DU) auditing zero acked-but-lost records.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "engine/engine.h"
#include "sim/crash_harness.h"
#include "store/log_store.h"
#include "store/mem_store.h"
#include "store/object_store.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

Status PutOne(ObjectStore* store, const std::string& key,
              const std::string& value,
              ObjectStore::Durability durability =
                  ObjectStore::Durability::kSync) {
  StoreWriteBatch batch;
  batch.Put(key, value);
  return store->ApplyBatch(batch, durability);
}

std::map<std::string, std::string> Dump(ObjectStore* store) {
  std::map<std::string, std::string> out;
  CCR_CHECK(store
                ->Scan([&](const std::string& k, const std::string& v) {
                  out[k] = v;
                  return Status::OK();
                })
                .ok());
  return out;
}

// ---------------------------------------------------------------------------
// Backend contract (both backends)
// ---------------------------------------------------------------------------

void ExerciseBackendContract(ObjectStore* store) {
  // Empty values, binary keys/values (NUL, newline, CRC-hostile bytes) —
  // the store speaks opaque bytes, no escaping at this layer.
  const std::string bin_key("k\0ey\n", 5);
  const std::string bin_val("v\0\xff\n al", 7);
  StoreWriteBatch batch;
  batch.Put("plain", "value");
  batch.Put("empty", "");
  batch.Put(bin_key, bin_val);
  batch.Put("plain", "wins");  // later op wins within one batch
  ASSERT_TRUE(store->ApplyBatch(batch, ObjectStore::Durability::kSync).ok());

  StatusOr<std::string> got = store->Get("plain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "wins");
  got = store->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "");
  got = store->Get(bin_key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, bin_val);
  EXPECT_EQ(store->Get("absent").status().code(), StatusCode::kNotFound);

  StoreWriteBatch del;
  del.Delete("plain");
  del.Delete("never-existed");
  ASSERT_TRUE(store->ApplyBatch(del, ObjectStore::Durability::kBuffered).ok());
  EXPECT_EQ(store->Get("plain").status().code(), StatusCode::kNotFound);

  const std::map<std::string, std::string> all = Dump(store);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("empty"), "");
  EXPECT_EQ(all.at(bin_key), bin_val);
  EXPECT_EQ(store->stats().live_keys, 2u);
}

TEST(MemStoreTest, BackendContract) {
  MemObjectStore store;
  ExerciseBackendContract(&store);
}

TEST(LogStoreTest, BackendContract) {
  TempDir dir;
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExerciseBackendContract(store->get());
}

TEST(MemStoreTest, FailureInjectionLeavesBatchesAtomic) {
  MemObjectStore store;
  ASSERT_TRUE(PutOne(&store, "a", "1").ok());
  store.FailNextBatches(1);
  StoreWriteBatch batch;
  batch.Put("a", "2");
  batch.Put("b", "1");
  EXPECT_FALSE(store.ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  // Nothing from the failed batch landed.
  StatusOr<std::string> got = store.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  EXPECT_EQ(store.Get("b").status().code(), StatusCode::kNotFound);
  store.FailNextGets(1);
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(store.Get("a").ok());  // injection consumed
  ASSERT_TRUE(store.ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  EXPECT_EQ(*store.Get("b"), "1");
}

// ---------------------------------------------------------------------------
// Log-structured backend specifics
// ---------------------------------------------------------------------------

TEST(LogStoreTest, ReopenRebuildsIndexAcrossRotation) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 256;  // rotate every few batches
  std::map<std::string, std::string> expected;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    Random rng(17);
    for (int i = 0; i < 60; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(12));
      if (rng.Uniform(5) == 0) {
        StoreWriteBatch batch;
        batch.Delete(key);
        ASSERT_TRUE(
            (*store)
                ->ApplyBatch(batch, ObjectStore::Durability::kBuffered)
                .ok());
        expected.erase(key);
      } else {
        const std::string value = "v" + std::to_string(i);
        ASSERT_TRUE(PutOne(store->get(), key, value,
                           ObjectStore::Durability::kBuffered)
                        .ok());
        expected[key] = value;
      }
    }
    ASSERT_GT((*store)->stats().segments, 1u) << "scenario never rotated";
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened->get()), expected);
}

TEST(LogStoreTest, TornTailBatchDroppedAtReopen) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(PutOne(store->get(), "durable", "yes").ok());
  }
  // Simulate a batch torn mid-write: garbage bytes (an unparseable frame)
  // at the physical end of the highest-numbered segment.
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::string last;
  for (const std::string& name : *names) {
    if (name.rfind("store.", 0) == 0 && name > last) last = name;
  }
  ASSERT_FALSE(last.empty());
  {
    std::FILE* f = std::fopen((dir.path() + "/" + last).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "\x40\x00\x00\x00halfwrit";
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn) - 1, f), sizeof(torn) - 1);
    std::fclose(f);
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("durable"), "yes");
  EXPECT_GT((*reopened)->stats().bytes_truncated, 0u);
}

TEST(LogStoreTest, HeaderlessArtifactUnlinkedAtReopen) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(PutOne(store->get(), "k", "v").ok());
  }
  // A crash between segment creation and header sync leaves a file whose
  // header frame never became durable — legal only as the last segment.
  const std::string artifact = dir.path() + "/store.000099";
  {
    std::FILE* f = std::fopen(artifact.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a frame", f);
    std::fclose(f);
  }
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("k"), "v");
  EXPECT_NE(::access(artifact.c_str(), F_OK), 0) << "artifact survived";
}

TEST(LogStoreTest, MidLogCorruptionFailsOpen) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 128;
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          PutOne(store->get(), "k" + std::to_string(i), "value").ok());
    }
    ASSERT_GT((*store)->stats().segments, 2u);
  }
  // Flip bytes in the middle of the LOWEST segment: damage in a sealed
  // segment is never a torn append and must refuse to open.
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::string first;
  for (const std::string& name : *names) {
    if (name.rfind("store.", 0) != 0) continue;
    if (first.empty() || name < first) first = name;
  }
  ASSERT_FALSE(first.empty());
  {
    std::FILE* f = std::fopen((dir.path() + "/" + first).c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 30, SEEK_SET), 0);
    std::fputs("XXXX", f);
    std::fclose(f);
  }
  EXPECT_EQ(LogStructuredStore::Open(dir.path(), options).status().code(),
            StatusCode::kInternal);
}

TEST(LogStoreTest, CompactionReclaimsOldestSegmentAndKeepsLiveKeys) {
  TempDir dir;
  LogStoreOptions options;
  options.max_segment_bytes = 256;
  options.compact_dead_fraction = -1;  // manual CompactNow only
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  // Overwrite a small key set until several segments exist: the oldest is
  // then mostly dead bytes.
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(PutOne(store->get(), "key" + std::to_string(k),
                         "round" + std::to_string(round))
                      .ok());
    }
  }
  const ObjectStoreStats before = (*store)->stats();
  ASSERT_GT(before.segments, 2u);
  ASSERT_TRUE((*store)->CompactNow().ok());
  const ObjectStoreStats after = (*store)->stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_LE(after.segments, before.segments);
  for (int k = 0; k < 4; ++k) {
    StatusOr<std::string> got = (*store)->Get("key" + std::to_string(k));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "round9");
  }
  // Still consistent after a reopen (the rewrite + unlink were durable).
  store->reset();
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened->get()).size(), 4u);
}

TEST(LogStoreTest, BatchCrashPointsAreAllOrNothing) {
  for (const std::string point :
       {"store.before_batch", "store.torn_batch", "store.after_batch",
        "store.before_sync"}) {
    TempDir dir;
    CrashPoints crash;
    LogStoreOptions options;
    options.crash = &crash;
    {
      StatusOr<std::unique_ptr<LogStructuredStore>> store =
          LogStructuredStore::Open(dir.path(), options);
      ASSERT_TRUE(store.ok()) << point;
      ASSERT_TRUE(PutOne(store->get(), "pre", "crash").ok()) << point;
      crash.Arm(point);
      StoreWriteBatch batch;
      batch.Put("a", "1");
      batch.Put("b", "2");
      EXPECT_FALSE(
          (*store)->ApplyBatch(batch, ObjectStore::Durability::kSync).ok())
          << point;
      // Dead machine: every later call fails too.
      EXPECT_FALSE(PutOne(store->get(), "later", "x").ok()) << point;
      EXPECT_TRUE(crash.fired()) << point;
    }
    StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
        LogStructuredStore::Open(dir.path());
    ASSERT_TRUE(reopened.ok()) << point << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(*(*reopened)->Get("pre"), "crash") << point;
    const bool has_a = (*reopened)->Get("a").ok();
    const bool has_b = (*reopened)->Get("b").ok();
    EXPECT_EQ(has_a, has_b) << point << ": torn batch surfaced";
    if (point == "store.before_batch" || point == "store.torn_batch") {
      EXPECT_FALSE(has_a) << point;
    }
  }
}

// Regression: a mid-frame write failure (ENOSPC/EIO) used to leave the fd
// offset ahead of the indexed log — later frames were written past where
// the index said they start, so point reads served wrong bytes and reopen
// refused the store as corrupt mid-file. The failed append must roll the
// segment back to the last frame boundary and leave the store usable.
TEST(LogStoreTest, PartialAppendRolledBackKeepsStoreUsable) {
  TempDir dir;
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(PutOne(store->get(), "a", "1").ok());

  (*store)->FailNextAppendPartially();
  StoreWriteBatch batch;
  batch.Put("b", "2");
  EXPECT_FALSE(
      (*store)->ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  // Nothing from the failed batch is visible, and the store keeps
  // working: the partial frame was truncated away, so the next frame
  // lands exactly where the index says it does.
  EXPECT_EQ((*store)->Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*store)->Get("a"), "1");
  ASSERT_TRUE(PutOne(store->get(), "b", "2").ok());
  EXPECT_EQ(*(*store)->Get("b"), "2");

  // Reopen sees no torn bytes mid-file and both keys durable.
  store->reset();
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("a"), "1");
  EXPECT_EQ(*(*reopened)->Get("b"), "2");
  EXPECT_EQ((*reopened)->stats().bytes_truncated, 0u)
      << "rollback left torn bytes for reopen to repair";
}

// ---------------------------------------------------------------------------
// Eviction through the manager
// ---------------------------------------------------------------------------

constexpr const char* kCounterFactory = "counter";

void RegisterCounterFactory(TxnManager* manager) {
  manager->RegisterFactory(kCounterFactory, [](const ObjectId& id) {
    std::shared_ptr<Counter> ctr = MakeCounter(id);
    ObjectConfig config;
    config.adt = ctr;
    config.conflict = MakeNrbcConflict(ctr);
    config.recovery = std::make_unique<UipRecovery>(ctr);
    return config;
  });
}

Invocation IncInv(const ObjectId& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

Invocation ReadInv(const ObjectId& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// A manager journaling to an in-memory Journal, with a MemObjectStore
// attached: the smallest world where eviction, fault-in, store
// checkpoints, and a restart from the journal's image all compose.
struct StoreWorld {
  TempDir dir;  // checkpointer home (unused unless also_write_file)
  MemObjectStore store;
  TxnManager manager;
  Journal journal;

  explicit StoreWorld(TxnManagerOptions options = {}) : manager(options) {
    RegisterCounterFactory(&manager);
    manager.set_object_store(&store);
    manager.set_lifecycle_journal(&journal);
  }

  Status Inc(const std::string& id, int64_t amount) {
    return manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<AtomicObject*> obj =
          manager.GetOrCreate(id, kCounterFactory);
      if (!obj.ok()) return obj.status();
      return manager.Execute(txn, IncInv(id, amount)).status();
    });
  }

  StatusOr<int64_t> Read(const std::string& id) {
    int64_t out = 0;
    const Status status = manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<Value> v = manager.Execute(txn, ReadInv(id));
      if (!v.ok()) return v.status();
      out = v->AsInt();
      return Status::OK();
    });
    if (!status.ok()) return status;
    return out;
  }
};

TEST(EvictionTest, EvictThenExecuteFaultsBackIn) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 7).ok());
  ASSERT_TRUE(world.Inc("D1", 5).ok());

  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr) << "eviction must keep the shell resident";
  EXPECT_TRUE(obj->evicted());
  EXPECT_EQ(world.manager.evicted_objects(), 1u);
  // The image is in the store under the object key, at the object's LSN.
  StatusOr<std::string> img = world.store.Get(StoreObjectKey("D1"));
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  StatusOr<CheckpointImage::ObjectEntry> entry = DecodeStoreObjectValue(*img);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->factory, kCounterFactory);
  EXPECT_EQ(entry->lsn, obj->last_committed_lsn());

  // Double-evict refused; execution faults the state back in.
  EXPECT_EQ(world.manager.EvictObject("D1").code(),
            StatusCode::kIllegalState);
  StatusOr<int64_t> value = world.Read("D1");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, 12);
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(world.manager.evicted_objects(), 0u);
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  EXPECT_EQ(*world.Read("D1"), 13);
}

// Regression: the two-phase eviction gap must detect a commit that starts
// AND finishes between BeginEvict and FinishEvict. With a volatile journal
// every commit sequences at kNoLsn, so an LSN comparison alone is blind to
// the race and the stale image would silently swallow the commit — the
// ticket carries a journal-independent commit tick instead.
TEST(EvictionTest, FinishEvictDetectsRacedCommitWithoutDurableLsns) {
  StoreWorld world;  // volatile Journal: AppendCommit returns kNoLsn
  ASSERT_TRUE(world.Inc("D1", 6).ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);
  ASSERT_EQ(obj->last_committed_lsn(), kNoLsn);

  StatusOr<AtomicObject::EvictTicket> ticket = obj->BeginEvict();
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  // An entire Execute+Commit lands inside the two-phase gap. The LSN is
  // still kNoLsn afterwards — only the commit tick can tell.
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  ASSERT_EQ(obj->last_committed_lsn(), ticket->lsn);

  EXPECT_FALSE(obj->FinishEvict(*ticket))
      << "eviction swallowed a commit that raced the two-phase gap";
  EXPECT_FALSE(obj->evicted());
  EXPECT_EQ(*world.Read("D1"), 7);

  // With no racing commit the same protocol still evicts.
  ticket = obj->BeginEvict();
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(obj->FinishEvict(*ticket));
  EXPECT_TRUE(obj->evicted());
}

// Regression: an eviction whose ticket went stale in the gap must not
// write its image at all. Here a first eviction takes its ticket; in its
// gap a commit lands and a second eviction stores the newer image and
// completes. Writing the first eviction's older image over it would lose
// the commit — invisibly, since every LSN is kNoLsn.
TEST(EvictionTest, StaleEvictionDoesNotOverwriteNewerImage) {
  StoreWorld world;  // volatile Journal: AppendCommit returns kNoLsn
  ASSERT_TRUE(world.Inc("D1", 6).ok());
  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);

  StatusOr<AtomicObject::EvictTicket> stale = obj->BeginEvict();  // image 6
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());  // image 7
  ASSERT_TRUE(obj->evicted());
  // The first eviction's late second phase: OK, and no image written.
  EXPECT_TRUE(world.manager.CompleteEvict(obj, *stale).ok());
  EXPECT_TRUE(obj->evicted());
  EXPECT_EQ(*world.Read("D1"), 7) << "a stale eviction image lost a commit";
}

// A journal sink whose Sync parks while the gate is closed: it holds a
// durable wait (and whoever waits behind it) at the durability point.
class GatedSink : public MemorySink {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  // Blocks until a Sync is parked at the closed gate.
  void WaitForParkedSync() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ > 0; });
  }
  Status Sync() override {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    --parked_;
    return Status::OK();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
};

// The store as the checkpoint and the drop see it: forwards to a memory
// store and logs each batch's keys in application order.
class BatchLogStore : public ObjectStore {
 public:
  Status ApplyBatch(const StoreWriteBatch& batch,
                    Durability durability) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const StoreOp& op : batch.ops()) {
      log_.push_back((op.kind == StoreOp::Kind::kPut ? "put " : "delete ") +
                     op.key);
    }
    return store_.ApplyBatch(batch, durability);
  }
  StatusOr<std::string> Get(const std::string& key) override {
    return store_.Get(key);
  }
  Status Scan(const std::function<Status(const std::string&,
                                         const std::string&)>& fn) override {
    return store_.Scan(fn);
  }
  ObjectStoreStats stats() const override { return store_.stats(); }
  std::vector<std::string> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }

 private:
  MemObjectStore store_;
  mutable std::mutex mu_;
  std::vector<std::string> log_;
};

// Regression: a drop whose record a checkpoint anchor covers must have
// its store key deleted before that checkpoint publishes. The drop used to
// take the store mutex only for its key Delete, after its record became
// durable — so a checkpoint that read its anchor past the drop record
// could land its meta first, and a crash in between restarted into the
// dropped object: the scan starts past the anchor and never sees the drop,
// while the stale key still reads as part of the image. The live crash
// driver's store sweep found it (StoreCrashTest, store.compact.before_
// unlink). DropObject now holds the store mutex from before its record is
// sequenced until the Delete. Deterministic: the drop is parked at its
// durable wait by a closed sink gate.
TEST(EvictionTest, DropHoldsStoreMutexUntilItsKeyIsDeleted) {
  BatchLogStore store;
  GatedSink sink;
  JournalWriter writer(&sink);
  GroupCommitPipeline pipeline(&writer, GroupCommitOptions{});
  Journal journal;
  journal.set_pipeline(&pipeline);
  TxnManager manager;
  RegisterCounterFactory(&manager);
  manager.set_object_store(&store);
  manager.set_lifecycle_journal(&journal);
  manager.set_commit_pipeline(&pipeline);
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    const StatusOr<AtomicObject*> obj =
                        manager.GetOrCreate("D1", kCounterFactory);
                    if (!obj.ok()) return obj.status();
                    return manager.Execute(txn, IncInv("D1", 4)).status();
                  })
                  .ok());
  ASSERT_TRUE(manager.EvictObject("D1").ok());  // key o:D1 holds 4

  sink.Close();
  Status dropped;
  std::thread dropper([&] { dropped = manager.DropObject("D1"); });
  sink.WaitForParkedSync();  // the drop record is sequenced, not durable
  ASSERT_EQ(manager.object("D1"), nullptr);
  // The drop holds the store mutex across its durable wait.
  const bool free = manager.store_mutex().try_lock();
  if (free) manager.store_mutex().unlock();
  EXPECT_FALSE(free) << "a checkpoint could publish past the pending drop";
  // A transaction touching D1 in the window does not fault the doomed key
  // back in.
  {
    auto txn = manager.Begin();
    EXPECT_EQ(manager.Execute(txn.get(), IncInv("D1", 1)).status().code(),
              StatusCode::kNotFound);
    ASSERT_TRUE(manager.Abort(txn.get()).ok());
  }
  // A checkpoint whose anchor covers the drop record waits for the drop.
  const Lsn anchor = journal.high_lsn();
  CheckpointerOptions options;
  options.store = &store;
  StatusOr<Lsn> written = Status::Internal("not run");
  TempDir dir;
  std::thread checkpointer([&] {
    written = Checkpointer(dir.path(), options).Write(&manager, anchor);
  });
  sink.Open();
  dropper.join();
  checkpointer.join();
  ASSERT_TRUE(dropped.ok()) << dropped.ToString();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const std::vector<std::string> log = store.log();
  const auto at = [&](const std::string& entry) {
    return std::find(log.begin(), log.end(), entry) - log.begin();
  };
  ASSERT_LT(at("delete " + StoreObjectKey("D1")), log.size());
  ASSERT_LT(at("put " + std::string(kStoreMetaKey)), log.size());
  EXPECT_LT(at("delete " + StoreObjectKey("D1")),
            at("put " + std::string(kStoreMetaKey)))
      << "the checkpoint published its anchor before the dropped key died";
}

TEST(EvictionTest, LazyGetOrCreateReturnsEvictedShellWithoutCreateRecord) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 3).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  const size_t records_before = world.journal.size();
  // GetOrCreate on an evicted id must hit the resident shell — no second
  // incarnation, no create record.
  StatusOr<AtomicObject*> obj =
      world.manager.GetOrCreate("D1", kCounterFactory);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj, world.manager.object("D1"));
  EXPECT_EQ(world.journal.size(), records_before);
  EXPECT_EQ(*world.Read("D1"), 3);
}

TEST(EvictionTest, DropDeletesStoreKeyAndNextCreateIsFresh) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 9).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  ASSERT_TRUE(world.store.Get(StoreObjectKey("D1")).ok());

  // Drop must also delete the store key — otherwise the next GetOrCreate
  // would fault the dropped incarnation's state back in as a "new" object.
  ASSERT_TRUE(world.manager.DropObject("D1").ok());
  EXPECT_EQ(world.store.Get(StoreObjectKey("D1")).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(world.Inc("D1", 1).ok());
  EXPECT_EQ(*world.Read("D1"), 1) << "dropped state resurrected";
}

TEST(EvictionTest, WatermarkSweepEvictsColdObjectsAndReadsStayCorrect) {
  TxnManagerOptions options;
  options.evict_high_watermark = 6;
  options.evict_low_watermark = 3;
  StoreWorld world(options);
  // Population (12) well above the high watermark; the sampled CLOCK
  // sweep needs a stream of Executes to tick, so keep touching objects.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(world.Inc("C" + std::to_string(i), 1).ok());
    }
  }
  EXPECT_GT(world.manager.evicted_objects(), 0u)
      << "sweep never evicted despite population > watermark";
  // Every object still reads its true value (evicted ones fault in).
  for (int i = 0; i < 12; ++i) {
    StatusOr<int64_t> value = world.Read("C" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, 8) << "C" << i;
  }
}

TEST(EvictionTest, FuzzyCheckpointSkipsEvictedObjectsButRestartSeesThem) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 4).ok());
  ASSERT_TRUE(world.Inc("D2", 6).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  const uint64_t puts_before = world.store.stats().puts;

  Checkpointer checkpointer(world.dir.path(),
                            CheckpointerOptions{.keep = 2, .store = &world.store});
  StatusOr<Lsn> anchor =
      checkpointer.Write(&world.manager, world.journal.high_lsn());
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  // Incremental: the evicted object's image was already current; only the
  // resident object and the meta key were re-Put.
  EXPECT_EQ(world.store.stats().puts, puts_before + 2);

  StatusOr<CheckpointImage> image = LoadCheckpointFromStore(&world.store);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->anchor, *anchor);
  EXPECT_EQ(image->objects.size(), 2u);

  // A fresh manager restarting over the same store recovers both objects —
  // the evicted image and the checkpoint batch compose into one image.
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(&world.store);
  ASSERT_TRUE(
      restarted.RestartFromImage(EncodeJournalImage(world.journal)).ok());
  ASSERT_NE(restarted.object("D1"), nullptr);
  ASSERT_NE(restarted.object("D2"), nullptr);
  EXPECT_TRUE(restarted.object("D1")->CommittedState()->Equals(
      *world.manager.object("D1")->CommittedState()));
  EXPECT_TRUE(restarted.object("D2")->CommittedState()->Equals(
      *world.manager.object("D2")->CommittedState()));
}

TEST(EvictionTest, RestartReconcilesDroppedKeyAfterLostDelete) {
  StoreWorld world;
  ASSERT_TRUE(world.Inc("D1", 2).ok());
  ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  // The drop's store Delete "crashes away": the drop record is journaled
  // and the object retired, but the key survives in the store.
  world.store.FailNextBatches(1);
  EXPECT_FALSE(world.manager.DropObject("D1").ok());
  EXPECT_EQ(world.manager.object("D1"), nullptr);
  ASSERT_TRUE(world.store.Get(StoreObjectKey("D1")).ok());

  // Restart replays the drop record and reconciles the zombie key.
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(&world.store);
  ASSERT_TRUE(
      restarted.RestartFromImage(EncodeJournalImage(world.journal)).ok());
  EXPECT_EQ(restarted.object("D1"), nullptr);
  EXPECT_EQ(world.store.Get(StoreObjectKey("D1")).status().code(),
            StatusCode::kNotFound)
      << "zombie store key survived restart reconciliation";
}

// ---------------------------------------------------------------------------
// Store-preferring and lazy restarts from a journal directory
// ---------------------------------------------------------------------------

// A durable world: an engine whose segmented journal and log-structured
// store share one directory, counter factory registered.
struct DurableWorld {
  static EngineOptions Options() {
    EngineOptions options;
    options.group_commit.mode = DurabilityMode::kSync;
    options.journal.max_segment_bytes = 256;
    options.store = LogStoreOptions{};
    return options;
  }
  // Opens (restarts) the world's directory; the open must succeed.
  static std::unique_ptr<Engine> Open(const std::string& dir,
                                      EngineOptions options = Options()) {
    StatusOr<std::unique_ptr<Engine>> engine =
        Engine::Open(dir, std::move(options), RegisterCounterFactory);
    CCR_CHECK_MSG(engine.ok(), "%s", engine.status().ToString().c_str());
    return std::move(*engine);
  }

  TempDir dir;
  std::unique_ptr<Engine> engine = Open(dir.path());
  TxnManager& manager = *engine->manager();

  Status Inc(const std::string& id, int64_t amount) {
    return manager.RunTransaction([&](Transaction* txn) {
      const StatusOr<AtomicObject*> obj =
          manager.GetOrCreate(id, kCounterFactory);
      if (!obj.ok()) return obj.status();
      return manager.Execute(txn, IncInv(id, amount)).status();
    });
  }
};

TEST(StoreRestartTest, RestartFromDirPrefersStoreCheckpoint) {
  DurableWorld world;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(world.Inc("C" + std::to_string(i), i + 1).ok());
  }
  const StatusOr<Lsn> anchor = world.engine->Checkpoint();
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  ASSERT_TRUE(world.Inc("C0", 100).ok());  // tail past the anchor

  StatusOr<std::unique_ptr<LogStructuredStore>> store2 =
      LogStructuredStore::Open(world.dir.path());
  ASSERT_TRUE(store2.ok());
  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  restarted.set_object_store(store2->get());
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->from_store);
  EXPECT_EQ(summary->checkpoint_anchor, *anchor);
  EXPECT_EQ(summary->checkpoint_objects, 6u);
  EXPECT_EQ(summary->high_lsn, world.engine->journal()->high_lsn());
  for (int i = 0; i < 6; ++i) {
    const std::string id = "C" + std::to_string(i);
    ASSERT_NE(restarted.object(id), nullptr) << id;
    EXPECT_TRUE(restarted.object(id)->CommittedState()->Equals(
        *world.manager.object(id)->CommittedState()))
        << id;
  }
}

TEST(StoreRestartTest, LazyStoreInstallDefersUntouchedObjects) {
  DurableWorld world;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(world.Inc("C" + std::to_string(i), 10 + i).ok());
  }
  ASSERT_TRUE(world.engine->Checkpoint().ok());
  // The tail names only C0: everything else stays deferred in the store.
  ASSERT_TRUE(world.Inc("C0", 1).ok());
  const std::unique_ptr<SpecState> c3_state =
      world.manager.object("C3")->CommittedState();
  world.engine.reset();

  EngineOptions options = DurableWorld::Options();
  options.restart.lazy_store_install = true;
  const std::unique_ptr<Engine> engine =
      DurableWorld::Open(world.dir.path(), std::move(options));
  TxnManager& restarted = *engine->manager();
  const RestartSummary& summary = engine->restart();
  EXPECT_TRUE(summary.from_store);
  EXPECT_EQ(summary.store_deferred, 7u);
  EXPECT_EQ(summary.checkpoint_objects, 1u);  // only C0 materialized
  ASSERT_NE(restarted.object("C0"), nullptr);
  EXPECT_EQ(restarted.object("C3"), nullptr)
      << "deferred object entered the directory at restart";

  // First touch faults a deferred object in — through GetOrCreate (no new
  // create record: the store image IS the object) and through Execute.
  StatusOr<AtomicObject*> c3 =
      restarted.GetOrCreate("C3", kCounterFactory);
  ASSERT_TRUE(c3.ok()) << c3.status().ToString();
  EXPECT_EQ(engine->journal()->size(), 0u)
      << "fault-in journaled a create record";
  EXPECT_TRUE((*c3)->CommittedState()->Equals(*c3_state));
  int64_t c5 = 0;
  ASSERT_TRUE(restarted
                  .RunTransaction([&](Transaction* txn) {
                    const StatusOr<Value> v =
                        restarted.Execute(txn, ReadInv("C5"));
                    if (!v.ok()) return v.status();
                    c5 = v->AsInt();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(c5, 15);
}

// Regression: between the checkpoint's snapshot walk and its store batch,
// an object can commit and be evicted, leaving the store a NEWER image
// than the walk's snapshot. The batch must skip that key: Putting the
// stale snapshot over it desynchronizes the image's LSN from the object's
// last committed LSN, so every later fault-in fails with kInternal until
// restart — and no later checkpoint repairs the key, because evicted
// objects' Puts are skipped.
TEST(StoreCheckpointTest, BatchSkipsObjectEvictedDuringTheWalk) {
  DurableWorld world;
  ASSERT_TRUE(world.Inc("D1", 4).ok());

  CheckpointerOptions options;
  options.store = world.engine->store();
  options.after_walk = [&world] {
    ASSERT_TRUE(world.Inc("D1", 2).ok());
    ASSERT_TRUE(world.manager.EvictObject("D1").ok());
  };
  Checkpointer checkpointer(world.dir.path(), options);
  const StatusOr<Lsn> anchor = checkpointer.Write(
      &world.manager, world.engine->journal()->high_lsn());
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();

  AtomicObject* obj = world.manager.object("D1");
  ASSERT_NE(obj, nullptr);
  ASSERT_TRUE(obj->evicted());
  StatusOr<std::string> img = world.engine->store()->Get(StoreObjectKey("D1"));
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  StatusOr<CheckpointImage::ObjectEntry> entry = DecodeStoreObjectValue(*img);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->lsn, obj->last_committed_lsn())
      << "checkpoint clobbered the newer eviction image with its stale "
         "walk snapshot";

  // Execution faults the state back in and reads the post-walk value.
  int64_t value = 0;
  const Status read = world.manager.RunTransaction([&](Transaction* txn) {
    const StatusOr<Value> v = world.manager.Execute(txn, ReadInv("D1"));
    if (!v.ok()) return v.status();
    value = v->AsInt();
    return Status::OK();
  });
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(value, 6);
}

// ---------------------------------------------------------------------------
// Store-backend crash sweep
// ---------------------------------------------------------------------------

void StoreSweepUipFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                     std::make_unique<UipRecovery>(ba));
  manager->AddObject("SET", set, MakeNrbcConflict(set),
                     std::make_unique<UipRecovery>(set));
}

// DU needs NFC (the paper's pairing); under NRBC two withdraws can both
// respond "ok" against the same base and one then sticks at commit.
void StoreSweepDuFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNfcConflict(ba),
                     std::make_unique<DuRecovery>(ba));
  manager->AddObject("SET", set, MakeNfcConflict(set),
                     std::make_unique<DuRecovery>(set));
}

// Eager-object ops plus dynamic-counter churn, so store crash points land
// between eviction Puts, checkpoint batches, drop Deletes, and fault-ins.
TxnBody StoreSweepBody() {
  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  return [ba, set](TxnManager* manager, Transaction* txn,
                   Random* rng) -> Status {
    switch (rng->UniformRange(0, 4)) {
      case 0: {
        const StatusOr<Value> r =
            manager->Execute(txn, ba->DepositInv(rng->UniformRange(1, 9)));
        return r.status();
      }
      case 1: {
        const StatusOr<Value> r =
            manager->Execute(txn, set->InsertInv(rng->UniformRange(1, 8)));
        return r.status();
      }
      case 2: {
        const std::string id = "DYN" + std::to_string(rng->Uniform(4));
        const StatusOr<AtomicObject*> obj =
            manager->GetOrCreate(id, kCounterFactory);
        if (!obj.ok()) return obj.status();
        const StatusOr<Value> r =
            manager->Execute(txn, IncInv(id, rng->UniformRange(1, 5)));
        if (!r.ok() && r.status().code() == StatusCode::kNotFound) {
          return Status::OK();  // raced a drop
        }
        return r.status();
      }
      case 3: {
        const std::string victim = "DYN" + std::to_string(rng->Uniform(4));
        const Status dropped = manager->DropObject(victim);
        if (!dropped.ok() && dropped.code() != StatusCode::kIllegalState &&
            dropped.code() != StatusCode::kNotFound) {
          return dropped;
        }
        return Status::OK();
      }
      default: {
        const StatusOr<Value> r =
            manager->Execute(txn, ba->WithdrawInv(rng->UniformRange(1, 4)));
        return r.status();
      }
    }
  };
}

TEST(StoreCrashTest, RecoveryConsistentAtEveryStoreCrashPoint) {
  const std::vector<std::string> points = {
      "",  // clean run: evictions, checkpoints, compactions all land
      "store.before_batch", "store.torn_batch", "store.after_batch",
      "store.before_sync", "store.rot.before_seal",
      "store.rot.before_header_sync", "store.compact.before_rewrite",
      "store.compact.before_unlink", "store.compact.before_dirsync"};
  struct Mode {
    const char* name;
    SystemFactory factory;
  };
  const std::vector<Mode> modes = {{"UIP", StoreSweepUipFactory},
                                   {"DU", StoreSweepDuFactory}};
  for (const Mode& mode : modes) {
    for (const std::string& point : points) {
      CrashScenarioOptions options;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 40;
      options.driver.seed = 13;
      options.max_segment_bytes = 256;
      options.store = true;
      options.store_segment_bytes = 256;
      options.maintenance_every = 6;
      options.fault = CrashFault::AtPoint(point);
      options.replay_threads = 2;
      const CrashScenarioResult result =
          RunCrashScenario(mode.factory, StoreSweepBody(), options);
      EXPECT_TRUE(result.ok())
          << mode.name << " point '" << point << "': status "
          << result.status.ToString() << ", on disk "
          << result.records_on_disk << "/" << result.records_total
          << ", acked " << result.acked << ", acked_lost "
          << result.acked_lost << ", prefix_ok " << result.prefix_ok
          << ", state_ok " << result.state_ok << ", evictions "
          << result.evictions << ", checkpoints " << result.checkpoints
          << ", high_lsn " << result.summary.high_lsn;
      if (point.empty()) {
        EXPECT_FALSE(result.fault_fired) << mode.name;
        EXPECT_EQ(result.records_on_disk, result.records_total)
            << mode.name;
        EXPECT_GE(result.evictions, 1u) << mode.name;
        EXPECT_GE(result.checkpoints, 1u) << mode.name;
        EXPECT_GE(result.truncations, 1u) << mode.name;
        EXPECT_GE(result.compactions, 1u) << mode.name;
        EXPECT_TRUE(result.summary.from_store) << mode.name;
      } else {
        EXPECT_TRUE(result.fault_fired)
            << mode.name << ": point '" << point
            << "' never reached — the sweep lost coverage (evictions "
            << result.evictions << ", checkpoints " << result.checkpoints
            << ", compactions " << result.compactions << ")";
      }
    }
  }
}

// The ack-durability contract at the store boundary, swept across crash
// points AND maintenance cadences: whatever the store loses, every commit
// that was acknowledged must survive restart (0 acked-but-lost), and none
// was acknowledged beyond the durable watermark.
TEST(StoreCrashTest, NoAckedRecordLostAcrossCadences) {
  for (const size_t maintenance_every : {5u, 17u}) {
    for (const std::string point :
         {"store.after_batch", "store.compact.before_unlink"}) {
      CrashScenarioOptions options;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 30;
      options.driver.seed = 29;
      options.max_segment_bytes = 512;
      options.store = true;
      options.store_segment_bytes = 256;
      options.maintenance_every = maintenance_every;
      options.fault = CrashFault::AtPoint(point);
      const CrashScenarioResult result = RunCrashScenario(
          StoreSweepUipFactory, StoreSweepBody(), options);
      ASSERT_TRUE(result.ok())
          << point << " every " << maintenance_every << ": "
          << result.status.ToString() << ", acked_lost " << result.acked_lost
          << ", prefix_ok " << result.prefix_ok;
      EXPECT_EQ(result.acked_lost, 0u);
      EXPECT_EQ(result.acked_beyond_watermark, 0u);
      EXPECT_TRUE(result.prefix_ok);
      EXPECT_LE(result.durable_lsn, result.summary.high_lsn);
    }
  }
}

}  // namespace
}  // namespace ccr
