// Copyright 2026 The ccr Authors.
//
// The striped object directory and the dynamic object lifecycle: raw
// directory semantics (striping, single construction under races, drop
// retirement into the graveyard), manager-level lifecycle (GetOrCreate
// through registered factories, journaled create/drop records, the
// drop-with-live-transaction refusal), lazy creation racing a fuzzy
// checkpoint, restarts that re-create dynamically created objects
// (RestartFromImage and checkpoint-aware RestartFromDir — with drop and
// re-create incarnations), fail-atomicity when the journal names
// an unregistered factory, and crash sweeps (byte-offset crash fractions
// plus named maintenance crash points) over lifecycle-performing
// workloads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/counter.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "core/commutativity.h"
#include "core/operation.h"
#include "engine/engine.h"
#include "memory_log.h"
#include "sim/crash_harness.h"
#include "store/mem_store.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/object_directory.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

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

std::unique_ptr<AtomicObject> MakeCounterObject(const ObjectId& id) {
  std::shared_ptr<Counter> ctr = MakeCounter(id);
  return std::make_unique<AtomicObject>(id, ctr, MakeNrbcConflict(ctr),
                                        std::make_unique<UipRecovery>(ctr));
}

Invocation IncInv(const ObjectId& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

Invocation ReadInv(const ObjectId& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// Commits one increment of `amount` on `id`; returns Execute's status.
Status CommitInc(TxnManager* manager, const ObjectId& id, int64_t amount) {
  const std::shared_ptr<Transaction> txn = manager->Begin();
  const StatusOr<Value> r = manager->Execute(txn.get(), IncInv(id, amount));
  if (!r.ok()) {
    EXPECT_TRUE(manager->Abort(txn.get()).ok());
    return r.status();
  }
  EXPECT_TRUE(manager->Commit(txn.get()).ok());
  return Status::OK();
}

// Reads `id`'s committed value through a read transaction.
int64_t ReadCounter(TxnManager* manager, const ObjectId& id) {
  const std::shared_ptr<Transaction> txn = manager->Begin();
  const StatusOr<Value> r = manager->Execute(txn.get(), ReadInv(id));
  CCR_CHECK_MSG(r.ok(), "read %s: %s", id.c_str(),
                r.status().ToString().c_str());
  CCR_CHECK(manager->Commit(txn.get()).ok());
  return r->AsInt();
}

// ---------------------------------------------------------------------------
// Raw directory semantics
// ---------------------------------------------------------------------------

TEST(StripedDirectoryTest, InsertFindSnapshotStats) {
  ObjectDirectory dir(8);
  EXPECT_EQ(dir.stripe_count(), 8u);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "O" + std::to_string(i);
    dir.Insert(id, MakeCounterObject(id));
  }
  EXPECT_EQ(dir.size(), 100u);
  EXPECT_NE(dir.Find("O42"), nullptr);
  EXPECT_EQ(dir.Find("missing"), nullptr);

  // Snapshot is sorted by id and covers every live object.
  const std::vector<AtomicObject*> snap = dir.Snapshot();
  ASSERT_EQ(snap.size(), 100u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1]->id(), snap[i]->id());
  }

  const DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.stripes, 8u);
  EXPECT_EQ(stats.live_objects, 100u);
  EXPECT_EQ(stats.retired_objects, 0u);
  EXPECT_EQ(stats.creates, 100u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_GE(stats.max_stripe_depth, 100u / 8u);
}

TEST(StripedDirectoryTest, DefaultStripeCountIsPowerOfTwo) {
  ObjectDirectory dir;
  const size_t n = dir.stripe_count();
  EXPECT_GE(n, 16u);
  EXPECT_EQ(n & (n - 1), 0u) << n << " is not a power of two";
}

TEST(StripedDirectoryTest, GetOrCreateConstructsExactlyOnceUnderRace) {
  constexpr int kThreads = 8;
  constexpr int kIds = 32;
  constexpr int kRounds = 200;
  ObjectDirectory dir(16);
  std::atomic<int> constructed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRounds; ++i) {
        const std::string id = "O" + std::to_string(rng.Uniform(kIds));
        bool created = false;
        const StatusOr<AtomicObject*> obj = dir.GetOrCreate(
            id,
            [&]() -> StatusOr<std::unique_ptr<AtomicObject>> {
              constructed.fetch_add(1);
              return StatusOr<std::unique_ptr<AtomicObject>>(
                  MakeCounterObject(id));
            },
            &created);
        ASSERT_TRUE(obj.ok());
        ASSERT_NE(*obj, nullptr);
        EXPECT_EQ((*obj)->id(), id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Exactly one construction per id, no matter how the races interleaved.
  EXPECT_EQ(constructed.load(), kIds);
  EXPECT_EQ(dir.size(), static_cast<size_t>(kIds));
}

TEST(StripedDirectoryTest, DropRetiresIntoGraveyard) {
  ObjectDirectory dir(4);
  AtomicObject* obj = dir.Insert("X", MakeCounterObject("X"));
  ASSERT_EQ(dir.Find("X"), obj);

  ASSERT_TRUE(dir.Drop("X", [](AtomicObject*) { return Status::OK(); }).ok());
  EXPECT_EQ(dir.Find("X"), nullptr);
  // The memory stays valid for raced lookups that got the pointer first.
  EXPECT_EQ(obj->id(), "X");
  const std::vector<AtomicObject*> all = dir.Snapshot(/*include_retired=*/true);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], obj);

  const DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.retired_objects, 1u);
  EXPECT_EQ(stats.drops, 1u);

  EXPECT_EQ(dir.Drop("X", [](AtomicObject*) { return Status::OK(); }).code(),
            StatusCode::kNotFound);
}

TEST(StripedDirectoryTest, DropRefusalLeavesObjectLive) {
  ObjectDirectory dir(4);
  dir.Insert("X", MakeCounterObject("X"));
  const Status refused = dir.Drop(
      "X", [](AtomicObject*) { return Status::IllegalState("held"); });
  EXPECT_EQ(refused.code(), StatusCode::kIllegalState);
  EXPECT_NE(dir.Find("X"), nullptr);
  EXPECT_EQ(dir.stats().drops, 0u);
}

// ---------------------------------------------------------------------------
// Manager-level lifecycle
// ---------------------------------------------------------------------------

TEST(LifecycleTest, GetOrCreateUnknownFactoryIsNotFound) {
  TxnManager manager;
  EXPECT_EQ(manager.GetOrCreate("X", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.object("X"), nullptr);
}

// Ids the journal cannot frame (empty, or holding a space, control byte or
// DEL) are refused before anything is built or journaled — not left to
// abort the process when the lifecycle record is encoded.
TEST(LifecycleTest, GetOrCreateRefusesIdsTheJournalCannotFrame) {
  MemoryLog log;
  TxnManager manager;
  RegisterCounterFactory(&manager);
  log.Attach(&manager);
  const Lsn before = log.journal.high_lsn();
  for (const std::string& id :
       {std::string("a b"), std::string("a\tb"), std::string("a\vb"),
        std::string(""), std::string("a\x7f" "b"),
        std::string("a\0b", 3)}) {
    const StatusOr<AtomicObject*> created =
        manager.GetOrCreate(id, kCounterFactory);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << "id '" << id << "'";
    EXPECT_EQ(manager.object(id), nullptr);
  }
  EXPECT_EQ(log.journal.high_lsn(), before);
  EXPECT_EQ(manager.directory_stats().creates, 0u);
  // The rule admits every printable, high-byte or punctuation id.
  EXPECT_TRUE(manager.GetOrCreate("k:50%-\xc3\xa9", kCounterFactory).ok());
  EXPECT_EQ(log.journal.high_lsn(), before + 1);
}

TEST(LifecycleTest, DropUnknownObjectIsNotFound) {
  TxnManager manager;
  EXPECT_EQ(manager.DropObject("X").code(), StatusCode::kNotFound);
}

TEST(LifecycleTest, CreateAndDropJournalLifecycleRecords) {
  MemoryLog log;
  TxnManager manager;
  RegisterCounterFactory(&manager);
  log.Attach(&manager);

  const StatusOr<AtomicObject*> created =
      manager.GetOrCreate("D", kCounterFactory);
  ASSERT_TRUE(created.ok());
  // Second call finds, does not re-create (and journals nothing).
  const StatusOr<AtomicObject*> found =
      manager.GetOrCreate("D", kCounterFactory);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*created, *found);
  EXPECT_EQ((*created)->factory_name(), kCounterFactory);

  ASSERT_TRUE(CommitInc(&manager, "D", 5).ok());
  EXPECT_EQ(ReadCounter(&manager, "D"), 5);
  ASSERT_TRUE(manager.DropObject("D").ok());

  // Dropped: lookups and Execute refuse.
  EXPECT_EQ(manager.object("D"), nullptr);
  EXPECT_EQ(CommitInc(&manager, "D", 1).code(), StatusCode::kNotFound);

  // Re-creating the id starts a fresh incarnation at the initial state.
  ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());
  EXPECT_EQ(ReadCounter(&manager, "D"), 0);

  const std::vector<Journal::Entry> entries = log.Entries();
  // create, inc, read, drop, create, read (each committed read journals
  // its op too under UIP).
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_TRUE(entries[0].is_lifecycle);
  EXPECT_EQ(entries[0].lifecycle.kind, LifecycleRecord::Kind::kCreate);
  EXPECT_EQ(entries[0].lifecycle.object, "D");
  EXPECT_EQ(entries[0].lifecycle.factory, kCounterFactory);
  EXPECT_FALSE(entries[1].is_lifecycle);
  EXPECT_TRUE(entries[3].is_lifecycle);
  EXPECT_EQ(entries[3].lifecycle.kind, LifecycleRecord::Kind::kDrop);
  EXPECT_EQ(entries[3].lifecycle.object, "D");
  EXPECT_TRUE(entries[4].is_lifecycle);
  EXPECT_EQ(entries[4].lifecycle.kind, LifecycleRecord::Kind::kCreate);

  const DirectoryStats stats = manager.directory_stats();
  EXPECT_EQ(stats.creates, 2u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.retired_objects, 1u);
}

TEST(LifecycleTest, DropRefusedWhileTransactionHoldsOps) {
  TxnManager manager;
  RegisterCounterFactory(&manager);
  ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());

  const std::shared_ptr<Transaction> txn = manager.Begin();
  ASSERT_TRUE(manager.Execute(txn.get(), IncInv("D", 1)).ok());
  // The transaction holds its inc at D: drop must refuse.
  EXPECT_EQ(manager.DropObject("D").code(), StatusCode::kIllegalState);
  EXPECT_NE(manager.object("D"), nullptr);

  ASSERT_TRUE(manager.Commit(txn.get()).ok());
  EXPECT_TRUE(manager.DropObject("D").ok());
  EXPECT_EQ(manager.object("D"), nullptr);
}

// ---------------------------------------------------------------------------
// Concurrent lifecycle races (primary TSan targets)
// ---------------------------------------------------------------------------

TEST(LifecycleRaceTest, ConcurrentCreateDropLookupExecute) {
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  constexpr int kIds = 128;
  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  RegisterCounterFactory(&manager);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(500 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::string id = "R" + std::to_string(rng.Uniform(kIds));
        const uint64_t roll = rng.Uniform(100);
        if (roll < 40) {
          if (!manager.GetOrCreate(id, kCounterFactory).ok()) ++failures;
        } else if (roll < 55) {
          const Status s = manager.DropObject(id);
          if (!s.ok() && s.code() != StatusCode::kNotFound &&
              s.code() != StatusCode::kIllegalState) {
            ++failures;
          }
        } else if (roll < 70) {
          (void)manager.object(id);  // racy lookup; any answer is fine
        } else {
          const Status s = CommitInc(&manager, id, 1);
          if (!s.ok() && s.code() != StatusCode::kNotFound) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  const DirectoryStats stats = manager.directory_stats();
  EXPECT_EQ(stats.creates - stats.drops, stats.live_objects);
  EXPECT_EQ(stats.retired_objects, static_cast<size_t>(stats.drops));
}

TEST(LifecycleRaceTest, LazyCreatesDuringRacingCheckpointRestartExactly) {
  constexpr int kIds = 60;
  TempDir dir;
  EngineOptions options;
  options.manager.record_history = false;
  options.group_commit.mode = DurabilityMode::kSync;
  const StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir.path(), options, RegisterCounterFactory);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TxnManager& manager = *(*engine)->manager();

  // Workload thread lazily creates kIds objects and commits one increment
  // on each; the main thread writes fuzzy checkpoints the whole time, so
  // images land between (and inside) create/commit pairs.
  std::atomic<bool> done{false};
  std::thread workload([&]() {
    for (int i = 0; i < kIds; ++i) {
      const std::string id = "L" + std::to_string(i);
      CCR_CHECK(manager.GetOrCreate(id, kCounterFactory).ok());
      CCR_CHECK(CommitInc(&manager, id, i % 5 + 1).ok());
    }
    done.store(true, std::memory_order_release);
  });
  size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if ((*engine)->journal()->high_lsn() > 0 &&
        (*engine)->Checkpoint().ok()) {
      ++checkpoints;
    }
  }
  workload.join();
  ASSERT_GE(checkpoints, 1u);

  TxnManager restarted(options.manager);
  RegisterCounterFactory(&restarted);
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), {/*replay_threads=*/2});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  for (int i = 0; i < kIds; ++i) {
    const std::string id = "L" + std::to_string(i);
    ASSERT_NE(restarted.object(id), nullptr) << id;
    EXPECT_EQ(ReadCounter(&restarted, id), i % 5 + 1) << id;
  }
}

// ---------------------------------------------------------------------------
// Restart re-creates dynamic objects
// ---------------------------------------------------------------------------

// Builds the lifecycle story both image restart tests share:
//   create D1, inc D1 +5, create D2, inc D2 +7,
//   drop D2, create D2 (fresh incarnation), inc D2 +3,
//   create D3, inc D3 +9, drop D3 (stays dropped).
void RunLifecycleStory(TxnManager* manager) {
  ASSERT_TRUE(manager->GetOrCreate("D1", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D1", 5).ok());
  ASSERT_TRUE(manager->GetOrCreate("D2", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D2", 7).ok());
  ASSERT_TRUE(manager->DropObject("D2").ok());
  ASSERT_TRUE(manager->GetOrCreate("D2", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D2", 3).ok());
  ASSERT_TRUE(manager->GetOrCreate("D3", kCounterFactory).ok());
  ASSERT_TRUE(CommitInc(manager, "D3", 9).ok());
  ASSERT_TRUE(manager->DropObject("D3").ok());
}

void ExpectStoryState(TxnManager* manager) {
  ASSERT_NE(manager->object("D1"), nullptr);
  EXPECT_EQ(ReadCounter(manager, "D1"), 5);
  // D2's second incarnation starts fresh: +7 died with the drop.
  ASSERT_NE(manager->object("D2"), nullptr);
  EXPECT_EQ(ReadCounter(manager, "D2"), 3);
  // D3's final journaled state is dropped.
  EXPECT_EQ(manager->object("D3"), nullptr);
  EXPECT_EQ(manager->objects().size(), 2u);
}

// The story logged under kGroup: the sink's bytes once the flusher has
// written every batch.
TEST(DynamicRestartTest, RestartRecreatesDropsAndResetsIncarnations) {
  MemoryLog log(GroupCommitOptions{DurabilityMode::kGroup});
  {
    TxnManager manager;
    RegisterCounterFactory(&manager);
    log.Attach(&manager);
    RunLifecycleStory(&manager);
  }
  log.pipeline.Drain();

  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  ASSERT_TRUE(restarted.RestartFromImage(log.sink.image()).ok());
  ExpectStoryState(&restarted);
}

TEST(DynamicRestartTest, RestartFromImageRecreatesDynamicObjects) {
  MemoryLog log;
  {
    TxnManager manager;
    RegisterCounterFactory(&manager);
    log.Attach(&manager);
    RunLifecycleStory(&manager);
  }

  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromImage(log.sink.image());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->scan.records_replayed, log.Entries().size());
  ExpectStoryState(&restarted);
}

TEST(DynamicRestartTest, RestartFromDirReplaysLifecycleAcrossCheckpoint) {
  TempDir dir;
  Lsn anchor = 0;
  {
    EngineOptions options;
    options.group_commit.mode = DurabilityMode::kSync;
    const StatusOr<std::unique_ptr<Engine>> engine =
        Engine::Open(dir.path(), std::move(options), RegisterCounterFactory);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    TxnManager& manager = *(*engine)->manager();

    // Pre-checkpoint: two dynamic objects with state.
    ASSERT_TRUE(manager.GetOrCreate("A", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "A", 5).ok());
    ASSERT_TRUE(manager.GetOrCreate("B", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "B", 2).ok());

    const StatusOr<Lsn> written = (*engine)->Checkpoint();
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    anchor = *written;

    // Post-checkpoint tail: drop B (its `dyn` image entry must not
    // resurrect it blindly), re-create it, create C, keep mutating A, and
    // leave D dropped.
    ASSERT_TRUE(manager.DropObject("B").ok());
    ASSERT_TRUE(manager.GetOrCreate("B", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "B", 9).ok());
    ASSERT_TRUE(manager.GetOrCreate("C", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "C", 4).ok());
    ASSERT_TRUE(CommitInc(&manager, "A", 1).ok());
    ASSERT_TRUE(manager.GetOrCreate("D", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "D", 8).ok());
    ASSERT_TRUE(manager.DropObject("D").ok());
  }

  TxnManager restarted;
  RegisterCounterFactory(&restarted);
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), {/*replay_threads=*/2});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->checkpoint_anchor, anchor);
  EXPECT_GE(summary->objects_created, 2u);  // at least C and B's re-create
  EXPECT_EQ(summary->objects_dropped, 1u);  // D

  ASSERT_NE(restarted.object("A"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "A"), 6);
  ASSERT_NE(restarted.object("B"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "B"), 9);
  ASSERT_NE(restarted.object("C"), nullptr);
  EXPECT_EQ(ReadCounter(&restarted, "C"), 4);
  EXPECT_EQ(restarted.object("D"), nullptr);
}

TEST(DynamicRestartTest, RestartFailsAtomicallyOnUnregisteredFactory) {
  const std::string image = EncodeEntryRecord(Journal::Entry::Lifecycle(
      LifecycleRecord{LifecycleRecord::Kind::kCreate, "X", "nope"}));

  TxnManager restarted;  // no factory registered
  EXPECT_EQ(restarted.RestartFromImage(image).status().code(),
            StatusCode::kInternal);
  // Fail-atomic: the half-replayed create was never published.
  EXPECT_EQ(restarted.object("X"), nullptr);
  EXPECT_TRUE(restarted.objects().empty());
}

// ---------------------------------------------------------------------------
// Restart parity: a crash image and the segmented directory are two entry
// sources of one restart driver
// ---------------------------------------------------------------------------

// A fresh store holding `from`'s keys, so every restart reconciles (re-
// deletes dropped objects' keys in) a copy of its own.
std::unique_ptr<MemObjectStore> CopyStore(MemObjectStore* from) {
  StoreWriteBatch batch;
  CCR_CHECK(from->Scan([&batch](const std::string& key,
                                const std::string& value) {
                  batch.Put(key, value);
                  return Status::OK();
                })
                .ok());
  auto copy = std::make_unique<MemObjectStore>();
  CCR_CHECK(copy->ApplyBatch(batch, ObjectStore::Durability::kSync).ok());
  return copy;
}

// Appends every frame to the segmented journal and to an in-memory image,
// which keeps the records truncation deletes from the directory.
struct TeeSink : ByteSink {
  explicit TeeSink(ByteSink* journal) : journal(journal) {}

  Status Append(std::string_view bytes) override {
    CCR_RETURN_IF_ERROR(journal->Append(bytes));
    return image.Append(bytes);
  }
  Status Sync() override { return journal->Sync(); }

  ByteSink* const journal;
  MemorySink image;
};

TEST(RestartParityTest, AllThreeSourcesRestartIdentically) {
  TempDir dir;
  MemObjectStore store;
  std::string image;
  Lsn anchor = 0;
  Lsn high = 0;
  {
    SegmentedSinkOptions sink_options;
    sink_options.max_segment_bytes = 64;  // rotate, so truncation bites
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), 1, sink_options);
    ASSERT_TRUE(sink.ok());
    TeeSink tee(sink->get());
    JournalWriter writer(&tee);
    GroupCommitPipeline pipeline(&writer,
                                 GroupCommitOptions{DurabilityMode::kSync});
    Journal journal;
    journal.set_pipeline(&pipeline);

    TxnManager manager;
    RegisterCounterFactory(&manager);
    manager.set_lifecycle_journal(&journal);
    manager.set_object_store(&store);
    ASSERT_TRUE(manager.GetOrCreate("P", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "P", 5).ok());
    ASSERT_TRUE(manager.GetOrCreate("Q", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "Q", 2).ok());

    // Part-way store checkpoint. One commit lands between the anchor read
    // and the object walk, so P's image overshoots the anchor — the fuzzy
    // case every source must skip alike.
    anchor = journal.high_lsn();
    ASSERT_TRUE(CommitInc(&manager, "P", 1).ok());
    CheckpointerOptions ckpt_options;
    ckpt_options.store = &store;
    Checkpointer checkpointer(dir.path(), ckpt_options);
    ASSERT_TRUE(checkpointer.Write(&manager, anchor).ok());
    ASSERT_TRUE((*sink)->TruncateBelow(anchor).ok());

    // The tail: drop and re-create Q, one multi-object batch commit that
    // also creates R, and S created then dropped for good.
    ASSERT_TRUE(manager.DropObject("Q").ok());
    ASSERT_TRUE(manager.GetOrCreate("Q", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "Q", 9).ok());
    const std::shared_ptr<Transaction> txn = manager.Begin();
    const std::vector<BatchOp> ops = {{"P", kCounterFactory, IncInv("P", 3)},
                                      {"Q", kCounterFactory, IncInv("Q", 4)},
                                      {"R", kCounterFactory, IncInv("R", 6)}};
    ASSERT_TRUE(manager.ExecuteBatch(txn.get(), ops).ok());
    ASSERT_TRUE(manager.Commit(txn.get()).ok());
    ASSERT_TRUE(manager.GetOrCreate("S", kCounterFactory).ok());
    ASSERT_TRUE(CommitInc(&manager, "S", 1).ok());
    ASSERT_TRUE(manager.DropObject("S").ok());
    image = tee.image.image();
    high = journal.high_lsn();
  }

  // The store outlives its manager (declared first, destroyed last).
  struct Restarted {
    std::unique_ptr<MemObjectStore> store;
    std::unique_ptr<TxnManager> manager;
    RestartSummary summary;
  };
  const char* const kSources[] = {"image", "dir"};
  std::vector<Restarted> runs;
  for (int threads : {1, 4}) {
    for (int source = 0; source < 2; ++source) {
      SCOPED_TRACE(std::string(kSources[source]) + " x" +
                   std::to_string(threads));
      Restarted run;
      run.store = CopyStore(&store);
      run.manager = std::make_unique<TxnManager>();
      RegisterCounterFactory(run.manager.get());
      run.manager->set_object_store(run.store.get());
      const RestartOptions options{threads};
      const StatusOr<RestartSummary> summary =
          source == 0 ? run.manager->RestartFromImage(image, options)
                      : run.manager->RestartFromDir(dir.path(), options);
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      run.summary = *summary;
      runs.push_back(std::move(run));
    }
  }

  const Restarted& base = runs.front();
  EXPECT_TRUE(base.summary.from_store);
  EXPECT_EQ(base.summary.checkpoint_anchor, anchor);
  EXPECT_EQ(base.summary.high_lsn, high);
  EXPECT_GE(base.summary.tail_skipped, 1u);     // P's overshoot
  EXPECT_EQ(base.summary.objects_dropped, 1u);  // S
  EXPECT_EQ(ReadCounter(base.manager.get(), "P"), 5 + 1 + 3);
  EXPECT_EQ(ReadCounter(base.manager.get(), "Q"), 9 + 4);
  EXPECT_EQ(ReadCounter(base.manager.get(), "R"), 6);
  EXPECT_EQ(base.manager->object("S"), nullptr);

  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE(std::string(kSources[i % 2]) + " x" +
                 std::to_string(i < 2 ? 1 : 4));
    const RestartSummary& a = base.summary;
    const RestartSummary& b = runs[i].summary;
    EXPECT_EQ(b.checkpoint_anchor, a.checkpoint_anchor);
    EXPECT_EQ(b.tail_records, a.tail_records);
    EXPECT_EQ(b.tail_skipped, a.tail_skipped);
    EXPECT_EQ(b.objects_created, a.objects_created);
    EXPECT_EQ(b.objects_dropped, a.objects_dropped);
    EXPECT_EQ(b.high_lsn, a.high_lsn);
    EXPECT_EQ(b.max_txn, a.max_txn);

    const std::vector<AtomicObject*> want = base.manager->objects();
    const std::vector<AtomicObject*> got = runs[i].manager->objects();
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k]->id(), want[k]->id());
      EXPECT_TRUE(got[k]->CommittedState()->Equals(*want[k]->CommittedState()))
          << want[k]->id();
      EXPECT_EQ(got[k]->last_committed_lsn(), want[k]->last_committed_lsn())
          << want[k]->id();
    }
  }
}

// ---------------------------------------------------------------------------
// Crash sweeps over lifecycle-performing workloads
// ---------------------------------------------------------------------------

void LifecycleSystemFactory(TxnManager* manager) {
  RegisterCounterFactory(manager);
}

// Mixes lazy creates, increments, and drops over a small id space so crash
// points land between create records, commits, and drop records.
TxnBody LifecycleBody() {
  return [](TxnManager* manager, Transaction* txn, Random* rng) -> Status {
    const std::string id = "DYN" + std::to_string(rng->Uniform(6));
    const StatusOr<AtomicObject*> obj =
        manager->GetOrCreate(id, kCounterFactory);
    if (!obj.ok()) return obj.status();
    const StatusOr<Value> r =
        manager->Execute(txn, IncInv(id, rng->UniformRange(1, 5)));
    if (!r.ok()) {
      // A racing thread dropped the id between our create and Execute;
      // commit the (now empty) transaction and move on.
      if (r.status().code() == StatusCode::kNotFound) return Status::OK();
      return r.status();
    }
    if (rng->Uniform(4) == 0) {
      const std::string victim = "DYN" + std::to_string(rng->Uniform(6));
      // Refused (live transactions, possibly ourselves) or absent is fine.
      const Status dropped = manager->DropObject(victim);
      if (!dropped.ok() && dropped.code() != StatusCode::kIllegalState &&
          dropped.code() != StatusCode::kNotFound) {
        return dropped;
      }
    }
    return Status::OK();
  };
}

TEST(LifecycleCrashTest, CrashFractionSweepRecoversCleanly) {
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup}) {
    for (const double fraction : {0.0, 0.35, 0.7, 1.0}) {
      CrashScenarioOptions options;
      options.driver.threads = 3;
      options.driver.txns_per_thread = 25;
      options.driver.seed = 11;
      options.fault = CrashFault::AtFraction(fraction);
      options.group_commit = GroupCommitOptions{mode};
      const CrashScenarioResult result =
          RunCrashScenario(LifecycleSystemFactory, LifecycleBody(), options);
      EXPECT_TRUE(result.ok())
          << "mode " << static_cast<int>(mode) << " fraction " << fraction
          << ": status " << result.status.ToString() << ", prefix_ok "
          << result.prefix_ok << ", state_ok " << result.state_ok
          << ", acked_lost " << result.acked_lost << ", acked "
          << result.acked << "/" << result.records_total;
      if (fraction == 1.0) {
        EXPECT_GT(result.records_total, 0u);
        EXPECT_EQ(result.summary.high_lsn, result.records_total);
      } else {
        EXPECT_TRUE(result.fault_fired) << "fraction " << fraction;
      }
    }
  }
}

TEST(LifecycleCrashTest, MaintenanceCrashPointsWithLifecycleRecords) {
  const std::vector<std::string> points = {
      "",  // clean run: checkpoints and truncations all land
      "rot.before_seal_sync", "rot.after_create",  "trunc.before_unlink",
      "trunc.after_unlink",   "ckpt.torn_tmp",     "ckpt.before_rename",
      "ckpt.before_dirsync",  "ckpt.before_gc"};
  for (const std::string& point : points) {
    CrashScenarioOptions options;
    options.driver.threads = 2;
    options.driver.txns_per_thread = 30;
    options.driver.seed = 13;
    options.max_segment_bytes = 256;
    options.maintenance_every = 12;
    options.fault = CrashFault::AtPoint(point);
    options.replay_threads = 2;
    const CrashScenarioResult result =
        RunCrashScenario(LifecycleSystemFactory, LifecycleBody(), options);
    EXPECT_TRUE(result.ok())
        << "point '" << point << "': status " << result.status.ToString()
        << ", on disk " << result.records_on_disk << "/"
        << result.records_total << ", prefix_ok " << result.prefix_ok
        << ", state_ok " << result.state_ok << ", acked_lost "
        << result.acked_lost;
    if (point.empty()) {
      EXPECT_FALSE(result.fault_fired);
      EXPECT_EQ(result.records_on_disk, result.records_total);
      EXPECT_GE(result.checkpoints, 1u);
    } else {
      EXPECT_TRUE(result.fault_fired)
          << "point '" << point << "' was never reached";
    }
  }
}

}  // namespace
}  // namespace ccr
