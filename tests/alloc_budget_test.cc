// Copyright 2026 The ccr Authors.
//
// Allocation budget: heap allocations and net heap bytes retained, counted
// on every thread (the group-commit flusher included) by a counting global
// operator new, for
//
//   * one 1-op Counter inc(1) commit, per {UIP+NRBC, DU+NFC} x {volatile
//     journal, kSync, kGroup}, journaling to a sink that keeps nothing;
//   * one lazily created UIP Counter, after one commit, and after
//     EvictObject to a store that keeps nothing;
//   * one journal record's frame, which must be encoded into one buffer
//     allocated once at its final size.
//
// Each ceiling is the value measured when it was set, rounded up, so an
// engine change that allocates or keeps more per commit or per object
// fails here; lowering a ceiling records progress. The counting operator
// new is why this test is its own binary. Sanitizer builds skip it: their
// allocators pad and quarantine every block.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "adt/kv_store.h"
#include "core/conflict_relation.h"
#include "store/object_store.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<int64_t> g_bytes{0};

void* CountedAlloc(size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                      std::memory_order_relaxed);
  }
  return p;
}

// Not inlined, so the compiler never sees free() reach a pointer that came
// from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                    std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace ccr {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

struct Heap {
  uint64_t allocs;
  int64_t bytes;
};

Heap Now() {
  return Heap{g_allocs.load(std::memory_order_relaxed),
              g_bytes.load(std::memory_order_relaxed)};
}

// Per-unit cost between two readings.
struct Cost {
  double allocs;
  double bytes;
};

Cost Per(const Heap& before, const Heap& after, size_t units) {
  return Cost{static_cast<double>(after.allocs - before.allocs) /
                  static_cast<double>(units),
              static_cast<double>(after.bytes - before.bytes) /
                  static_cast<double>(units)};
}

// A journal disk that keeps nothing.
class NullSink : public ByteSink {
 public:
  Status Append(std::string_view) override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
};

// An object store that keeps nothing: an eviction's Put costs nothing.
class NullStore : public ObjectStore {
 public:
  Status ApplyBatch(const StoreWriteBatch&, Durability) override {
    return Status::OK();
  }
  StatusOr<std::string> Get(const std::string& key) override {
    return Status::NotFound(key);
  }
  Status Scan(const std::function<Status(const std::string&,
                                         const std::string&)>&) override {
    return Status::OK();
  }
  ObjectStoreStats stats() const override { return {}; }
};

enum class Method { kUip, kDu };
enum class Journaling { kVolatile, kSync, kGroup };

struct Row {
  Method method;
  Journaling journaling;
  // Ceilings: allocations per commit, and net heap bytes retained per
  // commit.
  double max_allocs;
  double max_bytes;
};

// Commits averaged per row: enough that the journal's partly filled last
// chunk adds under 3 bytes to a commit's retained bytes.
constexpr size_t kCommits = 100000;

// Ceilings of the object rows: per lazily created UIP Counter, and per
// evicted shell of one.
constexpr double kMaxCreateAllocs = 9.5;
constexpr double kMaxCreateBytes = 1160;
constexpr double kMaxShellBytes = 1160;

std::string RowName(const Row& row) {
  const char* method = row.method == Method::kUip ? "Uip" : "Du";
  const char* journaling = row.journaling == Journaling::kVolatile ? "Volatile"
                           : row.journaling == Journaling::kSync  ? "Sync"
                                                                  : "Group";
  return std::string(method) + journaling;
}

void PrintTo(const Row& row, std::ostream* os) { *os << RowName(row); }

class CommitBudgetTest : public ::testing::TestWithParam<Row> {};

// One committer, history off (as ccrbench runs it): every commit is one
// inc(1) on one Counter, journaled as one 1-op record.
TEST_P(CommitBudgetTest, OneOpCommit) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators pad every block";
  const Row& row = GetParam();
  NullSink sink;
  JournalWriter writer(&sink);
  std::unique_ptr<GroupCommitPipeline> pipeline;
  if (row.journaling != Journaling::kVolatile) {
    GroupCommitOptions options;
    options.mode = row.journaling == Journaling::kSync ? DurabilityMode::kSync
                                                       : DurabilityMode::kGroup;
    pipeline = std::make_unique<GroupCommitPipeline>(&writer, options);
  }
  Journal journal;
  journal.set_pipeline(pipeline.get());
  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  manager.set_commit_pipeline(pipeline.get());
  const std::shared_ptr<Counter> counter = MakeCounter();
  std::unique_ptr<RecoveryManager> recovery;
  std::shared_ptr<const ConflictRelation> conflict;
  if (row.method == Method::kUip) {
    recovery = std::make_unique<UipRecovery>(counter);
    conflict = MakeNrbcConflict(counter);
  } else {
    recovery = std::make_unique<DuRecovery>(counter);
    conflict = MakeNfcConflict(counter);
  }
  AtomicObject* obj = manager.AddObject(counter->object_name(), counter,
                                        conflict, std::move(recovery));
  obj->recovery().set_journal(&journal);

  const Invocation inc = counter->IncInv(1);
  const auto commit = [&] {
    const Status s = manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, inc).status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  };
  for (int i = 0; i < 2000; ++i) commit();
  if (pipeline != nullptr) pipeline->Drain();
  const Heap before = Now();
  for (size_t i = 0; i < kCommits; ++i) commit();
  if (pipeline != nullptr) pipeline->Drain();
  const Heap after = Now();
  const Cost cost = Per(before, after, kCommits);

  const double frame_bytes =
      static_cast<double>(EncodeJournalImage(journal).size()) /
      static_cast<double>(journal.size());
  std::printf("%-12s %9.2f allocs/commit %9.1f B retained/commit "
              "(frame %.1f B, %zu commits)\n",
              RowName(row).c_str(), cost.allocs, cost.bytes, frame_bytes,
              kCommits);
  EXPECT_LE(cost.allocs, row.max_allocs);
  EXPECT_LE(cost.bytes, row.max_bytes);
  if (row.journaling == Journaling::kVolatile) {
    // The journal is the only thing a volatile commit keeps, and it keeps
    // the record's frame, not a decoded copy.
    EXPECT_LE(cost.bytes, 1.3 * frame_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, CommitBudgetTest,
    ::testing::Values(
        Row{Method::kUip, Journaling::kVolatile, 25.5, 42},
        Row{Method::kUip, Journaling::kSync, 25.5, 53},
        Row{Method::kUip, Journaling::kGroup, 27.5, 53},
        Row{Method::kDu, Journaling::kVolatile, 24.5, 42},
        Row{Method::kDu, Journaling::kSync, 24.5, 53},
        Row{Method::kDu, Journaling::kGroup, 26.5, 53}),
    [](const ::testing::TestParamInfo<Row>& info) {
      return RowName(info.param);
    });

// Every frame is one allocation, whatever its values need: escaped
// strings, negative and wide ints, bools, unit results, lifecycle names.
TEST(EncodeBudgetTest, OneAllocationPerFrame) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators pad every block";
  auto ba = MakeBankAccount("acct-7");
  auto kv = MakeKvStore();
  std::vector<Journal::Entry> entries;
  entries.push_back(Journal::Entry::Commit(
      1, {Operation(ba->DepositInv(10), Value()),
          Operation(ba->BalanceInv(), Value(int64_t{-9223372036854775807}))}));
  entries.push_back(Journal::Entry::Commit(
      18446744073709551615u,
      {Operation(kv->PutInv("a b%\n\x7f", 5), Value(true)),
       Operation(kv->GetInv(""), Value(false)),
       Operation(kv->GetInv(std::string(300, ' ')), Value("x y"))}));
  LifecycleRecord create;
  create.kind = LifecycleRecord::Kind::kCreate;
  create.object = "obj-1";
  create.factory = "counter";
  entries.push_back(Journal::Entry::Lifecycle(create));
  LifecycleRecord drop;
  drop.kind = LifecycleRecord::Kind::kDrop;
  drop.object = "a-longer-object-name";
  entries.push_back(Journal::Entry::Lifecycle(drop));
  for (const Journal::Entry& entry : entries) {
    const Heap before = Now();
    const std::string frame = EncodeEntryRecord(entry);
    EXPECT_EQ(Now().allocs - before.allocs, 1u) << frame.substr(8);
  }
}

// A UIP recovery manager's operation log allocates nothing while empty,
// and installing a committed state (what eviction and a restart reset do)
// gives back the memory a commit left in it: building the manager costs
// exactly its two states, and so does the manager after one committed op
// and the install.
TEST(ObjectBudgetTest, UipLogCostsNothingWhileEmpty) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators pad every block";
  const std::shared_ptr<Counter> counter = MakeCounter();
  const Invocation inc = counter->IncInv(1);
  const Heap h0 = Now();
  const std::unique_ptr<SpecState> base = counter->spec().InitialState();
  const std::unique_ptr<SpecState> current = base->Clone();
  const Heap h1 = Now();
  UipRecovery recovery(counter);
  const Heap h2 = Now();
  EXPECT_EQ(h2.allocs - h1.allocs, h1.allocs - h0.allocs);
  EXPECT_EQ(h2.bytes - h1.bytes, h1.bytes - h0.bytes);

  {
    std::vector<Outcome> outcomes = recovery.Candidates(1, inc);
    ASSERT_EQ(outcomes.size(), 1u);
    recovery.Apply(1, Operation(inc, outcomes[0].result),
                   std::move(outcomes[0].next));
    OpSeq redo;
    recovery.CollectCommit(1, &redo);
    recovery.FinalizeCommit(1);
  }
  recovery.InstallCommittedState(counter->spec().InitialState());
  EXPECT_EQ(Now().bytes - h1.bytes, h1.bytes - h0.bytes);
}

// Lazily created UIP+NRBC Counters: what one costs to create, what it keeps
// after one committed inc(1), and what its evicted shell keeps.
TEST(ObjectBudgetTest, LazyUipCounterAndItsEviction) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators pad every block";
  constexpr size_t kObjects = 4096;
  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  NullStore store;
  manager.set_object_store(&store);
  manager.RegisterFactory("counter", [](const ObjectId& id) {
    std::shared_ptr<Counter> counter = MakeCounter(id);
    ObjectConfig config;
    config.adt = counter;
    config.conflict = MakeNrbcConflict(counter);
    config.recovery = std::make_unique<UipRecovery>(counter);
    return config;
  });
  std::vector<ObjectId> ids;
  std::vector<Invocation> incs;
  for (size_t i = 0; i < kObjects; ++i) {
    ids.push_back("k" + std::to_string(i));
    incs.push_back(Invocation(ids.back(), Counter::kInc, "inc",
                              {Value(int64_t{1})}));
  }

  const Heap start = Now();
  for (const ObjectId& id : ids) {
    ASSERT_TRUE(manager.GetOrCreate(id, "counter").ok());
  }
  const Heap created = Now();
  for (const Invocation& inc : incs) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, inc).status();
                    })
                    .ok());
  }
  const Heap committed = Now();
  for (const ObjectId& id : ids) ASSERT_TRUE(manager.EvictObject(id).ok());
  const Heap evicted = Now();
  ASSERT_EQ(manager.evicted_objects(), kObjects);

  const Cost create = Per(start, created, kObjects);
  const Cost resident = Per(start, committed, kObjects);
  const Cost shell = Per(start, evicted, kObjects);
  std::printf("GetOrCreate  %9.2f allocs/object %9.1f B retained/object\n"
              "after commit %9s               %9.1f B retained/object\n"
              "after evict  %9s               %9.1f B retained/object\n",
              create.allocs, create.bytes, "", resident.bytes, "",
              shell.bytes);
  EXPECT_LE(create.allocs, kMaxCreateAllocs);
  EXPECT_LE(create.bytes, kMaxCreateBytes);
  EXPECT_LE(shell.bytes, kMaxShellBytes);
}

}  // namespace
}  // namespace ccr
