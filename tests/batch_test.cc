// Copyright 2026 The ccr Authors.
//
// Batched multi-key transactions (TxnManager::ExecuteBatch): result
// scattering and lazy creation, the single multi-object commit record and
// its per-object LSN install, the read-only commit fast path (no watermark
// wait), canonical-lock-order deadlock freedom under adversarial op
// orders, crash-offset sweeps auditing batch all-or-nothingness, and the
// checkpointed RestartFromDir path splitting one record across per-object
// replay buckets.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "adt/counter.h"
#include "common/random.h"
#include "memory_log.h"
#include "sim/crash_harness.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

enum class Method { kUip, kDu };

std::unique_ptr<RecoveryManager> MakeRecovery(Method method,
                                              std::shared_ptr<const Adt> adt) {
  if (method == Method::kUip) return std::make_unique<UipRecovery>(adt);
  return std::make_unique<DuRecovery>(adt);
}

std::shared_ptr<const ConflictRelation> MakeConflict(Method method,
                                                     std::shared_ptr<Adt> adt) {
  if (method == Method::kUip) return MakeNrbcConflict(adt);
  return MakeNfcConflict(adt);
}

int64_t CounterValue(AtomicObject* obj) {
  return TypedSpecAutomaton<Int64State>::Unwrap(*obj->CommittedState()).v;
}

// `n` counters C0..Cn-1 registered with `manager` under `method`.
std::vector<std::shared_ptr<Counter>> AddCounters(TxnManager* manager,
                                                  Method method, int n) {
  std::vector<std::shared_ptr<Counter>> counters;
  for (int i = 0; i < n; ++i) {
    auto ctr = MakeCounter("C" + std::to_string(i));
    manager->AddObject(ctr->object_name(), ctr, MakeConflict(method, ctr),
                       MakeRecovery(method, ctr));
    counters.push_back(std::move(ctr));
  }
  return counters;
}

BatchOp Op(const Invocation& inv, std::string factory = "") {
  return BatchOp{inv.object(), std::move(factory), inv};
}

class BatchTest : public ::testing::TestWithParam<Method> {};

// Results land in the callers' positions even though execution groups by
// object and visits groups in canonical order.
TEST_P(BatchTest, ExecutesAndScattersResults) {
  TxnManager manager;
  auto counters = AddCounters(&manager, GetParam(), 3);
  auto txn = manager.Begin();
  const std::vector<BatchOp> ops = {
      Op(counters[2]->IncInv(5)),  Op(counters[0]->IncInv(1)),
      Op(counters[2]->ReadInv()),  Op(counters[1]->IncInv(3)),
      Op(counters[0]->ReadInv()),
  };
  StatusOr<std::vector<Value>> results =
      manager.ExecuteBatch(txn.get(), ops);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 5u);
  EXPECT_EQ((*results)[2].AsInt(), 5);  // read of C2 after its inc
  EXPECT_EQ((*results)[4].AsInt(), 1);  // read of C0 after its inc
  ASSERT_TRUE(manager.Commit(txn.get()).ok());
  EXPECT_EQ(CounterValue(manager.object("C0")), 1);
  EXPECT_EQ(CounterValue(manager.object("C1")), 3);
  EXPECT_EQ(CounterValue(manager.object("C2")), 5);
}

// Lazy keys: a batch op naming a factory creates the object on first
// touch; one naming no factory fails with kNotFound.
TEST_P(BatchTest, LazyCreateAndUnknownObject) {
  const Method method = GetParam();
  TxnManager manager;
  manager.RegisterFactory("counter", [method](const ObjectId& id) {
    auto ctr = MakeCounter(id);
    ObjectConfig cfg;
    cfg.adt = ctr;
    cfg.conflict = MakeConflict(method, ctr);
    cfg.recovery = MakeRecovery(method, ctr);
    return cfg;
  });
  auto lazy = MakeCounter("LAZY");
  {
    auto txn = manager.Begin();
    const std::vector<BatchOp> ops = {Op(lazy->IncInv(7), "counter")};
    StatusOr<std::vector<Value>> results =
        manager.ExecuteBatch(txn.get(), ops);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_TRUE(manager.Commit(txn.get()).ok());
    EXPECT_EQ(CounterValue(manager.object("LAZY")), 7);
  }
  {
    auto txn = manager.Begin();
    auto missing = MakeCounter("MISSING");
    const std::vector<BatchOp> ops = {Op(missing->IncInv(1))};
    EXPECT_EQ(manager.ExecuteBatch(txn.get(), ops).status().code(),
              StatusCode::kNotFound);
    ASSERT_TRUE(manager.Abort(txn.get()).ok());
  }
  {
    auto txn = manager.Begin();
    BatchOp mismatched = Op(lazy->IncInv(1));
    mismatched.object = "OTHER";
    const std::vector<BatchOp> ops = {mismatched};
    EXPECT_EQ(manager.ExecuteBatch(txn.get(), ops).status().code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(manager.Abort(txn.get()).ok());
  }
}

// The commit invariant: a batch across N objects journals ONE commit
// record carrying every object's ops, and each contributing object's
// last_committed_lsn is that record's LSN. An equivalent N-Execute
// transaction journals one record too.
TEST_P(BatchTest, OneMultiObjectCommitRecord) {
  TxnManager manager;
  auto counters = AddCounters(&manager, GetParam(), 3);
  MemoryLog log;
  log.Attach(&manager);

  auto batch_txn = manager.Begin();
  const std::vector<BatchOp> ops = {Op(counters[0]->IncInv(1)),
                                    Op(counters[1]->IncInv(2)),
                                    Op(counters[2]->IncInv(3))};
  ASSERT_TRUE(manager.ExecuteBatch(batch_txn.get(), ops).ok());
  ASSERT_TRUE(manager.Commit(batch_txn.get()).ok());
  const std::vector<Journal::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_FALSE(entries[0].is_lifecycle);
  EXPECT_EQ(entries[0].commit.txn, batch_txn->id());
  std::set<ObjectId> named;
  for (const Operation& op : entries[0].commit.ops) {
    named.insert(op.object());
  }
  EXPECT_EQ(named, (std::set<ObjectId>{"C0", "C1", "C2"}));
  for (const char* id : {"C0", "C1", "C2"}) {
    EXPECT_EQ(manager.object(id)->last_committed_lsn(), 1u) << id;
  }

  // Control: the same shape via N Executes also costs one record, whose
  // LSN every object installs.
  auto loose_txn = manager.Begin();
  for (const BatchOp& op : ops) {
    ASSERT_TRUE(manager.Execute(loose_txn.get(), op.inv).ok());
  }
  ASSERT_TRUE(manager.Commit(loose_txn.get()).ok());
  EXPECT_EQ(log.Entries().size(), 2u);
  for (const char* id : {"C0", "C1", "C2"}) {
    EXPECT_EQ(manager.object(id)->last_committed_lsn(), 2u) << id;
  }
}

// The multi-object record replays atomically through the serial Restart
// path: a fresh system recovers every object's batch effects.
TEST_P(BatchTest, MultiObjectRecordReplaysThroughRestart) {
  const Method method = GetParam();
  MemoryLog log;
  {
    TxnManager manager;
    auto counters = AddCounters(&manager, method, 3);
    log.Attach(&manager);
    for (int round = 1; round <= 4; ++round) {
      auto txn = manager.Begin();
      const std::vector<BatchOp> ops = {Op(counters[0]->IncInv(round)),
                                        Op(counters[1]->IncInv(2 * round)),
                                        Op(counters[2]->IncInv(3 * round))};
      ASSERT_TRUE(manager.ExecuteBatch(txn.get(), ops).ok());
      ASSERT_TRUE(manager.Commit(txn.get()).ok());
    }
    ASSERT_EQ(log.Entries().size(), 4u);
  }
  TxnManager restarted;
  AddCounters(&restarted, method, 3);
  ASSERT_TRUE(restarted.RestartFromImage(log.sink.image()).ok());
  EXPECT_EQ(CounterValue(restarted.object("C0")), 1 + 2 + 3 + 4);
  EXPECT_EQ(CounterValue(restarted.object("C1")), 2 * (1 + 2 + 3 + 4));
  EXPECT_EQ(CounterValue(restarted.object("C2")), 3 * (1 + 2 + 3 + 4));
}

// A sink whose Sync never completes: any commit that waits on the durable
// watermark hangs here. Used to pin the read-only fast path.
class StuckSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }
  Status Sync() override {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
    return Status::OK();
  }
  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::string image_;
};

// Commit fast path: a transaction that journaled no records must not take
// the group-commit ack path at all — with the sink's sync stuck shut, a
// watermark wait would hang forever.
TEST_P(BatchTest, ReadOnlyCommitSkipsWatermarkWait) {
  BasicMemoryLog<StuckSink> log(GroupCommitOptions{DurabilityMode::kGroup});
  TxnManager manager;
  auto counters = AddCounters(&manager, GetParam(), 1);
  log.Attach(&manager);

  // Nothing executed, nothing journaled: Commit must return immediately.
  auto empty = manager.Begin();
  ASSERT_TRUE(manager.Commit(empty.get()).ok());

  // Control: a writing transaction on the same wiring really does wait.
  auto writer_txn = manager.Begin();
  ASSERT_TRUE(manager.Execute(writer_txn.get(), counters[0]->IncInv(1)).ok());
  std::atomic<bool> acked{false};
  std::thread committer([&] {
    EXPECT_TRUE(manager.Commit(writer_txn.get()).ok());
    acked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acked.load());
  log.sink.Open();
  committer.join();
  EXPECT_TRUE(acked.load());
  log.pipeline.Drain();
}

// Batch-vs-batch deadlock freedom by construction: two threads drive
// batches over overlapping key sets with adversarial (opposed) op orders
// under a read/write conflict relation — every pair of batches conflicts
// on every shared key. Canonical lock ordering means no kill, no
// deadlock, no timeout, ever.
TEST(BatchDeadlockTest, AdversarialOrdersNeverDeadlock) {
  constexpr int kKeys = 8;
  constexpr int kRounds = 150;
  TxnManager manager;
  std::vector<std::shared_ptr<Counter>> counters;
  for (int i = 0; i < kKeys; ++i) {
    auto ctr = MakeCounter("K" + std::to_string(i));
    // Read/write locking: incs of the same key always conflict, so
    // overlapping batches genuinely contend.
    manager.AddObject(ctr->object_name(), ctr, MakeReadWriteConflict(ctr),
                      std::make_unique<UipRecovery>(ctr));
    counters.push_back(std::move(ctr));
  }

  std::atomic<int> failures{0};
  auto worker = [&](uint64_t seed, bool reversed) {
    Random rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      // A random overlapping subset, in ascending or descending op order —
      // the adversarial shape that deadlocks naive per-op acquisition.
      std::vector<BatchOp> ops;
      for (int k = 0; k < kKeys; ++k) {
        const int key = reversed ? kKeys - 1 - k : k;
        if (rng.Uniform(3) == 0) continue;  // vary the subset
        ops.push_back(Op(counters[key]->IncInv(1)));
      }
      if (ops.empty()) continue;
      const Status s = manager.RunTransaction([&](Transaction* txn) {
        return manager.ExecuteBatch(txn, ops).status();
      });
      if (!s.ok()) failures.fetch_add(1);
    }
  };
  std::thread a(worker, 101, false);
  std::thread b(worker, 202, true);
  a.join();
  b.join();

  EXPECT_EQ(failures.load(), 0);
  const ManagerStats stats = manager.stats();
  EXPECT_EQ(stats.kills, 0u);      // no deadlock victims...
  EXPECT_EQ(stats.retries, 0u);    // ...and no retryable failure at all
  const ObjectStats objects = manager.AggregateObjectStats();
  EXPECT_EQ(objects.deadlock_victims, 0u);
  EXPECT_EQ(objects.timeouts, 0u);
}

// Crash sweep: batches over four objects journaled through the pipeline,
// the machine dying at every tenth of the live run in all three durability
// modes. The driver audits that every multi-object record is
// all-or-nothing across its objects (multi_object_partial == 0), acked
// batches are never lost, and recovered state matches the surviving
// prefix.
TEST_P(BatchTest, CrashSweepBatchRecordsAllOrNothing) {
  const Method method = GetParam();
  const SystemFactory factory = [method](TxnManager* manager) {
    AddCounters(manager, method, 4);
  };
  const TxnBody body = [](TxnManager* manager, Transaction* txn,
                          Random* rng) {
    std::vector<BatchOp> ops;
    for (int i = 0; i < 4; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(i));
      ops.push_back(
          BatchOp{ctr->object_name(), "",
                  ctr->IncInv(static_cast<int64_t>(rng->Uniform(9)) + 1)});
    }
    return manager->ExecuteBatch(txn, ops).status();
  };
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup,
        DurabilityMode::kRelaxed}) {
    for (int tenth = 0; tenth <= 10; ++tenth) {
      CrashScenarioOptions options;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 20;
      options.driver.seed = 7 + tenth;
      options.fault = CrashFault::AtFraction(tenth / 10.0);
      options.group_commit = GroupCommitOptions{mode};
      const CrashScenarioResult result =
          RunCrashScenario(factory, body, options);
      ASSERT_TRUE(result.status.ok())
          << "mode " << static_cast<int>(mode) << " tenth " << tenth << ": "
          << result.status.ToString();
      EXPECT_TRUE(result.ok()) << "mode " << static_cast<int>(mode)
                               << " tenth " << tenth;
      EXPECT_EQ(result.multi_object_partial, 0u);
      EXPECT_GT(result.multi_object_txns, 0u);
      if (tenth == 10) {
        // Clean shutdown: every batch recovered whole.
        EXPECT_EQ(result.multi_object_whole, result.multi_object_txns);
      } else {
        EXPECT_TRUE(result.fault_fired)
            << "mode " << static_cast<int>(mode) << " tenth " << tenth;
      }
    }
  }
}

// Checkpoint-aware restart: multi-object records land in several
// per-object replay buckets of RestartFromDir; fuzzy checkpoints taken
// between batches must pair each object's state with the batch's LSN
// exactly (the batch commit holds every object's snapshot mutex through
// the LSN install).
TEST_P(BatchTest, CheckpointedRestartSplitsBatchAcrossBuckets) {
  const Method method = GetParam();
  const SystemFactory factory = [method](TxnManager* manager) {
    AddCounters(manager, method, 4);
  };
  const TxnBody body = [](TxnManager* manager, Transaction* txn,
                          Random* rng) {
    std::vector<BatchOp> ops;
    for (int i = 0; i < 4; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(i));
      ops.push_back(
          BatchOp{ctr->object_name(), "",
                  ctr->IncInv(static_cast<int64_t>(rng->Uniform(5)) + 1)});
    }
    return manager->ExecuteBatch(txn, ops).status();
  };
  CrashScenarioOptions options;
  options.driver.threads = 2;
  options.driver.txns_per_thread = 15;
  options.maintenance_every = 7;
  options.replay_threads = 4;
  const CrashScenarioResult result = RunCrashScenario(factory, body, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.checkpoints, 0u);
  EXPECT_EQ(result.records_on_disk, result.records_total);
  EXPECT_EQ(result.multi_object_whole, result.multi_object_txns);
}

// A batch that fails mid-execution — earlier object groups already
// executed, a later group times out on a conflicting holder — must leave
// no trace: no (partial) multi-object commit record in the journal, the
// transaction cleanly abortable, every acquired object mutex released,
// and no committed-state change at the groups that did execute.
TEST_P(BatchTest, MidBatchFailureReleasesLocksAndJournalsNothing) {
  TxnManagerOptions options;
  options.lock_timeout = std::chrono::milliseconds(50);
  TxnManager manager(options);
  auto counters = AddCounters(&manager, GetParam(), 3);
  MemoryLog log;
  log.Attach(&manager);
  // Seed C0 so the failed batch's inc would be visible if it leaked.
  {
    auto txn = manager.Begin();
    const std::vector<BatchOp> seed = {Op(counters[0]->IncInv(10))};
    ASSERT_TRUE(manager.ExecuteBatch(txn.get(), seed).ok());
    ASSERT_TRUE(manager.Commit(txn.get()).ok());
  }
  const size_t records_before = log.Entries().size();

  // The blocker holds a read outcome on C2; an inc does not commute with
  // it, so the batch's C2 group waits until the lock timeout.
  auto blocker = manager.Begin();
  ASSERT_TRUE(
      manager.Execute(blocker.get(), counters[2]->ReadInv()).ok());

  auto txn = manager.Begin();
  const std::vector<BatchOp> ops = {Op(counters[0]->IncInv(1)),
                                    Op(counters[1]->IncInv(2)),
                                    Op(counters[2]->IncInv(3))};
  // Canonical order executes C0 and C1 first; C2 then fails. The earlier
  // groups' work must be confined to the transaction.
  StatusOr<std::vector<Value>> results = manager.ExecuteBatch(txn.get(), ops);
  ASSERT_FALSE(results.ok()) << "conflicting batch unexpectedly succeeded";
  EXPECT_EQ(log.Entries().size(), records_before)
      << "failed batch journaled a (partial) commit record";
  ASSERT_TRUE(manager.Abort(txn.get()).ok());
  EXPECT_EQ(log.Entries().size(), records_before);
  ASSERT_TRUE(manager.Abort(blocker.get()).ok());

  // Committed states never saw the failed batch.
  EXPECT_EQ(CounterValue(manager.object("C0")), 10);
  EXPECT_EQ(CounterValue(manager.object("C1")), 0);
  EXPECT_EQ(CounterValue(manager.object("C2")), 0);

  // Every mutex is free again: the same three-object batch runs to commit
  // (it would time out on any leaked op-lock from the failed attempt).
  auto retry = manager.Begin();
  results = manager.ExecuteBatch(retry.get(), ops);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_TRUE(manager.Commit(retry.get()).ok());
  EXPECT_EQ(log.Entries().size(), records_before + 1);
  EXPECT_EQ(CounterValue(manager.object("C0")), 11);
  EXPECT_EQ(CounterValue(manager.object("C1")), 2);
  EXPECT_EQ(CounterValue(manager.object("C2")), 3);
}

INSTANTIATE_TEST_SUITE_P(Methods, BatchTest,
                         ::testing::Values(Method::kUip, Method::kDu),
                         [](const auto& info) {
                           return info.param == Method::kUip ? "Uip" : "Du";
                         });

}  // namespace
}  // namespace ccr
