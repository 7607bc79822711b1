// Copyright 2026 The ccr Authors.
//
// Crash-restart tests over the durable journal and the full engine: crash
// at every record boundary, torn mid-record writes, checksum corruption,
// the empty-commit-record regression, and a randomized multithreaded
// crash-restart property test for both recovery methods.

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "memory_log.h"
#include "sim/crash_harness.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

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

class CrashRecoveryTest : public ::testing::TestWithParam<Method> {};

// Runs the fixed deposit/withdraw script one transaction at a time against
// a durably journaled bank account and returns the sink's image plus the
// per-boundary record offsets (each kSync commit leaves its record whole
// in the image).
struct ScriptedRun {
  std::string image;
  std::vector<uint64_t> boundaries;  // boundaries[n] = bytes after n records
  std::vector<int64_t> balances;     // balances[n] = balance after n commits
};

ScriptedRun RunScript(Method method) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  TxnManager manager;
  manager.AddObject("BA", ba, MakeConflict(method, ba),
                    MakeRecovery(method, ba));
  log.Attach(&manager);

  const std::vector<Invocation> script = {
      ba->DepositInv(10), ba->WithdrawInv(3), ba->DepositInv(1),
      ba->WithdrawInv(2)};
  ScriptedRun run;
  run.boundaries.push_back(log.sink.image().size());
  for (const Invocation& inv : script) {
    CCR_CHECK(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, inv).status();
                  })
                  .ok());
    run.boundaries.push_back(log.sink.image().size());
  }
  run.image = log.sink.image();
  run.balances = {0, 10, 7, 8, 6};
  return run;
}

// Builds a fresh single-account system and restarts it from `image`.
// Returns the recovered balance (asserts recovery succeeded).
int64_t RestartBalance(Method method, std::string_view image,
                       RecoveryReport* report) {
  auto ba = MakeBankAccount();
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(method, ba),
                                        MakeRecovery(method, ba));
  StatusOr<RestartSummary> summary = manager.RestartFromImage(image);
  CCR_CHECK_MSG(summary.ok(), "restart failed: %s",
                summary.status().ToString().c_str());
  *report = summary->scan;
  return BalanceOf(*obj->CommittedState());
}

TEST_P(CrashRecoveryTest, CrashAtEveryRecordBoundary) {
  const ScriptedRun run = RunScript(GetParam());
  ASSERT_EQ(run.boundaries.size(), 5u);
  for (size_t n = 0; n + 1 <= run.balances.size(); ++n) {
    RecoveryReport report;
    const std::string_view image =
        std::string_view(run.image).substr(0, run.boundaries[n]);
    EXPECT_EQ(RestartBalance(GetParam(), image, &report), run.balances[n])
        << "crash after " << n << " records";
    EXPECT_EQ(report.records_replayed, n);
    EXPECT_EQ(report.bytes_truncated, 0u);
    EXPECT_FALSE(report.corrupt_tail);
  }
}

TEST_P(CrashRecoveryTest, TornMidRecordWriteTruncatesToLastBoundary) {
  const ScriptedRun run = RunScript(GetParam());
  for (size_t n = 0; n + 1 < run.boundaries.size(); ++n) {
    // Cut strictly inside record n: its frame is torn, records 0..n-1 stand.
    for (uint64_t cut = run.boundaries[n] + 1; cut < run.boundaries[n + 1];
         cut += 7) {
      RecoveryReport report;
      const std::string_view image =
          std::string_view(run.image).substr(0, cut);
      EXPECT_EQ(RestartBalance(GetParam(), image, &report), run.balances[n])
          << "torn record " << n << " at byte " << cut;
      EXPECT_EQ(report.records_replayed, n);
      EXPECT_EQ(report.bytes_truncated, cut - run.boundaries[n]);
      EXPECT_TRUE(report.corrupt_tail);
    }
  }
}

TEST_P(CrashRecoveryTest, ChecksumCorruptionSweep) {
  const ScriptedRun run = RunScript(GetParam());
  const size_t records = run.boundaries.size() - 1;

  // Tail record corrupted: recovery succeeds, truncating the tail.
  for (uint64_t off = run.boundaries[records - 1];
       off < run.boundaries[records]; off += 3) {
    std::string corrupted = run.image;
    FlipByte(&corrupted, off, 0x40);
    RecoveryReport report;
    EXPECT_EQ(RestartBalance(GetParam(), corrupted, &report),
              run.balances[records - 1])
        << "tail flip at " << off;
    EXPECT_TRUE(report.corrupt_tail);
  }

  // Mid-journal record corrupted: a durable prefix was damaged — recovery
  // must refuse loudly, not silently drop committed transactions.
  for (uint64_t off = 0; off < run.boundaries[records - 1]; off += 3) {
    std::string corrupted = run.image;
    FlipByte(&corrupted, off, 0x40);
    auto ba = MakeBankAccount();
    TxnManager manager;
    manager.AddObject("BA", ba, MakeConflict(GetParam(), ba),
                      MakeRecovery(GetParam(), ba));
    const Status s = manager.RestartFromImage(corrupted).status();
    ASSERT_FALSE(s.ok()) << "mid-journal flip at " << off;
    EXPECT_EQ(s.code(), StatusCode::kInternal);
  }
}

// Regression for the unconditional-append bug: committing a transaction
// that queried the object (Candidates) but never applied an operation must
// not journal an empty commit record.
TEST(EmptyRecordRegressionTest, UipReadFreeCommitJournalsNothing) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  UipRecovery recovery(ba);
  recovery.set_journal(&log.journal);
  recovery.Candidates(1, ba->BalanceInv());
  recovery.Commit(1);
  EXPECT_TRUE(log.sink.image().empty());

  // A transaction that does apply an operation still journals one record.
  auto outcomes = recovery.Candidates(2, ba->DepositInv(5));
  ASSERT_EQ(outcomes.size(), 1u);
  recovery.Apply(2, Operation(ba->DepositInv(5), outcomes[0].result),
                 std::move(outcomes[0].next));
  recovery.Commit(2);
  const std::vector<Journal::CommitRecord> records = log.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ops.empty());
}

TEST(EmptyRecordRegressionTest, DuCandidatesOnlyCommitJournalsNothing) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  DuRecovery recovery(ba);
  recovery.set_journal(&log.journal);
  // Candidates alone materializes a DU workspace with no intentions.
  recovery.Candidates(1, ba->BalanceInv());
  recovery.Commit(1);
  EXPECT_TRUE(log.sink.image().empty());

  auto outcomes = recovery.Candidates(2, ba->DepositInv(5));
  ASSERT_EQ(outcomes.size(), 1u);
  recovery.Apply(2, Operation(ba->DepositInv(5), outcomes[0].result),
                 std::move(outcomes[0].next));
  recovery.Commit(2);
  EXPECT_EQ(log.Records().size(), 1u);
}

TEST_P(CrashRecoveryTest, MultiObjectScriptedRestart) {
  const Method method = GetParam();
  auto make_system = [method](TxnManager* manager) {
    auto ba = MakeBankAccount();
    auto set = MakeIntSet();
    manager->AddObject("BA", ba, MakeConflict(method, ba),
                       MakeRecovery(method, ba));
    manager->AddObject("SET", set, MakeConflict(method, set),
                       MakeRecovery(method, set));
  };

  TxnManager manager;
  make_system(&manager);
  MemoryLog log;
  log.Attach(&manager);

  // Invocations name objects by id, so fresh ADT handles target the
  // registered objects.
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  // Two transactions, each touching both objects.
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) -> Status {
                    auto r1 = manager.Execute(txn, ba->DepositInv(20));
                    if (!r1.ok()) return r1.status();
                    return manager.Execute(txn, set->InsertInv(3)).status();
                  })
                  .ok());
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) -> Status {
                    auto r1 = manager.Execute(txn, ba->WithdrawInv(8));
                    if (!r1.ok()) return r1.status();
                    return manager.Execute(txn, set->InsertInv(5)).status();
                  })
                  .ok());

  TxnManager restarted;
  make_system(&restarted);
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromImage(log.sink.image());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->scan.records_replayed, log.Entries().size());
  for (AtomicObject* obj : restarted.objects()) {
    EXPECT_TRUE(obj->CommittedState()->Equals(
        *manager.object(obj->id())->CommittedState()))
        << "object " << obj->id();
  }
}

// Replay must not re-journal the records it replays, and post-restart
// transactions must not reuse replayed ids (a reused id would journal a
// second commit record under an id that already has one).
TEST_P(CrashRecoveryTest, RestartDoesNotReJournalAndIdsAdvance) {
  const ScriptedRun run = RunScript(GetParam());  // journals txn ids 1..4
  auto ba = MakeBankAccount();
  TxnManager manager;
  manager.AddObject("BA", ba, MakeConflict(GetParam(), ba),
                    MakeRecovery(GetParam(), ba));
  MemoryLog log;
  log.Attach(&manager);
  ASSERT_TRUE(manager.RestartFromImage(run.image).ok());
  EXPECT_TRUE(log.sink.image().empty());
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(1)).status();
                  })
                  .ok());
  const std::vector<Journal::CommitRecord> records = log.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].txn, TxnId{4});
}

// Restart refuses to run while transactions are live — recovery is for a
// freshly built engine, not a running one.
TEST_P(CrashRecoveryTest, RestartRefusesLiveTransactions) {
  auto ba = MakeBankAccount();
  TxnManager manager;
  manager.AddObject("BA", ba, MakeConflict(GetParam(), ba),
                    MakeRecovery(GetParam(), ba));
  auto live = manager.Begin();
  EXPECT_EQ(manager.RestartFromImage("").status().code(),
            StatusCode::kIllegalState);
  ASSERT_TRUE(manager.Abort(live.get()).ok());
  EXPECT_TRUE(manager.RestartFromImage("").ok());
}

// The randomized property: for BOTH methods, a live multithreaded run
// whose machine dies mid-record, mid-run recovers exactly the prefix that
// reached the disk — record order a prefix of commit order, every object's
// recovered state equal to an independent spec-level replay of that
// prefix, no acknowledged commit lost.
TEST_P(CrashRecoveryTest, RandomizedCrashRestartProperty) {
  const Method method = GetParam();
  const SystemFactory factory = [method](TxnManager* manager) {
    auto ba = MakeBankAccount();
    auto set = MakeIntSet();
    manager->AddObject("BA", ba, MakeConflict(method, ba),
                       MakeRecovery(method, ba));
    manager->AddObject("SET", set, MakeConflict(method, set),
                       MakeRecovery(method, set));
  };

  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  const TxnBody body = [ba, set](TxnManager* manager, Transaction* txn,
                                 Random* rng) -> Status {
    const int ops = 1 + static_cast<int>(rng->UniformRange(1, 3));
    for (int i = 0; i < ops; ++i) {
      const StatusOr<Value> r = [&]() -> StatusOr<Value> {
        switch (rng->UniformRange(0, 3)) {
          case 0:
            return manager->Execute(txn,
                                    ba->DepositInv(rng->UniformRange(1, 9)));
          case 1:
            return manager->Execute(txn,
                                    ba->WithdrawInv(rng->UniformRange(1, 4)));
          case 2:
            return manager->Execute(txn,
                                    set->InsertInv(rng->UniformRange(1, 8)));
          default:
            return manager->Execute(txn,
                                    set->RemoveInv(rng->UniformRange(1, 8)));
        }
      }();
      if (!r.ok()) return r.status();
    }
    if (rng->Bernoulli(0.15)) return Status::Aborted("injected");
    return Status::OK();
  };

  for (uint64_t seed : {11u, 23u}) {
    for (double fraction : {0.0, 0.33, 0.71, 1.0}) {
      CrashScenarioOptions options;
      options.driver.threads = 3;
      options.driver.txns_per_thread = 25;
      options.driver.seed = seed;
      options.group_commit.mode = DurabilityMode::kSync;
      options.fault = CrashFault::AtFraction(fraction);
      const CrashScenarioResult result =
          RunCrashScenario(factory, body, options);
      EXPECT_TRUE(result.ok())
          << "seed " << seed << " fraction " << fraction << ": status "
          << result.status.ToString() << ", prefix_ok " << result.prefix_ok
          << ", state_ok " << result.state_ok << ", acked_lost "
          << result.acked_lost << ", " << result.summary.scan.ToString();
      EXPECT_LE(result.summary.high_lsn, result.records_total);
      if (fraction > 0.0) {
        // The atomicity audit covers Execute-built transactions too. (At
        // fraction 0 the machine dies at the run's first record.)
        EXPECT_GT(result.multi_object_txns, 0u);
      }
      if (fraction == 1.0) {
        EXPECT_EQ(result.summary.high_lsn, result.records_total);
        EXPECT_FALSE(result.summary.scan.corrupt_tail);
      } else {
        EXPECT_TRUE(result.fault_fired) << "fraction " << fraction;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, CrashRecoveryTest,
                         ::testing::Values(Method::kUip, Method::kDu),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return info.param == Method::kUip ? "Uip" : "Du";
                         });

}  // namespace
}  // namespace ccr
