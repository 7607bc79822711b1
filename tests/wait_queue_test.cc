// Copyright 2026 The ccr Authors.
//
// Tests for the event-driven wait-queue engine and the fixes that ride with
// it: targeted wakeups on commit/abort, direct victim wakeup from Kill (no
// polling slice), the commit/kill CAS arbitration, retry accounting, the
// contention counters, and well-formedness of failure-path histories.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "core/atomicity.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::shared_ptr<Counter> AddCounter(TxnManager* manager,
                                    const std::string& name = "CTR") {
  auto ctr = MakeCounter(name);
  // Read/write conflicts: every pair of counter updates conflicts, which is
  // what the blocking tests need.
  manager->AddObject(name, ctr, MakeReadWriteConflict(ctr),
                     std::make_unique<UipRecovery>(ctr));
  return ctr;
}

int64_t CommittedValue(TxnManager* manager, const std::string& name) {
  return TypedSpecAutomaton<Int64State>::Unwrap(
             *manager->object(name)->CommittedState())
      .v;
}

// Spins (bounded) until the object reports at least `n` sleepers.
void AwaitWaiters(TxnManager* manager, const std::string& name, uint64_t n) {
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (manager->object(name)->stats().waits < n) {
    ASSERT_LT(steady_clock::now(), deadline) << "waiters never blocked";
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST(WaitQueueTest, CommitWakesBlockedWaiter) {
  TxnManagerOptions options;
  options.lock_timeout = milliseconds(10000);
  TxnManager manager(options);
  auto ctr = AddCounter(&manager);

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ctr->IncInv(1)).ok());

  std::thread waiter([&] {
    Status s = manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, ctr->IncInv(2)).status();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  AwaitWaiters(&manager, "CTR", 1);
  ASSERT_TRUE(manager.Commit(holder.get()).ok());
  waiter.join();

  EXPECT_EQ(CommittedValue(&manager, "CTR"), 3);
  const ObjectStats stats = manager.object("CTR")->stats();
  EXPECT_GE(stats.waits, 1u);
  EXPECT_GE(stats.wakeups, 1u);
  EXPECT_GE(stats.conflicts, 1u);
  EXPECT_GE(stats.max_queue_depth, 1u);
  EXPECT_EQ(stats.wait_time_us.count(), stats.waits);
}

TEST(WaitQueueTest, AbortWakesBlockedWaiter) {
  TxnManagerOptions options;
  options.lock_timeout = milliseconds(10000);
  TxnManager manager(options);
  auto ctr = AddCounter(&manager);

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ctr->IncInv(5)).ok());

  std::thread waiter([&] {
    Status s = manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, ctr->IncInv(2)).status();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  AwaitWaiters(&manager, "CTR", 1);
  ASSERT_TRUE(manager.Abort(holder.get()).ok());
  waiter.join();

  EXPECT_EQ(CommittedValue(&manager, "CTR"), 2);
  EXPECT_GE(manager.object("CTR")->stats().wakeups, 1u);
}

// A kill must wake its blocked victim directly — long before the lock
// timeout, with no polling slice to carry the flag.
TEST(WaitQueueTest, KillWakesBlockedVictimImmediately) {
  TxnManagerOptions options;
  options.policy = DeadlockPolicy::kTimeout;  // no detector involved
  options.lock_timeout = milliseconds(10000);
  TxnManager manager(options);
  auto ctr = AddCounter(&manager);

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ctr->IncInv(1)).ok());

  std::atomic<bool> blocked_status_is_deadlock{false};
  std::atomic<int64_t> blocked_ms{-1};
  auto victim = manager.Begin();
  std::thread waiter([&] {
    const auto t0 = steady_clock::now();
    StatusOr<Value> r = manager.Execute(victim.get(), ctr->IncInv(2));
    blocked_ms.store(std::chrono::duration_cast<milliseconds>(
                         steady_clock::now() - t0)
                         .count());
    blocked_status_is_deadlock.store(r.status().code() ==
                                     StatusCode::kDeadlock);
    EXPECT_TRUE(manager.Abort(victim.get()).ok());
  });
  AwaitWaiters(&manager, "CTR", 1);
  manager.Kill(victim->id());
  waiter.join();

  EXPECT_TRUE(blocked_status_is_deadlock.load());
  // Far below the 10 s lock timeout: the wakeup was event-driven. Generous
  // bound so a loaded CI machine cannot flake it.
  EXPECT_LT(blocked_ms.load(), 2000);
  EXPECT_EQ(manager.object("CTR")->stats().kill_wakeups, 1u);
  ASSERT_TRUE(manager.Commit(holder.get()).ok());
}

// Several waiters on one holder: each release wakes somebody, the queue
// drains, and the depth high-water mark reflects the pile-up.
TEST(WaitQueueTest, QueueDrainsManyWaiters) {
  constexpr int kWaiters = 4;
  TxnManagerOptions options;
  options.lock_timeout = milliseconds(10000);
  TxnManager manager(options);
  auto ctr = AddCounter(&manager);

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ctr->IncInv(1)).ok());

  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      Status s = manager.RunTransaction([&](Transaction* txn) {
        return manager.Execute(txn, ctr->IncInv(10)).status();
      });
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
  }
  AwaitWaiters(&manager, "CTR", kWaiters);
  ASSERT_TRUE(manager.Commit(holder.get()).ok());
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(CommittedValue(&manager, "CTR"), 1 + 10 * kWaiters);
  const ObjectStats stats = manager.object("CTR")->stats();
  EXPECT_EQ(stats.max_queue_depth, static_cast<uint64_t>(kWaiters));
  EXPECT_GE(stats.wakeups, static_cast<uint64_t>(kWaiters));
}

// --- commit/kill arbitration -------------------------------------------

TEST(CommitKillRaceTest, ArbitrationIsExclusive) {
  Transaction a(1);
  EXPECT_TRUE(a.TryKill());
  EXPECT_TRUE(a.killed());
  EXPECT_FALSE(a.TryLatchCommit());  // kill won
  EXPECT_FALSE(a.TryKill());        // and only once

  Transaction b(2);
  EXPECT_TRUE(b.TryLatchCommit());
  EXPECT_FALSE(b.TryKill());  // commit latched first: kill is a no-op
  EXPECT_FALSE(b.killed());
}

// Regression for the commit/kill race: Kill landing after Commit's old
// killed() check used to commit a transaction the deadlock detector had
// promised other waiters would abort. Under the CAS exactly one side wins,
// so the committed value equals the number of successful commits.
TEST(CommitKillRaceTest, ConcurrentCommitAndKillAgree) {
  constexpr int kRounds = 300;
  TxnManagerOptions options;
  options.record_history = false;
  TxnManager manager(options);
  auto ctr = AddCounter(&manager);

  int64_t commits_won = 0;
  uint64_t kills_won = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto txn = manager.Begin();
    ASSERT_TRUE(manager.Execute(txn.get(), ctr->IncInv(1)).ok());
    const uint64_t kills_before = manager.stats().kills;

    Status commit_status;
    std::thread committer(
        [&] { commit_status = manager.Commit(txn.get()); });
    std::thread killer([&] { manager.Kill(txn->id()); });
    committer.join();
    killer.join();

    const bool killed_counted = manager.stats().kills > kills_before;
    if (commit_status.ok()) {
      ++commits_won;
      EXPECT_EQ(txn->state(), TxnState::kCommitted);
      // A counted kill and a successful commit would be the old race.
      EXPECT_FALSE(killed_counted);
    } else {
      EXPECT_EQ(commit_status.code(), StatusCode::kDeadlock);
      EXPECT_EQ(txn->state(), TxnState::kAborted);
      EXPECT_TRUE(killed_counted);
      ++kills_won;
    }
  }
  EXPECT_EQ(CommittedValue(&manager, "CTR"), commits_won);
  EXPECT_EQ(manager.stats().kills, kills_won);
}

// --- retry accounting ---------------------------------------------------

TEST(RetryAccountingTest, RetriesIsAttemptsMinusOne) {
  TxnManagerOptions options;
  options.max_retries = 2;
  TxnManager manager(options);

  int attempts = 0;
  const auto t0 = steady_clock::now();
  Status s = manager.RunTransaction([&](Transaction*) -> Status {
    ++attempts;
    return Status::Conflict("synthetic retryable failure");
  });
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(attempts, 3);  // initial + 2 retries
  // The final failed attempt is not a retry — it used to be over-counted.
  EXPECT_EQ(manager.stats().retries,
            static_cast<uint64_t>(attempts - 1));
  // And it no longer sleeps a pointless backoff before giving up: only the
  // two real retries back off (bounded by 32us + 64us draws).
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(elapsed).count(), 100);
}

TEST(RetryAccountingTest, ZeroRetriesBudget) {
  TxnManagerOptions options;
  options.max_retries = 0;
  TxnManager manager(options);
  int attempts = 0;
  Status s = manager.RunTransaction([&](Transaction*) -> Status {
    ++attempts;
    return Status::TimedOut("synthetic");
  });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(manager.stats().retries, 0u);
}

// --- failure-path histories --------------------------------------------

// A timeout leaves an invocation with no response in the history; once the
// victim aborts, the snapshot must stay well-formed and acceptable to the
// offline dynamic-atomicity checker.
TEST(FailureHistoryTest, TimeoutPathHistoryStaysWellFormed) {
  TxnManagerOptions options;
  options.policy = DeadlockPolicy::kTimeout;
  options.lock_timeout = milliseconds(50);
  TxnManager manager(options);
  auto ba = MakeBankAccount();
  manager.AddObject("BA", ba, MakeReadWriteConflict(ba),
                    std::make_unique<UipRecovery>(ba));

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ba->DepositInv(10)).ok());

  auto loser = manager.Begin();
  StatusOr<Value> r = manager.Execute(loser.get(), ba->DepositInv(1));
  ASSERT_EQ(r.status().code(), StatusCode::kTimedOut) << r.status().ToString();
  ASSERT_TRUE(manager.Abort(loser.get()).ok());
  ASSERT_TRUE(manager.Commit(holder.get()).ok());

  const History h = manager.SnapshotHistory();
  // Re-validating the full event sequence checks well-formedness end to
  // end: the loser's invocation is pending at its abort, never responded.
  StatusOr<History> revalidated = History::FromEvents(h.events());
  ASSERT_TRUE(revalidated.ok()) << revalidated.status().ToString();
  EXPECT_EQ(h.Aborted(), (std::set<TxnId>{loser->id()}));
  EXPECT_FALSE(h.PendingInvocation(loser->id()).has_value());

  SpecMap specs{{"BA", std::shared_ptr<const SpecAutomaton>(ba, &ba->spec())}};
  DynamicAtomicityResult result = CheckDynamicAtomic(h, specs);
  EXPECT_TRUE(result.dynamic_atomic);
}

// Same for the deadlock-victim path (killed while blocked).
TEST(FailureHistoryTest, KilledWaiterHistoryStaysWellFormed) {
  TxnManagerOptions options;
  options.policy = DeadlockPolicy::kTimeout;
  options.lock_timeout = milliseconds(10000);
  TxnManager manager(options);
  auto ba = MakeBankAccount();
  manager.AddObject("BA", ba, MakeReadWriteConflict(ba),
                    std::make_unique<UipRecovery>(ba));

  auto holder = manager.Begin();
  ASSERT_TRUE(manager.Execute(holder.get(), ba->DepositInv(10)).ok());

  auto victim = manager.Begin();
  std::thread waiter([&] {
    StatusOr<Value> r = manager.Execute(victim.get(), ba->WithdrawInv(1));
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlock)
        << r.status().ToString();
    EXPECT_TRUE(manager.Abort(victim.get()).ok());
  });
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (manager.object("BA")->stats().waits < 1) {
    ASSERT_LT(steady_clock::now(), deadline);
    std::this_thread::sleep_for(milliseconds(1));
  }
  manager.Kill(victim->id());
  waiter.join();
  ASSERT_TRUE(manager.Commit(holder.get()).ok());

  const History h = manager.SnapshotHistory();
  StatusOr<History> revalidated = History::FromEvents(h.events());
  ASSERT_TRUE(revalidated.ok()) << revalidated.status().ToString();

  SpecMap specs{{"BA", std::shared_ptr<const SpecAutomaton>(ba, &ba->spec())}};
  DynamicAtomicityResult result = CheckDynamicAtomic(h, specs);
  EXPECT_TRUE(result.dynamic_atomic);
}

// --- detector re-registration early-out --------------------------------

TEST(WaitQueueTest, DetectorSkipsUnchangedReRegistration) {
  DeadlockDetector d;
  EXPECT_EQ(d.AddWait(1, {2}), kInvalidTxn);
  EXPECT_EQ(d.redundant_registrations(), 0u);
  EXPECT_EQ(d.AddWait(1, {2}), kInvalidTxn);  // unchanged: skipped
  EXPECT_EQ(d.redundant_registrations(), 1u);
  EXPECT_EQ(d.AddWait(1, {2, 3}), kInvalidTxn);  // changed: searched
  EXPECT_EQ(d.redundant_registrations(), 1u);
  // The cycle is still caught at the closing insertion.
  EXPECT_EQ(d.AddWait(2, {1}), 2u);
}

}  // namespace
}  // namespace ccr
