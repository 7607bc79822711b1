// Copyright 2026 The ccr Authors.
//
// Tests for the sharded, validation-deferred history recorder: ticket-order
// determinism (snapshots are event-for-event the real-time order of a
// deterministic schedule), snapshot well-formedness under concurrent
// recording with mid-run snapshots, the snapshot prefix property, and
// per-object consistency between recorded responses and engine counters.

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "core/atomicity.h"
#include "txn/history_recorder.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

using std::chrono::milliseconds;

TxnManagerOptions Options() {
  TxnManagerOptions options;
  options.lock_timeout = milliseconds(10000);
  return options;
}

// Runs the same deterministic single-threaded multi-object schedule
// (executes, a commit, an abort) through `manager`.
void RunDeterministicSchedule(TxnManager* manager,
                              const std::shared_ptr<BankAccount>& ba,
                              const std::shared_ptr<Counter>& ctr) {
  auto a = manager->Begin();
  auto b = manager->Begin();
  ASSERT_TRUE(manager->Execute(a.get(), ba->DepositInv(10)).ok());
  ASSERT_TRUE(manager->Execute(b.get(), ctr->IncInv(3)).ok());
  ASSERT_TRUE(manager->Execute(a.get(), ctr->IncInv(1)).ok());
  ASSERT_TRUE(manager->Execute(b.get(), ba->DepositInv(7)).ok());
  ASSERT_TRUE(manager->Commit(a.get()).ok());
  ASSERT_TRUE(manager->Abort(b.get()).ok());
}

// On a deterministic schedule the snapshot must be event-for-event the
// schedule's real-time order, as the eager validating recorder records
// it (the expected sequence is that recorder's output): the ticket merge
// reproduces append order exactly.
TEST(RecorderTest, ShardedMatchesEagerOnDeterministicSchedule) {
  TxnManager manager(Options());
  auto ba = MakeBankAccount();
  auto ctr = MakeCounter("CTR");
  manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                    std::make_unique<UipRecovery>(ba));
  manager.AddObject("CTR", ctr, MakeNrbcConflict(ctr),
                    std::make_unique<UipRecovery>(ctr));
  RunDeterministicSchedule(&manager, ba, ctr);
  const History h = manager.SnapshotHistory();

  // a = T1 and b = T2; T1 commits at BA then CTR (ascending id order), T2
  // aborts at each object it touched, in the order it touched them.
  const std::vector<Event> expected = {
      Event::Invoke(1, ba->DepositInv(10)),
      Event::Response(1, "BA", Value("ok")),
      Event::Invoke(2, ctr->IncInv(3)),
      Event::Response(2, "CTR", Value("ok")),
      Event::Invoke(1, ctr->IncInv(1)),
      Event::Response(1, "CTR", Value("ok")),
      Event::Invoke(2, ba->DepositInv(7)),
      Event::Response(2, "BA", Value("ok")),
      Event::Commit(1, "BA"),
      Event::Commit(1, "CTR"),
      Event::Abort(2, "CTR"),
      Event::Abort(2, "BA"),
  };
  ASSERT_EQ(h.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(h.at(i) == expected[i])
        << "event " << i << ": " << h.at(i).ToString() << " vs "
        << expected[i].ToString();
  }
}

// Appends through registered per-object shards and through the recorder's
// default shard interleave into one ticket order: a single-threaded mix
// must merge back in exact program order.
TEST(RecorderTest, RegisteredAndDefaultShardsMergeInProgramOrder) {
  HistoryRecorder recorder;
  HistoryRecorder::Shard* x = recorder.RegisterShard();
  HistoryRecorder::Shard* y = recorder.RegisterShard();

  std::vector<Event> expected;
  auto record = [&](HistoryRecorder::Shard* shard, const Event& e) {
    expected.push_back(e);
    if (shard != nullptr) {
      shard->Record(e);
    } else {
      recorder.Record(e);
    }
  };
  const Invocation inv_x("X", 0, "op", {});
  const Invocation inv_y("Y", 0, "op", {});
  record(x, Event::Invoke(1, inv_x));
  record(y, Event::Invoke(2, inv_y));
  record(x, Event::Response(1, "X", Value("ok")));
  record(nullptr, Event::Invoke(3, inv_y));
  record(y, Event::Response(2, "Y", Value("ok")));
  record(nullptr, Event::Response(3, "Y", Value("ok")));
  record(x, Event::Commit(1, "X"));
  record(y, Event::Abort(2, "Y"));
  record(nullptr, Event::Commit(3, "Y"));

  const History h = recorder.Snapshot();
  ASSERT_EQ(h.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(h.at(i) == expected[i]) << "event " << i;
  }
  // Registry: two explicit shards plus the default one.
  EXPECT_EQ(recorder.stats().shards, 3u);
}

// N worker threads over M objects with concurrent mid-run snapshots. Every
// snapshot must be well-formed (Snapshot itself validates and aborts on an
// ill-formed merge; we re-validate from the raw events on top), each later
// snapshot must extend the earlier one (tickets are a total order over a
// consistent cut), and the final history's per-object response counts must
// equal the objects' execute counters.
TEST(RecorderTest, ConcurrentRecordingSnapshotsWellFormed) {
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 30;
  constexpr int kObjects = 4;

  TxnManager manager(Options());
  std::vector<std::shared_ptr<Counter>> objs;
  for (int i = 0; i < kObjects; ++i) {
    auto ctr = MakeCounter("C" + std::to_string(i));
    // NRBC: increments commute, so workers interleave freely and the
    // recorder sees genuinely concurrent appends.
    manager.AddObject(ctr->object_name(), ctr, MakeNrbcConflict(ctr),
                      std::make_unique<UipRecovery>(ctr));
    objs.push_back(std::move(ctr));
  }

  std::atomic<bool> done{false};
  std::vector<History> snapshots;
  std::thread snapshotter([&] {
    while (!done.load()) {
      snapshots.push_back(manager.SnapshotHistory());
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Status s = manager.RunTransaction([&](Transaction* txn) {
          Counter* first = objs[(w + i) % kObjects].get();
          Counter* second = objs[(w + i + 1) % kObjects].get();
          StatusOr<Value> r = manager.Execute(txn, first->IncInv(1));
          if (!r.ok()) return r.status();
          r = manager.Execute(txn, second->IncInv(1));
          return r.status();
        });
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done.store(true);
  snapshotter.join();
  snapshots.push_back(manager.SnapshotHistory());

  // Every snapshot independently re-validates as well-formed.
  for (const History& h : snapshots) {
    StatusOr<History> revalidated = History::FromEvents(h.events());
    ASSERT_TRUE(revalidated.ok()) << revalidated.status().ToString();
  }
  // Prefix property: each snapshot extends the previous one.
  for (size_t i = 1; i < snapshots.size(); ++i) {
    const History& earlier = snapshots[i - 1];
    const History& later = snapshots[i];
    ASSERT_LE(earlier.size(), later.size());
    for (size_t k = 0; k < earlier.size(); ++k) {
      ASSERT_TRUE(earlier.at(k) == later.at(k))
          << "snapshot " << i << " diverges at event " << k;
    }
  }

  // Per-object response counts equal the engine's execute counters.
  const History& final_history = snapshots.back();
  std::map<ObjectId, uint64_t> responses;
  for (const Event& e : final_history.events()) {
    if (e.is_response()) ++responses[e.object()];
  }
  for (const auto& obj : objs) {
    EXPECT_EQ(responses[obj->object_name()],
              manager.object(obj->object_name())->stats().executes)
        << obj->object_name();
  }
  EXPECT_EQ(final_history.size(), manager.recorder_stats().events);
  EXPECT_GE(manager.recorder_stats().snapshots, snapshots.size());

  // And the recorded concurrent history audits dynamic atomic.
  SpecMap specs;
  for (const auto& obj : objs) {
    specs.emplace(obj->object_name(), std::shared_ptr<const SpecAutomaton>(
                                          obj, &obj->spec()));
  }
  EXPECT_TRUE(CheckDynamicAtomic(final_history.Permanent(), specs)
                  .dynamic_atomic);
}

// The sharded merge also carries failure paths (kills, timeouts, aborts
// with pending invocations) without tripping the merge-time validation.
TEST(RecorderTest, ShardedSnapshotSurvivesFailurePaths) {
  TxnManagerOptions options = Options();
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
  ASSERT_EQ(r.status().code(), StatusCode::kTimedOut);
  ASSERT_TRUE(manager.Abort(loser.get()).ok());
  ASSERT_TRUE(manager.Commit(holder.get()).ok());

  const History h = manager.SnapshotHistory();
  StatusOr<History> revalidated = History::FromEvents(h.events());
  ASSERT_TRUE(revalidated.ok()) << revalidated.status().ToString();
  EXPECT_EQ(h.Aborted(), (std::set<TxnId>{loser->id()}));
}

TEST(RecorderTest, StatsAndModeAccessors) {
  const Invocation inv("X", 0, "op", {});
  HistoryRecorder recorder;
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.stats().shards, 1u);  // the default shard
  recorder.Record(Event::Invoke(1, inv));
  recorder.Record(Event::Response(1, "X", Value("ok")));
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.stats().events, 2u);
  EXPECT_EQ(recorder.stats().snapshots, 0u);
  EXPECT_EQ(recorder.Snapshot().size(), 2u);
  EXPECT_EQ(recorder.stats().snapshots, 1u);
}

}  // namespace
}  // namespace ccr
