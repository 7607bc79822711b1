// Copyright 2026 The ccr Authors.
//
// Group-commit pipeline tests: the durable watermark vs the ack point in
// every DurabilityMode, early lock release (a conflicting transaction
// proceeds while the committed batch's fdatasync is still in flight),
// batching observability, crash sweeps across mode x recovery method with
// the ack-durability audit, and corruption handling of batched images.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "adt/int_set.h"
#include "common/random.h"
#include "common/string_util.h"
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

// A sink whose Sync blocks until the gate opens — freezes the flusher (or,
// in kSync mode, the committer) at the durability point so tests can
// observe what the rest of the engine can do mid-sync.
class GatedSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }

  Status Sync() override {
    std::unique_lock<std::mutex> lk(mu_);
    ++syncs_started_;
    started_cv_.notify_all();
    gate_cv_.wait(lk, [&] { return open_; });
    return Status::OK();
  }

  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

  void WaitForSyncStart() {
    std::unique_lock<std::mutex> lk(mu_);
    started_cv_.wait(lk, [&] { return syncs_started_ > 0; });
  }

  const std::string& image() const { return image_; }

 private:
  std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable started_cv_;
  bool open_ = false;
  int syncs_started_ = 0;
  std::string image_;
};

// A memory journal disk that counts appends and syncs and can fail one of
// them with an errno — EIO or ENOSPC from the device. The failing call
// can be held at a gate, so committers pile up behind a failure that has
// not returned yet.
class FailingSink : public ByteSink {
 public:
  static constexpr size_t kNever = static_cast<size_t>(-1);

  // Fails the `n`-th (0-based) append or sync with `error`; `hold` parks
  // the failing call until Release().
  void FailAppend(size_t n, int error, bool hold) {
    Arm(&fail_append_, n, error, hold);
  }
  void FailSync(size_t n, int error, bool hold) {
    Arm(&fail_sync_, n, error, hold);
  }

  Status Append(std::string_view bytes) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (failed_) ++calls_after_failure_;
    if (appends_++ == fail_append_) return Fail(lk, "append");
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }

  Status Sync() override {
    std::unique_lock<std::mutex> lk(mu_);
    if (failed_) ++calls_after_failure_;
    if (syncs_++ == fail_sync_) return Fail(lk, "sync");
    return Status::OK();
  }

  // Blocks until the failing call has been entered (and is held).
  void WaitForFailure() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return failed_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    hold_ = false;
    cv_.notify_all();
  }

  size_t appends() const {
    std::lock_guard<std::mutex> lk(mu_);
    return appends_;
  }
  size_t syncs() const {
    std::lock_guard<std::mutex> lk(mu_);
    return syncs_;
  }
  size_t calls_after_failure() const {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_after_failure_;
  }
  std::string image() const {
    std::lock_guard<std::mutex> lk(mu_);
    return image_;
  }

 private:
  void Arm(size_t* at, size_t n, int error, bool hold) {
    std::lock_guard<std::mutex> lk(mu_);
    *at = n;
    error_ = error;
    hold_ = hold;
  }

  Status Fail(std::unique_lock<std::mutex>& lk, const char* what) {
    failed_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !hold_; });
    return Status::Internal(std::string(what) + ": " + std::strerror(error_));
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t fail_append_ = kNever;
  size_t fail_sync_ = kNever;
  int error_ = 0;
  bool hold_ = false;
  bool failed_ = false;
  size_t appends_ = 0;
  size_t syncs_ = 0;
  size_t calls_after_failure_ = 0;
  std::string image_;
};

// One bank account journaled through a pipeline in `mode` into a `Sink`
// the system owns (BasicMemoryLog), with the manager acking against the
// pipeline's watermark.
template <typename Sink>
struct PipelinedSystem {
  explicit PipelinedSystem(GroupCommitOptions gc,
                           Method method = Method::kUip)
      : ba(MakeBankAccount()), log(gc) {
    manager.AddObject("BA", ba, MakeConflict(method, ba),
                      MakeRecovery(method, ba));
    log.Attach(&manager);
  }

  std::shared_ptr<BankAccount> ba;
  BasicMemoryLog<Sink> log;
  GroupCommitPipeline& pipeline = log.pipeline;
  Journal& journal = log.journal;
  TxnManager manager;
};

template <typename Sink>
Status Deposit(PipelinedSystem<Sink>* sys, Transaction* txn,
               int64_t amount) {
  return sys->manager.Execute(txn, sys->ba->DepositInv(amount)).status();
}

// In kGroup mode, Commit must not return before the transaction's highest
// LSN is durable: after every Commit, the watermark covers the whole
// journal (single-threaded, so this transaction's record is the tail).
TEST(GroupCommitTest, CommitAcksOnlyDurableRecords) {
  PipelinedSystem<MemorySink> sys(GroupCommitOptions{DurabilityMode::kGroup});
  for (int i = 0; i < 20; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 5).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
    EXPECT_GE(sys.pipeline.durable_lsn(), sys.journal.high_lsn())
        << "commit " << i << " acknowledged before its record was durable";
  }
  const GroupCommitStats stats = sys.pipeline.stats();
  EXPECT_EQ(stats.records_sequenced, 20u);
  EXPECT_EQ(stats.records_flushed, 20u);
  EXPECT_EQ(stats.ack_latency_us.count(), 20u);
}

// kSync is the per-record baseline: every record is its own batch and its
// own sync, durable before Sequence even returns.
TEST(GroupCommitTest, SyncModeSyncsPerRecord) {
  PipelinedSystem<FailingSink> sys(GroupCommitOptions{DurabilityMode::kSync});
  // Never fails: counts the syncs the sink really saw.
  FailingSink& sink = sys.log.sink;
  for (int i = 0; i < 8; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 1).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  }
  const GroupCommitStats stats = sys.pipeline.stats();
  EXPECT_EQ(stats.records_flushed, 8u);
  EXPECT_EQ(stats.batches, 8u);
  EXPECT_EQ(stats.syncs, 8u);
  EXPECT_EQ(stats.max_batch_observed, 1u);
  EXPECT_EQ(sys.pipeline.durable_lsn(), 8u);
  EXPECT_EQ(sink.syncs(), 8u);
}

// kRelaxed acknowledges before durability: Commit returns with the
// watermark possibly behind the journal; Drain closes the gap.
TEST(GroupCommitTest, RelaxedModeAcksBeforeDurability) {
  PipelinedSystem<GatedSink> sys(
      GroupCommitOptions{DurabilityMode::kRelaxed});
  GatedSink& sink = sys.log.sink;
  auto txn = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, txn.get(), 7).ok());
  // The gate is closed: nothing can become durable, yet the commit acks.
  ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  EXPECT_LT(sys.pipeline.durable_lsn(), sys.journal.high_lsn());
  sink.Open();
  sys.pipeline.Drain();
  EXPECT_EQ(sys.pipeline.durable_lsn(), sys.journal.high_lsn());
}

// Early lock release, the tentpole property: while a committed batch's
// fdatasync is still in flight (gate closed), a conflicting transaction
// can execute at the object — under the per-record baseline it would be
// stuck behind the sync inside the object critical section.
TEST(GroupCommitTest, ConflictingExecuteProceedsDuringGroupSync) {
  PipelinedSystem<GatedSink> sys(GroupCommitOptions{DurabilityMode::kGroup});
  GatedSink& sink = sys.log.sink;
  // Read/write conflicts make any two deposits conflict, so T2 below
  // genuinely needs T1's operation locks released.
  auto rw = MakeBankAccount("RW");
  sys.manager.AddObject("RW", rw, MakeReadWriteConflict(rw),
                        std::make_unique<UipRecovery>(rw));
  sys.manager.object("RW")->recovery().set_journal(&sys.journal);

  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(
      sys.manager.Execute(t1.get(), rw->DepositInv(10)).status().ok());
  std::atomic<bool> t1_acked{false};
  std::thread committer([&] {
    EXPECT_TRUE(sys.manager.Commit(t1.get()).ok());
    t1_acked.store(true);
  });
  // Once the flusher is inside the gated Sync, T1's record is sequenced and
  // every lock T1 held is released — but T1 is not yet acknowledged.
  sink.WaitForSyncStart();
  EXPECT_FALSE(t1_acked.load());

  // The conflicting transaction runs to the commit point during the sync.
  auto t2 = sys.manager.Begin();
  EXPECT_TRUE(
      sys.manager.Execute(t2.get(), rw->DepositInv(20)).status().ok());

  sink.Open();
  committer.join();
  EXPECT_TRUE(t1_acked.load());
  ASSERT_TRUE(sys.manager.Commit(t2.get()).ok());
  sys.pipeline.Drain();

  // Both commits recover, in order.
  TxnManager restarted;
  auto rba = MakeBankAccount();
  restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                      std::make_unique<UipRecovery>(rba));
  auto rrw = MakeBankAccount("RW");
  restarted.AddObject("RW", rrw, MakeReadWriteConflict(rrw),
                      std::make_unique<UipRecovery>(rrw));
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromImage(sink.image());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->scan.records_replayed, 2u);
  EXPECT_EQ(BalanceOf(*restarted.object("RW")->CommittedState()), 30);
}

// A sink whose Sync costs real time (a simulated fdatasync), giving the
// flusher a natural batching window: records sequenced during batch N's
// sync form batch N+1.
class SlowSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    image_.append(bytes.data(), bytes.size());
    return Status::OK();
  }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  }
  const std::string& image() const { return image_; }

 private:
  std::string image_;
};

// Multithreaded batching: concurrent committers share syncs. With the
// linger cut by blocked committers this cannot batch perfectly, but it
// must (a) flush everything, (b) use strictly fewer syncs than records,
// and (c) keep the recovered state equal to the committed one.
TEST(GroupCommitTest, ConcurrentCommittersShareSyncs) {
  GroupCommitOptions gc{DurabilityMode::kGroup};
  PipelinedSystem<SlowSink> sys(gc);
  SlowSink& sink = sys.log.sink;
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        EXPECT_TRUE(sys.manager
                        .RunTransaction([&](Transaction* txn) {
                          return Deposit(&sys, txn, 1);
                        })
                        .ok());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  sys.pipeline.Drain();

  const GroupCommitStats stats = sys.pipeline.stats();
  constexpr uint64_t kTotal = kThreads * kTxnsPerThread;
  EXPECT_EQ(stats.records_sequenced, kTotal);
  EXPECT_EQ(stats.records_flushed, kTotal);
  EXPECT_LT(stats.syncs, kTotal);
  EXPECT_GT(stats.max_batch_observed, 1u);
  EXPECT_EQ(sys.pipeline.durable_lsn(), kTotal);

  TxnManager restarted;
  auto rba = MakeBankAccount();
  restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                      std::make_unique<UipRecovery>(rba));
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromImage(sink.image());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->scan.records_replayed, kTotal);
  EXPECT_EQ(BalanceOf(*restarted.object("BA")->CommittedState()),
            static_cast<int64_t>(kTotal));
}

// A batched image obeys the same corruption contract as a per-record one:
// torn tails truncate to the last whole record, damage to the durable
// prefix is rejected loudly.
TEST(GroupCommitTest, BatchedImageCorruptionContract) {
  PipelinedSystem<MemorySink> sys(GroupCommitOptions{DurabilityMode::kGroup});
  MemorySink& sink = sys.log.sink;
  for (int i = 0; i < 6; ++i) {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 2).ok());
    ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  }
  sys.pipeline.Drain();
  const std::string image = sink.image();

  // Torn tail: cut mid-final-record; the scan truncates to 5 records.
  {
    const std::string torn = image.substr(0, image.size() - 3);
    RecoveryReport report;
    ASSERT_TRUE(ForEachJournalEntry(
                    torn, /*after_lsn=*/0,
                    [](Lsn, Journal::Entry&&) { return Status::OK(); },
                    &report)
                    .ok());
    EXPECT_EQ(report.records_replayed, 5u);
    EXPECT_TRUE(report.corrupt_tail);
  }
  // Mid-journal flip: a synced prefix was damaged — recovery must refuse
  // rather than silently drop acknowledged commits.
  {
    std::string flipped = image;
    FlipByte(&flipped, image.size() / 3, 0x20);
    TxnManager restarted;
    auto rba = MakeBankAccount();
    restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                        std::make_unique<UipRecovery>(rba));
    EXPECT_EQ(restarted.RestartFromImage(flipped).status().code(),
              StatusCode::kInternal);
  }
}

// The full matrix: mode x method x crash fraction through the crash
// harness, whose ok() includes the ack-durability audit — no acknowledged
// commit may be lost, in any mode, at any crash point.
class GroupCommitCrashTest
    : public ::testing::TestWithParam<std::tuple<Method, DurabilityMode>> {};

TEST_P(GroupCommitCrashTest, CrashSweepLosesNoAckedCommit) {
  const auto [method, mode] = GetParam();
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
      const StatusOr<Value> r =
          rng->Bernoulli(0.5)
              ? manager->Execute(txn, ba->DepositInv(rng->UniformRange(1, 9)))
              : manager->Execute(txn, set->InsertInv(rng->UniformRange(1, 8)));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };

  for (const uint64_t seed : {13u, 29u}) {
    for (const double fraction : {0.0, 0.33, 0.71, 1.0}) {
      CrashScenarioOptions options;
      options.driver.threads = 3;
      options.driver.txns_per_thread = 20;
      options.driver.seed = seed;
      options.fault = CrashFault::AtFraction(fraction);
      options.group_commit.mode = mode;
      const CrashScenarioResult result =
          RunCrashScenario(factory, body, options);
      EXPECT_TRUE(result.ok())
          << "seed " << seed << " fraction " << fraction << ": status "
          << result.status.ToString() << ", prefix " << result.prefix_ok
          << ", state " << result.state_ok << ", acked_lost "
          << result.acked_lost << ", beyond watermark "
          << result.acked_beyond_watermark << " (acked " << result.acked
          << ", durable " << result.durable_lsn << ", recovered "
          << result.summary.high_lsn << ")";
      EXPECT_LE(result.durable_lsn, result.summary.high_lsn);
      EXPECT_LE(result.acked, result.records_total);
      if (fraction == 1.0) {
        // A clean shutdown (post-Drain) acknowledged and recovered
        // everything.
        EXPECT_EQ(result.acked, result.records_total);
        EXPECT_EQ(result.durable_lsn, result.records_total);
        EXPECT_EQ(result.summary.high_lsn, result.records_total);
      } else {
        EXPECT_TRUE(result.fault_fired) << "fraction " << fraction;
        EXPECT_FALSE(result.failure.ok()) << "fraction " << fraction;
        if (fraction > 0) {
          EXPECT_GT(result.acked, 0u) << "fraction " << fraction;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndMethods, GroupCommitCrashTest,
    ::testing::Combine(::testing::Values(Method::kUip, Method::kDu),
                       ::testing::Values(DurabilityMode::kSync,
                                         DurabilityMode::kGroup,
                                         DurabilityMode::kRelaxed)),
    [](const ::testing::TestParamInfo<std::tuple<Method, DurabilityMode>>&
           info) {
      const Method method = std::get<0>(info.param);
      const DurabilityMode mode = std::get<1>(info.param);
      std::string name = method == Method::kUip ? "Uip" : "Du";
      switch (mode) {
        case DurabilityMode::kSync:
          return name + "Sync";
        case DurabilityMode::kGroup:
          return name + "Group";
        case DurabilityMode::kRelaxed:
          return name + "Relaxed";
      }
      return name;
    });

// ---------------------------------------------------------------------------
// OnDurable: the async acknowledgment hook behind the serving front end.
// ---------------------------------------------------------------------------

// In kGroup mode a callback registered past the watermark must not fire
// until the flusher's sync completes, and callbacks fire in LSN order.
TEST(OnDurableTest, FiresAfterSyncInLsnOrder) {
  PipelinedSystem<GatedSink> sys(GroupCommitOptions{DurabilityMode::kGroup});
  GatedSink& sink = sys.log.sink;

  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t1.get(), 1).ok());
  auto t2 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t2.get(), 2).ok());
  const StatusOr<Lsn> l1 = sys.manager.CommitAsync(t1.get());
  const StatusOr<Lsn> l2 = sys.manager.CommitAsync(t2.get());
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  ASSERT_LT(*l1, *l2);

  std::mutex mu;
  std::vector<Lsn> fired;
  // Register out of LSN order; both are past the (gated) watermark.
  sys.pipeline.OnDurable(*l2, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::lock_guard<std::mutex> lk(mu);
    fired.push_back(*l2);
  });
  sys.pipeline.OnDurable(*l1, [&](const Status& s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::lock_guard<std::mutex> lk(mu);
    fired.push_back(*l1);
  });
  sink.WaitForSyncStart();
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_TRUE(fired.empty());  // sync still in flight: no ack yet
  }
  sink.Open();
  sys.pipeline.Drain();
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], *l1);  // LSN order, not registration order
    EXPECT_EQ(fired[1], *l2);
  }
  EXPECT_EQ(sys.pipeline.stats().async_acks, 2u);
}

// A callback for an already-durable LSN (or kNoLsn) runs inline.
TEST(OnDurableTest, AlreadyDurableRunsInline) {
  PipelinedSystem<MemorySink> sys(GroupCommitOptions{DurabilityMode::kGroup});
  auto t1 = sys.manager.Begin();
  ASSERT_TRUE(Deposit(&sys, t1.get(), 5).ok());
  ASSERT_TRUE(sys.manager.Commit(t1.get()).ok());  // waits durable

  bool fired = false;
  sys.pipeline.OnDurable(sys.pipeline.durable_lsn(),
                         [&](const Status& s) { fired = s.ok(); });
  EXPECT_TRUE(fired);
  fired = false;
  sys.pipeline.OnDurable(kNoLsn, [&](const Status& s) { fired = s.ok(); });
  EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------------------
// Fail-stop: a journal append or sync that fails poisons the pipeline.
// ---------------------------------------------------------------------------

enum class IoFault { kEioAtSync, kEnospcAtAppend };

bool SameStatus(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

class FailStopTest
    : public ::testing::TestWithParam<std::tuple<DurabilityMode, IoFault>> {};

// Three commits are acknowledged; then the device fails the next append
// (ENOSPC) or sync (EIO), and the failing call is held while more
// committers and async acks pile up behind it. On release every one of
// them gets the same kUnavailable status, the watermark stays put, the
// sink sees nothing more, refused records leave no effect in memory, later
// commits and reads fail without touching the sink, Drain returns, and
// restart from the sink's bytes recovers every commit that returned OK.
TEST_P(FailStopTest, FailureFailsEveryWaiterAndStopsTheSink) {
  const auto [mode, fault] = GetParam();
  GroupCommitOptions gc{mode};
  gc.max_delay_us = 10'000'000;  // only waiters flush: the test sets the pace
  PipelinedSystem<FailingSink> sys(gc);
  FailingSink& sink = sys.log.sink;
  const auto deposit_commit = [&](int64_t amount) {
    auto txn = sys.manager.Begin();
    EXPECT_TRUE(Deposit(&sys, txn.get(), amount).ok());
    return sys.manager.Commit(txn.get());
  };
  for (int64_t amount = 1; amount <= 3; ++amount) {
    ASSERT_TRUE(deposit_commit(amount).ok());
  }
  ASSERT_EQ(sys.pipeline.durable_lsn(), 3u);
  const size_t sync_index = sink.syncs();
  const size_t append_index = sink.appends();
  if (fault == IoFault::kEioAtSync) {
    sink.FailSync(sync_index, EIO, /*hold=*/true);
  } else {
    sink.FailAppend(append_index, ENOSPC, /*hold=*/true);
  }

  // The failing commit: deposit 4, on its own thread — it reaches the held
  // failure (inline in kSync, through the flusher in kGroup).
  std::atomic<int> acks_fired{0};
  std::vector<Status> ack_status(2);
  std::vector<std::thread> committers;
  std::vector<Status> commit_status(3);
  committers.emplace_back([&] { commit_status[0] = deposit_commit(4); });
  sink.WaitForFailure();
  // More committers pile up behind the held failure: parked in WaitDurable
  // (kGroup), or blocked behind the failing commit, which holds the
  // account's mutex across its inline append (kSync).
  committers.emplace_back([&] { commit_status[1] = deposit_commit(5); });
  committers.emplace_back([&] { commit_status[2] = deposit_commit(6); });
  if (mode == DurabilityMode::kGroup) {
    // kGroup sequences them at once; wait until both are, so they are
    // parked behind the failure rather than arriving after it. Two async
    // acks join them.
    while (sys.pipeline.stats().records_sequenced < 6) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 2; ++i) {
      auto txn = sys.manager.Begin();
      ASSERT_TRUE(Deposit(&sys, txn.get(), 10).ok());
      const StatusOr<Lsn> lsn = sys.manager.CommitAsync(txn.get());
      ASSERT_TRUE(lsn.ok());
      sys.pipeline.OnDurable(*lsn, [&, i](const Status& s) {
        ack_status[i] = s;
        acks_fired.fetch_add(1);
      });
    }
    EXPECT_EQ(acks_fired.load(), 0);  // held behind the failure
  }
  sink.Release();
  for (std::thread& t : committers) t.join();

  const Status failure = sys.pipeline.status();
  for (const Status& s : commit_status) {
    EXPECT_TRUE(SameStatus(s, failure)) << s.ToString();
    EXPECT_NE(s.message().find(fault == IoFault::kEioAtSync
                                   ? std::strerror(EIO)
                                   : std::strerror(ENOSPC)),
              std::string::npos)
        << s.ToString();
  }
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(failure.IsRetryable());
  if (mode == DurabilityMode::kGroup) {
    sys.pipeline.Drain();
    EXPECT_EQ(acks_fired.load(), 2);  // each exactly once
    for (const Status& s : ack_status) {
      EXPECT_TRUE(SameStatus(s, failure)) << s.ToString();
    }
  }
  // An ack asked for after the failure — even for an LSN that was durable
  // before it — fails inline.
  Status late_ack;
  sys.pipeline.OnDurable(1, [&](const Status& s) { late_ack = s; });
  EXPECT_TRUE(SameStatus(late_ack, failure)) << late_ack.ToString();
  EXPECT_TRUE(SameStatus(sys.pipeline.WaitDurable(1), failure));
  EXPECT_TRUE(SameStatus(sys.pipeline.WaitWatermark(kNoLsn), failure));
  EXPECT_EQ(sys.pipeline.durable_lsn(), 3u);  // frozen

  // The records sequenced before the failure stand in memory; every
  // refused one was undone: in kSync the failing deposit 4 kept its LSN and
  // deposits 5 and 6 were refused, in kGroup all five were sequenced.
  const auto balance = [&] {
    return BalanceOf(*sys.manager.object("BA")->CommittedState());
  };
  const int64_t sequenced = mode == DurabilityMode::kSync
                                ? 1 + 2 + 3 + 4
                                : 1 + 2 + 3 + 4 + 5 + 6 + 20;
  EXPECT_EQ(balance(), sequenced);

  // A later commit fails, aborted and undone, without touching the sink;
  // so does a read after it, which must not report the refused deposit.
  const size_t appends = sink.appends();
  const size_t syncs = sink.syncs();
  {
    auto txn = sys.manager.Begin();
    ASSERT_TRUE(Deposit(&sys, txn.get(), 100).ok());
    const Status s = sys.manager.Commit(txn.get());
    EXPECT_TRUE(SameStatus(s, failure)) << s.ToString();
    EXPECT_EQ(txn->state(), TxnState::kAborted);
  }
  EXPECT_EQ(balance(), sequenced);
  {
    auto txn = sys.manager.Begin();
    const StatusOr<Value> read =
        sys.manager.Execute(txn.get(), sys.ba->BalanceInv());
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const Status s = sys.manager.Commit(txn.get());
    EXPECT_TRUE(SameStatus(s, failure)) << s.ToString();
    EXPECT_EQ(txn->state(), TxnState::kAborted);
  }
  EXPECT_EQ(sink.appends(), appends);
  EXPECT_EQ(sink.syncs(), syncs);
  EXPECT_EQ(sink.calls_after_failure(), 0u);  // no retry, no later sync
  sys.pipeline.Drain();                        // returns on a poisoned pipeline

  // Restart from the bytes the sink holds: every acknowledged commit (the
  // first three deposits) is back; an unacknowledged record that reached
  // the sink before the failed sync may be too.
  TxnManager restarted;
  auto rba = MakeBankAccount();
  restarted.AddObject("BA", rba, MakeNrbcConflict(rba),
                      std::make_unique<UipRecovery>(rba));
  const StatusOr<RestartSummary> summary =
      restarted.RestartFromImage(sink.image());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GE(summary->scan.records_replayed, 3u);
  EXPECT_GE(BalanceOf(*restarted.object("BA")->CommittedState()), 1 + 2 + 3);
  if (fault == IoFault::kEnospcAtAppend) {
    EXPECT_EQ(summary->scan.records_replayed, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndFaults, FailStopTest,
    ::testing::Combine(::testing::Values(DurabilityMode::kSync,
                                         DurabilityMode::kGroup),
                       ::testing::Values(IoFault::kEioAtSync,
                                         IoFault::kEnospcAtAppend)),
    [](const ::testing::TestParamInfo<std::tuple<DurabilityMode, IoFault>>&
           info) {
      std::string name = std::get<0>(info.param) == DurabilityMode::kSync
                             ? "Sync"
                             : "Group";
      return name + (std::get<1>(info.param) == IoFault::kEioAtSync
                         ? "EioAtSync"
                         : "EnospcAtAppend");
    });

// The live crash driver over I/O-error faults: a journal append or sync
// fails (ENOSPC, EIO) at the start, 40% and 80% into the run while the
// workers commit, a store and maintenance passes run, and — separately —
// while a serving burst is in flight. Audits 1-5 must hold in every
// durability mode: the engine fail-stops, publishes nothing more, and
// restart from disk loses no acknowledged commit.
class LiveIoErrorTest : public ::testing::TestWithParam<DurabilityMode> {};

TEST_P(LiveIoErrorTest, DriverSweepAuditsHold) {
  const DurabilityMode mode = GetParam();
  constexpr int kCounters = 6;
  const SystemFactory factory = [](TxnManager* manager) {
    for (int i = 0; i < kCounters; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(i));
      manager->AddObject(ctr->object_name(), ctr, MakeNrbcConflict(ctr),
                         std::make_unique<UipRecovery>(ctr));
    }
  };
  const TxnBody body = [](TxnManager* manager, Transaction* txn,
                          Random* rng) -> Status {
    for (int i = 0; i < 2; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(rng->Uniform(kCounters)));
      const StatusOr<Value> r = manager->Execute(
          txn, ctr->IncInv(static_cast<int64_t>(rng->Uniform(9)) + 1));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };
  const RequestFactory requests = [](size_t, Random* rng) {
    std::vector<BatchOp> ops;
    const size_t start = rng->Uniform(kCounters);
    for (size_t i = 0; i < 2; ++i) {
      auto ctr = MakeCounter("C" + std::to_string((start + i) % kCounters));
      ops.push_back(BatchOp{ctr->object_name(), "", ctr->IncInv(1)});
    }
    return ops;
  };
  for (const double at : {0.0, 0.4, 0.8}) {
    for (const CrashFault& fault :
         {CrashFault::AppendError(ENOSPC, at),
          CrashFault::SyncError(EIO, at)}) {
      const std::string what =
          StrFormat("mode %d %s at %.1f", static_cast<int>(mode),
                    fault.kind == CrashFault::Kind::kSyncError
                        ? "EIO sync"
                        : "ENOSPC append",
                    at);
      CrashScenarioOptions options;
      options.group_commit.mode = mode;
      options.fault = fault;
      options.driver.threads = 2;
      options.driver.txns_per_thread = 30;
      options.driver.seed = 5 + static_cast<uint64_t>(10 * at);
      options.max_segment_bytes = 256;
      options.store = true;
      options.store_segment_bytes = 256;
      options.maintenance_every = 8;
      const CrashScenarioResult run =
          RunCrashScenario(factory, body, options);
      EXPECT_TRUE(run.ok())
          << what << ": " << run.status.ToString() << " prefix "
          << run.prefix_ok << " state " << run.state_ok << " lost "
          << run.acked_lost << " beyond " << run.acked_beyond_watermark;
      EXPECT_TRUE(run.fault_fired) << what;
      EXPECT_EQ(run.failure.code(), StatusCode::kUnavailable) << what;
      if (at > 0) {
        EXPECT_GT(run.multi_object_txns, 0u) << what;
        EXPECT_GT(run.acked, 0u) << what;
      }

      CrashScenarioOptions serve = options;
      serve.store = false;
      serve.maintenance_every = 0;
      serve.requests = 200;
      serve.frontend.queue_depth = 32;
      serve.frontend.max_group = 8;
      serve.group_commit.max_batch = 2;  // acks all through the burst
      const CrashScenarioResult served =
          RunCrashScenario(factory, requests, serve);
      EXPECT_TRUE(served.ok())
          << what << " (serving): " << served.status.ToString()
          << " ops acked " << served.acked_ops << " recovered "
          << served.recovered_ops << " journaled " << served.journal_ops;
      EXPECT_TRUE(served.fault_fired) << what << " (serving)";
      EXPECT_EQ(served.serve.completed_ok + served.serve.completed_error,
                served.serve.accepted)
          << what << " (serving)";
      if (at > 0) {
        EXPECT_GT(served.acked, 0u) << what << " (serving)";
        EXPECT_GT(served.acked_ops, 0u) << what << " (serving)";
      }
      if (mode != DurabilityMode::kRelaxed) {
        // kRelaxed acks at sequencing; elsewhere the submissions in
        // flight at the failure complete with it.
        EXPECT_GT(served.serve.completed_error, 0u)
            << what << " (serving)";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LiveIoErrorTest,
    ::testing::Values(DurabilityMode::kSync, DurabilityMode::kGroup,
                      DurabilityMode::kRelaxed),
    [](const ::testing::TestParamInfo<DurabilityMode>& info) {
      switch (info.param) {
        case DurabilityMode::kSync:
          return "Sync";
        case DurabilityMode::kGroup:
          return "Group";
        case DurabilityMode::kRelaxed:
          return "Relaxed";
      }
      return "";
    });

}  // namespace
}  // namespace ccr
