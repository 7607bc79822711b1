// Copyright 2026 The ccr Authors.
//
// Crash-recovery tests for the redo journal (the paper's deferred future
// work): after any crash point, replaying the journal rebuilds exactly the
// state of the committed prefix — under both recovery methods, with aborts
// interleaved, and under concurrency. Also pins what the journal keeps in
// memory: in every durability mode, exactly the records its sink received,
// and nothing of a record the pipeline refuses.

#include <thread>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "adt/kv_store.h"
#include "common/random.h"
#include "core/spec.h"
#include "memory_log.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

void ExpectSameEntries(const std::vector<Journal::Entry>& got,
                       const std::vector<Journal::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].is_lifecycle, want[i].is_lifecycle) << "entry " << i;
    if (got[i].is_lifecycle) {
      EXPECT_EQ(got[i].lifecycle.kind, want[i].lifecycle.kind) << i;
      EXPECT_EQ(got[i].lifecycle.object, want[i].lifecycle.object) << i;
      EXPECT_EQ(got[i].lifecycle.factory, want[i].lifecycle.factory) << i;
    } else {
      EXPECT_EQ(got[i].commit.txn, want[i].commit.txn) << "entry " << i;
      EXPECT_EQ(got[i].commit.ops, want[i].commit.ops) << "entry " << i;
    }
  }
}

// The state a spec-level replay of `records` reaches from `adt`'s initial
// state — what a crash that kept exactly these records recovers to.
std::unique_ptr<SpecState> Replayed(
    const Adt& adt, const std::vector<Journal::CommitRecord>& records) {
  OpSeq ops;
  for (const Journal::CommitRecord& record : records) {
    ops.insert(ops.end(), record.ops.begin(), record.ops.end());
  }
  const StateSet states = RunSpec(adt.spec(), ops);
  CCR_CHECK_MSG(states.size() == 1, "journal replay reached %s",
                states.ToString().c_str());
  return states.at(0).Clone();
}

enum class Method { kUip, kDu };

class JournalTest : public ::testing::TestWithParam<Method> {
 protected:
  std::unique_ptr<RecoveryManager> MakeRecovery(
      std::shared_ptr<const Adt> adt) {
    if (GetParam() == Method::kUip) {
      return std::make_unique<UipRecovery>(adt);
    }
    return std::make_unique<DuRecovery>(adt);
  }

  std::shared_ptr<const ConflictRelation> MakeConflict(
      std::shared_ptr<Adt> adt) {
    if (GetParam() == Method::kUip) return MakeNrbcConflict(adt);
    return MakeNfcConflict(adt);
  }
};

TEST_P(JournalTest, RecoversCommittedStateExactly) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  log.Attach(&manager);

  Random rng(7);
  for (int i = 0; i < 50; ++i) {
    const bool doomed = rng.Bernoulli(0.3);
    Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
      const int64_t amount = rng.UniformRange(1, 9);
      const Invocation inv = rng.Bernoulli(0.6) ? ba->DepositInv(amount)
                                                : ba->WithdrawInv(amount);
      StatusOr<Value> r = manager.Execute(txn, inv);
      if (!r.ok()) return r.status();
      if (doomed) return Status::Aborted("injected");
      return Status::OK();
    });
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
  }

  // Crash now: everything volatile is gone; only the journal survives.
  auto recovered = Replayed(*ba, log.Records());
  auto live = obj->CommittedState();
  EXPECT_TRUE(recovered->Equals(*live))
      << "recovered " << recovered->ToString() << ", live "
      << live->ToString();
}

TEST_P(JournalTest, AbortedTransactionsNeverReachTheJournal) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  TxnManager manager;
  manager.AddObject("BA", ba, MakeConflict(ba), MakeRecovery(ba));
  log.Attach(&manager);

  auto doomed = manager.Begin();
  ASSERT_TRUE(manager.Execute(doomed.get(), ba->DepositInv(999)).ok());
  ASSERT_TRUE(manager.Abort(doomed.get()).ok());
  EXPECT_TRUE(log.sink.image().empty());

  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(5)).status();
                  })
                  .ok());
  const std::vector<Journal::CommitRecord> records = log.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(BalanceOf(*Replayed(*ba, records)), 5);
}

// Every crash point (journal prefix) recovers to a legal committed state:
// the state after exactly the first n committed transactions. The image
// cut after n records decodes to exactly the first n entries.
TEST_P(JournalTest, EveryPrefixIsAConsistentCrashPoint) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  TxnManager manager;
  manager.AddObject("BA", ba, MakeConflict(ba), MakeRecovery(ba));
  log.Attach(&manager);

  // Known sequence: +10, -3, +1, -2 committed one at a time.
  const std::vector<Invocation> script = {
      ba->DepositInv(10), ba->WithdrawInv(3), ba->DepositInv(1),
      ba->WithdrawInv(2)};
  std::vector<size_t> boundaries = {0};  // image bytes after n records
  for (const Invocation& inv : script) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, inv).status();
                    })
                    .ok());
    boundaries.push_back(log.sink.image().size());
  }
  const std::vector<int64_t> expected = {0, 10, 7, 8, 6};
  const std::vector<Journal::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t n = 0; n <= entries.size(); ++n) {
    const std::vector<Journal::Entry> prefix = MemoryLog::Decode(
        std::string_view(log.sink.image()).substr(0, boundaries[n]));
    ExpectSameEntries(prefix, std::vector<Journal::Entry>(
                                  entries.begin(), entries.begin() + n));
    std::vector<Journal::CommitRecord> records;
    for (const Journal::Entry& entry : prefix) records.push_back(entry.commit);
    EXPECT_EQ(BalanceOf(*Replayed(*ba, records)), expected[n])
        << "crash after " << n << " commit records";
  }
}

TEST_P(JournalTest, ConcurrentWorkloadSurvivesCrash) {
  auto ba = MakeBankAccount();
  MemoryLog log;
  TxnManagerOptions options;
  options.lock_timeout = std::chrono::milliseconds(2000);
  TxnManager manager(options);
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  log.Attach(&manager);

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(100 + w);
      for (int i = 0; i < 40; ++i) {
        Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
          StatusOr<Value> r = manager.Execute(
              txn, ba->DepositInv(rng.UniformRange(1, 5)));
          if (!r.ok()) return r.status();
          if (rng.Bernoulli(0.2)) return Status::Aborted("injected");
          return Status::OK();
        });
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
      }
    });
  }
  for (auto& t : workers) t.join();

  const std::vector<Journal::CommitRecord> records = log.Records();
  EXPECT_TRUE(Replayed(*ba, records)->Equals(*obj->CommittedState()));
  EXPECT_EQ(records.size(), manager.stats().committed);
}

// The set ADT has no inverse operations, so UIP must recover it by replay;
// the journal path is identical and must still round-trip.
TEST_P(JournalTest, WorksForNonInvertibleAdts) {
  auto set = MakeIntSet();
  MemoryLog log;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("SET", set, MakeConflict(set),
                                        MakeRecovery(set));
  log.Attach(&manager);

  Random rng(17);
  for (int i = 0; i < 40; ++i) {
    Status s = manager.RunTransaction([&](Transaction* txn) -> Status {
      const int64_t elem = rng.UniformRange(1, 6);
      const Invocation inv = rng.Bernoulli(0.6) ? set->InsertInv(elem)
                                                : set->RemoveInv(elem);
      StatusOr<Value> r = manager.Execute(txn, inv);
      if (!r.ok()) return r.status();
      if (rng.Bernoulli(0.25)) return Status::Aborted("injected");
      return Status::OK();
    });
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAborted);
  }
  EXPECT_TRUE(
      Replayed(*set, log.Records())->Equals(*obj->CommittedState()));
}

// A MemorySink that can be told to fail every call.
class FailingMemorySink : public MemorySink {
 public:
  Status Append(std::string_view bytes) override {
    if (failing) return Status::Internal("injected EIO");
    return MemorySink::Append(bytes);
  }
  Status Sync() override {
    if (failing) return Status::Internal("injected EIO");
    return MemorySink::Sync();
  }
  bool failing = false;
};

class JournalViewTest : public ::testing::TestWithParam<DurabilityMode> {};

// What the journal keeps is exactly what its sink received, in every
// durability mode: once the pipeline drains, the sink holds every record
// appended, at LSNs 1..N — commits of 1, 2 and 8 ops with create and drop
// records in place, and string literals that need escaping — and the
// commit records the view yields are exactly those the sink's bytes decode
// to.
TEST_P(JournalViewTest, ViewIsExactlyTheSinkBytes) {
  auto ba = MakeBankAccount();
  auto kv = MakeKvStore("K1");
  const std::vector<std::string> hostile = {"a b", "x\ny", "50%", ""};
  std::vector<Journal::Entry> appended;
  appended.push_back(
      Journal::Entry::Commit(1, {Operation(ba->DepositInv(10), Value("ok"))}));
  LifecycleRecord create;
  create.kind = LifecycleRecord::Kind::kCreate;
  create.object = "K1";
  create.factory = "kv";
  appended.push_back(Journal::Entry::Lifecycle(create));
  appended.push_back(Journal::Entry::Commit(
      2, {Operation(kv->PutInv(hostile[0], 5), Value("ok")),
          Operation(kv->GetInv(hostile[1]), Value(hostile[2]))}));
  OpSeq eight;
  for (int i = 0; i < 8; ++i) {
    const std::string& key = hostile[static_cast<size_t>(i) % hostile.size()];
    eight.push_back(i % 2 == 0 ? Operation(kv->PutInv(key, -i), Value("ok"))
                               : Operation(ba->WithdrawInv(i), Value(key)));
  }
  appended.push_back(Journal::Entry::Commit(3, std::move(eight)));
  LifecycleRecord drop;
  drop.kind = LifecycleRecord::Kind::kDrop;
  drop.object = "K1";
  appended.push_back(Journal::Entry::Lifecycle(drop));

  BasicMemoryLog<FailingMemorySink> log(GroupCommitOptions{GetParam()});
  Journal& journal = log.journal;
  const auto append = [&journal](const Journal::Entry& entry) {
    return entry.is_lifecycle
               ? journal.AppendLifecycle(entry.lifecycle)
               : journal.AppendCommit(entry.commit.txn, entry.commit.ops);
  };
  const auto view = [&journal] {
    std::vector<Journal::Entry> records;
    journal.ForEachRecord([&records](const Journal::CommitRecord& record) {
      records.push_back(Journal::Entry::Commit(record.txn, record.ops));
    });
    return records;
  };
  const auto sink_records = [&log] {
    std::vector<Journal::Entry> records;
    for (const Journal::CommitRecord& record : log.Records()) {
      records.push_back(Journal::Entry::Commit(record.txn, record.ops));
    }
    return records;
  };
  for (size_t i = 0; i < appended.size(); ++i) {
    const StatusOr<Lsn> lsn = append(appended[i]);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, i + 1);
  }
  ExpectSameEntries(log.Entries(), appended);
  EXPECT_EQ(journal.high_lsn(), appended.size());
  EXPECT_EQ(journal.size(), appended.size());
  ExpectSameEntries(view(), sink_records());

  // A sink failure, under kSync only. There the append that meets it
  // poisons the pipeline but keeps its LSN, so the view holds that one
  // record the sink never got; every later record is refused and leaves
  // the size, the high LSN, the view and the sink as they were. Under
  // kGroup the failure also drops every queued frame, which the view
  // still holds: the case where ccrbench's serve_point audit, which reads
  // the view, and a scan of the sink's bytes disagree.
  if (GetParam() != DurabilityMode::kSync) return;
  log.sink.failing = true;
  ASSERT_TRUE(append(appended[0]).ok());
  ASSERT_EQ(log.pipeline.status().code(), StatusCode::kUnavailable);
  const size_t size = journal.size();
  const Lsn high = journal.high_lsn();
  const std::vector<Journal::Entry> kept = view();
  const std::string bytes = log.sink.image();
  EXPECT_EQ(kept.size(), sink_records().size() + 1);
  for (const Journal::Entry& entry : appended) {
    EXPECT_EQ(append(entry).status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(journal.size(), size);
    EXPECT_EQ(journal.high_lsn(), high);
    ExpectSameEntries(view(), kept);
    EXPECT_EQ(log.sink.image(), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, JournalViewTest,
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
      return "?";
    });

INSTANTIATE_TEST_SUITE_P(Methods, JournalTest,
                         ::testing::Values(Method::kUip, Method::kDu),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return info.param == Method::kUip ? "Uip" : "Du";
                         });

}  // namespace
}  // namespace ccr
