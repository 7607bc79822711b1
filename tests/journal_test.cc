// Copyright 2026 The ccr Authors.
//
// Crash-recovery tests for the redo journal (the paper's deferred future
// work): after any crash point, replaying the journal rebuilds exactly the
// state of the committed prefix — under both recovery methods, with aborts
// interleaved, and under concurrency. Also pins what the journal keeps in
// memory: exactly the bytes its sink received, read back as the records
// appended, and nothing of a record the pipeline refuses.

#include <thread>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "adt/kv_store.h"
#include "common/random.h"
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
  Journal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal);

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
  auto recovered = RecoverState(*ba, journal);
  auto live = obj->CommittedState();
  EXPECT_TRUE(recovered->Equals(*live))
      << "recovered " << recovered->ToString() << ", live "
      << live->ToString();
}

TEST_P(JournalTest, AbortedTransactionsNeverReachTheJournal) {
  auto ba = MakeBankAccount();
  Journal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal);

  auto doomed = manager.Begin();
  ASSERT_TRUE(manager.Execute(doomed.get(), ba->DepositInv(999)).ok());
  ASSERT_TRUE(manager.Abort(doomed.get()).ok());
  EXPECT_EQ(journal.size(), 0u);

  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(5)).status();
                  })
                  .ok());
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(BalanceOf(*RecoverState(*ba, journal)), 5);
}

// Every crash point (journal prefix) recovers to a legal committed state:
// the state after exactly the first n committed transactions.
TEST_P(JournalTest, EveryPrefixIsAConsistentCrashPoint) {
  auto ba = MakeBankAccount();
  Journal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal);

  // Known sequence: +10, -3, +1, -2 committed one at a time.
  const std::vector<Invocation> script = {
      ba->DepositInv(10), ba->WithdrawInv(3), ba->DepositInv(1),
      ba->WithdrawInv(2)};
  for (const Invocation& inv : script) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, inv).status();
                    })
                    .ok());
  }
  const std::vector<int64_t> expected = {0, 10, 7, 8, 6};
  ASSERT_EQ(journal.size(), 4u);
  const std::vector<Journal::Entry> entries = journal.Entries();
  for (size_t n = 0; n <= journal.size(); ++n) {
    EXPECT_EQ(BalanceOf(*RecoverState(*ba, journal.Prefix(n))),
              expected[n])
        << "crash after " << n << " commit records";
    ExpectSameEntries(journal.Prefix(n).Entries(),
                      std::vector<Journal::Entry>(entries.begin(),
                                                  entries.begin() + n));
  }
}

TEST_P(JournalTest, ConcurrentWorkloadSurvivesCrash) {
  auto ba = MakeBankAccount();
  Journal journal;
  TxnManagerOptions options;
  options.lock_timeout = std::chrono::milliseconds(2000);
  TxnManager manager(options);
  AtomicObject* obj = manager.AddObject("BA", ba, MakeConflict(ba),
                                        MakeRecovery(ba));
  obj->recovery().set_journal(&journal);

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

  auto recovered = RecoverState(*ba, journal);
  EXPECT_TRUE(recovered->Equals(*obj->CommittedState()));
  EXPECT_EQ(journal.size(), manager.stats().committed);
}

// The set ADT has no inverse operations, so UIP must recover it by replay;
// the journal path is identical and must still round-trip.
TEST_P(JournalTest, WorksForNonInvertibleAdts) {
  auto set = MakeIntSet();
  Journal journal;
  TxnManager manager;
  AtomicObject* obj = manager.AddObject("SET", set, MakeConflict(set),
                                        MakeRecovery(set));
  obj->recovery().set_journal(&journal);

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
      RecoverState(*set, journal)->Equals(*obj->CommittedState()));
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

// What the journal keeps is exactly what its sink received: after every
// append of a kSync journal, its image equals the sink's bytes and its
// entries equal the records appended — commits of 1, 2 and 8 ops, create
// and drop records, and string literals that need escaping. A volatile
// journal of the same records holds the same bytes. Once the sink fails,
// a record the poisoned pipeline refuses, and every later append, leaves
// the size, the high LSN and the bytes as they were.
TEST(JournalViewTest, ViewIsExactlyTheSinkBytes) {
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

  FailingMemorySink sink;
  JournalWriter writer(&sink);
  GroupCommitOptions options;
  options.mode = DurabilityMode::kSync;
  GroupCommitPipeline pipeline(&writer, options);
  Journal journal;
  journal.set_pipeline(&pipeline);
  Journal volatile_journal;
  const auto append = [](Journal* j, const Journal::Entry& entry) {
    return entry.is_lifecycle
               ? j->AppendLifecycle(entry.lifecycle)
               : j->AppendCommit(entry.commit.txn, entry.commit.ops);
  };
  for (size_t i = 0; i < appended.size(); ++i) {
    const StatusOr<Lsn> lsn = append(&journal, appended[i]);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, i + 1);
    ASSERT_TRUE(append(&volatile_journal, appended[i]).ok());
    EXPECT_EQ(EncodeJournalImage(journal), sink.image()) << "after " << i;
    ExpectSameEntries(journal.Entries(),
                      std::vector<Journal::Entry>(appended.begin(),
                                                  appended.begin() + i + 1));
  }
  EXPECT_EQ(EncodeJournalImage(volatile_journal), sink.image());
  ExpectSameEntries(volatile_journal.Entries(), appended);

  // The append that meets the failure poisons the pipeline; from then on
  // every record is refused and leaves the journal as it was.
  sink.failing = true;
  (void)append(&journal, appended[0]);
  ASSERT_EQ(pipeline.status().code(), StatusCode::kUnavailable);
  const size_t size = journal.size();
  const Lsn high = journal.high_lsn();
  const std::string bytes = EncodeJournalImage(journal);
  for (const Journal::Entry& entry : appended) {
    EXPECT_EQ(append(&journal, entry).status().code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(journal.size(), size);
    EXPECT_EQ(journal.high_lsn(), high);
    EXPECT_EQ(EncodeJournalImage(journal), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, JournalTest,
                         ::testing::Values(Method::kUip, Method::kDu),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return info.param == Method::kUip ? "Uip" : "Du";
                         });

}  // namespace
}  // namespace ccr
