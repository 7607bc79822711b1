// Copyright 2026 The ccr Authors.
//
// Unit tests for the two recovery managers: UIP (replay and inverse-op
// undo, with checkpointing) and DU (intentions lists). Includes the paper's
// key recoverability scenario: aborting one of several *concurrent updates*
// must preserve the others' effects — exactly what value logging cannot do.

#include <deque>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "adt/bank_account.h"
#include "common/random.h"
#include "adt/int_set.h"
#include "adt/semiqueue.h"
#include "memory_log.h"
#include "txn/du_recovery.h"
#include "txn/journal.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

// Executes `inv` through the manager, asserting a unique enabled outcome.
Value Step(RecoveryManager* rm, TxnId txn, const Invocation& inv) {
  std::vector<Outcome> outcomes = rm->Candidates(txn, inv);
  CCR_CHECK_MSG(!outcomes.empty(), "invocation %s disabled",
                inv.ToString().c_str());
  Outcome& chosen = outcomes.front();
  const Value result = chosen.result;
  rm->Apply(txn, Operation(inv, result), std::move(chosen.next));
  return result;
}

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

class UipRecoveryTest : public ::testing::TestWithParam<UipUndoStrategy> {
 protected:
  UipRecoveryTest()
      : ba_(MakeBankAccount()), rm_(ba_, GetParam()) {}

  std::shared_ptr<BankAccount> ba_;
  UipRecovery rm_;
};

TEST_P(UipRecoveryTest, SingleTransactionLifecycle) {
  EXPECT_EQ(Step(&rm_, 1, ba_->DepositInv(5)), Value("ok"));
  EXPECT_EQ(Step(&rm_, 1, ba_->WithdrawInv(2)), Value("ok"));
  EXPECT_EQ(BalanceOf(*rm_.CurrentState()), 3);
  // Not yet committed: the committed state is still 0.
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 0);
  rm_.Commit(1);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 3);
  EXPECT_EQ(rm_.log_size(), 0u);  // checkpointed away
}

TEST_P(UipRecoveryTest, AbortUndoesOnlyThatTransaction) {
  // The concurrent-updates scenario: A and B both deposit; A aborts; B's
  // deposit must survive.
  Step(&rm_, 1, ba_->DepositInv(5));
  Step(&rm_, 2, ba_->DepositInv(7));
  Step(&rm_, 1, ba_->DepositInv(1));
  EXPECT_EQ(BalanceOf(*rm_.CurrentState()), 13);
  rm_.Abort(1);
  EXPECT_EQ(BalanceOf(*rm_.CurrentState()), 7);
  rm_.Commit(2);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 7);
}

TEST_P(UipRecoveryTest, InterleavedCommitAbort) {
  Step(&rm_, 1, ba_->DepositInv(10));
  Step(&rm_, 2, ba_->WithdrawInv(4));  // sees A's deposit (UIP): ok
  Step(&rm_, 3, ba_->DepositInv(2));
  rm_.Commit(1);
  rm_.Abort(3);
  EXPECT_EQ(BalanceOf(*rm_.CurrentState()), 6);
  rm_.Commit(2);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 6);
  EXPECT_EQ(rm_.log_size(), 0u);
}

TEST_P(UipRecoveryTest, CheckpointBoundsLogUnderActivePrefix) {
  Step(&rm_, 1, ba_->DepositInv(1));  // active head blocks the fold
  for (int i = 0; i < 10; ++i) {
    const TxnId txn = 100 + i;
    Step(&rm_, txn, ba_->DepositInv(1));
    rm_.Commit(txn);
  }
  EXPECT_EQ(rm_.log_size(), 11u);  // blocked behind A's entry
  rm_.Commit(1);
  EXPECT_EQ(rm_.log_size(), 0u);  // everything folds
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 11);
}

TEST_P(UipRecoveryTest, AbortEmptyTransactionIsNoop) {
  Step(&rm_, 1, ba_->DepositInv(3));
  rm_.Abort(2);  // never executed anything
  EXPECT_EQ(BalanceOf(*rm_.CurrentState()), 3);
}

TEST_P(UipRecoveryTest, StatsAttributeWork) {
  Step(&rm_, 1, ba_->DepositInv(3));
  Step(&rm_, 2, ba_->DepositInv(2));
  rm_.Abort(2);
  rm_.Commit(1);
  const RecoveryStats& stats = rm_.stats();
  EXPECT_EQ(stats.applies, 2u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.aborts, 1u);
  if (GetParam() == UipUndoStrategy::kInverse) {
    EXPECT_GT(stats.inverse_ops, 0u);
    EXPECT_EQ(stats.replay_ops, 0u);
  } else {
    EXPECT_GT(stats.replay_ops, 0u);
    EXPECT_EQ(stats.inverse_ops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, UipRecoveryTest,
    ::testing::Values(UipUndoStrategy::kReplay, UipUndoStrategy::kInverse),
    [](const ::testing::TestParamInfo<UipUndoStrategy>& info) {
      return info.param == UipUndoStrategy::kReplay ? "Replay" : "Inverse";
    });

// Pins the O(ops-of-transaction) commit/checkpoint accounting (per-txn
// entry counts + incrementally accumulated redo records) against a shadow
// of the old full-log-scan algorithm on a randomized schedule: log length,
// live-transaction count, journal redo records, and both states must match
// the shadow after every step.
TEST(UipAccountingTest, RandomizedScheduleMatchesFullScanShadow) {
  for (UipUndoStrategy strategy :
       {UipUndoStrategy::kReplay, UipUndoStrategy::kInverse}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      auto ba = MakeBankAccount();
      MemoryLog log;
      UipRecovery rm(ba, strategy);
      rm.set_journal(&log.journal);

      struct ShadowEntry {
        TxnId txn;
        Operation op;
        int64_t amount;
      };
      std::deque<ShadowEntry> shadow_log;
      std::set<TxnId> shadow_committed;  // the old committed_in_log_
      int64_t shadow_base = 0;

      // The old Checkpoint: fold the committed prefix, then rebuild
      // still_in_log by scanning the whole log.
      auto shadow_checkpoint = [&] {
        while (!shadow_log.empty() &&
               shadow_committed.count(shadow_log.front().txn) > 0) {
          shadow_base += shadow_log.front().amount;
          shadow_log.pop_front();
        }
        std::set<TxnId> still_in_log;
        for (const ShadowEntry& e : shadow_log) still_in_log.insert(e.txn);
        for (auto it = shadow_committed.begin();
             it != shadow_committed.end();) {
          if (still_in_log.count(*it) == 0) {
            it = shadow_committed.erase(it);
          } else {
            ++it;
          }
        }
      };

      Random rng(seed * 31 + 7);
      std::vector<TxnId> active;
      TxnId next_txn = 1;
      size_t expected_records = 0;
      for (int step = 0; step < 250; ++step) {
        const uint64_t roll = rng.Uniform(10);
        if (roll < 6 || active.empty()) {
          TxnId txn;
          if (active.size() < 4 && (active.empty() || rng.Uniform(2) == 0)) {
            txn = next_txn++;
            active.push_back(txn);
          } else {
            txn = active[rng.Uniform(active.size())];
          }
          const int64_t amount =
              static_cast<int64_t>(1 + rng.Uniform(9));
          const Invocation inv = ba->DepositInv(amount);
          const Value result = Step(&rm, txn, inv);
          EXPECT_EQ(result, Value("ok"));
          shadow_log.push_back(
              ShadowEntry{txn, Operation(inv, result), amount});
        } else {
          const size_t pick = rng.Uniform(active.size());
          const TxnId txn = active[pick];
          active.erase(active.begin() + static_cast<long>(pick));
          if (roll < 8) {
            // Expected redo record, built the old way: scan the log.
            OpSeq expected;
            for (const ShadowEntry& e : shadow_log) {
              if (e.txn == txn) expected.push_back(e.op);
            }
            rm.Commit(txn);
            ++expected_records;
            const std::vector<Journal::CommitRecord> records = log.Records();
            ASSERT_EQ(records.size(), expected_records);
            const Journal::CommitRecord& rec = records.back();
            EXPECT_EQ(rec.txn, txn);
            ASSERT_EQ(rec.ops.size(), expected.size());
            for (size_t i = 0; i < expected.size(); ++i) {
              EXPECT_TRUE(rec.ops[i] == expected[i]);
            }
            shadow_committed.insert(txn);
            shadow_checkpoint();
          } else {
            rm.Abort(txn);
            std::deque<ShadowEntry> kept;
            for (ShadowEntry& e : shadow_log) {
              if (e.txn != txn) kept.push_back(std::move(e));
            }
            shadow_log.swap(kept);
            shadow_checkpoint();
          }
        }

        ASSERT_EQ(rm.log_size(), shadow_log.size());
        std::set<TxnId> distinct;
        for (const ShadowEntry& e : shadow_log) distinct.insert(e.txn);
        ASSERT_EQ(rm.live_txns_in_log(), distinct.size());
        int64_t current = shadow_base;
        int64_t committed = shadow_base;
        for (const ShadowEntry& e : shadow_log) {
          current += e.amount;
          if (shadow_committed.count(e.txn) > 0) committed += e.amount;
        }
        ASSERT_EQ(BalanceOf(*rm.CurrentState()), current);
        ASSERT_EQ(BalanceOf(*rm.CommittedState()), committed);
      }
    }
  }
}

// Replay and inverse undo must produce equieffective states on a randomized
// interleaving (property test over the arithmetic ADT).
TEST(UipStrategyEquivalenceTest, ReplayAndInverseAgree) {
  auto ba = MakeBankAccount();
  for (uint64_t seed = 0; seed < 30; ++seed) {
    UipRecovery replay(ba, UipUndoStrategy::kReplay);
    UipRecovery inverse(ba, UipUndoStrategy::kInverse);
    Random rng(seed);
    std::vector<TxnId> txns = {1, 2, 3};
    // Random deposits/withdrawals by three transactions, filtered through
    // the NRBC conflict relation exactly like the engine's lock table —
    // inverse undo is only promised correct for interleavings the conflict
    // relation admits.
    std::map<TxnId, OpSeq> held;
    for (int i = 0; i < 20; ++i) {
      const TxnId txn = txns[rng.Uniform(txns.size())];
      const int64_t amount = rng.UniformRange(1, 5);
      const Invocation inv = rng.Bernoulli(0.5) ? ba->DepositInv(amount)
                                                : ba->WithdrawInv(amount);
      std::vector<Outcome> a = replay.Candidates(txn, inv);
      std::vector<Outcome> b = inverse.Candidates(txn, inv);
      ASSERT_EQ(a.size(), b.size());
      if (a.empty()) continue;
      const Operation op(inv, a.front().result);
      ASSERT_EQ(a.front().result, b.front().result);
      bool conflicted = false;
      for (const auto& [holder, ops] : held) {
        if (holder == txn) continue;
        for (const Operation& h : ops) {
          if (!ba->RightCommutesBackward(op, h)) {
            conflicted = true;
            break;
          }
        }
        if (conflicted) break;
      }
      if (conflicted) continue;  // the lock manager would block here
      held[txn].push_back(op);
      replay.Apply(txn, op, std::move(a.front().next));
      inverse.Apply(txn, op, std::move(b.front().next));
    }
    // Abort one transaction, commit the others.
    replay.Abort(2);
    inverse.Abort(2);
    replay.Commit(1);
    inverse.Commit(1);
    replay.Commit(3);
    inverse.Commit(3);
    EXPECT_TRUE(
        replay.CommittedState()->Equals(*inverse.CommittedState()))
        << "seed " << seed << ": replay="
        << replay.CommittedState()->ToString()
        << " inverse=" << inverse.CommittedState()->ToString();
  }
}

// An ADT without inverses silently falls back to replay.
TEST(UipFallbackTest, NoInverseSupportFallsBackToReplay) {
  auto set = MakeIntSet();
  UipRecovery rm(set, UipUndoStrategy::kInverse);
  EXPECT_EQ(rm.name(), "UIP/replay");
  Step(&rm, 1, set->InsertInv(1));
  Step(&rm, 2, set->InsertInv(2));
  rm.Abort(1);
  rm.Commit(2);
  EXPECT_EQ(rm.CommittedState()->ToString(), "{2}");
}

class DuRecoveryTest : public ::testing::Test {
 protected:
  DuRecoveryTest() : ba_(MakeBankAccount()), rm_(ba_) {}
  std::shared_ptr<BankAccount> ba_;
  DuRecovery rm_;
};

TEST_F(DuRecoveryTest, WorkspaceIsolation) {
  Step(&rm_, 1, ba_->DepositInv(5));
  // B does not see A's uncommitted deposit.
  EXPECT_EQ(Step(&rm_, 2, ba_->BalanceInv()), Value(int64_t{0}));
  // A sees its own intentions.
  EXPECT_EQ(Step(&rm_, 1, ba_->BalanceInv()), Value(int64_t{5}));
}

TEST_F(DuRecoveryTest, CommitPublishes) {
  Step(&rm_, 1, ba_->DepositInv(5));
  rm_.Commit(1);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 5);
  EXPECT_EQ(Step(&rm_, 2, ba_->BalanceInv()), Value(int64_t{5}));
}

TEST_F(DuRecoveryTest, AbortDiscardsIntentions) {
  Step(&rm_, 1, ba_->DepositInv(5));
  EXPECT_EQ(rm_.intentions_size(1), 1u);
  rm_.Abort(1);
  EXPECT_EQ(rm_.intentions_size(1), 0u);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 0);
  // Abort did zero per-operation recovery work — DU's selling point.
  EXPECT_EQ(rm_.stats().replay_ops, 0u);
  EXPECT_EQ(rm_.stats().intention_ops, 0u);
}

TEST_F(DuRecoveryTest, WorkspaceRebasesAfterOthersCommit) {
  // A deposits 5 (uncommitted); B deposits 3 and commits; A's workspace
  // must rebase onto the new base: its view becomes 8.
  Step(&rm_, 1, ba_->DepositInv(5));
  Step(&rm_, 2, ba_->DepositInv(3));
  rm_.Commit(2);
  EXPECT_EQ(Step(&rm_, 1, ba_->BalanceInv()), Value(int64_t{8}));
  rm_.Commit(1);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 8);
  EXPECT_GT(rm_.stats().workspace_rebuilds, 0u);
}

TEST_F(DuRecoveryTest, CommitOrderDefinesBase) {
  // B commits before A: the base must reflect B's ops first. With
  // commuting deposits the final state agrees regardless; the intention
  // counts verify the application happened at commit.
  Step(&rm_, 1, ba_->DepositInv(5));
  Step(&rm_, 2, ba_->DepositInv(3));
  rm_.Commit(2);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 3);
  rm_.Commit(1);
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 8);
  EXPECT_EQ(rm_.stats().intention_ops, 2u);
}

TEST_F(DuRecoveryTest, PartialOperationDisabledInWorkspace) {
  // The committed balance is 5, but B's view must not see it until commit;
  // DU answers withdraw with "no" from B's workspace... with the bank
  // account withdraw is total. Use the semiqueue's partial dequeue instead.
  auto sq = MakeSemiqueue();
  DuRecovery rm(sq);
  Step(&rm, 1, sq->EnqInv(7));
  // B cannot dequeue: its workspace is empty (A uncommitted).
  EXPECT_TRUE(rm.Candidates(2, sq->DeqInv()).empty());
  rm.Commit(1);
  std::vector<Outcome> outcomes = rm.Candidates(2, sq->DeqInv());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes.front().result, Value(int64_t{7}));
}

TEST_F(DuRecoveryTest, ReadFreeCommitIsTrivial) {
  rm_.Commit(42);  // never executed anything
  EXPECT_EQ(BalanceOf(*rm_.CommittedState()), 0);
}

}  // namespace
}  // namespace ccr
