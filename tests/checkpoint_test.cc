// Copyright 2026 The ccr Authors.
//
// Fuzzy checkpoints and the segmented journal: state-codec round trips for
// every ADT, the checkpoint payload and image codecs, fail-atomic
// checkpoint publication with torn-newest fallback, segment rotation /
// truncation / continuity validation, checkpoint-then-tail restart
// (serial and parallel, with LSN-space continuation), the fail-atomic
// Restart regression, crash points across checkpoint write, rotation, and
// truncation, and a fuzzy checkpoint taken under live concurrent load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "adt/bank_account.h"
#include "adt/bounded_counter.h"
#include "adt/counter.h"
#include "adt/fifo_queue.h"
#include "adt/int_set.h"
#include "adt/kv_store.h"
#include "adt/register.h"
#include "adt/registry.h"
#include "adt/semiqueue.h"
#include "adt/state_codec.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "engine/engine.h"
#include "sim/crash_harness.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

// ---------------------------------------------------------------------------
// State codecs
// ---------------------------------------------------------------------------

void ExpectRoundTrip(const Adt& adt, const SpecState& state) {
  ASSERT_TRUE(adt.supports_state_codec()) << adt.name();
  const std::string encoded = adt.EncodeState(state);
  EXPECT_EQ(encoded.find('\n'), std::string::npos) << adt.name();
  StatusOr<std::unique_ptr<SpecState>> decoded = adt.DecodeState(encoded);
  ASSERT_TRUE(decoded.ok()) << adt.name() << ": " << decoded.status().ToString();
  EXPECT_TRUE((*decoded)->Equals(state))
      << adt.name() << ": " << state.ToString() << " -> " << encoded
      << " -> " << (*decoded)->ToString();
}

TEST(StateCodecTest, EveryAdtRoundTripsInitialAndPopulatedStates) {
  struct Case {
    std::shared_ptr<const Adt> adt;
    std::unique_ptr<SpecState> populated;
  };
  std::vector<Case> cases;
  cases.push_back({MakeCounter(),
                   std::make_unique<TypedState<Int64State>>(Int64State{42})});
  cases.push_back(
      {MakeBankAccount(),
       std::make_unique<TypedState<Int64State>>(Int64State{1234})});
  cases.push_back({MakeBoundedCounter(),
                   std::make_unique<TypedState<Int64State>>(Int64State{3})});
  cases.push_back({MakeRegister(),
                   std::make_unique<TypedState<Int64State>>(Int64State{-7})});
  cases.push_back({MakeFifoQueue(), std::make_unique<TypedState<QueueState>>(
                                        QueueState{{5, -1, 5, 0}})});
  cases.push_back({MakeIntSet(), std::make_unique<TypedState<SetState>>(
                                     SetState{{-3, 0, 11}})});
  cases.push_back({MakeKvStore(),
                   std::make_unique<TypedState<KvState>>(KvState{
                       {{"plain", 1}, {"with space", -2}, {"pct%sign", 3}}})});
  cases.push_back({MakeSemiqueue(), std::make_unique<TypedState<BagState>>(
                                        BagState{{{2, 3}, {-9, 1}}})});
  for (const Case& c : cases) {
    ExpectRoundTrip(*c.adt, *c.adt->spec().InitialState());
    ExpectRoundTrip(*c.adt, *c.populated);
  }
}

TEST(StateCodecTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(MakeCounter()->DecodeState("nonsense").ok());
  EXPECT_FALSE(MakeFifoQueue()->DecodeState("1 2 x").ok());
  EXPECT_FALSE(MakeSemiqueue()->DecodeState("5").ok());      // odd tokens
  EXPECT_FALSE(MakeSemiqueue()->DecodeState("5 0").ok());    // zero count
  EXPECT_FALSE(MakeKvStore()->DecodeState("loneKey").ok());  // odd tokens
}

TEST(StateCodecTest, EscapeTokenRoundTrips) {
  for (const std::string& raw :
       {std::string(""), std::string("plain"), std::string("two words"),
        std::string("100%"), std::string("%"), std::string("a\tb\nc")}) {
    const std::string token = EscapeToken(raw);
    EXPECT_EQ(token.find(' '), std::string::npos) << raw;
    EXPECT_EQ(token.find('\n'), std::string::npos) << raw;
    EXPECT_FALSE(token.empty()) << "empty token is unparseable";
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok()) << raw;
    EXPECT_EQ(*back, raw);
  }
  EXPECT_FALSE(UnescapeToken("%2").ok());   // truncated escape
  EXPECT_FALSE(UnescapeToken("%zz").ok());  // bad hex
}

// ---------------------------------------------------------------------------
// Checkpoint image codec and publication
// ---------------------------------------------------------------------------

TEST(CheckpointCodecTest, PayloadRoundTripsIncludingEmptyEncodings) {
  CheckpointImage image;
  image.anchor = 170;
  image.max_txn = 99;
  image.objects.push_back({"BA", "", 168, "i 41"});
  image.objects.push_back({"Q", "", 170, "1 2 3"});
  image.objects.push_back({"SET", "", 0, ""});  // empty state encoding
  const std::string payload = EncodeCheckpointPayload(image);
  StatusOr<CheckpointImage> back = DecodeCheckpointPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->anchor, 170u);
  EXPECT_EQ(back->max_txn, 99u);
  ASSERT_EQ(back->objects.size(), 3u);
  EXPECT_EQ(back->objects[0].id, "BA");
  EXPECT_EQ(back->objects[0].lsn, 168u);
  EXPECT_EQ(back->objects[0].encoded, "i 41");
  EXPECT_EQ(back->objects[1].encoded, "1 2 3");
  EXPECT_EQ(back->objects[2].lsn, 0u);
  EXPECT_EQ(back->objects[2].encoded, "");

  EXPECT_FALSE(DecodeCheckpointPayload("").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("nope 1 2\n").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("ckpt 1 2\nobj onlyid\n").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("ckpt 1 2\nobj X notanum s\n").ok());
}

// A two-object UIP system used by most scenarios below.
void TwoObjectFactory(TxnManager* manager) {
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                     std::make_unique<UipRecovery>(ba));
  manager->AddObject("SET", set, MakeNrbcConflict(set),
                     std::make_unique<UipRecovery>(set));
}

TEST(CheckpointerTest, WriteLoadNewestAndTornFallback) {
  TempDir dir;
  TxnManager manager;
  TwoObjectFactory(&manager);
  Journal journal;
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  auto ba = MakeBankAccount();
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(20)).status();
                  })
                  .ok());

  Checkpointer checkpointer(dir.path());
  const Lsn anchor1 = journal.high_lsn();
  ASSERT_TRUE(checkpointer.Write(&manager, anchor1).ok());

  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->WithdrawInv(5)).status();
                  })
                  .ok());
  const Lsn anchor2 = journal.high_lsn();
  ASSERT_TRUE(checkpointer.Write(&manager, anchor2).ok());

  // Newest wins; its per-object state reflects both transactions.
  StatusOr<CheckpointImage> image = Checkpointer::LoadNewest(dir.path());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->anchor, anchor2);
  EXPECT_EQ(image->max_txn, manager.max_assigned_txn());
  bool saw_ba = false;
  for (const auto& entry : image->objects) {
    if (entry.id != "BA") continue;
    saw_ba = true;
    StatusOr<std::unique_ptr<SpecState>> state = ba->DecodeState(entry.encoded);
    ASSERT_TRUE(state.ok());
    EXPECT_TRUE((*state)->Equals(*manager.object("BA")->CommittedState()));
  }
  EXPECT_TRUE(saw_ba);

  // Tear the newest image: loading falls back to the older checkpoint.
  {
    StatusOr<std::string> bytes =
        ReadFileImage(dir.path() + "/" + CheckpointFileName(anchor2));
    ASSERT_TRUE(bytes.ok());
    std::string torn = bytes->substr(0, bytes->size() / 2);
    StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(dir.path() + "/" + CheckpointFileName(anchor2));
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Append(torn).ok());
    ASSERT_TRUE((*sink)->Close().ok());
  }
  image = Checkpointer::LoadNewest(dir.path());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->anchor, anchor1);

  // Both images damaged: recovery must refuse (the journal may have been
  // truncated against one of these anchors), not silently replay nothing.
  {
    StatusOr<std::string> bytes =
        ReadFileImage(dir.path() + "/" + CheckpointFileName(anchor1));
    ASSERT_TRUE(bytes.ok());
    std::string rotted = *bytes;
    FlipByte(&rotted, rotted.size() / 2, 0x20);
    StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(dir.path() + "/" + CheckpointFileName(anchor1));
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Append(rotted).ok());
    ASSERT_TRUE((*sink)->Close().ok());
  }
  EXPECT_FALSE(Checkpointer::LoadNewest(dir.path()).ok());
}

TEST(CheckpointerTest, EmptyDirLoadsEmptyImageAndGcKeepsTwo) {
  TempDir dir;
  StatusOr<CheckpointImage> none = Checkpointer::LoadNewest(dir.path());
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->anchor, 0u);
  EXPECT_TRUE(none->objects.empty());

  TxnManager manager;
  TwoObjectFactory(&manager);
  Journal journal;
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  auto ba = MakeBankAccount();
  Checkpointer checkpointer(dir.path());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, ba->DepositInv(1)).status();
                    })
                    .ok());
    ASSERT_TRUE(checkpointer.Write(&manager, journal.high_lsn()).ok());
  }
  // GC keeps the newest two checkpoint files (plus no tmp leftovers).
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  size_t checkpoints = 0;
  for (const std::string& name : *names) {
    EXPECT_NE(name, "checkpoint.tmp");
    if (name.rfind("checkpoint.", 0) == 0) ++checkpoints;
  }
  EXPECT_EQ(checkpoints, 2u);
}

// ---------------------------------------------------------------------------
// Segmented sink: rotation, truncation, scan continuity
// ---------------------------------------------------------------------------

Journal::CommitRecord DepositRecord(TxnId txn, int64_t amount) {
  auto ba = MakeBankAccount();
  return Journal::CommitRecord{txn, OpSeq{ba->Deposit(amount)}};
}

// Path of the highest-numbered segment file (names are zero-padded, so
// lexicographic max is numeric max).
std::string LastSegmentPath(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  CCR_CHECK(names.ok());
  std::string best;
  for (const std::string& name : *names) {
    if (name.rfind("journal.", 0) == 0 && (best.empty() || name > best)) {
      best = name;
    }
  }
  CCR_CHECK_MSG(!best.empty(), "no segment files in %s", dir.c_str());
  return dir + "/" + best;
}

// Simulates a torn write: the raw bytes land at the end of the file with
// no framing discipline, as a crash mid-write would leave them.
void AppendRawBytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  CCR_CHECK(f != nullptr);
  CCR_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  CCR_CHECK(std::fclose(f) == 0);
}

TEST(SegmentedSinkTest, RotatesTruncatesAndScansContiguously) {
  TempDir dir;
  SegmentedSinkOptions options;
  options.max_segment_bytes = 96;  // a few records per segment
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1, options);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  constexpr size_t kRecords = 20;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(
        (*sink)
            ->Append(EncodeCommitRecord(
                DepositRecord(i + 1, static_cast<int64_t>(100 + i))))
            .ok());
  }
  ASSERT_TRUE((*sink)->Sync().ok());
  EXPECT_EQ((*sink)->next_lsn(), kRecords + 1);
  const size_t segments_full = (*sink)->segment_count();
  EXPECT_GT(segments_full, 3u);

  // Scan from scratch: every record, in LSN order.
  std::vector<Lsn> lsns;
  RecoveryReport report;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn lsn, Journal::CommitRecord&& record) {
                    EXPECT_EQ(record.txn, lsn);  // txn i at lsn i by script
                    lsns.push_back(lsn);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  ASSERT_EQ(lsns.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) EXPECT_EQ(lsns[i], i + 1);
  EXPECT_EQ(report.records_replayed, kRecords);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_FALSE(report.corrupt_tail);

  // Truncate below an anchor: only wholly covered sealed segments go; the
  // records above the anchor all survive.
  const Lsn anchor = 9;
  ASSERT_TRUE((*sink)->TruncateBelow(anchor).ok());
  EXPECT_LT((*sink)->segment_count(), segments_full);
  lsns.clear();
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), anchor,
                  [&](Lsn lsn, Journal::CommitRecord&&) {
                    lsns.push_back(lsn);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  ASSERT_FALSE(lsns.empty());
  for (size_t i = 0; i < lsns.size(); ++i) {
    EXPECT_EQ(lsns[i], anchor + 1 + i);
  }
  EXPECT_EQ(lsns.back(), kRecords);

  // Scanning for a tail the truncation already deleted must fail loudly:
  // the first surviving segment starts past after_lsn + 1.
  RecoveryReport gap_report;
  const Status gap = ForEachSegmentedRecord(
      dir.path(), 0, [](Lsn, Journal::CommitRecord&&) { return Status::OK(); },
      &gap_report);
  EXPECT_EQ(gap.code(), StatusCode::kInternal);
}

TEST(SegmentedSinkTest, ReopenContinuesSequenceAndCleansArtifacts) {
  TempDir dir;
  SegmentedSinkOptions options;
  options.max_segment_bytes = 96;
  Lsn next_lsn = 1;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          (*sink)->Append(EncodeCommitRecord(DepositRecord(i + 1, 7))).ok());
    }
    ASSERT_TRUE((*sink)->Sync().ok());
    next_lsn = (*sink)->next_lsn();
  }
  // A rotation-crash artifact: a headerless segment file past the last
  // real one. Reopen must unlink it and continue the sequence after it.
  const std::string artifact = dir.path() + "/" + SegmentFileName(999);
  {
    StatusOr<std::unique_ptr<FileSink>> f = FileSink::Open(artifact);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("garbage-that-is-not-a-frame").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(9, 7))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }
  StatusOr<std::vector<std::string>> names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_NE(dir.path() + "/" + name, artifact);
  }
  // The whole journal still scans clean across the reopen boundary.
  size_t records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn, Journal::CommitRecord&&) {
                    ++records;
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(records, 9u);
}

TEST(SegmentedSinkTest, ReopenTruncatesTornTailSoSecondScanSucceeds) {
  TempDir dir;
  SegmentedSinkOptions options;
  Lsn next_lsn = 1;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok());
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          (*sink)->Append(EncodeCommitRecord(DepositRecord(i + 1, 5))).ok());
    }
    ASSERT_TRUE((*sink)->Sync().ok());
    next_lsn = (*sink)->next_lsn();
  }
  // The crash: the 7th record's write is interrupted mid-frame.
  const std::string torn_path = LastSegmentPath(dir.path());
  const std::string frame = EncodeCommitRecord(DepositRecord(7, 5));
  AppendRawBytes(torn_path,
                 std::string_view(frame).substr(0, frame.size() / 2));
  struct ::stat torn_stat;
  ASSERT_EQ(::stat(torn_path.c_str(), &torn_stat), 0);

  // First restart tolerates the torn tail: it is in the final segment.
  RecoveryReport report;
  size_t records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn, Journal::CommitRecord&&) {
                    ++records;
                    return Status::OK();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(records, 6u);
  EXPECT_TRUE(report.corrupt_tail);

  // The resume protocol: reopen for writing. The reopen buries the torn
  // segment under a new active one, so the torn bytes must be physically
  // gone, not merely tolerated.
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), next_lsn, options);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    struct ::stat clean_stat;
    ASSERT_EQ(::stat(torn_path.c_str(), &clean_stat), 0);
    EXPECT_EQ(static_cast<size_t>(clean_stat.st_size),
              static_cast<size_t>(torn_stat.st_size) - frame.size() / 2);
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(7, 5))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }

  // Second restart: the once-torn segment is no longer final. Before the
  // reopen truncated it physically, this scan hit the damaged frame in a
  // non-final segment and the directory was unrecoverable forever.
  records = 0;
  ASSERT_TRUE(ForEachSegmentedRecord(
                  dir.path(), 0,
                  [&](Lsn lsn, Journal::CommitRecord&&) {
                    ++records;
                    EXPECT_EQ(lsn, records);
                    return Status::OK();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(records, 7u);
  EXPECT_FALSE(report.corrupt_tail);
}

TEST(SegmentedSinkTest, ReopenDoesNotUnlinkSegmentItCannotRead) {
  TempDir dir;
  {
    StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
        SegmentedFileSink::Open(dir.path(), 1, SegmentedSinkOptions{});
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(
        (*sink)->Append(EncodeCommitRecord(DepositRecord(1, 5))).ok());
    ASSERT_TRUE((*sink)->Sync().ok());
  }
  // A trailing segment-named entry whose image cannot be read (a
  // directory: reading it fails with EISDIR). A failed read proves
  // nothing about the contents, so reopen must fail loudly instead of
  // unlinking what could be a sealed segment full of durable records.
  const std::string unreadable = dir.path() + "/" + SegmentFileName(999);
  ASSERT_EQ(::mkdir(unreadable.c_str(), 0700), 0);
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 2, SegmentedSinkOptions{});
  EXPECT_FALSE(sink.ok());
  struct ::stat st;
  EXPECT_EQ(::stat(unreadable.c_str(), &st), 0);
  ASSERT_EQ(::rmdir(unreadable.c_str()), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint-aware restart
// ---------------------------------------------------------------------------

Status Deposit(TxnManager* manager, int64_t amount) {
  auto ba = MakeBankAccount();
  return manager->RunTransaction([&](Transaction* txn) {
    return manager->Execute(txn, ba->DepositInv(amount)).status();
  });
}

// A kSync engine over the two-object system in `dir`; the open must
// succeed.
std::unique_ptr<Engine> OpenTwoObjectEngine(const std::string& dir) {
  EngineOptions options;
  options.group_commit.mode = DurabilityMode::kSync;
  options.journal.max_segment_bytes = 160;
  StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir, std::move(options), TwoObjectFactory);
  CCR_CHECK_MSG(engine.ok(), "%s", engine.status().ToString().c_str());
  return std::move(*engine);
}

struct LifecycleWorld {
  TempDir dir;
  std::unique_ptr<Engine> engine = OpenTwoObjectEngine(dir.path());
  TxnManager& manager = *engine->manager();

  Status Deposit(int64_t amount) { return ccr::Deposit(&manager, amount); }
  Status Insert(int64_t elem) {
    auto set = MakeIntSet();
    return manager.RunTransaction([&](Transaction* txn) {
      return manager.Execute(txn, set->InsertInv(elem)).status();
    });
  }
};

TEST(RestartFromDirTest, CheckpointPlusTailSerialAndParallel) {
  LifecycleWorld world;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(world.Deposit(5).ok());
    ASSERT_TRUE(world.Insert(i).ok());
  }
  // Checkpoint, truncate, then keep committing: the post-crash journal is
  // checkpoint + tail only.
  const StatusOr<Lsn> anchor = world.engine->Checkpoint();
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(world.Deposit(3).ok());
    ASSERT_TRUE(world.Insert(100 + i).ok());
  }
  const Lsn high = world.engine->journal()->high_lsn();
  const TxnId max_txn = world.manager.max_assigned_txn();

  for (const int threads : {1, 4}) {
    TxnManager restarted;
    TwoObjectFactory(&restarted);
    StatusOr<RestartSummary> summary =
        restarted.RestartFromDir(world.dir.path(), RestartOptions{threads});
    ASSERT_TRUE(summary.ok())
        << threads << " threads: " << summary.status().ToString();
    EXPECT_EQ(summary->checkpoint_anchor, *anchor);
    EXPECT_EQ(summary->checkpoint_objects, 2u);
    EXPECT_EQ(summary->high_lsn, high);
    EXPECT_EQ(summary->max_txn, max_txn);
    EXPECT_EQ(summary->tail_records, static_cast<size_t>(high - *anchor));
    for (AtomicObject* obj : restarted.objects()) {
      EXPECT_TRUE(obj->CommittedState()->Equals(
          *world.manager.object(obj->id())->CommittedState()))
          << "object " << obj->id() << " with " << threads << " threads";
    }
    // The watermark survived: the next transaction gets a fresh id.
    EXPECT_EQ(restarted.max_assigned_txn(), max_txn);
  }
}

TEST(RestartFromDirTest, LsnSpaceContinuesAcrossRestart) {
  LifecycleWorld world;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(world.Deposit(2).ok());
  ASSERT_TRUE(world.engine->Checkpoint().ok());
  ASSERT_TRUE(world.Deposit(10).ok());
  const Lsn high = world.engine->journal()->high_lsn();
  const TxnId max_txn = world.manager.max_assigned_txn();
  world.engine.reset();

  // Generation 2: Engine::Open restarts and resumes journaling after high.
  const std::unique_ptr<Engine> gen2 = OpenTwoObjectEngine(world.dir.path());
  ASSERT_EQ(gen2->restart().high_lsn, high);
  ASSERT_TRUE(Deposit(gen2->manager(), 100).ok());
  EXPECT_EQ(gen2->journal()->high_lsn(), high + 1);

  // Generation 3 sees one seamless LSN space: checkpoint + old tail + new
  // records, states carried exactly.
  TxnManager gen3;
  TwoObjectFactory(&gen3);
  StatusOr<RestartSummary> summary3 = gen3.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary3.ok()) << summary3.status().ToString();
  EXPECT_EQ(summary3->high_lsn, high + 1);
  EXPECT_GT(summary3->max_txn, max_txn);
  EXPECT_TRUE(gen3.object("BA")->CommittedState()->Equals(
      *gen2->manager()->object("BA")->CommittedState()));
}

TEST(RestartFromDirTest, TornTailToleratedAcrossTwoRestarts) {
  LifecycleWorld world;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(world.Deposit(2).ok());
  ASSERT_TRUE(world.engine->Checkpoint().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(world.Deposit(10).ok());
  const Lsn high = world.engine->journal()->high_lsn();
  // The crash: drop the engine, then leave a half-written record on the
  // active segment's tail.
  world.engine.reset();
  const std::string frame = EncodeCommitRecord(DepositRecord(99, 1));
  AppendRawBytes(LastSegmentPath(world.dir.path()),
                 std::string_view(frame).substr(0, frame.size() - 3));

  // Restart 1 tolerates the torn tail, then resumes: a fresh active
  // segment at high_lsn + 1, more commits.
  std::unique_ptr<Engine> gen2 = OpenTwoObjectEngine(world.dir.path());
  ASSERT_EQ(gen2->restart().high_lsn, high);
  EXPECT_TRUE(gen2->restart().scan.corrupt_tail);
  ASSERT_TRUE(Deposit(gen2->manager(), 100).ok());
  const std::unique_ptr<SpecState> balance =
      gen2->manager()->object("BA")->CommittedState();
  gen2.reset();

  // Restart 2: the torn bytes sat in what is now a non-final segment —
  // recovery succeeds only because the gen-2 reopen physically removed
  // them (this restart returned kInternal before the fix).
  TxnManager gen3;
  TwoObjectFactory(&gen3);
  StatusOr<RestartSummary> summary3 = gen3.RestartFromDir(world.dir.path());
  ASSERT_TRUE(summary3.ok()) << summary3.status().ToString();
  EXPECT_EQ(summary3->high_lsn, high + 1);
  EXPECT_FALSE(summary3->scan.corrupt_tail);
  EXPECT_TRUE(gen3.object("BA")->CommittedState()->Equals(*balance));
}

// ---------------------------------------------------------------------------
// Fail-atomic restart (regression)
// ---------------------------------------------------------------------------

// A record naming an object the restarted system does not have.
Journal::CommitRecord AlienRecord(TxnId txn) {
  return Journal::CommitRecord{
      txn, OpSeq{Operation(Invocation("GHOST", BankAccount::kDeposit,
                                      "deposit", {Value(int64_t{1})}),
                           Value("ok"))}};
}

// A journal image whose middle record names an object the restarted system
// does not have: restart errors out after scanning the first record.
// Fail-atomicity requires every object to come back empty — the error path
// must not leak a half-replayed state that looks recovered.
TEST(FailAtomicRestartTest, ErrorPathLeavesObjectsEmpty) {
  auto ba = MakeBankAccount();
  const Journal::CommitRecord good1 = DepositRecord(1, 50);
  const Journal::CommitRecord good2 = DepositRecord(3, 7);
  std::string image = EncodeCommitRecord(good1);
  image += EncodeCommitRecord(AlienRecord(2));
  image += EncodeCommitRecord(good2);

  TxnManager manager;
  AtomicObject* obj =
      manager.AddObject("BA", ba, MakeNrbcConflict(ba),
                        std::make_unique<UipRecovery>(ba));
  ASSERT_EQ(manager.RestartFromImage(image).status().code(),
            StatusCode::kInternal);
  // Nothing of record 1's deposit may survive the error.
  EXPECT_TRUE(
      obj->CommittedState()->Equals(*ba->spec().InitialState()))
      << "half-replayed state leaked: " << obj->CommittedState()->ToString();
  EXPECT_EQ(obj->last_committed_lsn(), kNoLsn);

  // The manager is reusable: a clean image restarts fine afterwards.
  std::string clean = EncodeCommitRecord(good1);
  clean += EncodeCommitRecord(good2);
  ASSERT_TRUE(manager.RestartFromImage(clean).ok());
  EXPECT_EQ(TypedSpecAutomaton<Int64State>::Unwrap(*obj->CommittedState()).v,
            57);
}

TEST(FailAtomicRestartTest, InMemoryRestartAlsoResets) {
  auto ba = MakeBankAccount();
  auto set = MakeIntSet();
  // The scan rejects the first journal (it names an unknown object). The
  // second fails in replay itself, after record 1 was applied: record 2's
  // withdraw cannot reproduce its journaled "ok" on a balance of 50. Either
  // way every object must come back at its initial state, whether the
  // buckets replay serially or in parallel.
  const Journal alien({DepositRecord(1, 50), AlienRecord(2)});
  const Journal stuck(
      {Journal::CommitRecord{1, OpSeq{ba->Deposit(50), set->Insert(7)}},
       Journal::CommitRecord{2, OpSeq{ba->WithdrawOk(1000)}}});
  for (const Journal* journal : {&alien, &stuck}) {
    for (int threads : {1, 4}) {
      TxnManager manager;
      TwoObjectFactory(&manager);
      ASSERT_EQ(manager.RestartFromImage(EncodeJournalImage(*journal),
                                         {threads})
                    .status()
                    .code(),
                StatusCode::kInternal);
      for (AtomicObject* obj : manager.objects()) {
        EXPECT_TRUE(
            obj->CommittedState()->Equals(*obj->adt().spec().InitialState()))
            << obj->id() << " leaked " << obj->CommittedState()->ToString();
        EXPECT_EQ(obj->last_committed_lsn(), kNoLsn) << obj->id();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash points across checkpoint write, rotation, truncation
// ---------------------------------------------------------------------------

TxnBody MixedBody() {
  const auto ba = MakeBankAccount();
  const auto set = MakeIntSet();
  return [ba, set](TxnManager* manager, Transaction* txn,
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
    return Status::OK();
  };
}

TEST(CheckpointCrashTest, RecoveryConsistentAtEveryMaintenanceCrashPoint) {
  const std::vector<std::string> points = {
      "",  // clean run: rotations, checkpoints, and truncations all land
      "rot.before_seal_sync", "rot.before_seal_close", "rot.after_create",
      "rot.before_header_sync", "trunc.before_unlink", "trunc.after_unlink",
      "trunc.before_dirsync", "ckpt.before_tmp", "ckpt.torn_tmp",
      "ckpt.before_tmp_sync", "ckpt.before_rename", "ckpt.before_dirsync",
      "ckpt.before_gc"};
  for (const std::string& point : points) {
    CrashScenarioOptions options;
    options.driver.threads = 2;
    options.driver.txns_per_thread = 30;
    options.driver.seed = 7;
    options.max_segment_bytes = 256;
    options.maintenance_every = 15;
    options.fault = CrashFault::AtPoint(point);
    options.replay_threads = 2;
    const CrashScenarioResult result =
        RunCrashScenario(TwoObjectFactory, MixedBody(), options);
    EXPECT_TRUE(result.ok())
        << "point '" << point << "': status " << result.status.ToString()
        << ", on disk " << result.records_on_disk << "/"
        << result.records_total << ", acked " << result.acked
        << ", prefix_ok " << result.prefix_ok << ", state_ok "
        << result.state_ok << ", acked_lost " << result.acked_lost
        << ", high_lsn " << result.summary.high_lsn;
    if (point.empty()) {
      EXPECT_FALSE(result.fault_fired);
      EXPECT_EQ(result.records_on_disk, result.records_total);
      EXPECT_GE(result.checkpoints, 1u);
      EXPECT_GE(result.truncations, 1u);
      EXPECT_GT(result.summary.checkpoint_anchor, 0u);
    } else {
      EXPECT_TRUE(result.fault_fired)
          << "point '" << point << "' was never reached — the scenario "
          << "does not exercise it";
    }
  }
}

// A fuzzy checkpoint must never be published ahead of the durable journal.
// The walk snapshots each object at its last SEQUENCED LSN, and restart
// resumes the LSN space after max(anchor, durable tail): were the image
// published with an LSN the journal had not made durable, the next
// generation would reuse that LSN, and the one after would skip its record
// as covered by the image — an acknowledged commit lost at the second
// restart. Single-threaded and deterministic: a 10 s linger keeps the
// second deposit sequenced but not durable until something waits for it.
class CheckpointDurabilityTest
    : public ::testing::TestWithParam<DurabilityMode> {};

void CopyDir(const std::string& from, const std::string& to) {
  StatusOr<std::vector<std::string>> names = ListDir(from);
  CCR_CHECK(names.ok());
  for (const std::string& name : *names) {
    StatusOr<std::string> bytes = ReadFileImage(from + "/" + name);
    CCR_CHECK(bytes.ok());
    StatusOr<std::unique_ptr<FileSink>> copy = FileSink::Open(to + "/" + name);
    CCR_CHECK(copy.ok());
    CCR_CHECK((*copy)->Append(*bytes).ok());
    CCR_CHECK((*copy)->Sync().ok());
    CCR_CHECK((*copy)->Close().ok());
  }
}

int64_t BalanceOf(const SpecState& state) {
  return TypedSpecAutomaton<Int64State>::Unwrap(state).v;
}

void SingleAccountFactory(TxnManager* manager) {
  auto ba = MakeBankAccount();
  manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                     std::make_unique<UipRecovery>(ba));
}

TEST_P(CheckpointDurabilityTest, AckedCommitSurvivesTheSecondRestart) {
  TempDir dir;
  TempDir crashed;  // what the disk held at the crash
  auto ba = MakeBankAccount();
  const auto deposit = [&](TxnManager* manager, int64_t amount) {
    return manager->RunTransaction([&](Transaction* txn) {
      return manager->Execute(txn, ba->DepositInv(amount)).status();
    });
  };
  const auto open = [](const TempDir& at, DurabilityMode mode) {
    EngineOptions options;
    options.group_commit.mode = mode;
    options.group_commit.max_delay_us = 10'000'000;
    return Engine::Open(at.path(), std::move(options), SingleAccountFactory);
  };
  {
    const StatusOr<std::unique_ptr<Engine>> gen1 = open(dir, GetParam());
    ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
    TxnManager* manager = (*gen1)->manager();
    ASSERT_TRUE(deposit(manager, 5).ok());  // acknowledged at LSN 1
    const Lsn anchor = (*gen1)->journal()->high_lsn();
    ASSERT_EQ(anchor, 1u);
    auto txn = manager->Begin();
    ASSERT_TRUE(manager->Execute(txn.get(), ba->DepositInv(7)).ok());
    const StatusOr<Lsn> lsn = manager->CommitAsync(txn.get());
    ASSERT_TRUE(lsn.ok());
    ASSERT_EQ(*lsn, 2u);
    EXPECT_LT((*gen1)->pipeline()->durable_lsn(), 2u);  // sequenced, lingering
    // The anchor read before the second commit, not Engine::Checkpoint's.
    ASSERT_TRUE(Checkpointer(dir.path()).Write(manager, anchor).ok());
    CopyDir(dir.path(), crashed.path());  // the crash
  }
  // Generation 2 opens the crashed disk, which resumes journaling after
  // its high LSN, and acknowledges a deposit of 100 under kSync.
  {
    const StatusOr<std::unique_ptr<Engine>> gen2 =
        open(crashed, DurabilityMode::kSync);
    ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
    TxnManager* manager = (*gen2)->manager();
    EXPECT_EQ(BalanceOf(*manager->object("BA")->CommittedState()), 12);
    ASSERT_TRUE(deposit(manager, 100).ok());
    EXPECT_EQ(BalanceOf(*manager->object("BA")->CommittedState()), 112);
  }
  // Generation 3: the acknowledged deposit is still there.
  TxnManager gen3;
  SingleAccountFactory(&gen3);
  StatusOr<RestartSummary> summary = gen3.RestartFromDir(crashed.path());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->high_lsn, 3u);  // 5, 7, then 100 — no LSN reused
  EXPECT_EQ(BalanceOf(*gen3.object("BA")->CommittedState()), 112);
}

INSTANTIATE_TEST_SUITE_P(
    AckModes, CheckpointDurabilityTest,
    ::testing::Values(DurabilityMode::kGroup, DurabilityMode::kRelaxed),
    [](const ::testing::TestParamInfo<DurabilityMode>& info) {
      return info.param == DurabilityMode::kGroup ? "Group" : "Relaxed";
    });

// ---------------------------------------------------------------------------
// Fuzzy checkpoint under live concurrent load
// ---------------------------------------------------------------------------

TEST(FuzzyCheckpointTest, CheckpointsTakenUnderLoadRestartExactly) {
  TempDir dir;
  EngineOptions options;
  options.group_commit.mode = DurabilityMode::kSync;
  options.journal.max_segment_bytes = 512;
  const StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir.path(), std::move(options), TwoObjectFactory);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TxnManager* manager = (*engine)->manager();

  // Maintenance races the workload: Engine::Checkpoint reads the anchor
  // from the journal BEFORE the object walk each pass — the ordering the
  // fuzzy-checkpoint soundness argument hinges on.
  std::atomic<bool> done{false};
  std::atomic<int> passes{0};
  std::thread maintenance([&] {
    while (!done.load(std::memory_order_acquire)) {
      if ((*engine)->journal()->high_lsn() > 0) {
        const StatusOr<Lsn> written = (*engine)->Checkpoint();
        CCR_CHECK_MSG(written.ok(), "%s",
                      written.status().ToString().c_str());
        passes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  DriverOptions driver;
  driver.threads = 3;
  driver.txns_per_thread = 40;
  driver.seed = 13;
  RunWorkload(manager, MixedBody(), driver);
  done.store(true, std::memory_order_release);
  maintenance.join();
  ASSERT_GT(passes.load(), 0);

  TxnManager restarted;
  TwoObjectFactory(&restarted);
  StatusOr<RestartSummary> summary =
      restarted.RestartFromDir(dir.path(), RestartOptions{4});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->high_lsn, (*engine)->journal()->high_lsn());
  for (AtomicObject* obj : restarted.objects()) {
    EXPECT_TRUE(obj->CommittedState()->Equals(
        *manager->object(obj->id())->CommittedState()))
        << "object " << obj->id();
  }
}

// ---------------------------------------------------------------------------
// State-codec fuzz (the empty-token / control-byte escaping regression) and
// best-effort checkpoint GC
// ---------------------------------------------------------------------------

// Regression for the escaping bug: NeedsEscape treated only space, '%',
// newline, and tab as unsafe, so payloads like "\r", "\v", "\f", NUL, or
// DEL flowed raw into the space-separated token stream and broke (or
// silently changed) round trips. Fuzz EscapeToken/UnescapeToken over the
// full byte range, plus the named degenerate payloads.
TEST(StateCodecTest, EscapeTokenFuzzOverFullByteRange) {
  const std::vector<std::string> named = {
      std::string(),           // empty token — must encode non-empty
      " ",    "  ",    "\t",   "\n",   "\r",   "\v",   "\f",
      " \t\n\r\v\f ",          // all-whitespace
      std::string(1, '\0'),    // NUL
      std::string("a\0b", 3),  // embedded NUL
      "\x7f", "%",     "%%",   "%20",  "100% done",
  };
  for (const std::string& raw : named) {
    const std::string token = EscapeToken(raw);
    ASSERT_FALSE(token.empty());
    for (const char c : token) {
      EXPECT_TRUE(static_cast<unsigned char>(c) > 0x20 && c != 0x7f)
          << "raw bytes leaked into token";
    }
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, raw);
  }
  Random rng(41);
  for (int i = 0; i < 500; ++i) {
    std::string raw;
    const size_t len = rng.Uniform(13);
    for (size_t j = 0; j < len; ++j) {
      raw.push_back(static_cast<char>(rng.Uniform(256)));
    }
    const std::string token = EscapeToken(raw);
    ASSERT_FALSE(token.empty()) << i;
    EXPECT_EQ(token.find(' '), std::string::npos) << i;
    EXPECT_EQ(token.find('\n'), std::string::npos) << i;
    EXPECT_EQ(token.find('\t'), std::string::npos) << i;
    StatusOr<std::string> back = UnescapeToken(token);
    ASSERT_TRUE(back.ok()) << i;
    EXPECT_EQ(*back, raw) << i;
  }
}

TEST(StateCodecTest, EveryRegisteredAdtRoundTripsItsInitialState) {
  const std::vector<std::shared_ptr<Adt>> adts = AllAdts();
  EXPECT_EQ(adts.size(), 8u);
  for (const std::shared_ptr<Adt>& adt : adts) {
    ASSERT_TRUE(adt->supports_state_codec()) << adt->name();
    ExpectRoundTrip(*adt, *adt->spec().InitialState());
  }
}

// Degenerate KV payloads through every codec layer that carries them:
// ADT state codec, the checkpoint file payload, and the store value codec.
TEST(StateCodecTest, DegenerateKvPayloadsRoundTripThroughEveryLayer) {
  const auto kv = MakeKvStore();
  KvState state;
  state.entries[""] = 1;                      // empty-string key
  state.entries[" "] = 2;                     // single space
  state.entries[" \t\n\r\v\f"] = 3;           // all-whitespace
  state.entries[std::string("n\0l", 3)] = 4;  // embedded NUL
  state.entries["%"] = 5;
  state.entries["\x7f"] = 6;
  const TypedState<KvState> typed(state);
  ExpectRoundTrip(*kv, typed);

  const std::string encoded = kv->EncodeState(typed);
  CheckpointImage image;
  image.anchor = 9;
  image.max_txn = 4;
  image.objects.push_back({"KV", "", 9, encoded});
  StatusOr<CheckpointImage> file_trip =
      DecodeCheckpointPayload(EncodeCheckpointPayload(image));
  ASSERT_TRUE(file_trip.ok()) << file_trip.status().ToString();
  ASSERT_EQ(file_trip->objects.size(), 1u);
  EXPECT_EQ(file_trip->objects[0].encoded, encoded);
  StatusOr<std::unique_ptr<SpecState>> from_file =
      kv->DecodeState(file_trip->objects[0].encoded);
  ASSERT_TRUE(from_file.ok());
  EXPECT_TRUE((*from_file)->Equals(typed));

  StatusOr<CheckpointImage::ObjectEntry> store_trip =
      DecodeStoreObjectValue(EncodeStoreObjectValue(9, "kv-factory", encoded));
  ASSERT_TRUE(store_trip.ok()) << store_trip.status().ToString();
  EXPECT_EQ(store_trip->lsn, 9u);
  EXPECT_EQ(store_trip->factory, "kv-factory");
  EXPECT_EQ(store_trip->encoded, encoded);
}

// GC is best-effort across the whole retention list: one unremovable old
// image (here a checkpoint-named directory with a file inside, so
// std::remove fails) must not shield older images from collection. The
// error is reported — but only after the sweep removed everything it
// could and made the removals durable with a directory sync.
TEST(CheckpointerTest, GcIsBestEffortAndReportsFirstError) {
  TempDir dir;
  TxnManager manager;
  TwoObjectFactory(&manager);
  Journal journal;
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  auto ba = MakeBankAccount();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager
                    .RunTransaction([&](Transaction* txn) {
                      return manager.Execute(txn, ba->DepositInv(5)).status();
                    })
                    .ok());
  }

  // Old images awaiting collection. GC sweeps newest-first, so the
  // unremovable directory gets the HIGHEST victim anchor: an early-abort
  // GC (the regression) would hit it first and leave the two removable
  // files behind.
  const std::string undead = dir.path() + "/" + CheckpointFileName(3);
  ASSERT_EQ(::mkdir(undead.c_str(), 0700), 0);
  {
    std::FILE* f = std::fopen((undead + "/pin").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  for (const Lsn anchor : {Lsn(1), Lsn(2)}) {
    std::FILE* f =
        std::fopen((dir.path() + "/" + CheckpointFileName(anchor)).c_str(),
                   "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("stale", f);
    std::fclose(f);
  }

  Checkpointer checkpointer(dir.path(), CheckpointerOptions{.keep = 1});
  const Lsn anchor = journal.high_lsn();
  const StatusOr<Lsn> written = checkpointer.Write(&manager, anchor);
  // The new image is durable and loadable; the GC failure is reported.
  ASSERT_FALSE(written.ok()) << "unremovable image went unreported";
  EXPECT_NE(written.status().message().find("cannot remove"),
            std::string::npos)
      << written.status().ToString();
  StatusOr<CheckpointImage> newest = Checkpointer::LoadNewest(dir.path());
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->anchor, anchor);
  // Both removable victims went even though the sweep's FIRST victim (the
  // directory, newest of the old anchors) failed to remove.
  struct ::stat st;
  EXPECT_EQ(::stat(undead.c_str(), &st), 0) << "unremovable image vanished";
  EXPECT_NE(::stat((dir.path() + "/" + CheckpointFileName(1)).c_str(), &st),
            0);
  EXPECT_NE(::stat((dir.path() + "/" + CheckpointFileName(2)).c_str(), &st),
            0);

  // A second write with the blocker gone succeeds and GCs cleanly.
  ASSERT_EQ(std::remove((undead + "/pin").c_str()), 0);
  ASSERT_EQ(::rmdir(undead.c_str()), 0);
  ASSERT_TRUE(manager
                  .RunTransaction([&](Transaction* txn) {
                    return manager.Execute(txn, ba->DepositInv(1)).status();
                  })
                  .ok());
  const StatusOr<Lsn> second =
      checkpointer.Write(&manager, journal.high_lsn());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
}

}  // namespace
}  // namespace ccr
