// Copyright 2026 The ccr Authors.
//
// Engine::Open: the one assembly, restart and resume of a durable engine.
// Three generations on one directory, in every durability mode, with and
// without a store: the first opens an empty directory and commits at LSN 1,
// each later one resumes right after the last LSN, and states and the
// transaction-id watermark carry over (with a store, lazy install leaves
// untouched objects deferred). A directory the restart rejects is left as
// it was; a decorator's failed sync fail-stops the engine, which is then
// destroyed without hanging, and the next open keeps every acknowledged
// commit.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "adt/counter.h"
#include "common/temp_path.h"
#include "core/commutativity.h"
#include "engine/engine.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

constexpr const char* kCounterFactory = "counter";

ObjectConfig CounterConfig(const ObjectId& id) {
  std::shared_ptr<Counter> ctr = MakeCounter(id);
  ObjectConfig config;
  config.adt = ctr;
  config.conflict = MakeNrbcConflict(ctr);
  config.recovery = std::make_unique<UipRecovery>(ctr);
  return config;
}

// One eagerly added counter "E" plus a factory for dynamic counters.
void CounterSystem(TxnManager* manager) {
  ObjectConfig e = CounterConfig("E");
  manager->AddObject("E", e.adt, e.conflict, std::move(e.recovery));
  manager->RegisterFactory(kCounterFactory, CounterConfig);
}

Invocation IncInv(const ObjectId& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

// Commits one increment on `id`, creating a dynamic counter on first touch.
Status Inc(TxnManager* manager, const ObjectId& id, int64_t amount) {
  return manager->RunTransaction([&](Transaction* txn) {
    const StatusOr<AtomicObject*> obj =
        manager->GetOrCreate(id, kCounterFactory);
    if (!obj.ok()) return obj.status();
    return manager->Execute(txn, IncInv(id, amount)).status();
  });
}

int64_t Read(TxnManager* manager, const ObjectId& id) {
  int64_t value = 0;
  const Status s = manager->RunTransaction([&](Transaction* txn) {
    const StatusOr<Value> v = manager->Execute(
        txn, Invocation(id, Counter::kRead, "read", {}));
    if (!v.ok()) return v.status();
    value = v->AsInt();
    return Status::OK();
  });
  CCR_CHECK_MSG(s.ok(), "read %s: %s", id.c_str(), s.ToString().c_str());
  return value;
}

class EngineGenerationsTest
    : public ::testing::TestWithParam<std::tuple<DurabilityMode, bool>> {};

TEST_P(EngineGenerationsTest, ThreeGenerationsShareOneLsnSpace) {
  const auto [mode, with_store] = GetParam();
  TempDir dir;
  std::map<ObjectId, int64_t> want;  // committed value of every counter
  Lsn high = 0;                      // the last generation's high LSN
  TxnId max_txn = 0;                 // ... and its transaction watermark
  for (int gen = 1; gen <= 3; ++gen) {
    SCOPED_TRACE("generation " + std::to_string(gen));
    EngineOptions options;
    options.group_commit.mode = mode;
    options.journal.max_segment_bytes = 256;
    if (with_store) {
      options.store = LogStoreOptions{};
      options.restart.lazy_store_install = true;
    }
    const StatusOr<std::unique_ptr<Engine>> opened =
        Engine::Open(dir.path(), std::move(options), CounterSystem);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Engine& engine = **opened;
    TxnManager* manager = engine.manager();
    // Generation 1 opens the empty directory: a fresh engine at LSN 0.
    EXPECT_EQ(engine.restart().high_lsn, high);
    EXPECT_EQ(engine.restart().max_txn, max_txn);
    EXPECT_EQ(engine.journal()->high_lsn(), high);
    if (with_store && gen > 1) {
      // The tail past the last checkpoint is empty: every dynamic counter
      // stays in the store until its first touch.
      EXPECT_EQ(engine.restart().store_deferred, want.size() - 1);
      EXPECT_EQ(manager->object("D1"), nullptr);
    }

    // The first commit takes the LSN right after the last generation's.
    auto txn = manager->Begin();
    EXPECT_GT(txn->id(), max_txn) << "transaction id reused";
    ASSERT_TRUE(manager->Execute(txn.get(), IncInv("E", gen)).ok());
    const StatusOr<Lsn> lsn = manager->CommitAsync(txn.get());
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, high + 1) << "LSN reused or skipped";
    want["E"] += gen;
    for (const auto& [id, value] : want) {
      EXPECT_EQ(Read(manager, id), value) << id;
    }
    const std::string mine = "D" + std::to_string(gen);
    ASSERT_TRUE(Inc(manager, mine, 10 * gen).ok());
    want[mine] += 10 * gen;
    ASSERT_TRUE(Inc(manager, "D1", 1).ok());
    want["D1"] += 1;

    const StatusOr<Lsn> anchor = engine.Checkpoint();
    ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
    high = engine.journal()->high_lsn();
    EXPECT_EQ(*anchor, high);
    max_txn = manager->max_assigned_txn();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndStores, EngineGenerationsTest,
    ::testing::Combine(::testing::Values(DurabilityMode::kSync,
                                         DurabilityMode::kGroup,
                                         DurabilityMode::kRelaxed),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<DurabilityMode, bool>>&
           info) {
      const DurabilityMode mode = std::get<0>(info.param);
      return std::string(mode == DurabilityMode::kSync    ? "Sync"
                         : mode == DurabilityMode::kGroup ? "Group"
                                                          : "Relaxed") +
             (std::get<1>(info.param) ? "Store" : "NoStore");
    });

// Name -> size of every file in `dir`.
std::map<std::string, uintmax_t> Listing(const std::string& dir) {
  std::map<std::string, uintmax_t> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = entry.file_size();
  }
  return files;
}

// Rewrites the file at `path` with `edit` applied to its bytes.
void EditFile(const std::string& path,
              const std::function<void(std::string*)>& edit) {
  StatusOr<std::string> bytes = ReadFileImage(path);
  CCR_CHECK(bytes.ok());
  edit(&*bytes);
  StatusOr<std::unique_ptr<FileSink>> file = FileSink::Open(path);
  CCR_CHECK(file.ok());
  CCR_CHECK((*file)->Append(*bytes).ok());
  CCR_CHECK((*file)->Close().ok());
}

TEST(EngineOpenTest, RejectedRestartLeavesTheDirectoryAsItWas) {
  TempDir dir;
  EngineOptions options;
  options.group_commit.mode = DurabilityMode::kSync;
  options.journal.max_segment_bytes = 128;
  {
    const StatusOr<std::unique_ptr<Engine>> engine =
        Engine::Open(dir.path(), options, CounterSystem);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(Inc((*engine)->manager(), "E", 1).ok());
    }
  }
  // Mid-journal damage: the first segment's last record, sealed under
  // later segments. Then a torn tail on the last segment, which a reopen
  // would cut.
  EditFile(dir.path() + "/" + SegmentFileName(1), [](std::string* image) {
    FlipByte(image, image->size() - 1);
  });
  const std::string frame =
      EncodeCommitRecord(Journal::CommitRecord{99, OpSeq{}});
  EditFile(dir.path() + "/" + Listing(dir.path()).rbegin()->first,
           [&](std::string* image) {
             image->append(frame, 0, frame.size() - 2);
           });
  const std::map<std::string, uintmax_t> before = Listing(dir.path());
  ASSERT_GE(before.size(), 3u);

  const StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir.path(), options, CounterSystem);
  EXPECT_EQ(engine.status().code(), StatusCode::kInternal)
      << engine.status().ToString();
  EXPECT_EQ(Listing(dir.path()), before)
      << "a rejected restart opened or repaired a journal segment";
}

// Passes everything to the journal sink but fails its second sync.
class FailSecondSync : public ByteSink {
 public:
  explicit FailSecondSync(ByteSink* journal) : journal_(journal) {}
  Status Append(std::string_view bytes) override {
    return journal_->Append(bytes);
  }
  Status Sync() override {
    if (++syncs_ == 2) return Status::Internal("injected sync failure");
    return journal_->Sync();
  }

 private:
  ByteSink* const journal_;
  int syncs_ = 0;  // the pipeline serializes Append and Sync
};

TEST(EngineOpenTest, DecoratorSyncFailureFailStopsAndTheReopenKeepsAcks) {
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup}) {
    SCOPED_TRACE(mode == DurabilityMode::kSync ? "kSync" : "kGroup");
    TempDir dir;
    std::unique_ptr<FailSecondSync> decorator;  // outlives the engine
    {
      EngineOptions options;
      options.group_commit.mode = mode;
      options.journal_decorator = [&decorator](ByteSink* journal) {
        decorator = std::make_unique<FailSecondSync>(journal);
        return decorator.get();
      };
      const StatusOr<std::unique_ptr<Engine>> engine =
          Engine::Open(dir.path(), std::move(options), CounterSystem);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      TxnManager* manager = (*engine)->manager();
      ASSERT_TRUE(Inc(manager, "E", 1).ok());  // the first sync
      EXPECT_EQ(Inc(manager, "E", 10).code(), StatusCode::kUnavailable);
      EXPECT_EQ(Inc(manager, "E", 100).code(), StatusCode::kUnavailable);
      EXPECT_EQ((*engine)->pipeline()->status().code(),
                StatusCode::kUnavailable);
    }  // the drain returns on the fail-stopped pipeline

    const StatusOr<std::unique_ptr<Engine>> reopened =
        Engine::Open(dir.path(), EngineOptions{}, CounterSystem);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    // The acknowledged deposit is back. The failed one may be too (its
    // bytes reached the file unsynced); the refused one never was written.
    const int64_t value = Read((*reopened)->manager(), "E");
    EXPECT_TRUE(value == 1 || value == 11) << value;
  }
}

}  // namespace
}  // namespace ccr
