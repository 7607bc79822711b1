// Copyright 2026 The ccr Authors.
//
// MemoryLog: the durable log of a test engine, kept in memory. A
// MemorySink behind a JournalWriter behind a GroupCommitPipeline (kSync
// unless the test asks for another mode) that sequences a Journal — the
// chain Engine::Open builds over a directory. Attach wires a manager to it;
// Entries and Records read back the bytes the sink received, with the
// scanner restart uses (Decode). BasicMemoryLog<Sink> swaps in another
// sink: one that fails on demand, or NullSink, which keeps nothing (the
// allocation-budget test and the benches that never read their journal).

#ifndef CCR_TESTS_MEMORY_LOG_H_
#define CCR_TESTS_MEMORY_LOG_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"

namespace ccr {

// A journal disk that keeps nothing; it counts the frames and bytes it
// gets.
class NullSink : public ByteSink {
 public:
  Status Append(std::string_view bytes) override {
    ++frames;
    this->bytes += bytes.size();
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }

  size_t frames = 0;
  size_t bytes = 0;
};

template <typename Sink>
struct BasicMemoryLog {
  explicit BasicMemoryLog(GroupCommitOptions options = {DurabilityMode::kSync})
      : pipeline(&writer, options) {
    journal.set_pipeline(&pipeline);
  }

  // Logs `manager`'s lifecycle records and every registered object's
  // commits here, and acknowledges its commits through the pipeline.
  void Attach(TxnManager* manager) {
    manager->set_lifecycle_journal(&journal);
    manager->set_commit_pipeline(&pipeline);
    for (AtomicObject* obj : manager->objects()) {
      obj->recovery().set_journal(&journal);
    }
  }

  // Every entry of a journal image, in LSN order; fatal unless the image is
  // whole frames.
  static std::vector<Journal::Entry> Decode(std::string_view image) {
    std::vector<Journal::Entry> entries;
    RecoveryReport report;
    const Status s = ForEachJournalEntry(
        image, /*after_lsn=*/0,
        [&entries](Lsn, Journal::Entry&& entry) {
          entries.push_back(std::move(entry));
          return Status::OK();
        },
        &report);
    CCR_CHECK_MSG(s.ok() && !report.corrupt_tail,
                  "journal image does not decode: %s %s",
                  s.ToString().c_str(), report.ToString().c_str());
    return entries;
  }

  // Every entry the sink received, once everything sequenced is durable.
  std::vector<Journal::Entry> Entries() {
    pipeline.Drain();
    return Decode(sink.image());
  }

  // The commit records among Entries().
  std::vector<Journal::CommitRecord> Records() {
    std::vector<Journal::CommitRecord> records;
    for (Journal::Entry& entry : Entries()) {
      if (!entry.is_lifecycle) records.push_back(std::move(entry.commit));
    }
    return records;
  }

  Sink sink;
  JournalWriter writer{&sink};
  GroupCommitPipeline pipeline;
  Journal journal;
};

using MemoryLog = BasicMemoryLog<MemorySink>;

}  // namespace ccr

#endif  // CCR_TESTS_MEMORY_LOG_H_
