// Copyright 2026 The ccr Authors.

#include "txn/journal.h"

#include <algorithm>

#include "common/macros.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"

namespace ccr {
namespace {

// The view's chunk sizes: the first is small, so an empty or short journal
// stays small, and each next one doubles up to the cap, so a long journal
// leaves at most one partly filled chunk. A frame larger than the cap gets
// a chunk of its own size.
constexpr size_t kFirstChunkBytes = size_t{4} << 10;
constexpr size_t kMaxChunkBytes = size_t{256} << 10;

}  // namespace

Journal::Journal(const std::vector<CommitRecord>& records) {
  for (const CommitRecord& record : records) {
    KeepLocked(EncodeCommitRecord(record));
  }
}

Journal::Journal(const std::vector<Entry>& entries) {
  for (const Entry& entry : entries) KeepLocked(EncodeEntryRecord(entry));
}

Journal::Journal(std::string frames, size_t count) : size_(count) {
  if (!frames.empty()) chunks_.push_back(std::move(frames));
}

void Journal::set_pipeline(GroupCommitPipeline* pipeline) {
  std::lock_guard<std::mutex> lock(mu_);
  pipeline_ = pipeline;
  if (pipeline == nullptr) return;
  CCR_CHECK_MSG(size_ == 0,
                "pipeline attached to a journal that already has records");
  base_lsn_ = pipeline->first_lsn() - 1;
}

Lsn Journal::high_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + static_cast<Lsn>(size_);
}

void Journal::KeepLocked(std::string_view frame) {
  if (chunks_.empty() ||
      chunks_.back().capacity() - chunks_.back().size() < frame.size()) {
    const size_t grown =
        chunks_.empty() ? kFirstChunkBytes
                        : std::clamp(2 * chunks_.back().capacity(),
                                     kFirstChunkBytes, kMaxChunkBytes);
    chunks_.emplace_back().reserve(std::max(grown, frame.size()));
  }
  chunks_.back().append(frame);
  ++size_;
}

StatusOr<Lsn> Journal::AppendFrame(std::string frame) {
  std::lock_guard<std::mutex> lock(mu_);
  KeepLocked(frame);
  if (pipeline_ == nullptr) return kNoLsn;
  // Sequenced under the journal mutex, so the pipeline's LSN order is the
  // view's order (the pipeline's counter is asserted against ours). A
  // record the pipeline refuses is cut back off the view.
  const Lsn lsn = base_lsn_ + static_cast<Lsn>(size_);
  const size_t bytes = frame.size();
  const StatusOr<Lsn> sequenced = pipeline_->Sequence(std::move(frame));
  if (!sequenced.ok()) {
    chunks_.back().resize(chunks_.back().size() - bytes);
    --size_;
    return sequenced.status();
  }
  CCR_CHECK_MSG(*sequenced == lsn,
                "pipeline LSN %llu diverged from journal LSN %llu — the "
                "pipeline is shared with another journal",
                static_cast<unsigned long long>(*sequenced),
                static_cast<unsigned long long>(lsn));
  return lsn;
}

// Both appends encode on the calling thread, before the journal mutex.
StatusOr<Lsn> Journal::AppendCommit(TxnId txn, OpSeq ops) {
  return AppendFrame(EncodeCommitRecord(CommitRecord{txn, std::move(ops)}));
}

StatusOr<Lsn> Journal::AppendLifecycle(LifecycleRecord record) {
  return AppendFrame(EncodeEntryRecord(Entry::Lifecycle(std::move(record))));
}

void Journal::ForEachEntryLocked(
    const std::function<void(Entry&&)>& fn) const {
  for (const std::string& chunk : chunks_) {
    RecoveryReport report;
    const Status s = ForEachJournalEntry(
        chunk, /*after_lsn=*/0,
        [&fn](Lsn, Entry&& entry) {
          fn(std::move(entry));
          return Status::OK();
        },
        &report);
    CCR_CHECK_MSG(s.ok() && !report.corrupt_tail,
                  "journal view failed to decode: %s %s",
                  s.ToString().c_str(), report.ToString().c_str());
  }
}

std::vector<Journal::CommitRecord> Journal::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CommitRecord> records;
  records.reserve(size_);
  ForEachEntryLocked([&records](Entry&& entry) {
    if (!entry.is_lifecycle) records.push_back(std::move(entry.commit));
  });
  return records;
}

std::vector<Journal::Entry> Journal::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> entries;
  entries.reserve(size_);
  ForEachEntryLocked(
      [&entries](Entry&& entry) { entries.push_back(std::move(entry)); });
  return entries;
}

void Journal::ForEachRecord(
    const std::function<void(const CommitRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  ForEachEntryLocked([&fn](Entry&& entry) {
    if (!entry.is_lifecycle) fn(entry.commit);
  });
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

Journal Journal::Prefix(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string frames;
  size_t kept = 0;
  for (const std::string& chunk : chunks_) {
    size_t end = 0;
    while (kept < n && end < chunk.size()) {
      uint32_t len = 0;
      CCR_CHECK(IntactJournalFrameAt(chunk, end, &len));
      end += kJournalFrameHeaderSize + len;
      ++kept;
    }
    frames.append(chunk, 0, end);
    if (kept == n) break;
  }
  return Journal(std::move(frames), kept);
}

std::unique_ptr<SpecState> RecoverState(const Adt& adt,
                                        const Journal& journal) {
  std::unique_ptr<SpecState> state = adt.spec().InitialState();
  // Visitation, not Records(): the crash-at-every-prefix audits call this
  // per prefix, and materializing every record per call made them O(n²).
  journal.ForEachRecord([&](const Journal::CommitRecord& record) {
    for (const Operation& op : record.ops) {
      auto nexts = adt.spec().Next(*state, op);
      CCR_CHECK_MSG(nexts.size() == 1,
                    "journal replay stuck at %s of %s",
                    op.ToString().c_str(), TxnName(record.txn).c_str());
      state = std::move(nexts[0]);
    }
  });
  return state;
}

}  // namespace ccr
