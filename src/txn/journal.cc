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

void Journal::set_pipeline(GroupCommitPipeline* pipeline) {
  CCR_CHECK(pipeline != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  CCR_CHECK_MSG(size_ == 0,
                "pipeline attached to a journal that already has records");
  pipeline_ = pipeline;
  high_lsn_ = pipeline->first_lsn() - 1;
}

Lsn Journal::high_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_lsn_;
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
  CCR_CHECK_MSG(pipeline_ != nullptr,
                "append to a journal with no pipeline attached");
  // Sequenced under the journal mutex, so the pipeline's LSN order is the
  // view's order. A record the pipeline refuses is cut back off the view.
  KeepLocked(frame);
  const size_t bytes = frame.size();
  const StatusOr<Lsn> lsn = pipeline_->Sequence(std::move(frame));
  if (!lsn.ok()) {
    chunks_.back().resize(chunks_.back().size() - bytes);
    --size_;
    return lsn.status();
  }
  high_lsn_ = *lsn;
  return lsn;
}

// Both appends encode on the calling thread, before the journal mutex.
StatusOr<Lsn> Journal::AppendCommit(TxnId txn, OpSeq ops) {
  return AppendFrame(EncodeCommitRecord(CommitRecord{txn, std::move(ops)}));
}

StatusOr<Lsn> Journal::AppendLifecycle(LifecycleRecord record) {
  return AppendFrame(EncodeEntryRecord(Entry::Lifecycle(std::move(record))));
}

void Journal::ForEachRecord(
    const std::function<void(const CommitRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& chunk : chunks_) {
    RecoveryReport report;
    const Status s = ForEachJournalEntry(
        chunk, /*after_lsn=*/0,
        [&fn](Lsn, Entry&& entry) {
          if (!entry.is_lifecycle) fn(entry.commit);
          return Status::OK();
        },
        &report);
    CCR_CHECK_MSG(s.ok() && !report.corrupt_tail,
                  "journal view failed to decode: %s %s",
                  s.ToString().c_str(), report.ToString().c_str());
  }
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

}  // namespace ccr
