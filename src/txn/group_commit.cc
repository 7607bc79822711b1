// Copyright 2026 The ccr Authors.

#include "txn/group_commit.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"
#include "common/string_util.h"
#include "txn/journal_io.h"

namespace ccr {

GroupCommitPipeline::GroupCommitPipeline(JournalWriter* writer,
                                         GroupCommitOptions options)
    : writer_(writer), options_(options) {
  CCR_CHECK(writer_ != nullptr);
  CCR_CHECK(options_.max_batch > 0);
  CCR_CHECK(options_.first_lsn >= 1);
  next_lsn_ = options_.first_lsn;
  // The watermark starts just below the first LSN so Drain/WaitDurable on
  // an empty pipeline return immediately.
  durable_lsn_.store(options_.first_lsn - 1, std::memory_order_release);
  if (options_.mode != DurabilityMode::kSync) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

GroupCommitPipeline::~GroupCommitPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

StatusOr<Lsn> GroupCommitPipeline::Sequence(std::string frame) {
  std::unique_lock<std::mutex> lk(mu_);
  if (failed_.load(std::memory_order_relaxed)) return failure_;
  const Lsn lsn = next_lsn_++;
  ++stats_.records_sequenced;
  if (options_.mode == DurabilityMode::kSync) {
    // Baseline: the durability point stays inside the caller's critical
    // section — append + fdatasync per record, ack-ready on return.
    Status s = writer_->Append(frame);
    if (s.ok()) s = writer_->Sync();
    if (!s.ok()) {
      Fail(lk, "append+sync", s);
      return lsn;
    }
    ++stats_.records_flushed;
    ++stats_.batches;
    ++stats_.syncs;
    stats_.max_batch_observed = std::max<uint64_t>(stats_.max_batch_observed, 1);
    durable_lsn_.store(lsn, std::memory_order_release);
    return lsn;
  }
  queue_.push_back(std::move(frame));
  lk.unlock();
  work_cv_.notify_one();
  return lsn;
}

Status GroupCommitPipeline::WaitDurable(Lsn lsn) {
  // kSync is durable by the time Sequence returned; kRelaxed acks at
  // sequencing — for both only the poison check remains.
  return WaitWatermark(options_.mode == DurabilityMode::kGroup ? lsn : kNoLsn);
}

Status GroupCommitPipeline::WaitWatermark(Lsn lsn) {
  if (!failed_.load(std::memory_order_acquire) &&
      durable_lsn_.load(std::memory_order_acquire) >= lsn) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lk(mu_);
  ++waiters_;
  // A blocked committer cuts the flusher's linger short: it cannot produce
  // more records, so lingering past it only adds ack latency.
  work_cv_.notify_one();
  durable_cv_.wait(lk, [&] {
    return failed_.load(std::memory_order_relaxed) ||
           durable_lsn_.load(std::memory_order_relaxed) >= lsn;
  });
  --waiters_;
  return failure_;
}

void GroupCommitPipeline::OnDurable(Lsn lsn,
                                    std::function<void(const Status&)> cb) {
  Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.async_acks;
    // Same ack points as WaitDurable: kSync is durable by the time Sequence
    // returned, kRelaxed acknowledges at sequencing, and kGroup defers to
    // the watermark. The watermark re-check happens under mu_ so it cannot
    // race the flusher's advance-and-drain (both hold mu_), nor its
    // poison-and-fail.
    status = failure_;
    if (status.ok() && lsn != kNoLsn &&
        options_.mode == DurabilityMode::kGroup &&
        durable_lsn_.load(std::memory_order_relaxed) < lsn) {
      pending_acks_.push_back(PendingAck{lsn, std::move(cb)});
      std::push_heap(pending_acks_.begin(), pending_acks_.end(),
                     [](const PendingAck& a, const PendingAck& b) {
                       return a.lsn > b.lsn;
                     });
      // A pending ack is a parked client: cut the flusher's linger the same
      // way a committer blocked in WaitDurable does. Under saturation the
      // sync itself is the batching window, so flushing now costs batching
      // nothing and removes a full max_delay_us from the ack latency.
      work_cv_.notify_one();
      return;
    }
  }
  cb(status);
}

Status GroupCommitPipeline::status() const {
  // Lock-free: failure_ is immutable once failed_ is set (see the member).
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  return failure_;
}

void GroupCommitPipeline::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  const Lsn target = next_lsn_ - 1;
  ++waiters_;
  work_cv_.notify_all();
  // Once the watermark covers `target`, every pending ack at or below it has
  // been popped for firing (pop and advance share one mu_ hold), so waiting
  // for acks_in_flight_ == 0 is what upgrades "durable" to "acknowledged".
  // Poisoning pops every pending ack the same way, for failing.
  durable_cv_.wait(lk, [&] {
    return (failed_.load(std::memory_order_relaxed) ||
            durable_lsn_.load(std::memory_order_relaxed) >= target) &&
           acks_in_flight_ == 0;
  });
  --waiters_;
}

void GroupCommitPipeline::RecordAckLatency(uint64_t us) {
  // Own mutex: every durable committer records here right after waking, so
  // putting this under mu_ would stack a batch worth of committers against
  // the flusher and the sequencers.
  std::lock_guard<std::mutex> lock(ack_mu_);
  ack_latency_us_.Record(us);
}

GroupCommitStats GroupCommitPipeline::stats() const {
  GroupCommitStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  std::lock_guard<std::mutex> lock(ack_mu_);
  out.ack_latency_us = ack_latency_us_;
  return out;
}

void GroupCommitPipeline::FlusherLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // drained and told to stop
      continue;
    }
    // Linger: give the batch a chance to fill before paying the sync. Wakes
    // early when the batch fills, a committer blocks on the watermark (no
    // straggler can come from a blocked thread — flushing now is strictly
    // better for it), or shutdown begins.
    if (queue_.size() < options_.max_batch && options_.max_delay_us > 0 &&
        waiters_ == 0 && pending_acks_.empty() && !stop_) {
      work_cv_.wait_for(lk, std::chrono::microseconds(options_.max_delay_us),
                        [&] {
                          return queue_.size() >= options_.max_batch ||
                                 waiters_ > 0 || !pending_acks_.empty() ||
                                 stop_;
                        });
    }
    // Take up to max_batch records; anything beyond flushes next cycle
    // (immediately — the queue is non-empty, so the wait above falls
    // through).
    std::deque<std::string> batch;
    const size_t take = std::min(queue_.size(), options_.max_batch);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    const Lsn high = durable_lsn_.load(std::memory_order_relaxed) +
                     static_cast<Lsn>(take);
    lk.unlock();
    FlushBatch(&batch, high);
    lk.lock();
  }
}

void GroupCommitPipeline::FlushBatch(std::deque<std::string>* batch,
                                     Lsn high) {
  // Append off the lock: sequencers keep enqueueing (and object critical
  // sections keep draining) while this batch hits the disk. The first
  // failure ends the batch: no sync follows a failed append.
  Status s;
  const char* what = "append";
  for (const std::string& frame : *batch) {
    s = writer_->Append(frame);
    if (!s.ok()) break;
  }
  if (s.ok()) {
    what = "sync";
    s = writer_->Sync();
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!s.ok()) return Fail(lk, what, s);
  stats_.records_flushed += batch->size();
  ++stats_.batches;
  ++stats_.syncs;
  stats_.max_batch_observed =
      std::max<uint64_t>(stats_.max_batch_observed, batch->size());
  durable_lsn_.store(high, std::memory_order_release);
  // Collect the async acks this batch covers under the same mu_ hold that
  // advances the watermark — a concurrent OnDurable either sees the new
  // watermark (runs inline) or enqueued before this drain (fires here).
  std::vector<std::function<void(const Status&)>> ready;
  auto greater = [](const PendingAck& a, const PendingAck& b) {
    return a.lsn > b.lsn;
  };
  while (!pending_acks_.empty() && pending_acks_.front().lsn <= high) {
    std::pop_heap(pending_acks_.begin(), pending_acks_.end(), greater);
    ready.push_back(std::move(pending_acks_.back().cb));
    pending_acks_.pop_back();
  }
  acks_in_flight_ += ready.size();
  lk.unlock();
  // Notify off the lock: a batch wakes every blocked committer, and waking
  // them into a held mutex just reconvoys them.
  durable_cv_.notify_all();
  // Async acks also run off the lock, in LSN order, on this flusher thread.
  for (std::function<void(const Status&)>& cb : ready) cb(Status::OK());
  if (!ready.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      acks_in_flight_ -= ready.size();
    }
    // Drain() waits for in-flight acks, not just the watermark.
    durable_cv_.notify_all();
  }
}

void GroupCommitPipeline::Fail(std::unique_lock<std::mutex>& lk,
                               const char* what, const Status& s) {
  failure_ = Status::Unavailable(
      StrFormat("durable journal %s failed: %s", what, s.ToString().c_str()));
  failed_.store(true, std::memory_order_release);
  // Queued records never reach the sink; their committers learn it from
  // WaitDurable / OnDurable.
  queue_.clear();
  std::vector<PendingAck> failed = std::move(pending_acks_);
  pending_acks_.clear();
  acks_in_flight_ += failed.size();
  lk.unlock();
  durable_cv_.notify_all();
  if (failed.empty()) return;
  std::sort(failed.begin(), failed.end(),
            [](const PendingAck& a, const PendingAck& b) {
              return a.lsn < b.lsn;
            });
  for (PendingAck& ack : failed) ack.cb(failure_);  // immutable from now on
  lk.lock();
  acks_in_flight_ -= failed.size();
  lk.unlock();
  durable_cv_.notify_all();
}

}  // namespace ccr
