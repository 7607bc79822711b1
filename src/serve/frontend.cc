// Copyright 2026 The ccr Authors.

#include "serve/frontend.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "txn/group_commit.h"

namespace ccr {

ServeFrontend::ServeFrontend(TxnManager* manager,
                             ServeFrontendOptions options)
    : manager_(manager), options_(options) {
  CCR_CHECK(manager_ != nullptr);
  CCR_CHECK(options_.queue_depth > 0);
  CCR_CHECK(options_.max_group > 0);
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServeFrontend::~ServeFrontend() { Stop(); }

Status ServeFrontend::SubmitAsync(std::vector<BatchOp> ops,
                                  ServeCompletion done) {
  CCR_CHECK(done != nullptr);
  const GroupCommitPipeline* pipeline = manager_->commit_pipeline();
  const Status health = pipeline == nullptr ? Status::OK() : pipeline->status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::Unavailable("serve front end is stopped");
    }
    ++stats_.submitted;
    if (!health.ok()) {
      ++stats_.shed;
      return health;
    }
    if (queue_.size() >= options_.queue_depth) {
      // The admission verdict is the synchronous return value: a shed
      // submission touched no engine state and its completion never fires.
      ++stats_.shed;
      return Status::ResourceExhausted("submission queue is full");
    }
    ++stats_.accepted;
    ++in_flight_;
    queue_.push_back(Submission{std::move(ops), std::move(done)});
    stats_.max_queue_depth =
        std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
  }
  work_cv_.notify_one();
  return Status::OK();
}

std::future<std::pair<Status, std::vector<Value>>> ServeFrontend::Submit(
    std::vector<BatchOp> ops) {
  auto promise =
      std::make_shared<std::promise<std::pair<Status, std::vector<Value>>>>();
  std::future<std::pair<Status, std::vector<Value>>> future =
      promise->get_future();
  const Status admitted = SubmitAsync(
      std::move(ops), [promise](const Status& s, std::vector<Value> values) {
        promise->set_value({s, std::move(values)});
      });
  if (!admitted.ok()) {
    promise->set_value({admitted, {}});
  }
  return future;
}

void ServeFrontend::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_all();
  drain_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void ServeFrontend::Stop() {
  std::deque<Submission> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Manual-drive mode has no worker to drain the queue; whatever the
    // owner did not pump completes as kUnavailable so Stop terminates.
    if (workers_.empty()) dropped.swap(queue_);
  }
  work_cv_.notify_all();
  for (Submission& sub : dropped) {
    Complete(sub, Status::Unavailable("serve front end stopped"), {});
  }
  {
    // Wait for the queue to drain and every in-flight ack to fire (acks
    // come from the pipeline's flusher, which is still running — the
    // front end must be stopped/destroyed before its manager's pipeline).
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServeStats ServeFrontend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ServeFrontend::PumpOnce() {
  CCR_CHECK_MSG(options_.workers == 0,
                "PumpOnce is the manual drive for workers == 0");
  std::vector<Submission> group;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t take = std::min(queue_.size(), options_.max_group);
    group.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (!group.empty()) {
      ++stats_.groups;
      stats_.max_group_observed =
          std::max<uint64_t>(stats_.max_group_observed, group.size());
    }
  }
  const size_t took = group.size();
  if (took > 0) ServeGroup(std::move(group));
  return took;
}

void ServeFrontend::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Linger: let the group build toward max_group before paying the
    // serve pass. A fuller group amortizes the directory walk and shares
    // one commit record across more clients; the pipeline's own linger
    // then batches whatever distinct records remain.
    if (queue_.size() < options_.max_group && options_.linger_us > 0 &&
        !stop_) {
      work_cv_.wait_for(lock, std::chrono::microseconds(options_.linger_us),
                        [&] {
                          return queue_.size() >= options_.max_group ||
                                 stop_;
                        });
      if (queue_.empty()) continue;
    }
    std::vector<Submission> group;
    const size_t take = std::min(queue_.size(), options_.max_group);
    group.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++stats_.groups;
    stats_.max_group_observed =
        std::max<uint64_t>(stats_.max_group_observed, group.size());
    lock.unlock();
    ServeGroup(std::move(group));
    lock.lock();
  }
}

void ServeFrontend::ServeGroup(std::vector<Submission> group) {
  if (group.size() == 1) {
    ServeSolo(std::move(group.front()));
    return;
  }
  // Coalesce: one engine transaction for the whole group. Concatenation in
  // queue order + ExecuteBatch's per-object order preservation make the
  // merged transaction serial-equivalent to the submissions executed
  // back-to-back in queue order.
  std::vector<BatchOp> combined;
  size_t total_ops = 0;
  for (const Submission& sub : group) total_ops += sub.ops.size();
  combined.reserve(total_ops);
  for (const Submission& sub : group) {
    combined.insert(combined.end(), sub.ops.begin(), sub.ops.end());
  }
  std::shared_ptr<Transaction> txn = manager_->Begin();
  StatusOr<std::vector<Value>> results =
      manager_->ExecuteBatch(txn.get(), combined);
  if (results.ok()) {
    StatusOr<Lsn> lsn = manager_->CommitAsync(txn.get());
    if (lsn.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.coalesced_txns;
        stats_.coalesced_submissions += group.size();
      }
      // One ack registration for the whole group: every member completes
      // off the same watermark advance, sliced back to its own results.
      auto fire = [this, group = std::move(group),
                   values = std::move(*results)](const Status& s) mutable {
        size_t pos = 0;
        for (Submission& sub : group) {
          std::vector<Value> slice;
          if (s.ok()) {
            slice.assign(values.begin() + pos,
                         values.begin() + pos + sub.ops.size());
          }
          pos += sub.ops.size();
          Complete(sub, s, std::move(slice));
        }
      };
      GroupCommitPipeline* pipeline = manager_->commit_pipeline();
      if (pipeline != nullptr && *lsn != kNoLsn) {
        pipeline->OnDurable(*lsn, std::move(fire));
      } else {
        fire(Status::OK());
      }
      return;
    }
    // Commit lost a kill race, or the engine fail-stopped (each member
    // then meets the failure alone); the transaction is already aborted.
  } else {
    // Any failure demotes the group: errors (and retries) must attribute
    // to exactly the submission that caused them, and an innocent
    // neighbor must not fail because a stranger's op did.
    manager_->Abort(txn.get());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.demoted_groups;
  }
  for (Submission& sub : group) ServeSolo(std::move(sub));
}

void ServeFrontend::ServeSolo(Submission sub) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retries;
      }
      // Linear backoff keeps a demoted conflict loop from spinning the
      // batcher against whoever holds the contended lock.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * attempt));
    }
    std::shared_ptr<Transaction> txn = manager_->Begin();
    StatusOr<std::vector<Value>> results =
        manager_->ExecuteBatch(txn.get(), sub.ops);
    if (!results.ok()) {
      manager_->Abort(txn.get());
      last = results.status();
      if (last.IsRetryable()) continue;
      Complete(sub, last, {});
      return;
    }
    StatusOr<Lsn> lsn = manager_->CommitAsync(txn.get());
    if (!lsn.ok()) {
      last = lsn.status();
      if (last.IsRetryable()) continue;
      Complete(sub, last, {});
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.solo_txns;
    }
    auto fire = [this, sub = std::move(sub),
                 values = std::move(*results)](const Status& s) mutable {
      Complete(sub, s, s.ok() ? std::move(values) : std::vector<Value>{});
    };
    GroupCommitPipeline* pipeline = manager_->commit_pipeline();
    if (pipeline != nullptr && *lsn != kNoLsn) {
      pipeline->OnDurable(*lsn, std::move(fire));
    } else {
      fire(Status::OK());
    }
    return;
  }
  Complete(sub, last, {});
}

void ServeFrontend::Complete(const Submission& sub, const Status& s,
                             std::vector<Value> values) {
  // The client's callback runs before the drain accounting moves, so
  // Drain() returning means every completion has finished, not merely
  // started.
  sub.done(s, std::move(values));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) {
      ++stats_.completed_ok;
    } else {
      ++stats_.completed_error;
    }
    CCR_CHECK(in_flight_ > 0);
    --in_flight_;
    // Notify UNDER mu_: this runs on the pipeline's flusher thread, and a
    // Stop()/Drain() waiter may destroy the front end (and this cv) the
    // moment it observes in_flight_ == 0. Broadcasting while holding the
    // mutex pins the waiter inside wait() until the broadcast has fully
    // returned and the lock is released — notify-after-unlock here is a
    // use-after-free of the cv. drain_cv_ has no hot waiters, so the
    // wake-into-held-mutex convoy this usually trades against is moot.
    if (in_flight_ == 0 && queue_.empty()) drain_cv_.notify_all();
  }
}

}  // namespace ccr
