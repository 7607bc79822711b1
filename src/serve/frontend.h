// Copyright 2026 The ccr Authors.
//
// ServeFrontend — the async serving boundary in front of TxnManager.
//
// Every PERF row before this layer was measured closed-loop: driver
// threads call Begin/Execute/Commit and park inside WaitDurable, one
// thread per in-flight transaction. A serving system cannot spend a
// thread per request. This front end accepts submissions from any number
// of independent clients (SubmitAsync: a batch of ops + a completion
// callback), queues them, and lets a small pool of batcher workers drain
// the queue — so the thread count is fixed while the in-flight request
// count is bounded only by the admission queue.
//
// The core is the BOUNDARY BATCHER. PR 8's ExecuteBatch amortized the
// directory pass, the lock sweeps, and the commit record *within one
// client's batch*; the batcher extends that economy *across clients*:
//
//   * COALESCING. A group of queued submissions is executed as ONE engine
//     transaction — their op lists concatenated (each submission's op
//     order preserved) through one ExecuteBatch pass (one directory walk,
//     canonical-ObjectId lock order, one mutex acquisition per object) and
//     committed under ONE multi-object commit record: one LSN, one frame,
//     one group-commit ack for the whole group. This is sound because the
//     coalesced transaction is serializable as the group's submissions in
//     queue order executed back-to-back, and each submission's atomicity
//     is preserved by the superset's all-or-nothing commit; the clients
//     were independent, so the extra "all committed together" coupling is
//     unobservable (they are acked together at one LSN, and recovery
//     replays the record all-or-nothing).
//   * DEMOTION. Coalescing must not let one client's failure poison its
//     neighbors, so a group whose combined ExecuteBatch (or commit) does
//     not succeed cleanly is demoted: each submission re-runs as its own
//     transaction (with bounded retries on retryable conflicts), so every
//     error is attributed to exactly the submission that caused it.
//     Demoted submissions still share the flush cycle's durability cost —
//     their records land in the same group-commit batch and their acks
//     fire off the same watermark advance.
//   * ASYNC ACK. Commits use TxnManager::CommitAsync + GroupCommitPipeline
//     ::OnDurable: no batcher thread parks in WaitDurable; completions are
//     invoked by the pipeline's flusher as the durable watermark passes
//     the group's LSN. The completion IS the acknowledgment — it fires
//     only when the submission's effects are recoverable (mode kGroup;
//     kSync/kRelaxed keep their WaitDurable contracts).
//   * ADMISSION CONTROL. The submission queue is bounded: past
//     queue_depth, SubmitAsync sheds with kResourceExhausted instead of
//     letting the queue (and every queued request's latency) grow without
//     bound. A shed submission touched no engine state — no transaction
//     was begun, no lock taken, no journal record written — and its
//     completion never fires (the synchronous return value is the
//     admission verdict).
//   * FAIL-STOP. Once the manager's pipeline has fail-stopped (a journal
//     append or sync failed), queued and in-flight submissions complete
//     with its kUnavailable failure — never with OK — and new ones are
//     shed with it. Restart from disk is the recovery path.

#ifndef CCR_SERVE_FRONTEND_H_
#define CCR_SERVE_FRONTEND_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/value.h"
#include "txn/txn_manager.h"

namespace ccr {

// A submission's terminal outcome: OK + per-op results (in the caller's op
// order), or the error that felled it. Runs on a batcher or pipeline
// flusher thread — must return quickly and must not call back into the
// front end or block on the pipeline.
using ServeCompletion =
    std::function<void(const Status&, std::vector<Value>)>;

struct ServeFrontendOptions {
  // Admission bound: submissions shed with kResourceExhausted while this
  // many are already queued (high watermark of the submission queue).
  size_t queue_depth = 1024;
  // Most submissions coalesced into one engine transaction. Groups larger
  // than this split into several coalesced transactions.
  size_t max_group = 64;
  // How long a batcher waits for stragglers when it wakes to a group
  // smaller than max_group. 0: serve whatever is queued immediately.
  // This is the boundary's batching window; the group-commit pipeline's
  // max_delay_us is the durability layer's, and they compose.
  uint64_t linger_us = 100;
  // Batcher worker threads. 0: no threads — the owner drives the batcher
  // manually with PumpOnce() (deterministic tests).
  size_t workers = 1;
  // Retry budget for demoted submissions hitting retryable conflicts.
  int max_retries = 16;
};

// Cumulative counters. submitted == accepted + shed;
// accepted == completed_ok + completed_error once drained.
struct ServeStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t completed_ok = 0;
  uint64_t completed_error = 0;
  uint64_t groups = 0;             // batcher cycles that served >= 1 subm.
  uint64_t coalesced_txns = 0;     // multi-submission merged transactions
  uint64_t coalesced_submissions = 0;  // submissions served by those
  uint64_t demoted_groups = 0;     // groups that fell back per-submission
  uint64_t solo_txns = 0;          // single-submission transactions
  uint64_t retries = 0;            // demoted-path retry attempts
  uint64_t max_group_observed = 0;
  uint64_t max_queue_depth = 0;    // high watermark the queue reached
};

class ServeFrontend {
 public:
  // `manager` must outlive the front end. Uses manager->commit_pipeline()
  // (if set) for async acks.
  explicit ServeFrontend(TxnManager* manager,
                         ServeFrontendOptions options = {});
  ~ServeFrontend();  // Stop()

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  // Submits one atomic batch of ops. OK: the submission was admitted and
  // `done` will be invoked exactly once, from a batcher or flusher thread,
  // once the outcome is decided (ack = durable watermark).
  // kResourceExhausted: shed at the door — nothing was executed and `done`
  // will never be invoked. kUnavailable: the front end is stopped, or the
  // pipeline has fail-stopped (counted as shed).
  Status SubmitAsync(std::vector<BatchOp> ops, ServeCompletion done);

  // Future-returning convenience over SubmitAsync. An admission failure
  // resolves the future immediately with the shed/stopped status.
  std::future<std::pair<Status, std::vector<Value>>> Submit(
      std::vector<BatchOp> ops);

  // Blocks until every accepted submission has completed (queue empty and
  // no group in flight). Does not stop the workers.
  void Drain();

  // Drains, then stops the workers. Further submissions shed with
  // kUnavailable. Idempotent; the destructor calls it.
  void Stop();

  ServeStats stats() const;
  TxnManager* manager() const { return manager_; }

  // Test hook (workers == 0): runs one batcher cycle on the calling
  // thread — takes up to max_group queued submissions, serves them, and
  // returns how many it took. No linger.
  size_t PumpOnce();

 private:
  struct Submission {
    std::vector<BatchOp> ops;
    ServeCompletion done;
  };

  void WorkerLoop();
  // Serves one dequeued group end to end (coalesce -> demote on failure).
  void ServeGroup(std::vector<Submission> group);
  // Runs `sub` as its own transaction with bounded retries; registers its
  // async ack or completes it inline.
  void ServeSolo(Submission sub);
  // Fires `done` and the completion counters. `s` decides ok vs error.
  void Complete(const Submission& sub, const Status& s,
                std::vector<Value> values);

  TxnManager* const manager_;
  const ServeFrontendOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for submissions / stop
  std::condition_variable drain_cv_;  // Drain waits for in-flight == 0
  std::deque<Submission> queue_;
  size_t in_flight_ = 0;  // accepted, not yet completed
  bool stop_ = false;
  ServeStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace ccr

#endif  // CCR_SERVE_FRONTEND_H_
