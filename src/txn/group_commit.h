// Copyright 2026 The ccr Authors.
//
// Group-commit durability pipeline — takes fdatasync out of the object
// critical section.
//
// PR 3 wired durability into the worst possible place for concurrency:
// the commit held the object mutex while the journal framed the commit
// record and the sink issued a per-record fdatasync, so every durable
// commit stalled every waiter on that object for a full disk sync.
// This pipeline splits the commit path in two:
//
//   * SEQUENCE (under the object/journal locks, cheap): the committing
//     transaction's record is assigned a monotone LSN and pushed onto a
//     shared queue. The object lock is released immediately afterwards —
//     early lock release.
//   * FLUSH (background thread, no object locks): the flusher drains the
//     queue in batches (up to max_batch records, lingering up to
//     max_delay_us for stragglers), appends the frames the committers
//     already encoded (one sink append each), issues ONE fdatasync for the
//     whole batch, then advances the durable-LSN watermark and wakes
//     blocked committers. It encodes nothing.
//
// TxnManager::Commit acknowledges a transaction only once its highest LSN
// is durable (WaitDurable), so the ack contract is unchanged: an
// acknowledged commit is on disk. What changed is who pays for the sync —
// a batch of committers shares one fdatasync, and waiters blocked on the
// committing transaction's locks run during the sync instead of behind it.
//
// Why early lock release is safe here: there is a single ordered log, and
// LSNs are assigned in commit order under the journal mutex. If T2 read
// state that T1's commit installed at some object, then T2 could only have
// acquired its conflicting operation locks after T1's commit at that
// object sequenced T1's record — so lsn(T1's record there) < lsn(every
// record of T2). Waiting for your own highest LSN therefore transitively
// waits for every commit you could have read from: no acknowledged
// transaction can depend on an unacknowledged (possibly lost) one, and the
// durable journal prefix is always closed under read-from. A crash can
// lose a sequenced-but-unsynced suffix, but every record in that suffix
// belongs to a transaction that was never acknowledged — semantically an
// abort, which the recovery theory already covers.
//
// Modes:
//   kSync    — per-record append+fdatasync of the already-encoded frame
//              inline in Sequence (inside the object critical section).
//              The engine's only per-record-sync path, and the bench
//              baseline.
//   kGroup   — the pipeline described above; ack waits for the watermark.
//   kRelaxed — sequence and ack immediately; the flusher still makes the
//              log durable in the background, but an acknowledged commit
//              may be lost to a crash (the watermark, not the ack, is the
//              durability point).
//
// Fail-stop: the first sink append or sync that fails poisons the
// pipeline. The watermark freezes, queued records are dropped, the sync is
// never retried (a failed fdatasync may already have dropped the dirty
// pages), no further byte reaches the sink, and every parked, pending and
// later wait or ack fails with one kUnavailable status carrying the sink's
// error text. Restart from disk is the recovery path.

#ifndef CCR_TXN_GROUP_COMMIT_H_
#define CCR_TXN_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "common/status.h"
#include "txn/journal.h"

namespace ccr {

class JournalWriter;

// Lsn / kNoLsn live in txn/journal.h (the journal assigns them).

enum class DurabilityMode {
  kSync,     // per-record fdatasync inside the critical section (baseline)
  kGroup,    // batched background sync; ack waits for the durable watermark
  kRelaxed,  // batched background sync; ack does not wait (may lose acks)
};

struct GroupCommitOptions {
  DurabilityMode mode = DurabilityMode::kGroup;
  // Flush a batch as soon as it holds this many records.
  size_t max_batch = 64;
  // Upper bound on how long the flusher lingers for stragglers before
  // paying the sync. The linger trades ack latency for batching, so it is
  // cut short the moment any committer blocks on the watermark: a blocked
  // committer cannot produce more records, and under saturation the sync
  // itself is the batching window (records sequenced during batch N's
  // fdatasync form batch N+1) — the linger only earns its keep on an idle
  // log with sparse, ack-free (kRelaxed) arrivals.
  uint64_t max_delay_us = 500;
  // First LSN this pipeline assigns; the journal attached to it numbers
  // from here too. A post-restart pipeline continues the durable journal's
  // LSN space at the restart's high_lsn + 1, which Engine::Open sets.
  Lsn first_lsn = 1;
};

// Pipeline counters, all cumulative. In kSync mode every record is its own
// batch and its own sync, so records == batches == syncs and the baseline
// is directly comparable in the same table.
struct GroupCommitStats {
  uint64_t records_sequenced = 0;  // records accepted by Sequence
  uint64_t records_flushed = 0;    // records appended to the sink
  uint64_t batches = 0;            // flush cycles that appended >= 1 record
  uint64_t syncs = 0;              // sink Sync calls issued
  uint64_t max_batch_observed = 0;
  uint64_t async_acks = 0;  // OnDurable callbacks registered (incl. inline)
  // Commit-call-to-acknowledgment latency of durable commits, recorded by
  // TxnManager::Commit around the object-commit loop + WaitDurable.
  // Bucketed (at most 1/32 relative error), so it stays ~15 KB however
  // many commits the pipeline acknowledges.
  LatencyRecorder ack_latency_us{LatencyMode::kBuckets};
};

class GroupCommitPipeline {
 public:
  // `writer` must outlive the pipeline. The flusher thread starts
  // immediately for kGroup/kRelaxed; kSync runs no thread.
  explicit GroupCommitPipeline(JournalWriter* writer,
                               GroupCommitOptions options = {});
  ~GroupCommitPipeline();

  GroupCommitPipeline(const GroupCommitPipeline&) = delete;
  GroupCommitPipeline& operator=(const GroupCommitPipeline&) = delete;

  DurabilityMode mode() const { return options_.mode; }
  Lsn first_lsn() const { return options_.first_lsn; }

  // Sequences one journal record's encoded frame (EncodeEntryRecord; the
  // appending thread encoded it before taking the journal mutex): assigns
  // the next LSN and either appends+syncs the bytes inline (kSync) or
  // enqueues them for the flusher (kGroup/kRelaxed). Called under the
  // journal mutex (Journal::AppendCommit/AppendLifecycle forward), which
  // is what makes the LSN order equal the journal's record order. A
  // poisoned pipeline refuses the record with its failure. (A kSync record
  // whose own inline write fails keeps its LSN; its committer learns from
  // WaitDurable.)
  StatusOr<Lsn> Sequence(std::string frame);

  // The acknowledgment point: blocks until `lsn` is durable (kGroup);
  // returns at once in kSync (already durable) and kRelaxed (ack is
  // explicitly non-durable) and for kNoLsn. Once poisoned, the failure —
  // even for an LSN that was durable before it.
  Status WaitDurable(Lsn lsn);

  // Blocks until the durable watermark covers `lsn`, in every mode: the
  // wait an image (fuzzy checkpoint, eviction Put) must pass before it may
  // reach the disk, since an image ahead of the journal would restart into
  // state the journal cannot justify. Cuts the linger like a parked
  // committer. Once poisoned, the failure.
  Status WaitWatermark(Lsn lsn);

  // Async counterpart of WaitDurable: runs `cb` once `lsn` is covered by
  // the mode's acknowledgment point, without parking the calling thread.
  // Mirrors WaitDurable's contract exactly — kSync (already durable),
  // kRelaxed (ack is sequencing), and kNoLsn run `cb(OK)` inline on the
  // calling thread; in kGroup a not-yet-durable `lsn` defers `cb` to the
  // flusher, which invokes it (holding no pipeline locks) right after the
  // batch sync that advances the watermark past `lsn`. Poisoning runs
  // `cb(failure)` instead — pending callbacks on the failing thread, later
  // ones inline; each callback runs once. Callbacks for one batch fire in
  // LSN order; they must not block on the pipeline
  // (WaitDurable/Drain from a callback deadlocks the flusher). A pending
  // callback cuts the flusher's linger exactly like a parked committer: it
  // stands for a client waiting on the ack, and under saturation the sync
  // itself is the batching window, so lingering past a registered ack only
  // adds latency.
  void OnDurable(Lsn lsn, std::function<void(const Status&)> cb);

  // Highest LSN known durable (on disk, synced). Frozen once poisoned.
  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }

  // OK while healthy; the kUnavailable failure once poisoned.
  Status status() const;

  // Blocks until everything sequenced so far is durable AND every OnDurable
  // callback covered by the watermark has finished running — after Drain
  // returns, no ack for a durable LSN is still pending or mid-flight on the
  // flusher (poisoned: once the failed callbacks have run). Used at
  // shutdown and by harnesses before inspecting the sink image or ack-side
  // state.
  void Drain();

  void RecordAckLatency(uint64_t us);

  GroupCommitStats stats() const;

 private:
  struct PendingAck {
    Lsn lsn;
    std::function<void(const Status&)> cb;
  };

  void FlusherLoop();
  // Appends batch_ to the writer, issues one sync, advances the watermark
  // to `high`, and wakes committers. Called with mu_ released.
  void FlushBatch(Lsn high);
  // Poisons the pipeline with the sink's failure `s` at step `what` (`lk`
  // holds mu_), drops the queue, then — with `lk` released — wakes every
  // waiter and fails every pending ack, in LSN order.
  void Fail(std::unique_lock<std::mutex>& lk, const char* what,
            const Status& s);

  JournalWriter* const writer_;
  const GroupCommitOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // flusher waits for records / stop
  std::condition_variable durable_cv_;  // committers wait for the watermark
  std::deque<std::string> queue_;  // sequenced frames, not yet flushed
  size_t waiters_ = 0;  // threads blocked on the watermark (cuts the linger)
  // Deferred OnDurable callbacks, a min-heap on lsn (std::push_heap with a
  // greater-than comparator). Invariant: every pending lsn is above the
  // watermark and at or below next_lsn_-1, so its record is still in queue_
  // or in the batch being flushed — the flusher always drains the heap
  // (Fail drains it too).
  std::vector<PendingAck> pending_acks_;
  size_t acks_in_flight_ = 0;  // ready acks currently executing off-lock
  Lsn next_lsn_ = 1;                         // LSN the next Sequence assigns
  std::atomic<Lsn> durable_lsn_{0};
  // Set once, under mu_, when a sink call fails; failure_ is written
  // before the release store and never again, so a reader that acquires
  // failed_ == true may read it without mu_.
  std::atomic<bool> failed_{false};
  Status failure_;
  bool stop_ = false;
  GroupCommitStats stats_;  // ack_latency_us lives in ack_latency_us_

  // Ack latencies are recorded by every durable committer as it wakes;
  // they get their own mutex so a batch of waking committers does not
  // convoy against the flusher and the sequencers on mu_.
  mutable std::mutex ack_mu_;
  LatencyRecorder ack_latency_us_{LatencyMode::kBuckets};

  // The batch being flushed. Only the flusher thread touches it, and it
  // is cleared, not rebuilt, each cycle: a vector keeps its capacity, so
  // once it has held the largest batch no cycle allocates for it.
  std::vector<std::string> batch_;

  std::thread flusher_;
};

}  // namespace ccr

#endif  // CCR_TXN_GROUP_COMMIT_H_
