// Copyright 2026 The ccr Authors.
//
// Outside-in tracing for ccrbench. Every span is recorded from the
// benchmark's own files, around a public call into one engine layer: the
// engine itself carries no instrumentation. A span is {name, start, end,
// parent, request id}. Every span is folded into a bucketed per-thread
// LatencyRecorder for its name; the full spans of 1 in 64 requests (and of
// 1 in 64 background calls) are kept in bounded per-thread buffers and
// written at exit as Chrome-trace JSON.
//
// A request's self time is its span minus the time its direct child spans
// cover. Nested spans (a store read inside an Execute) are kept and folded
// but do not count as children of the request, so nothing is counted twice.
//
// TimedSink and TimedStore wrap the journal's byte sink and the object
// store so the calls the engine makes on its own threads (flusher appends
// and syncs, fault-in reads, eviction and checkpoint batches) are timed too.

#ifndef CCRBENCH_TRACE_H_
#define CCRBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/latency_recorder.h"
#include "store/object_store.h"
#include "txn/journal_io.h"

namespace ccrbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names, and the derived per-request samples folded beside them.
enum Kind : uint8_t {
  kServeRequest,   // SubmitAsync call -> completion (serve workloads)
  kServeSubmit,    // the SubmitAsync call itself
  kTxnRequest,     // a direct transaction (RunTransaction), retries included
  kTxnBegin,       // RunTransaction up to the first body
  kTxnExecute,     // Execute or ExecuteBatch
  kTxnCommit,      // Commit, durable wait included
  kTxnRetry,       // abort or failed commit, backoff, Begin between bodies
  kJournalAppend,  // ByteSink::Append (one record frame)
  kJournalSync,    // ByteSink::Sync (fdatasync)
  kStoreGet,
  kStoreApply,
  kCheckpointWrite,
  kRestart,
  // Derived samples, not spans:
  kRequestSelf,    // request span minus its direct children
  kChildCover,     // children / request, in 1e-4 units
  kGenLate,        // open-loop dispatch lateness behind the schedule
  kNumKinds,
};

const char* KindName(Kind kind);

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint64_t request;  // 0: background span
  uint32_t tid;
  Kind kind;
  Kind parent;       // kNumKinds: no parent
};

class Tracer;

// One thread's recorders and kept spans. Only its own thread writes it;
// the tracer reads it once every traced thread has stopped.
struct ThreadTrace {
  explicit ThreadTrace(uint32_t id);

  uint32_t tid;
  std::array<ccr::LatencyRecorder, kNumKinds> folded;
  std::vector<Span> kept;
  std::array<uint32_t, kNumKinds> background_calls{};

  // The request in progress on this thread (direct workloads).
  bool in_request = false;
  bool sampled = false;
  Kind request_kind = kNumKinds;
  uint64_t request = 0;
  int64_t request_start = 0;
  int64_t child_ns = 0;
  // Open spans, innermost at stack[depth - 1].
  std::array<Kind, 8> stack{};
  size_t depth = 0;
};

class Tracer {
 public:
  // Requests whose id is a multiple of this keep their full spans.
  static constexpr uint64_t kSampleEvery = 64;
  // Kept spans per thread; further spans are folded only.
  static constexpr size_t kMaxKeptPerThread = 1 << 14;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The calling thread's buffer, registered on first use.
  ThreadTrace& Local();

  // Spans are folded and kept only while armed (the timed phase); spans
  // outside it still nest correctly.
  void Arm(bool on) { armed_.store(on, std::memory_order_relaxed); }

  // Opens and closes a span on the calling thread (ScopedSpan's halves).
  // Closing folds the span, counts it toward the open request's children
  // when it is a direct child, and keeps it when sampled. The span is
  // folded under EndSpan's kind, which may differ from BeginSpan's when
  // what the span was is known only at its end; BeginSpan's kind only
  // names the parent of spans nested inside it.
  void BeginSpan(Kind kind);
  void EndSpan(Kind kind, int64_t start_ns, int64_t end_ns);

  // Folds a derived sample (nanoseconds, or 1e-4 units for kChildCover).
  void Sample(Kind kind, int64_t value) {
    Local().folded[kind].Record(static_cast<uint64_t>(value < 0 ? 0 : value));
  }

  // Folds and keeps a span timed after the fact: serve requests are timed
  // from per-request stamps, not on the thread that ends them.
  void Fold(const Span& span, bool keep);

  // Request scope on the calling thread: spans closed between these calls
  // are the request's children. EndRequest folds the request span, its
  // self time and its child coverage.
  void BeginRequest(Kind kind, uint64_t request);
  void EndRequest();

  // Every thread's recorder for `kind`, merged. Call once traced threads
  // have stopped.
  ccr::LatencyRecorder Merged(Kind kind) const;

  // Writes the kept spans as a Chrome-trace JSON file.
  ccr::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

// Times one call on the calling thread. A null tracer makes it free of
// clock reads, so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Kind kind)
      : tracer_(tracer), kind_(kind), start_(tracer ? NowNs() : 0) {
    if (tracer_ != nullptr) tracer_->BeginSpan(kind);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(kind_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const Kind kind_;
  const int64_t start_;
};

// The journal's byte sink with every Append and Sync timed.
class TimedSink final : public ccr::ByteSink {
 public:
  TimedSink(ccr::ByteSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  ccr::Status Append(std::string_view bytes) override;
  ccr::Status Sync() override;

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  ccr::ByteSink* const inner_;
  Tracer* const tracer_;
  std::atomic<uint64_t> bytes_{0};
};

// The object store with every Get and ApplyBatch timed, counting the key
// and value bytes the engine asked it to write (the write-amplification
// base).
class TimedStore final : public ccr::ObjectStore {
 public:
  TimedStore(ccr::ObjectStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  ccr::Status ApplyBatch(const ccr::StoreWriteBatch& batch,
                         Durability durability) override;
  ccr::StatusOr<std::string> Get(const std::string& key) override;
  ccr::Status Scan(const std::function<ccr::Status(
                       const std::string&, const std::string&)>& fn) override {
    return inner_->Scan(fn);
  }
  ccr::ObjectStoreStats stats() const override { return inner_->stats(); }

  uint64_t user_bytes() const {
    return user_bytes_.load(std::memory_order_relaxed);
  }

 private:
  ccr::ObjectStore* const inner_;
  Tracer* const tracer_;
  std::atomic<uint64_t> user_bytes_{0};
};

}  // namespace ccrbench

#endif  // CCRBENCH_TRACE_H_
