// Copyright 2026 The ccr Authors.

#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace ccrbench {
namespace {

// The calling thread's buffer and the tracer it belongs to.
thread_local ThreadTrace* tls_trace = nullptr;
thread_local const Tracer* tls_owner = nullptr;

// Chrome-trace lanes for spans timed after the fact (serve requests), so
// concurrent requests do not overlap on one lane.
constexpr uint32_t kRequestLaneBase = 1000000;
constexpr uint32_t kRequestLanes = 256;

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case kServeRequest: return "serve.request";
    case kServeSubmit: return "serve.submit";
    case kTxnRequest: return "txn.request";
    case kTxnBegin: return "txn.begin";
    case kTxnExecute: return "txn.execute";
    case kTxnCommit: return "txn.commit";
    case kTxnRetry: return "txn.retry";
    case kJournalAppend: return "journal.append";
    case kJournalSync: return "journal.sync";
    case kStoreGet: return "store.get";
    case kStoreApply: return "store.apply";
    case kCheckpointWrite: return "checkpoint.write";
    case kRestart: return "restart";
    case kRequestSelf: return "request.self";
    case kChildCover: return "request.child_cover";
    case kGenLate: return "gen.late";
    case kNumKinds: break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(uint32_t id) : tid(id) {
  for (ccr::LatencyRecorder& r : folded) {
    r = ccr::LatencyRecorder(ccr::LatencyMode::kBuckets);
  }
}

ThreadTrace& Tracer::Local() {
  if (tls_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(
        std::make_unique<ThreadTrace>(static_cast<uint32_t>(threads_.size())));
    tls_trace = threads_.back().get();
    tls_owner = this;
  }
  return *tls_trace;
}

void Tracer::BeginSpan(Kind kind) {
  ThreadTrace& t = Local();
  if (t.depth < t.stack.size()) t.stack[t.depth] = kind;
  ++t.depth;
}

void Tracer::EndSpan(Kind kind, int64_t start_ns, int64_t end_ns) {
  ThreadTrace& t = Local();
  --t.depth;
  Kind parent = kNumKinds;
  if (t.depth > 0) {
    parent = t.stack[std::min(t.depth, t.stack.size()) - 1];
  } else if (t.in_request) {
    parent = t.request_kind;
    t.child_ns += end_ns - start_ns;
  }
  if (!armed()) return;
  t.folded[kind].Record(static_cast<uint64_t>(end_ns - start_ns));
  bool keep = t.in_request && t.sampled;
  if (!t.in_request) {
    keep = t.background_calls[kind]++ % kSampleEvery == 0;
  }
  if (keep && t.kept.size() < kMaxKeptPerThread) {
    t.kept.push_back(Span{start_ns, end_ns, t.in_request ? t.request : 0,
                          t.tid, kind, parent});
  }
}

void Tracer::Fold(const Span& span, bool keep) {
  ThreadTrace& t = Local();
  t.folded[span.kind].Record(
      static_cast<uint64_t>(span.end_ns - span.start_ns));
  if (keep && t.kept.size() < kMaxKeptPerThread) {
    Span lane = span;
    lane.tid = kRequestLaneBase +
               static_cast<uint32_t>((span.request / kSampleEvery) %
                                     kRequestLanes);
    t.kept.push_back(lane);
  }
}

void Tracer::BeginRequest(Kind kind, uint64_t request) {
  ThreadTrace& t = Local();
  t.in_request = true;
  t.request_kind = kind;
  t.request = request;
  t.sampled = request % kSampleEvery == 0;
  t.child_ns = 0;
  t.request_start = NowNs();
}

void Tracer::EndRequest() {
  const int64_t end = NowNs();
  ThreadTrace& t = Local();
  const int64_t total = end - t.request_start;
  t.in_request = false;
  if (!armed()) return;
  t.folded[t.request_kind].Record(static_cast<uint64_t>(total));
  t.folded[kRequestSelf].Record(
      static_cast<uint64_t>(std::max<int64_t>(0, total - t.child_ns)));
  if (total > 0) {
    t.folded[kChildCover].Record(
        static_cast<uint64_t>(10000 * t.child_ns / total));
  }
  if (t.sampled && t.kept.size() < kMaxKeptPerThread) {
    t.kept.push_back(Span{t.request_start, end, t.request, t.tid,
                          t.request_kind, kNumKinds});
  }
}

ccr::LatencyRecorder Tracer::Merged(Kind kind) const {
  ccr::LatencyRecorder merged(ccr::LatencyMode::kBuckets);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) merged.Merge(t->folded[kind]);
  return merged;
}

ccr::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ccr::Status::Internal("cannot open " + path);
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& t : threads_) {
    for (const Span& s : t->kept) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& t : threads_) {
    for (const Span& s : t->kept) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":\"%s\"}}",
                   first ? "" : ",", KindName(s.kind), s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   s.parent == kNumKinds ? "" : KindName(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return ccr::Status::Internal("cannot write " + path);
  }
  return ccr::Status::OK();
}

ccr::Status TimedSink::Append(std::string_view bytes) {
  ScopedSpan span(tracer_, kJournalAppend);
  bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return inner_->Append(bytes);
}

ccr::Status TimedSink::Sync() {
  ScopedSpan span(tracer_, kJournalSync);
  return inner_->Sync();
}

ccr::Status TimedStore::ApplyBatch(const ccr::StoreWriteBatch& batch,
                                   Durability durability) {
  uint64_t bytes = 0;
  for (const ccr::StoreOp& op : batch.ops()) {
    bytes += op.key.size() + op.value.size();
  }
  user_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  ScopedSpan span(tracer_, kStoreApply);
  return inner_->ApplyBatch(batch, durability);
}

ccr::StatusOr<std::string> TimedStore::Get(const std::string& key) {
  ScopedSpan span(tracer_, kStoreGet);
  return inner_->Get(key);
}

}  // namespace ccrbench
