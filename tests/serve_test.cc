// Copyright 2026 The ccr Authors.
//
// Serving-boundary tests: coalescing record economy (K independent
// submissions -> ONE engine transaction and ONE journal record), exact
// admission-control accounting with no engine-state leaks, per-submission
// error attribution via demotion, fail-stop on a poisoned pipeline, the
// wire codec's round-trip and torn/corrupt-frame behavior, the serving
// crash scenario (zero acked-but-lost with the cut landing mid-serving),
// and open-loop generator accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adt/counter.h"
#include "common/random.h"
#include "memory_log.h"
#include "serve/frontend.h"
#include "serve/wire.h"
#include "sim/crash_harness.h"
#include "sim/open_loop.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

constexpr int kKeys = 8;

// A memory journal disk that can start failing: after Fail(), every
// append returns ENOSPC, and calls reaching it after the failure are
// counted.
class FailingSink : public MemorySink {
 public:
  void Fail() { failing_ = true; }
  Status Append(std::string_view bytes) override {
    if (failing_) return Refuse();
    return MemorySink::Append(bytes);
  }
  Status Sync() override {
    if (failing_) return Refuse();
    return MemorySink::Sync();
  }
  // Calls after the first refusal (the pipeline must make none).
  int calls_after_failure() const { return refused_ > 0 ? refused_ - 1 : 0; }

 private:
  Status Refuse() {
    ++refused_;
    return Status::Internal("journal device: no space left on device");
  }

  std::atomic<bool> failing_{false};
  std::atomic<int> refused_{0};
};

// A counter bank journaled through a group-commit pipeline into a memory
// sink — the full serving stack minus the front end, which each test
// builds with the options it needs. The front end must be stopped (or
// destroyed) before this fixture: acks ride the pipeline's flusher.
struct ServedSystem {
  explicit ServedSystem(DurabilityMode mode = DurabilityMode::kGroup)
      : log(GroupCommitOptions{mode}) {
    for (int i = 0; i < kKeys; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(i));
      manager.AddObject(ctr->object_name(), ctr, MakeNrbcConflict(ctr),
                        std::make_unique<UipRecovery>(ctr));
      counters.push_back(std::move(ctr));
    }
    log.Attach(&manager);
  }

  // One increment on counter `key` (mod the bank size).
  BatchOp Inc(int key) const {
    const Counter& ctr = *counters[static_cast<size_t>(key) % kKeys];
    return BatchOp{ctr.object_name(), "", ctr.IncInv(1)};
  }

  // Ops in the commit records the sink received.
  uint64_t JournalOps() {
    uint64_t ops = 0;
    for (const Journal::CommitRecord& record : log.Records()) {
      ops += record.ops.size();
    }
    return ops;
  }

  BasicMemoryLog<FailingSink> log;
  TxnManager manager;
  std::vector<std::shared_ptr<Counter>> counters;
};

ServeFrontendOptions ManualDrive(size_t queue_depth = 1024) {
  ServeFrontendOptions options;
  options.workers = 0;  // tests pump deterministically
  options.queue_depth = queue_depth;
  return options;
}

// K independent submissions pumped as one group must coalesce into ONE
// engine transaction journaled as ONE multi-object record, each client
// acked with exactly its own slice of the results.
TEST(ServeFrontendTest, CoalescesSubmissionsIntoOneRecord) {
  ServedSystem sys;
  ServeFrontend frontend(&sys.manager, ManualDrive());
  constexpr int kSubs = 6;
  std::atomic<int> acked{0};
  for (int i = 0; i < kSubs; ++i) {
    const Status admitted = frontend.SubmitAsync(
        {sys.Inc(i), sys.Inc(i + 1)},
        [&acked, i](const Status& s, std::vector<Value> values) {
          EXPECT_TRUE(s.ok()) << "submission " << i << ": " << s.ToString();
          // The slice is this submission's own per-op results, in op order.
          EXPECT_EQ(values.size(), 2u) << "submission " << i;
          acked.fetch_add(1);
        });
    ASSERT_TRUE(admitted.ok());
  }
  EXPECT_EQ(acked.load(), 0);  // nothing served until the pump runs
  EXPECT_EQ(frontend.PumpOnce(), static_cast<size_t>(kSubs));
  frontend.Drain();

  EXPECT_EQ(acked.load(), kSubs);
  EXPECT_EQ(sys.log.Entries().size(), 1u);  // ONE record for the group
  EXPECT_EQ(sys.JournalOps(), static_cast<uint64_t>(kSubs) * 2);
  const ServeStats stats = frontend.stats();
  EXPECT_EQ(stats.coalesced_txns, 1u);
  EXPECT_EQ(stats.coalesced_submissions, static_cast<uint64_t>(kSubs));
  EXPECT_EQ(stats.completed_ok, static_cast<uint64_t>(kSubs));
  EXPECT_EQ(stats.demoted_groups, 0u);
  // Every submission's effects committed: each counter key was hit once
  // per submission that named it.
  frontend.Stop();
}

// Past queue_depth, SubmitAsync sheds with kResourceExhausted: the
// completion never fires, the accounting is exact, and no transaction or
// lock leaks — the engine serves a full follow-up pass untouched.
TEST(ServeFrontendTest, SheddingIsExactAndLeaksNothing) {
  ServedSystem sys;
  constexpr size_t kDepth = 3;
  ServeFrontend frontend(&sys.manager, ManualDrive(kDepth));
  std::atomic<int> acked{0};
  std::atomic<int> shed_completions{0};
  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    const Status s = frontend.SubmitAsync(
        {sys.Inc(i)}, [&acked, &shed_completions](const Status& st,
                                                  std::vector<Value>) {
          if (st.ok()) {
            acked.fetch_add(1);
          } else {
            shed_completions.fetch_add(1);
          }
        });
    if (s.ok()) {
      ++admitted;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(admitted, static_cast<int>(kDepth));
  EXPECT_EQ(shed, 10 - static_cast<int>(kDepth));
  while (frontend.PumpOnce() > 0) {
  }
  frontend.Drain();
  EXPECT_EQ(acked.load(), admitted);
  EXPECT_EQ(shed_completions.load(), 0);  // a shed completion never fires
  const ServeStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(admitted));
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.completed_ok, static_cast<uint64_t>(admitted));
  // Only the admitted submissions' ops reached the journal.
  EXPECT_EQ(sys.JournalOps(), static_cast<uint64_t>(admitted));

  // No leaked locks or transactions: a direct transaction over every
  // counter commits cleanly.
  auto txn = sys.manager.Begin();
  std::vector<BatchOp> all;
  for (int i = 0; i < kKeys; ++i) all.push_back(sys.Inc(i));
  ASSERT_TRUE(sys.manager.ExecuteBatch(txn.get(), all).ok());
  ASSERT_TRUE(sys.manager.Commit(txn.get()).ok());
  frontend.Stop();
}

// One bad submission in a coalesced group must fail ALONE: the group
// demotes to per-submission transactions, its neighbors commit, and the
// error lands on exactly the submission that caused it.
TEST(ServeFrontendTest, DemotionAttributesErrorsToTheCulprit) {
  ServedSystem sys;
  ServeFrontend frontend(&sys.manager, ManualDrive());
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  ASSERT_TRUE(frontend
                  .SubmitAsync({sys.Inc(0)},
                               [&ok](const Status& s, std::vector<Value>) {
                                 EXPECT_TRUE(s.ok()) << s.ToString();
                                 ok.fetch_add(1);
                               })
                  .ok());
  // No such object and no factory: ExecuteBatch fails for this submission.
  const Invocation bogus("NO_SUCH_OBJECT", 0, "inc", {Value(int64_t{1})});
  ASSERT_TRUE(frontend
                  .SubmitAsync({BatchOp{"NO_SUCH_OBJECT", "", bogus}},
                               [&failed](const Status& s,
                                         std::vector<Value> values) {
                                 EXPECT_FALSE(s.ok());
                                 EXPECT_TRUE(values.empty());
                                 failed.fetch_add(1);
                               })
                  .ok());
  ASSERT_TRUE(frontend
                  .SubmitAsync({sys.Inc(1)},
                               [&ok](const Status& s, std::vector<Value>) {
                                 EXPECT_TRUE(s.ok()) << s.ToString();
                                 ok.fetch_add(1);
                               })
                  .ok());
  EXPECT_EQ(frontend.PumpOnce(), 3u);
  frontend.Drain();
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(failed.load(), 1);
  const ServeStats stats = frontend.stats();
  EXPECT_EQ(stats.demoted_groups, 1u);
  EXPECT_EQ(stats.coalesced_txns, 0u);  // the merged attempt did not commit
  EXPECT_EQ(stats.completed_ok, 2u);
  EXPECT_EQ(stats.completed_error, 1u);
  // The two good submissions journaled their ops; the bad one left none.
  EXPECT_EQ(sys.JournalOps(), 2u);
  frontend.Stop();
}

// The wire codec carries any object id, so one request can name an id the
// journal cannot frame. Under a durable pipeline with lifecycle journaling
// it must fail alone with kInvalidArgument — never reach the journal
// encoder, whose flusher would abort the whole server.
TEST(ServeFrontendTest, UnframableIdFailsOnlyItsSubmission) {
  ServedSystem sys;
  sys.manager.RegisterFactory("counter", [](const ObjectId& id) {
    std::shared_ptr<Counter> ctr = MakeCounter(id);
    ObjectConfig config;
    config.adt = ctr;
    config.conflict = MakeNrbcConflict(ctr);
    config.recovery = std::make_unique<UipRecovery>(ctr);
    return config;
  });
  ServeFrontend frontend(&sys.manager, ManualDrive());
  std::atomic<int> ok{0};
  std::atomic<int> refused{0};
  const auto expect_ok = [&ok](const Status& s, std::vector<Value>) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    ok.fetch_add(1);
  };
  ASSERT_TRUE(frontend.SubmitAsync({sys.Inc(0)}, expect_ok).ok());
  const auto hostile = MakeCounter("a b");
  ASSERT_TRUE(frontend
                  .SubmitAsync({BatchOp{"a b", "counter", hostile->IncInv(1)}},
                               [&refused](const Status& s,
                                          std::vector<Value> values) {
                                 EXPECT_EQ(s.code(),
                                           StatusCode::kInvalidArgument)
                                     << s.ToString();
                                 EXPECT_TRUE(values.empty());
                                 refused.fetch_add(1);
                               })
                  .ok());
  ASSERT_TRUE(frontend.SubmitAsync({sys.Inc(1)}, expect_ok).ok());
  EXPECT_EQ(frontend.PumpOnce(), 3u);
  frontend.Drain();
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(frontend.stats().completed_error, 1u);
  EXPECT_EQ(sys.manager.object("a b"), nullptr);
  // Only the good submissions reached the journal: no create record.
  EXPECT_EQ(sys.JournalOps(), 2u);
  for (const Journal::Entry& entry : sys.log.Entries()) {
    EXPECT_FALSE(entry.is_lifecycle);
  }
  frontend.Stop();
}

// The future-returning convenience resolves with the submission's values
// (worker-driven this time), and admission failures resolve immediately.
TEST(ServeFrontendTest, SubmitFutureDeliversValues) {
  ServedSystem sys;
  ServeFrontendOptions options;
  options.workers = 1;
  ServeFrontend frontend(&sys.manager, options);
  auto f1 = frontend.Submit({sys.Inc(0), sys.Inc(1)});
  auto f2 = frontend.Submit({sys.Inc(2)});
  const auto [s1, v1] = f1.get();
  const auto [s2, v2] = f2.get();
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  ASSERT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(v1.size(), 2u);
  EXPECT_EQ(v2.size(), 1u);
  frontend.Stop();
  // Stopped: the future resolves immediately with kUnavailable.
  auto f3 = frontend.Submit({sys.Inc(3)});
  EXPECT_EQ(f3.get().first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sys.JournalOps(), 3u);
}

// A poisoned pipeline is the front end's crash path: once the journal
// device fails, the group in flight and the groups still queued complete
// with kUnavailable — never acked — new submissions are shed with it, and
// the sink receives nothing more.
TEST(ServeFrontendTest, PoisonedPipelineFailsQueuedSubmissions) {
  ServedSystem sys;
  ServeFrontendOptions options = ManualDrive();
  options.max_group = 2;  // two groups: one in flight, one still queued
  ServeFrontend frontend(&sys.manager, options);
  std::atomic<int> failed{0};
  const ServeCompletion expect_unavailable = [&failed](const Status& s,
                                                       std::vector<Value>) {
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    failed.fetch_add(1);
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend.SubmitAsync({sys.Inc(i)}, expect_unavailable).ok());
  }
  sys.log.sink.Fail();
  // The first group executes and sequences its record; the flusher's
  // append fails and the pipeline poisons, failing the group's acks.
  ASSERT_EQ(frontend.PumpOnce(), 2u);
  sys.log.pipeline.Drain();
  EXPECT_EQ(sys.log.pipeline.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed.load(), 2);
  // The queued group is failed without being executed.
  ASSERT_EQ(frontend.PumpOnce(), 2u);
  EXPECT_EQ(failed.load(), 4);
  // Only the first group's record was sequenced.
  EXPECT_EQ(sys.log.pipeline.stats().records_sequenced, 1u);
  // New submissions are shed with the failure; their completion never
  // fires.
  EXPECT_EQ(frontend.SubmitAsync({sys.Inc(5)}, expect_unavailable).code(),
            StatusCode::kUnavailable);
  frontend.Stop();
  EXPECT_EQ(failed.load(), 4);
  const ServeStats stats = frontend.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed_ok, 0u);
  EXPECT_EQ(stats.completed_error, stats.accepted);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_TRUE(sys.log.sink.image().empty());
  EXPECT_EQ(sys.log.sink.calls_after_failure(), 0);
}

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(WireCodecTest, RequestRoundTripsWithHostileStrings) {
  auto ctr = MakeCounter("a counter\nwith whitespace");
  WireRequest request;
  request.request_id = 0xdeadbeefcafeull;
  request.ops.push_back(
      BatchOp{ctr->object_name(), "factory with spaces", ctr->IncInv(41)});
  request.ops.push_back(BatchOp{ctr->object_name(), "", ctr->IncInv(-7)});
  const std::string frame = EncodeRequest(request);

  WireRequest decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeRequest(frame, &decoded, &consumed).ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded.request_id, request.request_id);
  ASSERT_EQ(decoded.ops.size(), request.ops.size());
  for (size_t i = 0; i < request.ops.size(); ++i) {
    EXPECT_EQ(decoded.ops[i].object, request.ops[i].object);
    EXPECT_EQ(decoded.ops[i].factory, request.ops[i].factory);
    EXPECT_EQ(decoded.ops[i].inv.code(), request.ops[i].inv.code());
    EXPECT_EQ(decoded.ops[i].inv.name(), request.ops[i].inv.name());
    ASSERT_EQ(decoded.ops[i].inv.args().size(),
              request.ops[i].inv.args().size());
    for (size_t a = 0; a < request.ops[i].inv.args().size(); ++a) {
      EXPECT_TRUE(decoded.ops[i].inv.args()[a] ==
                  request.ops[i].inv.args()[a]);
    }
  }
}

TEST(WireCodecTest, ResponseRoundTripsAllCodes) {
  WireResponse response;
  response.request_id = 7;
  response.code = StatusCode::kResourceExhausted;
  response.message = "submission queue is full";
  const std::string frame = EncodeResponse(response);
  WireResponse decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeResponse(frame, &decoded, &consumed).ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message, "submission queue is full");
  EXPECT_TRUE(decoded.values.empty());

  WireResponse ok;
  ok.request_id = 8;
  ok.values.push_back(Value(int64_t{42}));
  ok.values.push_back(Value(std::string("hello world")));
  const std::string ok_frame = EncodeResponse(ok);
  ASSERT_TRUE(DecodeResponse(ok_frame, &decoded, &consumed).ok());
  ASSERT_EQ(decoded.values.size(), 2u);
  EXPECT_TRUE(decoded.values[0] == ok.values[0]);
  EXPECT_TRUE(decoded.values[1] == ok.values[1]);
}

// A frame cut at every byte boundary is "still arriving" (kUnavailable,
// consumed == 0), never misparsed; two frames back to back decode in turn.
TEST(WireCodecTest, TornAndConcatenatedFrames) {
  auto ctr = MakeCounter("C");
  WireRequest first;
  first.request_id = 1;
  first.ops.push_back(BatchOp{"C", "", ctr->IncInv(1)});
  WireRequest second;
  second.request_id = 2;
  second.ops.push_back(BatchOp{"C", "", ctr->IncInv(2)});
  const std::string f1 = EncodeRequest(first);
  const std::string f2 = EncodeRequest(second);

  for (size_t cut = 0; cut < f1.size(); ++cut) {
    WireRequest out;
    size_t consumed = 999;
    const Status s =
        DecodeRequest(std::string_view(f1).substr(0, cut), &out, &consumed);
    ASSERT_EQ(s.code(), StatusCode::kUnavailable) << "cut " << cut;
    ASSERT_EQ(consumed, 0u) << "cut " << cut;
  }

  const std::string stream = f1 + f2;
  WireRequest out;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeRequest(stream, &out, &consumed).ok());
  EXPECT_EQ(out.request_id, 1u);
  EXPECT_EQ(consumed, f1.size());
  ASSERT_TRUE(
      DecodeRequest(std::string_view(stream).substr(consumed), &out,
                    &consumed)
          .ok());
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(consumed, f2.size());
}

// Payload corruption fails the checksum: the decoder reports a corrupt
// stream rather than returning damaged ops.
TEST(WireCodecTest, CorruptFrameFailsChecksum) {
  auto ctr = MakeCounter("C");
  WireRequest request;
  request.request_id = 9;
  request.ops.push_back(BatchOp{"C", "", ctr->IncInv(5)});
  std::string frame = EncodeRequest(request);
  frame[frame.size() - 2] ^= 0x40;  // flip a payload bit
  WireRequest out;
  size_t consumed = 0;
  const Status s = DecodeRequest(frame, &out, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
}

// ---------------------------------------------------------------------------
// Serving crash scenario + open loop.
// ---------------------------------------------------------------------------

SystemFactory CounterBankFactory() {
  return [](TxnManager* manager) {
    for (int i = 0; i < kKeys; ++i) {
      auto ctr = MakeCounter("C" + std::to_string(i));
      manager->AddObject(ctr->object_name(), ctr, MakeNrbcConflict(ctr),
                         std::make_unique<UipRecovery>(ctr));
    }
  };
}

RequestFactory SmallIncRequests() {
  return [](size_t, Random* rng) {
    std::vector<BatchOp> ops;
    const size_t start = rng->Uniform(kKeys);
    for (size_t i = 0; i < 3; ++i) {
      auto ctr = MakeCounter("C" + std::to_string((start + i) % kKeys));
      ops.push_back(BatchOp{ctr->object_name(), "", ctr->IncInv(1)});
    }
    return ops;
  };
}

// Crash with the submission queue live: the machine dies at the record
// the journal appends once the acks reach a fraction of the burst. At
// every cut: zero acked-but-lost submissions, ops acked ⊆ recovered ⊆
// journaled (exact conservation on the clean run), coalesced records
// recover all-or-nothing, and for mid-run cuts the audit ran over a
// non-empty acked set and accepted submissions were still in flight when
// the machine died — they completed with the failure.
TEST(ServeCrashTest, NoAckedSubmissionLostAtAnyCut) {
  for (const double fraction : {0.25, 0.5, 0.75, 1.0}) {
    CrashScenarioOptions options;
    options.requests = 200;
    options.driver.threads = 2;  // submitters
    options.fault = CrashFault::AtFraction(fraction);
    options.frontend.queue_depth = 32;  // small: the burst must shed
    options.frontend.max_group = 8;     // several coalesced records per run
    // Small sync batches: acks arrive all through the burst, so a cut
    // lands among acknowledged submissions.
    options.group_commit.max_batch = 2;
    const CrashScenarioResult result = RunCrashScenario(
        CounterBankFactory(), SmallIncRequests(), options);
    EXPECT_TRUE(result.ok())
        << "fraction " << fraction << ": status " << result.status.ToString()
        << " prefix " << result.prefix_ok << " state " << result.state_ok
        << " ops acked " << result.acked_ops << " recovered "
        << result.recovered_ops << " journaled " << result.journal_ops;
    // Shed submissions are retried: every request is accepted once, until
    // the engine fail-stops and refuses the rest.
    EXPECT_LE(result.serve.accepted, 200u);
    EXPECT_EQ(result.serve.accepted + result.serve.shed,
              result.serve.submitted);
    EXPECT_EQ(result.serve.completed_ok + result.serve.completed_error,
              result.serve.accepted);
    EXPECT_EQ(result.acked, result.serve.completed_ok);
    if (fraction < 1.0) {
      EXPECT_TRUE(result.fault_fired) << "fraction " << fraction;
      EXPECT_GT(result.serve.completed_error, 0u) << "fraction " << fraction;
      EXPECT_GT(result.acked, 0u) << "fraction " << fraction;
      EXPECT_GT(result.acked_ops, 0u) << "fraction " << fraction;
    } else {
      EXPECT_EQ(result.serve.accepted, 200u);
      EXPECT_EQ(result.acked_ops, result.journal_ops);
    }
    // The boundary actually batched under the burst.
    EXPECT_GT(result.serve.coalesced_txns, 0u);
  }
}

// The open-loop generator's books balance: every arrival is dispatched,
// every admitted submission completes, and the ops acked OK equal the ops
// journaled (conservation through the full serving stack).
TEST(OpenLoopTest, AccountingBalances) {
  ServedSystem sys;
  ServeFrontendOptions options;
  options.workers = 1;
  ServeFrontend frontend(&sys.manager, options);
  OpenLoopOptions loop;
  loop.offered_rps = 5000;
  loop.requests = 300;
  loop.seed = 11;
  std::atomic<size_t> built{0};
  const OpenLoopResult result = RunOpenLoop(
      &frontend,
      [&](size_t, Random* rng) {
        built.fetch_add(1);
        auto ctr = MakeCounter("C" + std::to_string(rng->Uniform(kKeys)));
        return std::vector<BatchOp>{
            BatchOp{ctr->object_name(), "", ctr->IncInv(1)}};
      },
      loop);
  frontend.Stop();
  sys.log.pipeline.Drain();
  EXPECT_EQ(result.submitted, 300u);
  EXPECT_EQ(built.load(), 300u);
  EXPECT_EQ(result.completed_ok + result.completed_error + result.shed,
            result.submitted);
  EXPECT_EQ(result.latency.count(), result.completed_ok);
  EXPECT_EQ(result.completed_ops, sys.JournalOps());
  EXPECT_GT(result.duration_s, 0.0);
  EXPECT_GE(result.p99_us, result.p50_us);
}

}  // namespace
}  // namespace ccr
