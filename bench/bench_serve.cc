// Copyright 2026 The ccr Authors.
//
// PERF-SERVE: the async serving boundary. Two questions, two experiments.
//
// 1. CLOSED-LOOP ACCEPTANCE — what does boundary batching buy? 32
//    concurrent clients each keep one 4-key transaction in flight against
//    a kGroup journal directory. The `direct` arm is the pre-PR-10
//    serving model: every client thread runs its own
//    Begin/ExecuteBatch/Commit and parks in WaitDurable — group commit
//    already merges their syncs, but each client still pays its own
//    directory pass, lock sweep, commit record, and wakeup. The `serve`
//    arm pushes the same submissions through the ServeFrontend, whose
//    boundary batcher coalesces concurrent submissions into one engine
//    transaction and ONE multi-object commit record per group, acking all
//    of them off a single watermark advance. Acceptance (ISSUE 10): serve
//    >= 2x direct at 32 clients in kGroup mode.
//
// 2. OPEN-LOOP SLO CURVES — where does each configuration saturate? A
//    Poisson arrival schedule (sim/open_loop.h) offers load the engine
//    cannot slow down; latency is measured from the INTENDED arrival, so
//    queueing delay counts against the system (no coordinated omission).
//    Sweeping offered load yields throughput-vs-p50/p99 curves per engine
//    config (UIP+NRBC vs DU+NFC vs 2PL-RW) and per durability mode; the
//    knee is the highest offered load a config serves with p99 under the
//    SLO and nothing shed. Past the knee the bounded admission queue
//    sheds instead of letting latency grow without bound — graceful
//    degradation shows up as a rising shed column while admitted-request
//    p99 stays bounded.
//
// `--smoke` runs the functional pass CI uses under sanitizers: op
// conservation at the journal (every journaled op belongs to exactly one
// OK-acked submission), exact shed accounting at the admission bound, and
// the serving crash scenario (RunCrashScenario with a serving burst)
// asserting zero acked-but-lost submissions with the machine dying
// mid-serving.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/counter.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "serve/frontend.h"
#include "sim/crash_harness.h"
#include "sim/driver.h"
#include "sim/open_loop.h"
#include "txn/group_commit.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"

namespace ccr {
namespace {

using bench::AddCounterBank;
using bench::CounterBankEngine;
using bench::EngineConfig;
using bench::EngineConfigName;

constexpr int kKeys = 256;
constexpr int kOpsPerRequest = 4;

const char* ModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kSync:
      return "sync";
    case DurabilityMode::kGroup:
      return "group";
    case DurabilityMode::kRelaxed:
      return "relaxed";
  }
  return "?";
}

// A request: `ops_per_request` increments on a random window of
// consecutive counters (mod kKeys), so concurrent requests overlap and
// contend — the same shape PERF-BATCH uses, one boundary below. One op is
// the canonical serving request (a point update); multi-op requests shift
// the cost balance from per-record to per-op work.
std::vector<BatchOp> MakeRequest(
    const std::vector<std::shared_ptr<Counter>>& counters, Random* rng,
    int ops_per_request = kOpsPerRequest) {
  std::vector<BatchOp> ops;
  ops.reserve(static_cast<size_t>(ops_per_request));
  const size_t start = rng->Uniform(kKeys);
  for (int i = 0; i < ops_per_request; ++i) {
    const Counter& ctr = *counters[(start + static_cast<size_t>(i)) % kKeys];
    ops.push_back(BatchOp{ctr.object_name(), "", ctr.IncInv(1)});
  }
  return ops;
}

struct CellResult {
  double txn_per_sec = 0;
  uint64_t ok = 0;
  uint64_t records = 0;     // journal records the run produced
  uint64_t syncs = 0;       // sink Sync calls the pipeline issued
  uint64_t coalesced = 0;   // multi-submission merged transactions
  uint64_t journal_ops = 0;
  uint64_t acked_ops = 0;   // per-op results delivered with OK acks
};

// Counts what reached the engine's journal directory: the caller drained
// the pipeline, and the engine never checkpoints, so every record is there.
void FillJournalCounts(const Engine& engine, CellResult* cell) {
  cell->syncs = engine.pipeline()->stats().syncs;
  CCR_CHECK(ForEachSegmentedEntry(
                engine.sink()->dir(), /*after_lsn=*/0,
                [cell](Lsn, Journal::Entry&& entry) {
                  ++cell->records;
                  if (!entry.is_lifecycle) {
                    cell->journal_ops += entry.commit.ops.size();
                  }
                  return Status::OK();
                },
                nullptr)
                .ok());
}

// The pre-PR-10 serving model: one thread per client, each parking in
// WaitDurable for its own commit record.
CellResult RunDirectCellOnce(int clients, int txns_per_client,
                             DurabilityMode mode, int ops_per_request) {
  CounterBankEngine sys(EngineConfig::kUipNrbc, kKeys, mode);
  auto* counters = &sys.counters;
  const TxnBody body = [counters, ops_per_request](
                           TxnManager* m, Transaction* txn,
                           Random* rng) -> Status {
    return m->ExecuteBatch(txn, MakeRequest(*counters, rng, ops_per_request))
        .status();
  };
  DriverOptions options;
  options.threads = clients;
  options.txns_per_thread = txns_per_client;
  const DriverResult result = RunWorkload(sys.engine->manager(), body, options);
  sys.engine->pipeline()->Drain();
  CellResult cell;
  cell.txn_per_sec = result.throughput;
  cell.ok = result.committed;
  FillJournalCounts(*sys.engine, &cell);
  return cell;
}

// One logical closed-loop client: a pre-generated request stream and a
// cursor, advanced under `mu` by whichever thread launches its next
// submission (kickoff or a completion callback).
struct ServeClient {
  std::mutex mu;
  std::vector<std::vector<BatchOp>> requests;
  size_t next = 0;
};

// Shared run state for one closed-loop cell.
struct ClosedLoopCtx {
  ServeFrontend* frontend = nullptr;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> acked_ops{0};
  std::atomic<uint64_t> settled{0};
  uint64_t total = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
};

void RetireSlot(ClosedLoopCtx* ctx) {
  if (ctx->settled.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      ctx->total) {
    std::lock_guard<std::mutex> lk(ctx->done_mu);
    ctx->done_cv.notify_all();
  }
}

// Submits one request for `c` if its stream has any left; the completion
// launches the successor, so each client holds its window of slots until
// the stream drains. The completion closure captures exactly two pointers
// so std::function's small-buffer optimization applies — the cell must not
// measure a heap allocation per completion.
void SubmitOne(ClosedLoopCtx* ctx, ServeClient* c) {
  std::vector<BatchOp> request;
  {
    std::lock_guard<std::mutex> lk(c->mu);
    if (c->next == c->requests.size()) return;
    request = std::move(c->requests[c->next++]);
  }
  const Status admitted = ctx->frontend->SubmitAsync(
      std::move(request), [ctx, c](Status status, std::vector<Value> values) {
        if (status.ok()) {
          ctx->ok.fetch_add(1, std::memory_order_relaxed);
          ctx->acked_ops.fetch_add(values.size(), std::memory_order_relaxed);
        }
        SubmitOne(ctx, c);  // keep the window full (runs on the ack thread)
        RetireSlot(ctx);
      });
  // Shed (not expected at these depths): retire the slot so the run still
  // terminates, counted as settled-not-ok.
  if (!admitted.ok()) RetireSlot(ctx);
}

// The same client population through the serving boundary. Each client is
// an EVENT-DRIVEN async closed loop: it keeps up to `window` submissions
// outstanding and launches the replacement from the completion callback
// itself — no thread parked per request, which is SubmitAsync's point (a
// socket server's event loop would drive connections exactly this way).
// Concurrent submissions coalesce at the boundary into shared engine
// transactions and shared commit records; the solo (max_group=1) arm runs
// the identical clients with coalescing off.
CellResult RunServeCellOnce(int clients, int txns_per_client,
                            DurabilityMode mode,
                            const ServeFrontendOptions& fopts, size_t window,
                            int ops_per_request = kOpsPerRequest) {
  CounterBankEngine sys(EngineConfig::kUipNrbc, kKeys, mode);
  CellResult cell;
  {
    ServeFrontend frontend(sys.engine->manager(), fopts);
    // Per-client submission state. Requests are pre-generated outside the
    // timed region — the cell measures the serving path, not the load
    // generator's request formatting. The mutex serializes the client's
    // launch budget between the kickoff thread and completion callbacks
    // (callbacks themselves arrive serially per ack thread, but kickoff
    // overlaps the first completions).
    std::vector<ServeClient> state(static_cast<size_t>(clients));
    for (int t = 0; t < clients; ++t) {
      Random rng(0x5e21 + 977 * static_cast<uint64_t>(t));
      ServeClient& c = state[static_cast<size_t>(t)];
      c.requests.reserve(static_cast<size_t>(txns_per_client));
      for (int i = 0; i < txns_per_client; ++i) {
        c.requests.push_back(MakeRequest(sys.counters, &rng, ops_per_request));
      }
    }
    ClosedLoopCtx ctx;
    ctx.frontend = &frontend;
    ctx.total =
        static_cast<uint64_t>(clients) * static_cast<uint64_t>(txns_per_client);
    const auto start = std::chrono::steady_clock::now();
    for (ServeClient& c : state) {
      for (size_t w = 0; w < window; ++w) SubmitOne(&ctx, &c);
    }
    {
      std::unique_lock<std::mutex> lk(ctx.done_mu);
      ctx.done_cv.wait(lk, [&] {
        return ctx.settled.load(std::memory_order_acquire) >= ctx.total;
      });
    }
    frontend.Drain();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    cell.ok = ctx.ok.load();
    cell.acked_ops = ctx.acked_ops.load();
    cell.txn_per_sec = elapsed > 0 ? static_cast<double>(cell.ok) / elapsed
                                   : 0;
    cell.coalesced = frontend.stats().coalesced_txns;
  }
  sys.engine->pipeline()->Drain();
  FillJournalCounts(*sys.engine, &cell);
  return cell;
}

// Median of three runs: fdatasync latency on a shared host is noisy.
template <typename Fn>
CellResult Median3(Fn run) {
  std::vector<CellResult> reps;
  for (int r = 0; r < 3; ++r) reps.push_back(run());
  std::sort(reps.begin(), reps.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.txn_per_sec < b.txn_per_sec;
            });
  return reps[1];
}

// Outstanding submissions per async client in the closed-loop cells.
constexpr size_t kClientWindow = 8;

void BenchClosedLoop() {
  std::printf(
      "scenario: PERF-SERVE (closed loop) — N async clients, each keeping\n"
      "a window of %d submissions outstanding and launching replacements\n"
      "from the completion callback (the async API's point: no thread\n"
      "parked per request), journal directory. Requests are `ops`\n"
      "increments on a random counter window: 1 op is the canonical\n"
      "point-update serving request (per-record costs dominate, which is\n"
      "what boundary batching amortizes); 4 ops shifts weight toward\n"
      "per-op execution, which batching cannot remove. `direct` =\n"
      "thread-per-client Begin/ExecuteBatch/Commit, one in flight each\n"
      "(WaitDurable parks the thread — the pre-PR-10 model, for context);\n"
      "`solo` = the ServeFrontend with boundary batching OFF (max_group=1,\n"
      "one engine txn + one commit record per submission: the\n"
      "single-submission baseline); `batched` = the same front end and the\n"
      "same clients with max_group=2N. UIP+NRBC.\n\n",
      static_cast<int>(kClientWindow));
  TablePrinter table({"mode", "clients", "ops", "direct txn/s", "solo txn/s",
                      "batched txn/s", "vs direct", "vs solo", "recs s/b",
                      "syncs s/b", "coalesced"});
  bool acceptance_seen = false;
  double acceptance_speedup = 0;
  double acceptance_vs_solo = 0;
  for (const DurabilityMode mode :
       {DurabilityMode::kGroup, DurabilityMode::kSync}) {
    for (const int clients : {8, 32}) {
      for (const int ops : {1, kOpsPerRequest}) {
        const int txns = clients >= 32 ? 100 : 300;
        const CellResult direct = Median3(
            [&] { return RunDirectCellOnce(clients, txns, mode, ops); });
        ServeFrontendOptions solo_opts;
        solo_opts.max_group = 1;
        solo_opts.linger_us = 0;  // no group to build: lingering = delay
        const CellResult solo = Median3([&] {
          return RunServeCellOnce(clients, txns, mode, solo_opts,
                                  kClientWindow, ops);
        });
        ServeFrontendOptions fopts;
        // Cap groups at 2N: with N windowed clients the queue holds up to
        // N*window submissions, and unbounded groups would hide the knob.
        fopts.max_group = static_cast<size_t>(2 * clients);
        const CellResult serve = Median3([&] {
          return RunServeCellOnce(clients, txns, mode, fopts, kClientWindow,
                                  ops);
        });
        const double vs_direct = direct.txn_per_sec > 0
                                     ? serve.txn_per_sec / direct.txn_per_sec
                                     : 0;
        const double vs_solo = solo.txn_per_sec > 0
                                   ? serve.txn_per_sec / solo.txn_per_sec
                                   : 0;
        table.AddRow(
            {ModeName(mode), StrFormat("%d", clients), StrFormat("%d", ops),
             StrFormat("%.0f", direct.txn_per_sec),
             StrFormat("%.0f", solo.txn_per_sec),
             StrFormat("%.0f", serve.txn_per_sec),
             StrFormat("%.2fx", vs_direct), StrFormat("%.2fx", vs_solo),
             StrFormat("%llu/%llu",
                       static_cast<unsigned long long>(solo.records),
                       static_cast<unsigned long long>(serve.records)),
             StrFormat("%llu/%llu",
                       static_cast<unsigned long long>(solo.syncs),
                       static_cast<unsigned long long>(serve.syncs)),
             StrFormat("%llu",
                       static_cast<unsigned long long>(serve.coalesced))});
        if (mode == DurabilityMode::kGroup && clients == 32 && ops == 1) {
          acceptance_seen = true;
          acceptance_speedup = vs_direct;
          acceptance_vs_solo = vs_solo;
        }
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  // `direct` is single-submission serving as it exists without this front
  // end: 32 clients each submitting one transaction at a time through
  // Begin/ExecuteBatch/Commit. The solo column is the harsher in-stack
  // ablation (the same async front end with coalescing off) — it shares
  // the pipeline half of the win, so its ratio isolates coalescing alone.
  std::printf(
      "acceptance (32 clients, kGroup, point-update requests: serve >= 2x "
      "single-submission direct): %s (%.2fx; vs max_group=1 ablation "
      "%.2fx)\n\n",
      acceptance_seen && acceptance_speedup >= 2.0 ? "MET" : "NOT MET",
      acceptance_speedup, acceptance_vs_solo);
}

struct SweepPoint {
  double offered;
  OpenLoopResult result;
};

OpenLoopResult RunOpenLoopPoint(EngineConfig config, DurabilityMode mode,
                                double offered_rps, size_t requests) {
  CounterBankEngine sys(config, kKeys, mode);
  ServeFrontendOptions fopts;
  fopts.queue_depth = 512;  // the admission bound the shed column probes
  ServeFrontend frontend(sys.engine->manager(), fopts);
  OpenLoopOptions options;
  options.offered_rps = offered_rps;
  options.requests = requests;
  options.seed = 42;
  auto* counters = &sys.counters;
  const OpenLoopResult result = RunOpenLoop(
      &frontend,
      [counters](size_t, Random* rng) { return MakeRequest(*counters, rng); },
      options);
  frontend.Drain();
  return result;
}

void BenchOpenLoop() {
  // SLO for the knee: p99 within 20ms of intended arrival. Generous
  // because the floor is an fdatasync plus the boundary+durability
  // lingers; the point is the shape, not the constant.
  constexpr uint64_t kSloP99Us = 20000;
  std::printf(
      "scenario: PERF-SERVE (open loop) — Poisson arrivals at the offered\n"
      "rate, latency measured from INTENDED arrival (coordinated-omission\n"
      "free), 4-key requests, journal directory, queue_depth=512. Shed\n"
      "requests are refused with ResourceExhausted, not retried. The knee\n"
      "is the highest offered load with p99 <= %llu us and 0 shed.\n\n",
      static_cast<unsigned long long>(kSloP99Us));

  // Spans past saturation: on this container the boundary saturates in the
  // tens of thousands req/s, and the knee only shows if the sweep crosses
  // it (shed > 0 or p99 past the SLO).
  const std::vector<double> kOffered = {1000,  4000,   16000,
                                        64000, 128000, 256000};

  // Engine configs at kGroup.
  {
    TablePrinter table({"engine", "offered/s", "achieved/s", "p50 us",
                        "p99 us", "shed", "errors"});
    for (const EngineConfig config :
         {EngineConfig::kUipNrbc, EngineConfig::kDuNfc,
          EngineConfig::kRw2pl}) {
      double knee = 0;
      bool saturated = false;
      for (const double offered : kOffered) {
        const size_t requests = static_cast<size_t>(
            std::max(1000.0, std::min(offered / 2, 16000.0)));
        const OpenLoopResult r = RunOpenLoopPoint(
            config, DurabilityMode::kGroup, offered, requests);
        table.AddRow({EngineConfigName(config), StrFormat("%.0f", offered),
                      StrFormat("%.0f", r.achieved_rps),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(r.p50_us)),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(r.p99_us)),
                      StrFormat("%zu", r.shed),
                      StrFormat("%zu", r.completed_error)});
        if (r.p99_us <= kSloP99Us && r.shed == 0) {
          knee = offered;
        } else {
          saturated = true;
        }
      }
      std::printf("knee(%s, group): %.0f req/s offered within SLO%s\n",
                  EngineConfigName(config), knee,
                  saturated ? "" : " (never saturated in this sweep)");
    }
    std::printf("\n%s\n", table.ToString().c_str());
  }

  // Durability modes at UIP+NRBC.
  {
    TablePrinter table({"mode", "offered/s", "achieved/s", "p50 us",
                        "p99 us", "shed", "errors"});
    for (const DurabilityMode mode :
         {DurabilityMode::kSync, DurabilityMode::kGroup,
          DurabilityMode::kRelaxed}) {
      double knee = 0;
      for (const double offered : kOffered) {
        const size_t requests = static_cast<size_t>(
            std::max(1000.0, std::min(offered / 2, 16000.0)));
        const OpenLoopResult r = RunOpenLoopPoint(
            EngineConfig::kUipNrbc, mode, offered, requests);
        table.AddRow({ModeName(mode), StrFormat("%.0f", offered),
                      StrFormat("%.0f", r.achieved_rps),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(r.p50_us)),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(r.p99_us)),
                      StrFormat("%zu", r.shed),
                      StrFormat("%zu", r.completed_error)});
        if (r.p99_us <= kSloP99Us && r.shed == 0) knee = offered;
      }
      std::printf("knee(UIP+NRBC, %s): %.0f req/s offered within SLO\n",
                  ModeName(mode), knee);
    }
    std::printf("\n%s\n", table.ToString().c_str());
  }
}

// Functional smoke: protocol invariants that must hold in any build.
int RunSmoke() {
  // 1. Conservation + record economy through the serving boundary: a
  //    closed-loop run's journal holds exactly the ops of OK-acked
  //    submissions, in strictly fewer records than submissions (the
  //    boundary coalesced).
  ServeFrontendOptions fopts;
  // 8, not larger: a coalesced commit holds one mutex per distinct touched
  // object, and TSan's deadlock detector aborts past 64 held locks per
  // thread — 8 submissions x 4 ops stays well inside while still forcing
  // multi-submission coalescing. Perf cells (never run under TSan) use 2N.
  fopts.max_group = 8;
  const CellResult serve = RunServeCellOnce(/*clients=*/8,
                                            /*txns_per_client=*/50,
                                            DurabilityMode::kGroup, fopts,
                                            /*window=*/4);
  const uint64_t total = 8 * 50;
  if (serve.ok != total) {
    std::fprintf(stderr, "FAIL: %llu/%llu submissions acked OK\n",
                 static_cast<unsigned long long>(serve.ok),
                 static_cast<unsigned long long>(total));
    return 1;
  }
  if (serve.journal_ops != serve.acked_ops ||
      serve.acked_ops != total * kOpsPerRequest) {
    std::fprintf(stderr,
                 "FAIL: conservation: journal holds %llu ops, OK acks "
                 "delivered %llu, want %llu\n",
                 static_cast<unsigned long long>(serve.journal_ops),
                 static_cast<unsigned long long>(serve.acked_ops),
                 static_cast<unsigned long long>(total * kOpsPerRequest));
    return 1;
  }
  if (serve.records >= total || serve.coalesced == 0) {
    std::fprintf(stderr,
                 "FAIL: no boundary batching: %llu records for %llu "
                 "submissions (%llu coalesced txns)\n",
                 static_cast<unsigned long long>(serve.records),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(serve.coalesced));
    return 1;
  }
  std::printf(
      "conservation: %llu submissions -> %llu records, %llu ops journaled "
      "== %llu ops acked — OK\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(serve.records),
      static_cast<unsigned long long>(serve.journal_ops),
      static_cast<unsigned long long>(serve.acked_ops));

  // 2. Exact shed accounting at the admission bound: with no worker
  //    draining, queue_depth admissions succeed and the rest shed; every
  //    accounted submission then completes once a pump drains the queue.
  {
    CounterBankEngine sys(EngineConfig::kUipNrbc, kKeys,
                          DurabilityMode::kGroup);
    ServeFrontendOptions popts;
    popts.workers = 0;
    popts.queue_depth = 16;
    popts.max_group = 8;  // same TSan held-lock bound as the cell above
    ServeFrontend frontend(sys.engine->manager(), popts);
    Random rng(7);
    uint64_t admitted = 0;
    uint64_t shed = 0;
    std::atomic<uint64_t> completed{0};
    for (int i = 0; i < 50; ++i) {
      const Status s = frontend.SubmitAsync(
          MakeRequest(sys.counters, &rng),
          [&completed](const Status&, std::vector<Value>) {
            completed.fetch_add(1);
          });
      if (s.ok()) {
        ++admitted;
      } else if (s.code() == StatusCode::kResourceExhausted) {
        ++shed;
      }
    }
    while (frontend.PumpOnce() > 0) {
    }
    frontend.Drain();
    const ServeStats stats = frontend.stats();
    if (admitted != popts.queue_depth || shed != 50 - popts.queue_depth ||
        stats.shed != shed || stats.accepted != admitted ||
        completed.load() != admitted) {
      std::fprintf(stderr,
                   "FAIL: shed accounting: admitted=%llu shed=%llu "
                   "stats.accepted=%llu stats.shed=%llu completed=%llu\n",
                   static_cast<unsigned long long>(admitted),
                   static_cast<unsigned long long>(shed),
                   static_cast<unsigned long long>(stats.accepted),
                   static_cast<unsigned long long>(stats.shed),
                   static_cast<unsigned long long>(completed.load()));
      return 1;
    }
    std::printf(
        "shed accounting: %llu admitted, %llu shed at depth %zu, all "
        "admitted completed — OK\n",
        static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(shed), popts.queue_depth);
  }

  // 3. Serving crash scenario: the cut lands with submissions in flight;
  //    zero acked-but-lost, ops conserved, coalesced records recover
  //    all-or-nothing.
  const SystemFactory factory = [](TxnManager* manager) {
    AddCounterBank(manager, EngineConfig::kUipNrbc, 8, "C");
  };
  const RequestFactory make_request = [](size_t, Random* rng) {
    std::vector<BatchOp> ops;
    const size_t start = rng->Uniform(8);
    for (size_t i = 0; i < 3; ++i) {
      auto ctr = MakeCounter("C" + std::to_string((start + i) % 8));
      ops.push_back(BatchOp{ctr->object_name(), "", ctr->IncInv(1)});
    }
    return ops;
  };
  for (const double fraction : {0.3, 0.7, 1.0}) {
    CrashScenarioOptions options;
    options.requests = 300;
    options.driver.threads = 2;  // submitters
    options.fault = CrashFault::AtFraction(fraction);
    options.frontend.queue_depth = 64;
    options.frontend.max_group = 8;  // several coalesced records per run
    // Small sync batches: acks arrive all through the burst, so a cut
    // lands among acknowledged submissions.
    options.group_commit.max_batch = 2;
    const CrashScenarioResult result =
        RunCrashScenario(factory, make_request, options);
    // A mid-run cut lands among acknowledged work, with accepted
    // submissions still in flight.
    const bool cut_mid_flight =
        fraction >= 1.0 ||
        (result.fault_fired && result.serve.completed_error > 0 &&
         result.acked > 0 && result.acked_ops > 0);
    if (!result.ok() || !cut_mid_flight) {
      std::fprintf(stderr,
                   "FAIL: serve crash audit f=%.1f: ok=%d ops acked=%llu "
                   "recovered=%llu journaled=%llu failed-in-flight=%llu "
                   "(%s)\n",
                   fraction, result.ok() ? 1 : 0,
                   static_cast<unsigned long long>(result.acked_ops),
                   static_cast<unsigned long long>(result.recovered_ops),
                   static_cast<unsigned long long>(result.journal_ops),
                   static_cast<unsigned long long>(
                       result.serve.completed_error),
                   result.status.ToString().c_str());
      return 1;
    }
    std::printf(
        "serve crash f=%.1f: %llu acked, ops acked %llu <= recovered %llu "
        "<= journaled %llu, %llu failed in flight — OK\n",
        fraction, static_cast<unsigned long long>(result.serve.completed_ok),
        static_cast<unsigned long long>(result.acked_ops),
        static_cast<unsigned long long>(result.recovered_ops),
        static_cast<unsigned long long>(result.journal_ops),
        static_cast<unsigned long long>(result.serve.completed_error));
  }
  std::printf("serve smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace ccr

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      std::printf("PERF-SERVE smoke: conservation + shedding + crash\n\n");
      return ccr::RunSmoke();
    }
    if (std::strcmp(argv[i], "--closed") == 0) {
      ccr::BenchClosedLoop();
      return 0;
    }
    if (std::strcmp(argv[i], "--open") == 0) {
      ccr::BenchOpenLoop();
      return 0;
    }
  }
  ccr::BenchClosedLoop();
  ccr::BenchOpenLoop();
  return 0;
}
