// Copyright 2026 The ccr Authors.
//
// PERF-REC: cost of the history recording layer. Two scenarios:
//
//  1. recorder-layer — N worker threads drive the engine's per-operation
//     record pattern (invoke + response under the object's serialization,
//     commit per touched object) straight into a HistoryRecorder, each
//     worker over its own slice of objects: events/s through the sharded
//     per-object buffers.
//
//  2. end-to-end — a multi-object NRBC counter workload through the full
//     TxnManager (increments all commute, so no transaction ever blocks
//     and there is no hold time), series = recording-off / sharded. Shows
//     how much of the recording-off throughput the recorder leaves on the
//     table once the rest of the engine (candidate generation, recovery
//     bookkeeping) is in the loop.
//
// The sharded recorder pays one relaxed fetch_add plus an uncontended
// per-object lock and a push_back per event, deferring validation to
// Snapshot().

#include <chrono>
#include <cstdio>
#include <thread>

#include "adt/counter.h"
#include "bench_util.h"
#include "common/string_util.h"
#include "sim/driver.h"

namespace ccr {
namespace {

// Scenario 1: the recording layer in isolation.
constexpr int kRecObjectsPerWorker = 2;
constexpr int kRecOpsPerTxn = 8;
constexpr int kRecTxnsPerThread = 500;

// Scenario 2: transactions are deliberately recorder-heavy — a dozen
// increments spread over many objects, so each one records ~24
// invoke/response events plus a commit event per distinct object touched
// (~10). With no conflicts and no hold time, the recording layer is the
// only shared state in the run.
constexpr int kObjects = 32;
constexpr int kOpsPerTxn = 12;
constexpr int kTxnsPerThread = 500;


// Replays the engine's record pattern against a bare recorder: per
// operation an invoke + response through the object's shard, then one
// commit event per object the transaction touched. Workers own disjoint
// object slices — in the engine, same-object response/commit records are
// serialized under the object's mutex anyway, so cross-worker contention
// on one object's shard is not part of the layer's steady state.
// Returns events per second.
double RunRecorderLayer(int threads) {
  HistoryRecorder recorder;
  std::vector<std::vector<HistoryRecorder::Shard*>> shards(threads);
  std::vector<std::vector<ObjectId>> ids(threads);
  for (int w = 0; w < threads; ++w) {
    for (int i = 0; i < kRecObjectsPerWorker; ++i) {
      shards[w].push_back(recorder.RegisterShard());
      ids[w].push_back(StrFormat("C%d", w * kRecObjectsPerWorker + i));
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kRecTxnsPerThread; ++i) {
        const TxnId txn = 1 + static_cast<TxnId>(w) * kRecTxnsPerThread + i;
        for (int op = 0; op < kRecOpsPerTxn; ++op) {
          const int obj = op % kRecObjectsPerWorker;
          HistoryRecorder::Shard* shard = shards[w][obj];
          shard->Record(Event::Invoke(
              txn, Invocation(ids[w][obj], 0, "inc", {Value(int64_t{1})})));
          shard->Record(Event::Response(txn, ids[w][obj], Value("ok")));
        }
        for (int obj = 0; obj < kRecObjectsPerWorker; ++obj) {
          shards[w][obj]->Record(Event::Commit(txn, ids[w][obj]));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  return seconds > 0 ? static_cast<double>(recorder.size()) / seconds : 0;
}

DriverResult RunEndToEnd(bool record_history, int threads) {
  TxnManagerOptions options;
  options.record_history = record_history;
  options.lock_timeout = std::chrono::milliseconds(30000);
  TxnManager manager(options);

  std::vector<std::shared_ptr<Counter>> objs;
  for (int i = 0; i < kObjects; ++i) {
    auto ctr = MakeCounter(StrFormat("C%d", i));
    manager.AddObject(ctr->object_name(), ctr, MakeNrbcConflict(ctr),
                      std::make_unique<UipRecovery>(ctr));
    objs.push_back(std::move(ctr));
  }

  DriverOptions driver_options;
  driver_options.threads = threads;
  driver_options.txns_per_thread = kTxnsPerThread;
  return RunWorkload(
      &manager,
      [&](TxnManager* mgr, Transaction* txn, Random* rng) {
        for (int op = 0; op < kOpsPerTxn; ++op) {
          Counter* obj = objs[rng->Uniform(kObjects)].get();
          StatusOr<Value> r = mgr->Execute(txn, obj->IncInv(1));
          if (!r.ok()) return r.status();
        }
        return Status::OK();
      },
      driver_options);
}

}  // namespace
}  // namespace ccr

int main() {
  using namespace ccr;
  std::printf(
      "PERF-REC: history recording layer (sharded per-object buffers)\n\n"
      "scenario: recorder-layer (engine record pattern, %d objects/worker,\n"
      "%d ops/txn, %d txns/thread)\n",
      kRecObjectsPerWorker, kRecOpsPerTxn, kRecTxnsPerThread);

  TablePrinter layer_table({"recorder", "workers", "events/s"});
  for (int threads : {4, 16, 32}) {
    layer_table.AddRow({"sharded", StrFormat("%d", threads),
                        StrFormat("%.0f", RunRecorderLayer(threads))});
  }
  std::printf("%s\n", layer_table.ToString().c_str());

  std::printf(
      "scenario: end-to-end (%d NRBC counters, %d ops/txn, %d txns/thread,\n"
      "no conflicts, no hold time)\n",
      kObjects, kOpsPerTxn, kTxnsPerThread);
  TablePrinter table(
      {"recorder", "workers", "txn/s", "events", "mean(us)", "p99(us)"});
  for (int threads : {4, 16, 32}) {
    for (const bool record_history : {false, true}) {
      const DriverResult r = RunEndToEnd(record_history, threads);
      table.AddRow({record_history ? "sharded" : "off",
                    StrFormat("%d", threads),
                    StrFormat("%.0f", r.throughput),
                    StrFormat("%llu", (unsigned long long)r.events_recorded),
                    StrFormat("%.1f", r.mean_us),
                    StrFormat("%llu", (unsigned long long)r.p99_us)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "\nShape to check: recorder-layer events/s holding up as workers grow\n"
      "(per-object shards never share a lock); end-to-end, the off/sharded\n"
      "ratio is what recording costs once candidate generation and recovery\n"
      "bookkeeping are in the loop (PERF-REC measured 1.7-1.9x).\n");
  return 0;
}
