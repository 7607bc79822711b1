// Copyright 2026 The ccr Authors.
//
// PERF-STORE: the persistent object-store tier. Three scenarios:
//
//  1. eviction sweep — a counter population larger than the configured
//     in-memory cache (the eviction watermarks), hammered with uniform
//     random increments from 4 threads through the log-structured file
//     backend. Reports commit throughput, fault-in (store read) rate,
//     eviction write traffic, and the resident/evicted split, for cache
//     sizes from "everything fits" down to 1/8 of the population. The
//     audit at the end proves the headline property: a workload whose
//     population exceeds RAM-resident state completes correctly
//     (every increment is accounted for after faulting everything back
//     in).
//
//  2. restart comparison — one durable directory (segmented journal +
//     store images + a monolithic checkpoint file) restarted three ways:
//     store images + tail (from_store), the checkpoint.<anchor> file +
//     tail (no store attached), and lazy store install (only tail-named
//     objects materialize; the rest stay deferred until first touch).
//     Restart-from-store and restart-from-file replay the same tail; the
//     lazy arm's cost is O(tail), not O(population).
//
//  3. crash sweep — every store.* crash point x UIP/DU through the live
//     crash driver, RunCrashScenario (journal + store + fuzzy checkpoints
//     + evictions + compactions all running while the workers commit when
//     the machine dies). Zero acked-but-lost commits and fail-atomic
//     restarts, everywhere.
//
//  --smoke runs scaled-down versions of all three with the same
//  correctness checks (the mode scripts/check.sh and the sanitizer CI
//  jobs run); it exits non-zero on any violated invariant.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "common/temp_path.h"
#include "memory_log.h"
#include "sim/crash_harness.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"

namespace ccr {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string IdFor(size_t i) { return "O" + std::to_string(i); }

Invocation IncInv(const std::string& id, int64_t amount) {
  return Invocation(id, Counter::kInc, "inc", {Value(amount)});
}

Invocation ReadInv(const std::string& id) {
  return Invocation(id, Counter::kRead, "read", {});
}

// ---------------------------------------------------------------------------
// Scenario 1: eviction sweep — population > cache
// ---------------------------------------------------------------------------

// Uniform random increments over `population` counters with the resident
// cache capped at `cache` objects (0: eviction disabled). Returns via
// CCR_CHECK failure if any increment is lost.
void RunEvictionArm(TablePrinter* table, size_t population, size_t cache,
                    int threads, size_t ops_per_thread) {
  const TempDir dir("ccr_bench_store_");
  {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir.path());
    CCR_CHECK(store.ok());

    TxnManagerOptions options;
    options.record_history = false;
    options.evict_high_watermark = cache;
    options.evict_low_watermark = cache - cache / 4;  // sweep down ~25%
    TxnManager manager(options);
    bench::RegisterCounterFactory(&manager, bench::EngineConfig::kUipNrbc);
    manager.set_object_store(store->get());
    // A journal whose sink keeps nothing: eviction's durability wait is
    // trivially satisfied, so the measurement isolates the store tier
    // (fault-in preads + eviction batch writes), not fdatasync.
    BasicMemoryLog<NullSink> log;
    manager.set_lifecycle_journal(&log.journal);

    for (size_t i = 0; i < population; ++i) {
      CCR_CHECK(
          manager.GetOrCreate(IdFor(i), bench::kCounterFactoryName).ok());
    }

    const ObjectStoreStats before = (*store)->stats();
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        Random rng(500 + static_cast<uint64_t>(t));
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < ops_per_thread; ++i) {
          const std::string id = IdFor(rng.Uniform(population));
          const std::shared_ptr<Transaction> txn = manager.Begin();
          const StatusOr<Value> r = manager.Execute(txn.get(), IncInv(id, 1));
          CCR_CHECK_MSG(r.ok(), "Execute failed: %s",
                        r.status().ToString().c_str());
          CCR_CHECK(manager.Commit(txn.get()).ok());
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    const double secs = Seconds(start);

    const size_t total_ops =
        static_cast<size_t>(threads) * ops_per_thread;
    const ObjectStoreStats after = (*store)->stats();
    const uint64_t faultins = after.get_hits - before.get_hits;
    const uint64_t evict_puts = after.puts - before.puts;
    const size_t resident = manager.resident_objects();
    const size_t evicted = manager.evicted_objects();

    // Ground truth: with uniform increments of 1, the counters must sum
    // to exactly the committed op count — faulting every object back in
    // to read it. A lost eviction image or a stale fault-in would break
    // this.
    int64_t sum = 0;
    for (size_t i = 0; i < population; ++i) {
      const std::shared_ptr<Transaction> txn = manager.Begin();
      const StatusOr<Value> v =
          manager.Execute(txn.get(), ReadInv(IdFor(i)));
      CCR_CHECK_MSG(v.ok(), "audit read failed: %s",
                    v.status().ToString().c_str());
      CCR_CHECK(manager.Commit(txn.get()).ok());
      sum += v->AsInt();
    }
    CCR_CHECK_MSG(sum == static_cast<int64_t>(total_ops),
                  "increments lost across eviction: sum %lld != ops %zu",
                  static_cast<long long>(sum), total_ops);

    table->AddRow(
        {StrFormat("%zu", population),
         cache == 0 ? "off" : StrFormat("%zu", cache),
         StrFormat("%.0f", secs > 0 ? static_cast<double>(total_ops) / secs
                                    : 0),
         StrFormat("%llu", static_cast<unsigned long long>(faultins)),
         StrFormat("%.1f%%", 100.0 * static_cast<double>(faultins) /
                                 static_cast<double>(total_ops)),
         StrFormat("%llu", static_cast<unsigned long long>(evict_puts)),
         StrFormat("%zu/%zu", resident, evicted),
         StrFormat("%.1f", static_cast<double>(after.bytes_written) / 1e6),
         StrFormat("%llu",
                   static_cast<unsigned long long>(after.compactions))});
  }
}

void BenchEvictionSweep(bool smoke) {
  const size_t population = smoke ? 2000 : 20000;
  const int threads = 4;
  const size_t ops_per_thread = smoke ? 5000 : 25000;
  std::printf(
      "eviction sweep: %zu counters, %d threads x %zu uniform increments,\n"
      "log-structured backend; cache = eviction high watermark\n",
      population, threads, ops_per_thread);
  TablePrinter table({"objects", "cache", "txn/s", "fault-ins", "fault rate",
                      "evict puts", "resident/evicted", "MB written",
                      "compactions"});
  for (const size_t cache :
       {size_t{0}, population / 2, population / 8}) {
    RunEvictionArm(&table, population, cache, threads, ops_per_thread);
  }
  std::printf("%s\n", table.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Scenario 2: restart-from-store vs restart-from-image vs lazy install
// ---------------------------------------------------------------------------

// Builds one durable directory: `population` counters created and
// incremented through a segmented journal sharing the directory with the
// store, checkpointed into the store AND the monolithic file (so every
// restart arm reads the same disk), journal truncated to the anchor, then
// a short tail touching only the first `tail_touch` objects.
void BuildRestartWorld(const std::string& dir, size_t population,
                       size_t tail_touch, Lsn* anchor, Lsn* high_lsn) {
  EngineOptions options;
  options.group_commit.mode = DurabilityMode::kSync;
  options.journal.max_segment_bytes = 1 << 16;
  options.store = LogStoreOptions{};
  options.checkpoint.also_write_file = true;
  const std::unique_ptr<Engine> engine =
      bench::OpenEngine(dir, std::move(options), [](TxnManager* manager) {
        bench::RegisterCounterFactory(manager, bench::EngineConfig::kUipNrbc);
      });
  TxnManager& manager = *engine->manager();

  const auto inc = [&](size_t i, int64_t amount) {
    CCR_CHECK(manager
                  .RunTransaction([&](Transaction* txn) {
                    const StatusOr<AtomicObject*> obj = manager.GetOrCreate(
                        IdFor(i), bench::kCounterFactoryName);
                    if (!obj.ok()) return obj.status();
                    return manager.Execute(txn, IncInv(IdFor(i), amount))
                        .status();
                  })
                  .ok());
  };
  for (size_t i = 0; i < population; ++i) inc(i, 1);

  const StatusOr<Lsn> written = engine->Checkpoint();
  CCR_CHECK_MSG(written.ok(), "checkpoint failed: %s",
                written.status().ToString().c_str());
  *anchor = *written;
  for (size_t i = 0; i < tail_touch; ++i) inc(i, 1);
  *high_lsn = engine->journal()->high_lsn();
}

void BenchRestartComparison(bool smoke) {
  const size_t population = smoke ? 500 : 5000;
  const size_t tail_touch = 16;
  std::printf(
      "restart comparison: %zu store-resident counters, %zu-object journal\n"
      "tail; same directory restarted from store images, from the\n"
      "checkpoint file, and with lazy store install\n",
      population, tail_touch);

  const TempDir dir("ccr_bench_store_");
  Lsn anchor = 0;
  Lsn high_lsn = 0;
  BuildRestartWorld(dir.path(), population, tail_touch, &anchor, &high_lsn);

  TablePrinter table({"arm", "restart ms", "installed", "deferred",
                      "tail records", "from store"});
  struct Arm {
    const char* name;
    bool attach_store;
    bool lazy;
  };
  for (const Arm arm : {Arm{"store images", true, false},
                        Arm{"checkpoint file", false, false},
                        Arm{"lazy install", true, true}}) {
    // Best of three: the first run pays cold page-cache costs.
    double best = 0;
    RestartSummary summary;
    for (int run = 0; run < 3; ++run) {
      std::unique_ptr<LogStructuredStore> store;
      TxnManager restarted;
      bench::RegisterCounterFactory(&restarted,
                                    bench::EngineConfig::kUipNrbc);
      const auto start = std::chrono::steady_clock::now();
      if (arm.attach_store) {
        StatusOr<std::unique_ptr<LogStructuredStore>> opened =
            LogStructuredStore::Open(dir.path());
        CCR_CHECK(opened.ok());
        store = std::move(*opened);
        restarted.set_object_store(store.get());
      }
      RestartOptions options;
      options.lazy_store_install = arm.lazy;
      StatusOr<RestartSummary> result =
          restarted.RestartFromDir(dir.path(), options);
      const double secs = Seconds(start);
      CCR_CHECK_MSG(result.ok(), "restart (%s) failed: %s", arm.name,
                    result.status().ToString().c_str());
      CCR_CHECK(result->checkpoint_anchor == anchor);
      CCR_CHECK(result->high_lsn == high_lsn);
      CCR_CHECK(result->from_store == arm.attach_store);
      if (run == 0 || secs < best) {
        best = secs;
        summary = *result;
      }
      // Every arm must agree on the recovered values: tail-touched
      // objects read 2, everything else 1 — for the lazy arm that means
      // faulting a deferred object in on first touch.
      for (const size_t i :
           {size_t{0}, tail_touch - 1, tail_touch, population - 1}) {
        const std::shared_ptr<Transaction> txn = restarted.Begin();
        const StatusOr<Value> v =
            restarted.Execute(txn.get(), ReadInv(IdFor(i)));
        CCR_CHECK_MSG(v.ok(), "post-restart read O%zu failed: %s", i,
                      v.status().ToString().c_str());
        CCR_CHECK(restarted.Commit(txn.get()).ok());
        CCR_CHECK_MSG(v->AsInt() == (i < tail_touch ? 2 : 1),
                      "arm %s recovered O%zu = %lld", arm.name, i,
                      static_cast<long long>(v->AsInt()));
      }
    }
    table.AddRow({arm.name, StrFormat("%.2f", best * 1e3),
                  StrFormat("%zu", summary.checkpoint_objects),
                  StrFormat("%zu", summary.store_deferred),
                  StrFormat("%zu", summary.tail_records),
                  summary.from_store ? "yes" : "no"});
    if (arm.lazy) {
      CCR_CHECK_MSG(summary.store_deferred == population - tail_touch,
                    "lazy restart deferred %zu of %zu",
                    summary.store_deferred, population);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Scenario 3: store-backend crash sweep
// ---------------------------------------------------------------------------

// Dynamic counters only: every object is created through the factory, so
// the sweep exercises create records, evictions, store checkpoints, and
// lazy fault-in all at once.
SystemFactory StoreSweepFactory(bench::EngineConfig config) {
  return [config](TxnManager* manager) {
    bench::RegisterCounterFactory(manager, config);
  };
}

Status StoreSweepBody(TxnManager* manager, Transaction* txn, Random* rng) {
  const std::string id = "C" + std::to_string(rng->Uniform(8));
  const StatusOr<AtomicObject*> obj =
      manager->GetOrCreate(id, bench::kCounterFactoryName);
  if (!obj.ok()) return obj.status();
  return manager
      ->Execute(txn, IncInv(id, static_cast<int64_t>(1 + rng->Uniform(9))))
      .status();
}

void BenchStoreCrashSweep(bool smoke) {
  std::printf(
      "store crash sweep: every store.* crash point x UIP/DU with\n"
      "evictions and store checkpoints in flight; an acknowledged record\n"
      "must never be lost and every restart must be fail-atomic\n");
  const std::vector<std::string> points = {
      "",  // clean run: proves evictions/checkpoints/compactions happen
      "store.before_batch",
      "store.torn_batch",
      "store.after_batch",
      "store.before_sync",
      "store.rot.before_seal",
      "store.rot.before_header_sync",
      "store.compact.before_rewrite",
      "store.compact.before_unlink",
      "store.compact.before_dirsync",
  };
  const std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{13} : std::vector<uint64_t>{13, 29, 47};

  TablePrinter table({"crash point", "method", "runs", "fired",
                      "acked (min..max)", "acked lost", "restarts ok"});
  size_t lost_total = 0;
  for (const std::string& point : points) {
    for (int method = 0; method < 2; ++method) {
      const bench::EngineConfig config = method == 0
                                             ? bench::EngineConfig::kUipNrbc
                                             : bench::EngineConfig::kDuNfc;
      size_t runs = 0;
      size_t fired = 0;
      size_t lost = 0;
      size_t restarts_ok = 0;
      size_t min_acked = SIZE_MAX;
      size_t max_acked = 0;
      for (const uint64_t seed : seeds) {
        CrashScenarioOptions options;
        options.driver.threads = 2;
        options.driver.txns_per_thread = smoke ? 30 : 40;
        options.driver.seed = seed;
        options.max_segment_bytes = 256;
        options.store = true;
        options.store_segment_bytes = 256;
        options.maintenance_every = 6;
        options.fault = CrashFault::AtPoint(point);
        options.replay_threads = 2;
        const CrashScenarioResult result = RunCrashScenario(
            StoreSweepFactory(config), StoreSweepBody, options);
        ++runs;
        if (result.fault_fired) ++fired;
        lost += result.acked_lost;
        if (result.ok()) ++restarts_ok;
        min_acked = std::min(min_acked, result.acked);
        max_acked = std::max(max_acked, result.acked);
        if (point.empty()) {
          // The clean run must actually exercise the machinery the
          // armed runs crash.
          CCR_CHECK_MSG(result.evictions > 0, "clean run evicted nothing");
          CCR_CHECK_MSG(result.checkpoints > 0,
                        "clean run wrote no checkpoint");
          CCR_CHECK_MSG(result.compactions > 0,
                        "clean run compacted nothing");
          CCR_CHECK_MSG(result.summary.from_store,
                        "clean restart ignored the store");
        } else {
          CCR_CHECK_MSG(result.fault_fired, "point %s never fired",
                        point.c_str());
        }
      }
      lost_total += lost;
      CCR_CHECK_MSG(restarts_ok == runs, "point '%s' (%s): %zu/%zu ok",
                    point.c_str(), method == 0 ? "UIP" : "DU", restarts_ok,
                    runs);
      table.AddRow({point.empty() ? "(none)" : point,
                    method == 0 ? "UIP" : "DU", StrFormat("%zu", runs),
                    StrFormat("%zu", fired),
                    StrFormat("%zu..%zu", min_acked, max_acked),
                    StrFormat("%zu", lost),
                    StrFormat("%zu/%zu", restarts_ok, runs)});
    }
  }
  CCR_CHECK_MSG(lost_total == 0, "acknowledged records lost");
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace ccr

int main(int argc, char** argv) {
  using namespace ccr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  std::printf(
      "PERF-STORE: persistent object store — eviction, restart, crashes\n"
      "host reports %u hardware threads\n\n",
      std::thread::hardware_concurrency());
  BenchEvictionSweep(smoke);
  BenchRestartComparison(smoke);
  BenchStoreCrashSweep(smoke);
  if (smoke) {
    std::printf("store smoke OK\n");
    return 0;
  }
  std::printf(
      "Shape to check: the cache=off arm sets the in-memory baseline; the\n"
      "capped arms trade throughput for bounded residency (fault rate\n"
      "approaching 1 - cache/population for uniform access, resident\n"
      "pinned near the low watermark, eviction puts tracking fault-ins at\n"
      "steady state) while the increment audit still balances exactly.\n"
      "Restart-from-store and restart-from-file land within the same\n"
      "ballpark (both install every object, same tail); the lazy arm\n"
      "materializes only tail-touched objects and defers the rest, so its\n"
      "cost tracks the tail, not the population. The crash table: every\n"
      "armed point fired, zero acked-but-lost, every restart ok.\n");
  return 0;
}
