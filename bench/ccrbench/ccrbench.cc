// Copyright 2026 The ccr Authors.
//
// ccrbench: the repository's end-to-end benchmark. One process runs one
// workload (README.md says why each exists):
//
//   serve_point  open-loop Poisson point requests through ServeFrontend
//   bank_direct  direct interactive DU+NFC transactions, no journal
//   store_evict  direct 2-op batches over a population 8x the object cache
//
// Every workload does a fixed amount of work: request counts scale with
// --seconds, never with how fast the engine runs, so throughput and memory
// stay independent. Inputs are generated from --seed before anything is
// timed. Before the timed phase a set-up engine checkpoints, runs a fixed
// journaled tail and crashes (is destroyed); the timed phase restarts from
// its directory after every round. The run audits its own outputs —
// journaled ops against acknowledged ops, and the live and the recovered
// state against the effects of every acknowledged operation — and any
// failed audit exits non-zero without a result. The last line of standard
// output is one JSON object: end-to-end metrics from an untraced run
// (--trace 0), per-layer metrics from a traced one (--trace 1).

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "common/random.h"
#include "common/temp_path.h"
#include "core/conflict_relation.h"
#include "serve/frontend.h"
#include "store/log_store.h"
#include "trace.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

#ifndef CCRBENCH_BUILD_TYPE
#define CCRBENCH_BUILD_TYPE "unknown"
#endif

namespace ccrbench {
namespace {

using ccr::BatchOp;
using ccr::Invocation;
using ccr::Lsn;
using ccr::ObjectId;
using ccr::Status;
using ccr::StatusOr;
using ccr::Value;

[[noreturn]] void Fail(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "ccrbench: FAILED: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  std::fflush(stderr);
  std::_Exit(1);
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Fail("%s: %s", what, s.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Workloads and their inputs
// ---------------------------------------------------------------------------

enum class Mix { kPoint, kInteractive, kIncrements };

struct Config {
  std::string name;
  Mix mix = Mix::kPoint;
  bool bank = false;          // BankAccount objects, else Counter
  bool du_nfc = false;        // DU+NFC, else UIP+NRBC
  // Requests go through ServeFrontend, timed ones as Poisson arrivals at
  // `rate`; untimed ones, and direct requests, run closed loop.
  bool serve = false;
  bool batch = false;         // direct requests use ExecuteBatch
  bool store = false;         // object store, eviction, factory objects
  bool journal_timed = true;  // journaled during the timed phase
  size_t population = 0;
  size_t ops = 1;             // ops per request
  double rate = 0;            // timed requests per second of --seconds
  size_t requests = 0;        // timed requests
  size_t clients = 4;         // client threads, or serve connections
  size_t window = 16;         // outstanding submissions per connection
  size_t warmup = 0;          // untimed requests before the timed phase
  size_t tail = 0;            // journaled requests after the checkpoint
  size_t cache = 0;           // eviction high watermark (store)
  uint64_t checkpoint_every = 0;  // commits between store checkpoints
};

constexpr const char* kFactory = "counter";
constexpr int64_t kInitialBalance = 1000;
// Set-ups are short, so a hiccup of the host moves one by a fifth;
// setup_s is the median of several.
constexpr int kSetups = 3;

// The timed phase runs in kRounds rounds of equal work, with one restart
// from the crash image after each. The host shares its cores with other
// machines' work, which only ever slows a round down: the same restart
// takes up to twice as long, in CPU time as well as wall time. So tps and
// the latencies are the mean of the best quarter of the rounds, and
// restart_ms is the fastest of the kRounds restarts, spread over the whole
// timed phase. Background work that every round carries (store_evict
// checkpoints once per round) still shows.
constexpr size_t kRounds = 20;
constexpr size_t kBest = kRounds / 4;
// A traced direct request's timed engine calls must cover at least this
// share of it, or the per-layer split leaves time unexplained.
constexpr double kMinChildCover = 0.9;

std::optional<Config> MakeConfig(const std::string& name, double seconds,
                                 double scale) {
  const auto n = [scale](double v, size_t floor = 1) {
    return std::max<size_t>(floor, static_cast<size_t>(std::llround(v * scale)));
  };
  Config c;
  c.name = name;
  if (name == "serve_point") {
    c.mix = Mix::kPoint;
    c.serve = true;
    c.population = n(16384, 1024);
    c.rate = 32000;
    c.warmup = n(8000);
    c.tail = n(20000);
  } else if (name == "bank_direct") {
    c.mix = Mix::kInteractive;
    c.bank = c.du_nfc = true;
    c.journal_timed = false;
    c.population = 1024;
    c.ops = 3;
    c.rate = 240000;
    c.warmup = n(40000);
    c.tail = n(20000);
  } else if (name == "store_evict") {
    c.mix = Mix::kIncrements;
    c.batch = c.store = true;
    c.population = n(100000, 4000);
    c.cache = c.population / 8;
    c.ops = 2;
    c.rate = 15000;
    c.warmup = n(10000);
    c.tail = n(20000);
  } else {
    return std::nullopt;
  }
  c.requests = n(c.rate * seconds, kRounds);
  if (c.store) c.checkpoint_every = c.requests / kRounds;
  return c;
}

enum class OpCode : uint8_t { kInc, kRead, kDeposit, kWithdraw, kBalance };

struct Op {
  uint32_t key;
  OpCode code;
  int32_t amount;
};

// A request stream: `per_request` consecutive ops per request, kept as
// compact tuples until dispatch.
struct Stream {
  size_t per_request = 1;
  std::vector<Op> ops;
  size_t size() const { return ops.size() / per_request; }
  const Op* request(size_t i) const { return &ops[i * per_request]; }
};

Stream MakeStream(const Config& c, size_t requests, uint64_t seed) {
  Stream s;
  s.per_request = c.ops;
  s.ops.reserve(requests * c.ops);
  ccr::Random rng(seed);
  const uint32_t pop = static_cast<uint32_t>(c.population);
  std::optional<ccr::Zipfian> zipf;
  if (c.mix == Mix::kInteractive) zipf.emplace(pop, 0.99);
  const auto key = [&] { return static_cast<uint32_t>(rng.Uniform(pop)); };
  const auto amount = [&] { return static_cast<int32_t>(1 + rng.Uniform(100)); };
  for (size_t r = 0; r < requests; ++r) {
    switch (c.mix) {
      case Mix::kPoint:
        s.ops.push_back(rng.Bernoulli(0.9)
                            ? Op{key(), OpCode::kInc,
                                 static_cast<int32_t>(1 + rng.Uniform(9))}
                            : Op{key(), OpCode::kRead, 0});
        break;
      case Mix::kInteractive:
        for (size_t i = 0; i < c.ops; ++i) {
          const uint32_t k = static_cast<uint32_t>(zipf->Sample(&rng));
          const double u = rng.NextDouble();
          s.ops.push_back(u < 0.50   ? Op{k, OpCode::kDeposit, amount()}
                          : u < 0.85 ? Op{k, OpCode::kWithdraw, amount()}
                                     : Op{k, OpCode::kBalance, 0});
        }
        break;
      case Mix::kIncrements:
        for (size_t i = 0; i < c.ops; ++i) {
          s.ops.push_back(Op{key(), OpCode::kInc, 1});
        }
        break;
    }
  }
  return s;
}

// Input stream k of the run with seed S is generated from seed
// S * kStreamsPerSeed + k, so runs with nearby seeds share no stream.
constexpr uint64_t kStreamsPerSeed = 64;
static_assert(kStreamsPerSeed >= 2 + 2 * kRounds,
              "warm-up, tail, and each round's ops and arrivals");

// Everything a run needs, generated from the seed before any timing.
struct Inputs {
  std::vector<ObjectId> ids;
  Stream warmup, tail;
  std::vector<Stream> rounds;
  // Open loop: each round's intended arrival offsets.
  std::vector<std::vector<int64_t>> due_ns;
};

Inputs MakeInputs(const Config& c, uint64_t seed) {
  Inputs in;
  in.ids.reserve(c.population);
  for (size_t i = 0; i < c.population; ++i) {
    in.ids.push_back(std::string("O").append(std::to_string(i)));
  }
  const uint64_t base = seed * kStreamsPerSeed;
  in.warmup = MakeStream(c, c.warmup, base);
  in.tail = MakeStream(c, c.tail, base + 1);
  const size_t per_round = std::max<size_t>(1, c.requests / kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    in.rounds.push_back(MakeStream(c, per_round, base + 2 + r));
    if (!c.serve) continue;
    ccr::Random rng(base + 2 + kRounds + r);
    double t = 0;
    std::vector<int64_t>& due = in.due_ns.emplace_back();
    for (size_t i = 0; i < per_round; ++i) {
      t += -std::log1p(-rng.NextDouble()) / c.rate;  // exponential gap
      due.push_back(static_cast<int64_t>(t * 1e9));
    }
  }
  return in;
}

Invocation MakeInv(const ObjectId& id, const Op& op) {
  const std::vector<Value> amount = {Value(static_cast<int64_t>(op.amount))};
  switch (op.code) {
    case OpCode::kInc:
      return Invocation(id, ccr::Counter::kInc, "inc", amount);
    case OpCode::kRead:
      return Invocation(id, ccr::Counter::kRead, "read", {});
    case OpCode::kDeposit:
      return Invocation(id, ccr::BankAccount::kDeposit, "deposit", amount);
    case OpCode::kWithdraw:
      return Invocation(id, ccr::BankAccount::kWithdraw, "withdraw", amount);
    case OpCode::kBalance:
      break;
  }
  return Invocation(id, ccr::BankAccount::kBalance, "balance", {});
}

// What an acknowledged op added to the sum of all object values — the
// quantity every workload's conservation audit balances.
int64_t NetEffect(const Op& op, const Value& result) {
  switch (op.code) {
    case OpCode::kInc:
    case OpCode::kDeposit:
      return op.amount;
    case OpCode::kWithdraw:
      return result.is_string() && result.AsString() == "ok" ? -op.amount : 0;
    case OpCode::kRead:
    case OpCode::kBalance:
      break;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The engine under test
// ---------------------------------------------------------------------------

ccr::ObjectConfig MakeObject(const Config& c, const ObjectId& id) {
  std::shared_ptr<const ccr::Adt> adt;
  if (c.bank) {
    adt = ccr::MakeBankAccount(id);
  } else {
    adt = ccr::MakeCounter(id);
  }
  ccr::ObjectConfig config;
  config.adt = adt;
  if (c.du_nfc) {
    config.conflict = ccr::MakeNfcConflict(adt);
    config.recovery = std::make_unique<ccr::DuRecovery>(adt);
  } else {
    config.conflict = ccr::MakeNrbcConflict(adt);
    config.recovery = std::make_unique<ccr::UipRecovery>(adt);
  }
  return config;
}

// One engine over one directory. Members are declared in dependency order,
// so they are destroyed front end first and store last.
struct Engine {
  Engine(const Config& c, std::string d, Tracer* t)
      : cfg(c), dir(std::move(d)), tracer(t) {}
  ~Engine() {
    frontend.reset();
    if (pipeline != nullptr) pipeline->Drain();
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  ccr::ObjectStore* object_store() const {
    return timed_store != nullptr
               ? static_cast<ccr::ObjectStore*>(timed_store.get())
               : store.get();
  }

  const Config& cfg;
  const std::string dir;
  Tracer* const tracer;
  std::unique_ptr<ccr::LogStructuredStore> store;
  std::unique_ptr<TimedStore> timed_store;
  std::unique_ptr<ccr::SegmentedFileSink> sink;
  std::unique_ptr<TimedSink> timed_sink;
  std::unique_ptr<ccr::JournalWriter> writer;
  std::unique_ptr<ccr::GroupCommitPipeline> pipeline;
  std::unique_ptr<ccr::Journal> journal;
  std::unique_ptr<ccr::TxnManager> manager;
  std::unique_ptr<ccr::ServeFrontend> frontend;
  std::atomic<uint64_t> commits{0};  // direct commits, for checkpoint pacing
  // Effects of every acknowledged op so far (single-threaded bookkeeping
  // between phases).
  int64_t acked_net = 0;
  uint64_t acked_ops = 0;
};

void NewManager(Engine& e, bool evict) {
  ccr::TxnManagerOptions options;
  options.record_history = false;
  // A few bank_direct waits per run end by the lock timeout rather than by
  // a wakeup or a deadlock kill; at the default 500 ms each one stalls the
  // hot accounts long enough to swing tps by a third between runs.
  options.lock_timeout = std::chrono::milliseconds(20);
  if (evict) {
    options.evict_high_watermark = e.cfg.cache;
    // Each sweep evicts a quarter of the cache instead of a handful of
    // objects: a sweep walks the whole directory.
    options.evict_low_watermark = e.cfg.cache - e.cfg.cache / 4;
  }
  e.manager = std::make_unique<ccr::TxnManager>(options);
  if (e.cfg.store) {
    const Config& cfg = e.cfg;
    e.manager->RegisterFactory(
        kFactory, [&cfg](const ObjectId& id) { return MakeObject(cfg, id); });
  }
}

void OpenStore(Engine& e) {
  StatusOr<std::unique_ptr<ccr::LogStructuredStore>> store =
      ccr::LogStructuredStore::Open(e.dir);
  CheckOk(store.status(), "open object store");
  e.store = std::move(*store);
  if (e.tracer != nullptr) {
    e.timed_store = std::make_unique<TimedStore>(e.store.get(), e.tracer);
  }
  e.manager->set_object_store(e.object_store());
}

// A segmented kGroup journal, attached to the manager's lifecycle records
// and to every eagerly registered object. The caller attaches the pipeline
// for commit acks.
void OpenJournal(Engine& e) {
  StatusOr<std::unique_ptr<ccr::SegmentedFileSink>> sink =
      ccr::SegmentedFileSink::Open(e.dir, 1);
  CheckOk(sink.status(), "open journal");
  e.sink = std::move(*sink);
  ccr::ByteSink* bytes = e.sink.get();
  if (e.tracer != nullptr) {
    e.timed_sink = std::make_unique<TimedSink>(e.sink.get(), e.tracer);
    bytes = e.timed_sink.get();
  }
  e.writer = std::make_unique<ccr::JournalWriter>(bytes);
  e.pipeline = std::make_unique<ccr::GroupCommitPipeline>(e.writer.get());
  e.journal = std::make_unique<ccr::Journal>();
  e.journal->set_pipeline(e.pipeline.get());
  e.manager->set_lifecycle_journal(e.journal.get());
  for (ccr::AtomicObject* obj : e.manager->objects()) {
    obj->recovery().set_journal(e.journal.get());
  }
}

// Eagerly registered objects (every workload but store_evict, whose
// objects come from the factory).
void AddObjects(Engine& e, const Inputs& in) {
  if (e.cfg.store) return;
  for (const ObjectId& id : in.ids) {
    ccr::ObjectConfig config = MakeObject(e.cfg, id);
    e.manager->AddObject(id, config.adt, config.conflict,
                         std::move(config.recovery));
  }
}

std::vector<BatchOp> MakeBatch(const Config& c, const Inputs& in,
                               const Op* ops, size_t n) {
  std::vector<BatchOp> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ObjectId& id = in.ids[ops[i].key];
    batch.push_back(BatchOp{id, c.store ? kFactory : "", MakeInv(id, ops[i])});
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Direct transactions
// ---------------------------------------------------------------------------

// What one phase measured.
struct Phase {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;    // shed + error + gave up
  uint64_t attempts = 0;  // direct transaction attempts, retries included
  uint64_t acked_ops = 0;
  int64_t net = 0;
  double window_s = 0;
  ccr::LatencyRecorder latency_ns;  // one exact sample per OK request
};

// A direct request with its invocations built, so that (like a serve
// request's ops) building them is not part of its latency.
struct DirectRequest {
  const Op* ops = nullptr;
  std::vector<BatchOp> batch;    // ExecuteBatch workloads
  std::vector<Invocation> invs;  // one Execute per op otherwise
};

DirectRequest Prepare(const Config& c, const Inputs& in, const Op* ops) {
  DirectRequest r;
  r.ops = ops;
  if (c.batch) {
    r.batch = MakeBatch(c, in, ops, c.ops);
  } else {
    for (size_t i = 0; i < c.ops; ++i) {
      r.invs.push_back(MakeInv(in.ids[ops[i].key], ops[i]));
    }
  }
  return r;
}

// One direct transaction through TxnManager::RunTransaction, so the
// engine's own retry and backoff policy applies. The body runs the ops:
// one Execute each, or one ExecuteBatch. Traced, the engine's time outside
// the body becomes spans opened and closed around the body: Begin before
// the first body, a retry between two bodies (the abort or failed commit,
// backoff, Begin), and Commit after the committed body, which includes the
// durable wait when a journal is attached and dropping the transaction.
Status RunTxn(Engine& e, const DirectRequest& r, uint64_t* attempts,
              int64_t* net) {
  ccr::TxnManager& m = *e.manager;
  Tracer* tracer = e.tracer;
  uint64_t tries = 0;
  int64_t delta = 0;  // the net effect of the last body, which committed
  int64_t mark = 0;   // when the engine's open span began
  if (tracer != nullptr) {
    mark = NowNs();
    tracer->BeginSpan(kTxnBegin);
  }
  const Status s = m.RunTransaction([&](ccr::Transaction* txn) {
    if (tracer != nullptr) {
      tracer->EndSpan(tries == 0 ? kTxnBegin : kTxnRetry, mark, NowNs());
    }
    ++tries;
    delta = 0;
    Status status;
    if (e.cfg.batch) {
      ScopedSpan span(tracer, kTxnExecute);
      StatusOr<std::vector<Value>> values = m.ExecuteBatch(txn, r.batch);
      status = values.status();
      for (size_t i = 0; status.ok() && i < r.batch.size(); ++i) {
        delta += NetEffect(r.ops[i], (*values)[i]);
      }
    } else {
      for (size_t i = 0; status.ok() && i < r.invs.size(); ++i) {
        ScopedSpan span(tracer, kTxnExecute);
        StatusOr<Value> value = m.Execute(txn, r.invs[i]);
        status = value.status();
        if (status.ok()) delta += NetEffect(r.ops[i], *value);
      }
    }
    if (tracer != nullptr) {
      mark = NowNs();
      tracer->BeginSpan(kTxnCommit);
    }
    return status;
  });
  if (tracer != nullptr) {
    tracer->EndSpan(s.ok() ? kTxnCommit : kTxnRetry, mark, NowNs());
  }
  *attempts += tries;
  if (s.ok()) *net += delta;
  return s;
}

// Runs `stream` on cfg.clients threads, each taking the next request as it
// finishes one, so no thread idles while another still has a backlog.
Phase RunDirect(Engine& e, const Inputs& in, const Stream& stream,
                uint64_t id_base) {
  const size_t n = stream.size();
  const size_t clients = e.cfg.clients;
  std::vector<Phase> per_thread(clients);
  std::atomic<bool> go{false};
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Phase& p = per_thread[t];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        const DirectRequest request = Prepare(e.cfg, in, stream.request(i));
        const int64_t start = NowNs();
        if (e.tracer != nullptr) {
          e.tracer->BeginRequest(kTxnRequest, id_base + i + 1);
        }
        const Status s = RunTxn(e, request, &p.attempts, &p.net);
        if (e.tracer != nullptr) e.tracer->EndRequest();
        const int64_t end = NowNs();
        if (s.ok()) {
          p.latency_ns.Record(static_cast<uint64_t>(end - start));
          ++p.ok;
          p.acked_ops += e.cfg.ops;
          if (e.cfg.checkpoint_every != 0) {
            e.commits.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          std::fprintf(stderr, "request %zu failed: %s\n", i,
                       s.ToString().c_str());
          ++p.failed;
        }
      }
    });
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.window_s = static_cast<double>(NowNs() - start) / 1e9;
  phase.attempted = n;
  for (const Phase& p : per_thread) {
    phase.ok += p.ok;
    phase.failed += p.failed;
    phase.attempts += p.attempts;
    phase.acked_ops += p.acked_ops;
    phase.net += p.net;
    phase.latency_ns.Merge(p.latency_ns);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Serve submissions
// ---------------------------------------------------------------------------

// One serve phase's per-request stamps. The completion of request i writes
// only slot i; `events` counts submit returns plus completions, so the
// phase is over once it reaches 2n.
class ServeRun {
 public:
  ServeRun(Engine& e, const Inputs& in, const Stream& stream)
      : e_(e),
        in_(in),
        stream_(stream),
        n_(stream.size()),
        sent_(n_),
        submitted_(n_),
        done_(n_),
        net_(n_),
        state_(n_, kPending) {}

  // Closed loop: `connections` client threads, each keeping `window`
  // submissions in flight. A completion only frees its connection's slot:
  // completions run on engine threads, which must not call back into the
  // front end, so the connection thread submits the next request.
  void RunClosed(size_t connections, size_t window) {
    for (size_t c = 0; c < connections; ++c) slots_.emplace_back(window);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([this, c] {
        for (;;) {
          slots_[c].acquire();
          const size_t i = next_.fetch_add(1);
          if (i >= n_) return;
          if (!Launch(i, c)) slots_[c].release();  // shed: the slot stays free
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Wait();
  }

  // Open loop: request i is due at start + due_ns[i], sent then whether or
  // not the engine kept up. Returns the start.
  int64_t RunOpen(const std::vector<int64_t>& due_ns) {
    const int64_t start = NowNs() + 1000000;
    for (size_t i = 0; i < n_; ++i) {
      const int64_t due = start + due_ns[i];
      int64_t now = NowNs();
      if (due - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100000));
      }
      while (NowNs() < due) {
      }
      Launch(i, kNoConnection);
    }
    Wait();
    return start;
  }

  size_t n() const { return n_; }
  bool ok(size_t i) const { return state_[i] == kOk; }
  int64_t sent(size_t i) const { return sent_[i]; }
  int64_t submitted(size_t i) const { return submitted_[i]; }
  int64_t done(size_t i) const { return done_[i]; }
  int64_t net(size_t i) const { return net_[i]; }

 private:
  enum State : uint8_t { kPending, kOk, kError, kShed };
  static constexpr size_t kNoConnection = SIZE_MAX;  // open loop

  // Submits request i for connection `conn`; false when it was refused at
  // the door.
  bool Launch(size_t i, size_t conn) {
    std::vector<BatchOp> ops =
        MakeBatch(e_.cfg, in_, stream_.request(i), stream_.per_request);
    sent_[i] = NowNs();
    const Status admitted = e_.frontend->SubmitAsync(
        std::move(ops), [this, i, conn](const Status& s, std::vector<Value> v) {
          Complete(i, conn, s, v);
        });
    submitted_[i] = NowNs();
    if (!admitted.ok()) {
      state_[i] = admitted.code() == ccr::StatusCode::kResourceExhausted
                      ? kShed
                      : kError;
      Event();  // the completion never fires
    }
    Event();
    return admitted.ok();
  }

  void Complete(size_t i, size_t conn, const Status& s,
                const std::vector<Value>& values) {
    done_[i] = NowNs();
    if (s.ok()) {
      const Op* ops = stream_.request(i);
      int64_t net = 0;
      for (size_t j = 0; j < values.size(); ++j) net += NetEffect(ops[j], values[j]);
      net_[i] = net;
      state_[i] = kOk;
    } else {
      state_[i] = kError;
    }
    Event();
    if (conn != kNoConnection) slots_[conn].release();
  }

  void Event() {
    if (events_.fetch_add(1, std::memory_order_acq_rel) + 1 == 2 * n_) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return events_.load(std::memory_order_acquire) == 2 * n_;
    });
    lock.unlock();
    // Every callback has returned before the stamps are read or freed.
    e_.frontend->Drain();
    e_.pipeline->Drain();
  }

  Engine& e_;
  const Inputs& in_;
  const Stream& stream_;
  const size_t n_;
  std::vector<int64_t> sent_, submitted_, done_, net_;
  std::vector<State> state_;
  std::deque<std::counting_semaphore<>> slots_;  // closed loop: free slots
  std::atomic<size_t> next_{0};    // closed loop: next request to submit
  std::atomic<size_t> events_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// Runs `stream` through the front end: open loop when `due_ns` is given,
// else closed loop over cfg.clients connections of cfg.window submissions
// each. `timed` folds the per-request stamps into the tracer as request
// and submit spans.
Phase RunServe(Engine& e, const Inputs& in, const Stream& stream,
               const std::vector<int64_t>* due_ns, uint64_t id_base,
               bool timed) {
  ServeRun run(e, in, stream);
  int64_t start = 0;
  if (due_ns != nullptr) {
    start = run.RunOpen(*due_ns);
  } else {
    run.RunClosed(e.cfg.clients, e.cfg.window);
  }
  Phase phase;
  phase.attempted = run.n();
  int64_t first = INT64_MAX;
  int64_t last = 0;
  for (size_t i = 0; i < run.n(); ++i) {
    const int64_t from = due_ns != nullptr ? start + (*due_ns)[i] : run.sent(i);
    first = std::min(first, from);
    if (!run.ok(i)) {
      ++phase.failed;
      continue;
    }
    last = std::max(last, run.done(i));
    ++phase.ok;
    phase.acked_ops += stream.per_request;
    phase.net += run.net(i);
    phase.latency_ns.Record(static_cast<uint64_t>(run.done(i) - from));
    if (timed && e.tracer != nullptr) {
      const uint64_t id = id_base + i + 1;
      const bool keep = id % Tracer::kSampleEvery == 0;
      e.tracer->Fold(Span{run.sent(i), run.done(i), id, 0, kServeRequest,
                          kNumKinds},
                     keep);
      e.tracer->Fold(Span{run.sent(i), run.submitted(i), id, 0, kServeSubmit,
                          kServeRequest},
                     keep);
      e.tracer->Sample(kRequestSelf, (run.done(i) - run.sent(i)) -
                                         (run.submitted(i) - run.sent(i)));
      if (due_ns != nullptr) e.tracer->Sample(kGenLate, run.sent(i) - from);
    }
  }
  phase.window_s = phase.ok == 0 ? 0 : static_cast<double>(last - first) / 1e9;
  return phase;
}

// Runs `stream` (open loop when `due_ns` is given) and books the effects
// of its acknowledged ops. Request ids start after `id_base`.
Phase RunRequests(Engine& e, const Inputs& in, const Stream& stream,
                  const std::vector<int64_t>* due_ns, uint64_t id_base,
                  bool timed) {
  Phase p = e.cfg.serve ? RunServe(e, in, stream, due_ns, id_base, timed)
                        : RunDirect(e, in, stream, id_base);
  e.acked_net += p.net;
  e.acked_ops += p.acked_ops;
  return p;
}

// ---------------------------------------------------------------------------
// Checkpoints, set-up, crash and restart
// ---------------------------------------------------------------------------

// Checkpoints every object (into the store when there is one, else as a
// checkpoint file) and truncates the journal below the anchor.
Lsn Checkpoint(Engine& e) {
  const Lsn anchor = e.journal->high_lsn();
  ccr::CheckpointerOptions options;
  if (e.cfg.store) options.store = e.object_store();
  StatusOr<Lsn> written = [&] {
    ScopedSpan span(e.tracer, kCheckpointWrite);
    return ccr::Checkpointer(e.dir, options).Write(e.manager.get(), anchor);
  }();
  CheckOk(written.status(), "checkpoint");
  CheckOk(e.sink->TruncateBelow(anchor), "journal truncation");
  return anchor;
}

// The bench-owned checkpoint thread of store_evict: one checkpoint every
// cfg.checkpoint_every direct commits (a round's worth), the first after
// half as many, so each falls mid-round rather than on a round boundary
// where the restart runs.
class CheckpointThread {
 public:
  explicit CheckpointThread(Engine& e) : e_(e), thread_([this] { Loop(); }) {}
  ~CheckpointThread() {
    stop_.store(true);
    thread_.join();
  }
  CheckpointThread(const CheckpointThread&) = delete;
  CheckpointThread& operator=(const CheckpointThread&) = delete;

  uint64_t count() const { return count_.load(); }

 private:
  void Loop() {
    uint64_t next = e_.commits.load() + e_.cfg.checkpoint_every / 2;
    while (!stop_.load()) {
      if (e_.commits.load(std::memory_order_relaxed) >= next) {
        Checkpoint(e_);
        count_.fetch_add(1);
        next += e_.cfg.checkpoint_every;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  Engine& e_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> count_{0};
  std::thread thread_;
};

// Builds a live engine in `dir`: files, population, warm-up.
std::unique_ptr<Engine> SetUp(const Config& c, const Inputs& in,
                              const std::string& dir, Tracer* tracer) {
  auto e = std::make_unique<Engine>(c, dir, tracer);
  NewManager(*e, /*evict=*/c.store);
  AddObjects(*e, in);
  if (c.journal_timed) OpenJournal(*e);
  if (c.store) {
    // Bulk load: the create records are made durable by one Drain instead
    // of a sync each, before the store and the commit pipeline (whose
    // presence makes every create wait) are attached.
    for (const ObjectId& id : in.ids) {
      CheckOk(e->manager->GetOrCreate(id, kFactory).status(), "create");
    }
    e->pipeline->Drain();
    OpenStore(*e);
    for (int i = 0; i < 64 && e->manager->resident_objects() > c.cache; ++i) {
      e->manager->MaybeEvict();  // sweeps on one call in 16
    }
  }
  if (e->pipeline != nullptr) {
    e->manager->set_commit_pipeline(e->pipeline.get());
  }
  if (c.bank) {
    // Opening balances, 256 deposits per transaction.
    Stream deposits;
    deposits.per_request = 256;
    for (size_t i = 0; i < c.population; ++i) {
      deposits.ops.push_back(Op{static_cast<uint32_t>(i), OpCode::kDeposit,
                                static_cast<int32_t>(kInitialBalance)});
    }
    while (deposits.ops.size() % deposits.per_request != 0) {
      deposits.ops.push_back(Op{0, OpCode::kDeposit, 1});
    }
    for (size_t r = 0; r < deposits.size(); ++r) {
      std::vector<BatchOp> batch =
          MakeBatch(c, in, deposits.request(r), deposits.per_request);
      std::shared_ptr<ccr::Transaction> txn = e->manager->Begin();
      CheckOk(e->manager->ExecuteBatch(txn.get(), batch).status(), "deposit");
      CheckOk(e->manager->Commit(txn.get()), "deposit commit");
      for (size_t i = 0; i < deposits.per_request; ++i) {
        e->acked_net += deposits.request(r)[i].amount;
      }
      e->acked_ops += deposits.per_request;
    }
  }
  if (c.serve) {
    // Default options but for the admission bound: a second of arrivals,
    // so a host stall delays requests instead of shedding them.
    ccr::ServeFrontendOptions options;
    options.queue_depth = 32768;
    e->frontend =
        std::make_unique<ccr::ServeFrontend>(e->manager.get(), options);
  }
  const Phase warm = RunRequests(*e, in, in.warmup, nullptr, 0, /*timed=*/false);
  if (warm.failed != 0) Fail("%llu warm-up requests failed",
                             static_cast<unsigned long long>(warm.failed));
  if (c.store) Checkpoint(*e);
  return e;
}

void RemoveDir(const std::string& dir) {
  if (auto names = ccr::ListDir(dir); names.ok()) {
    for (const std::string& name : *names) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

std::string NewDir() {
  const std::string dir = ccr::MakeTempDir("ccrbench_");
  if (dir.empty()) Fail("cannot create a directory under %s",
                        ccr::TempDirRoot().c_str());
  return dir;
}

// Sum of every object's value, read in batches of read-only transactions
// (faulting evicted or deferred objects back in).
int64_t SumValues(Engine& e, const Inputs& in) {
  const OpCode read = e.cfg.bank ? OpCode::kBalance : OpCode::kRead;
  int64_t sum = 0;
  std::vector<Op> ops;
  for (size_t first = 0; first < in.ids.size(); first += 512) {
    ops.clear();
    for (size_t i = first; i < std::min(in.ids.size(), first + 512); ++i) {
      ops.push_back(Op{static_cast<uint32_t>(i), read, 0});
    }
    const std::vector<BatchOp> batch = MakeBatch(e.cfg, in, ops.data(), ops.size());
    std::shared_ptr<ccr::Transaction> txn = e.manager->Begin();
    StatusOr<std::vector<Value>> values =
        e.manager->ExecuteBatch(txn.get(), batch);
    CheckOk(values.status(), "audit read");
    CheckOk(e.manager->Commit(txn.get()), "audit commit");
    for (const Value& v : *values) sum += v.AsInt();
  }
  return sum;
}

// Serve: every journaled op belongs to an OK-acknowledged submission.
void AuditJournal(Engine& e) {
  e.pipeline->Drain();
  uint64_t journaled = 0;
  e.journal->ForEachRecord([&](const ccr::Journal::CommitRecord& r) {
    journaled += r.ops.size();
  });
  if (journaled != e.acked_ops) {
    Fail("journal holds %llu ops, OK acks cover %llu",
         static_cast<unsigned long long>(journaled),
         static_cast<unsigned long long>(e.acked_ops));
  }
}

// The values of all objects sum to the effects of every acknowledged op.
void AuditSum(Engine& e, const Inputs& in, int64_t acked_net) {
  const int64_t sum = SumValues(e, in);
  if (sum != acked_net) {
    Fail("values sum to %lld, acknowledged effects to %lld",
         static_cast<long long>(sum), static_cast<long long>(acked_net));
  }
}

// A crashed directory and what it must restart to.
struct CrashImage {
  std::string dir;
  size_t tail_records = 0;
  int64_t sum = 0;
};

// Checkpoints a set-up engine, runs the fixed journaled tail, audits it,
// and crashes it by destroying the engine. Its directory is what every
// timed restart recovers.
CrashImage Crash(std::unique_ptr<Engine> e, const Inputs& in) {
  if (!e->cfg.journal_timed) {
    OpenJournal(*e);
    e->manager->set_commit_pipeline(e->pipeline.get());
  }
  CrashImage image;
  image.dir = e->dir;
  const Lsn anchor = Checkpoint(*e);
  const Phase tail = RunRequests(*e, in, in.tail, nullptr, 0, /*timed=*/false);
  if (tail.failed != 0) Fail("%llu tail requests failed",
                             static_cast<unsigned long long>(tail.failed));
  e->pipeline->Drain();
  image.tail_records = e->journal->high_lsn() - anchor;
  image.sum = e->acked_net;
  if (e->cfg.serve) AuditJournal(*e);
  return image;
}

struct Restarted {
  std::unique_ptr<Engine> engine;
  ccr::RestartSummary summary;
  double ms = 0;
};

// Restarts a fresh engine from the crashed directory. The time covers
// opening the store and RestartFromDir. The tracer times the restart as one
// span; the restarted engine's store is not wrapped, so its reads stay out
// of the timed engine's store.get_us.
Restarted Restart(const Config& c, const Inputs& in, const std::string& dir,
                  Tracer* tracer) {
  Restarted r;
  r.engine = std::make_unique<Engine>(c, dir, nullptr);
  NewManager(*r.engine, /*evict=*/false);
  AddObjects(*r.engine, in);
  const int64_t start = NowNs();
  if (c.store) OpenStore(*r.engine);
  StatusOr<ccr::RestartSummary> summary = [&] {
    ScopedSpan span(tracer, kRestart);
    return r.engine->manager->RestartFromDir(
        dir, ccr::RestartOptions{/*replay_threads=*/4,
                                 /*lazy_store_install=*/true});
  }();
  r.ms = static_cast<double>(NowNs() - start) / 1e6;
  CheckOk(summary.status(), "restart");
  r.summary = *summary;
  return r;
}

// ---------------------------------------------------------------------------
// Metrics and provenance
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Us(const ccr::LatencyRecorder& r, double p) {
  return static_cast<double>(r.Percentile(p)) / 1e3;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

// The mean of the kBest lowest values (or highest, with `highest`).
double BestMean(std::vector<double> v, bool highest = false) {
  std::sort(v.begin(), v.end());
  if (highest) std::reverse(v.begin(), v.end());
  const size_t k = std::min(kBest, v.size());
  double sum = 0;
  for (size_t i = 0; i < k; ++i) sum += v[i];
  return k == 0 ? 0 : sum / static_cast<double>(k);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The timed phase: kRounds rounds, each followed by a restart from the
// crash image, with the store checkpoint thread running throughout
// (store_evict). Counts are summed; tps, the gated percentiles and the
// restart times are kept per round. `all_ns` folds every latency of the
// run for the whole-run p99, which is reported but not gated: on
// serve_point about 1% of requests wait behind an fdatasync far slower
// than its median, so p99 sits on that knee and swings by half between
// runs.
struct Measured {
  Phase total;
  std::vector<double> tps, p50_us, p95_us, restart_ms;
  ccr::LatencyRecorder all_ns{ccr::LatencyMode::kBuckets};
  ccr::RestartSummary restart;  // the last restart's
  uint64_t checkpoints = 0;
};

Measured Measure(Engine& e, const Inputs& in, const CrashImage& image) {
  Measured m;
  std::unique_ptr<CheckpointThread> checkpointer;
  if (e.cfg.checkpoint_every != 0) {
    checkpointer = std::make_unique<CheckpointThread>(e);
  }
  uint64_t id_base = 0;
  for (size_t r = 0; r < in.rounds.size(); ++r) {
    Phase p = RunRequests(e, in, in.rounds[r],
                          e.cfg.serve ? &in.due_ns[r] : nullptr, id_base,
                          /*timed=*/true);
    id_base += p.attempted;
    m.tps.push_back(Ratio(static_cast<double>(p.ok), p.window_s));
    m.p50_us.push_back(Us(p.latency_ns, 50));
    m.p95_us.push_back(Us(p.latency_ns, 95));
    m.all_ns.Merge(p.latency_ns);
    m.total.attempted += p.attempted;
    m.total.ok += p.ok;
    m.total.failed += p.failed;
    m.total.attempts += p.attempts;
    m.total.acked_ops += p.acked_ops;

    const Restarted restarted = Restart(e.cfg, in, image.dir, e.tracer);
    if (restarted.summary.tail_records != image.tail_records) {
      Fail("restart %zu replayed %zu tail records, the journal holds %zu", r,
           restarted.summary.tail_records, image.tail_records);
    }
    m.restart_ms.push_back(restarted.ms);
    m.restart = restarted.summary;
  }
  if (checkpointer != nullptr) m.checkpoints = checkpointer->count();
  return m;
}

struct Provenance {
  int64_t started = 0;  // unix seconds
  long nproc = 0;
  std::string git_sha;
  std::string compiler;
  std::string filesystem;
  double fdatasync_p50_us = 0;
  double fdatasync_p99_us = 0;
};

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return hex;
}

// 1,000 appends of 512 bytes, each followed by fdatasync, in the run's
// directory: ties the numbers to the host's sync cost.
void ProbeFdatasync(Provenance* p) {
  const std::string path = ccr::TempDirRoot() + "/ccrbench_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) Fail("cannot create %s", path.c_str());
  ccr::LatencyRecorder ns;
  char block[512];
  std::memset(block, 'p', sizeof(block));
  for (int i = 0; i < 1000; ++i) {
    const int64_t start = NowNs();
    if (::pwrite(fd, block, sizeof(block),
                 static_cast<off_t>(i) * static_cast<off_t>(sizeof(block))) !=
            static_cast<ssize_t>(sizeof(block)) ||
        ::fdatasync(fd) != 0) {
      Fail("fdatasync probe failed");
    }
    ns.Record(static_cast<uint64_t>(NowNs() - start));
  }
  ::close(fd);
  std::remove(path.c_str());
  p->fdatasync_p50_us = Us(ns, 50);
  p->fdatasync_p99_us = Us(ns, 99);
}

Provenance Probe(const std::string& git_sha) {
  Provenance p;
  p.started = static_cast<int64_t>(::time(nullptr));
  p.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  p.git_sha = git_sha;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
  p.filesystem = FilesystemName(ccr::TempDirRoot());
  ProbeFdatasync(&p);
  return p;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Engine counters around the timed phase; per-layer ratios are deltas.
struct Counters {
  ccr::ServeStats serve;
  ccr::GroupCommitStats group_commit;
  ccr::ManagerStats manager;
  ccr::ObjectStats objects;
  ccr::ObjectStoreStats store;
  uint64_t sink_bytes = 0;
  uint64_t store_user_bytes = 0;
};

Counters Snapshot(const Engine& e) {
  Counters c;
  if (e.frontend != nullptr) c.serve = e.frontend->stats();
  if (e.pipeline != nullptr) c.group_commit = e.pipeline->stats();
  c.manager = e.manager->stats();
  c.objects = e.manager->AggregateObjectStats();
  if (e.store != nullptr) c.store = e.store->stats();
  if (e.timed_sink != nullptr) c.sink_bytes = e.timed_sink->bytes();
  if (e.timed_store != nullptr) c.store_user_bytes = e.timed_store->user_bytes();
  return c;
}

// On-disk store bytes per byte of live key/value data.
double SpaceAmplification(Engine& e) {
  if (e.store == nullptr) return 0;
  uint64_t live = 0;
  CheckOk(e.store->Scan([&](const std::string& k, const std::string& v) {
            live += k.size() + v.size();
            return Status::OK();
          }),
          "store scan");
  uint64_t disk = 0;
  StatusOr<std::vector<std::string>> names = ccr::ListDir(e.dir);
  CheckOk(names.status(), "list store directory");
  for (const std::string& name : *names) {
    if (name.rfind("store.", 0) != 0) continue;
    struct stat st;
    if (::stat((e.dir + "/" + name).c_str(), &st) == 0) {
      disk += static_cast<uint64_t>(st.st_size);
    }
  }
  return Ratio(static_cast<double>(disk), static_cast<double>(live));
}

std::vector<Metric> LayerMetrics(const Config& cfg, const Tracer& tracer,
                                 const Counters& a, const Counters& b,
                                 const Phase& p, uint64_t checkpoints,
                                 double space_amp,
                                 const ccr::RestartSummary& restart,
                                 double cover, double overhead) {
  const double ok = static_cast<double>(p.ok);
  const double ops = static_cast<double>(p.acked_ops);
  const double executes =
      static_cast<double>(b.objects.executes - a.objects.executes);
  const double committed =
      static_cast<double>(b.manager.committed - a.manager.committed);
  const double engine_txns = static_cast<double>(
      (b.serve.coalesced_txns - a.serve.coalesced_txns) +
      (b.serve.solo_txns - a.serve.solo_txns));
  const double syncs =
      static_cast<double>(b.group_commit.syncs - a.group_commit.syncs);
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const bool direct = !cfg.serve;
  const ccr::LatencyRecorder self = tracer.Merged(kRequestSelf);
  return {
      {"serve.submit_us.p50", Us(tracer.Merged(kServeSubmit), 50), "us"},
      {"serve.unattributed_us.p50", direct ? 0 : Us(self, 50), "us"},
      {"serve.subs_per_txn",
       Ratio(d(b.serve.accepted, a.serve.accepted), engine_txns), "ratio"},
      {"serve.demoted_frac",
       Ratio(d(b.serve.demoted_groups, a.serve.demoted_groups),
             d(b.serve.groups, a.serve.groups)),
       "ratio"},
      {"serve.queue_max", static_cast<double>(b.serve.max_queue_depth),
       "count"},
      {"txn.begin_us.p50", Us(tracer.Merged(kTxnBegin), 50), "us"},
      {"txn.execute_us.p50", Us(tracer.Merged(kTxnExecute), 50), "us"},
      {"txn.execute_us.p99", Us(tracer.Merged(kTxnExecute), 99), "us"},
      {"txn.commit_us.p50", Us(tracer.Merged(kTxnCommit), 50), "us"},
      {"txn.attempts_per_commit",
       direct ? Ratio(static_cast<double>(p.attempts), ok) : 0, "ratio"},
      {"txn.kills_per_ktxn",
       1000 * Ratio(d(b.manager.kills, a.manager.kills), committed),
       "1/ktxn"},
      {"txn.client_self_us.p50", direct ? Us(self, 50) : 0, "us"},
      {"txn.object.conflicts_per_op",
       Ratio(d(b.objects.conflicts, a.objects.conflicts), executes), "ratio"},
      {"txn.object.waits_per_op",
       Ratio(d(b.objects.waits, a.objects.waits), executes), "ratio"},
      {"txn.object.wait_us.p99",
       static_cast<double>(b.objects.wait_time_us.Percentile(99)), "us"},
      {"txn.object.timeouts", d(b.objects.timeouts, a.objects.timeouts),
       "count"},
      {"txn.object.fault_ins_per_op",
       Ratio(d(b.objects.fault_ins, a.objects.fault_ins), executes), "ratio"},
      {"txn.object.evictions_per_ktxn",
       1000 * Ratio(d(b.objects.evictions, a.objects.evictions), ok),
       "1/ktxn"},
      {"txn.group_commit.records_per_sync",
       Ratio(d(b.group_commit.records_flushed, a.group_commit.records_flushed),
             syncs),
       "ratio"},
      {"txn.group_commit.records_per_txn",
       Ratio(d(b.group_commit.records_sequenced,
               a.group_commit.records_sequenced),
             ok),
       "ratio"},
      {"journal.append_us.p50", Us(tracer.Merged(kJournalAppend), 50), "us"},
      {"journal.sync_us.p50", Us(tracer.Merged(kJournalSync), 50), "us"},
      {"journal.sync_us.p99", Us(tracer.Merged(kJournalSync), 99), "us"},
      {"journal.syncs_per_ktxn", 1000 * Ratio(syncs, ok), "1/ktxn"},
      {"journal.bytes_per_op", Ratio(d(b.sink_bytes, a.sink_bytes), ops),
       "B/op"},
      {"store.get_us.p50", Us(tracer.Merged(kStoreGet), 50), "us"},
      {"store.get_us.p99", Us(tracer.Merged(kStoreGet), 99), "us"},
      {"store.apply_us.p99", Us(tracer.Merged(kStoreApply), 99), "us"},
      {"store.write_amp",
       Ratio(d(b.store.bytes_written, a.store.bytes_written),
             d(b.store_user_bytes, a.store_user_bytes)),
       "ratio"},
      {"store.space_amp", space_amp, "ratio"},
      {"store.compactions", d(b.store.compactions, a.store.compactions),
       "count"},
      {"checkpoint.write_ms.p50",
       Us(tracer.Merged(kCheckpointWrite), 50) / 1e3, "ms"},
      {"checkpoint.count", static_cast<double>(checkpoints), "count"},
      {"restart.tail_records", static_cast<double>(restart.tail_records),
       "count"},
      {"restart.installed_objects",
       static_cast<double>(restart.checkpoint_objects), "count"},
      {"restart.tail_skipped", static_cast<double>(restart.tail_skipped),
       "count"},
      {"gen.late_us.p99", Us(tracer.Merged(kGenLate), 99), "us"},
      {"trace.child_cover_frac", direct ? cover : 0, "ratio"},
      {"trace_overhead_frac", overhead, "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  std::string trace_out;
  std::string json_out;
  std::string git_sha = "unknown";
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// What a result file reports beside the metrics.
struct Extra {
  size_t samples;     // latency samples in the timed phase
  double p99_us;      // whole-run p99, not gated
  double failed_frac;  // failed / attempted
};

// The result file: provenance, the run's settings, and its metrics. The
// start time lets compare.py check that paired runs alternated.
void WriteResultFile(const Options& o, const Provenance& p, const Phase& phase,
                     const Extra& extra, const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(o.json_out.c_str(), "w");
  if (f == nullptr) Fail("cannot write %s", o.json_out.c_str());
  std::fprintf(
      f,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"scale\": %g, "
      "\"trace\": %s, \"started_unix\": %lld,\n"
      " \"provenance\": {\"nproc\": %ld, \"git_sha\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"tmpdir_fs\": \"%s\", "
      "\"fdatasync_p50_us\": %.3f, \"fdatasync_p99_us\": %.3f},\n"
      " \"attempted\": %llu, \"failed\": %llu, \"failed_frac\": %.6g, "
      "\"latency_samples\": %zu, \"whole_run_p99_us\": %.3f,\n"
      " \"metrics\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.scale, o.trace ? "true" : "false", static_cast<long long>(p.started),
      p.nproc, p.git_sha.c_str(), CCRBENCH_BUILD_TYPE, p.compiler.c_str(),
      p.filesystem.c_str(), p.fdatasync_p50_us, p.fdatasync_p99_us,
      static_cast<unsigned long long>(phase.attempted),
      static_cast<unsigned long long>(phase.failed), extra.failed_frac,
      extra.samples, extra.p99_us, MetricsJson(metrics).c_str());
  if (std::fclose(f) != 0) Fail("cannot write %s", o.json_out.c_str());
}

int Run(const Options& o) {
  const std::optional<Config> parsed =
      MakeConfig(o.workload, o.seconds, o.scale);
  if (!parsed) Fail("unknown workload '%s'", o.workload.c_str());
  const Config& cfg = *parsed;
  const Provenance prov = Probe(o.git_sha);
  std::printf(
      "ccrbench %s seed=%llu seconds=%g scale=%g trace=%d requests=%zu\n"
      "provenance: nproc=%ld git=%s build=%s compiler=%s tmpdir_fs=%s "
      "fdatasync p50=%.1fus p99=%.1fus\n",
      cfg.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.scale, o.trace ? 1 : 0, cfg.requests, prov.nproc,
      prov.git_sha.c_str(), CCRBENCH_BUILD_TYPE, prov.compiler.c_str(),
      prov.filesystem.c_str(), prov.fdatasync_p50_us, prov.fdatasync_p99_us);
  const Inputs in = MakeInputs(cfg, o.seed);

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s;
  std::vector<std::string> dirs;
  CrashImage image;
  std::optional<Measured> reference;
  if (o.trace) {
    dirs.push_back(NewDir());
    image = Crash(SetUp(cfg, in, dirs.back(), nullptr), in);
    // Untraced reference pass for the tracing overhead, on its own engine.
    dirs.push_back(NewDir());
    engine = SetUp(cfg, in, dirs.back(), nullptr);
    reference = Measure(*engine, in, image);
    engine.reset();
    tracer = std::make_unique<Tracer>();
    dirs.push_back(NewDir());
    engine = SetUp(cfg, in, dirs.back(), tracer.get());
  } else {
    // Set up several times: set-up time is the median, so work moved into
    // set-up shows. The first engine becomes the crash image, the last
    // runs the timed phase.
    for (int i = 0; i < kSetups; ++i) {
      engine.reset();
      dirs.push_back(NewDir());
      const int64_t start = NowNs();
      engine = SetUp(cfg, in, dirs.back(), nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (i == 0) image = Crash(std::move(engine), in);
    }
  }

  const Counters before = Snapshot(*engine);
  if (tracer != nullptr) tracer->Arm(true);
  const Measured m = Measure(*engine, in, image);
  if (tracer != nullptr) tracer->Arm(false);
  const Counters after = Snapshot(*engine);
  const double space_amp = o.trace ? SpaceAmplification(*engine) : 0;

  // The timed engine holds every op it acknowledged; the crash image
  // recovers every op acknowledged before its crash.
  if (cfg.serve) AuditJournal(*engine);
  AuditSum(*engine, in, engine->acked_net);
  engine.reset();
  AuditSum(*Restart(cfg, in, image.dir, nullptr).engine, in, image.sum);
  for (const std::string& d : dirs) RemoveDir(d);

  const Phase& total = m.total;
  std::vector<Metric> metrics;
  if (o.trace) {
    const double cover =
        static_cast<double>(tracer->Merged(kChildCover).Percentile(50)) / 1e4;
    if (!cfg.serve && cover < kMinChildCover) {
      Fail("child spans cover %.3f of the median request, below %.2f", cover,
           kMinChildCover);
    }
    const double overhead =
        cfg.serve
            ? Ratio(BestMean(m.p50_us), BestMean(reference->p50_us)) - 1
            : Ratio(BestMean(reference->tps, true), BestMean(m.tps, true)) - 1;
    metrics = LayerMetrics(cfg, *tracer, before, after, total, m.checkpoints,
                           space_amp, m.restart, cover, overhead);
    if (!o.trace_out.empty()) {
      CheckOk(tracer->WriteChromeTrace(o.trace_out), "write trace");
    }
  } else {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"tps", BestMean(m.tps, true), "txn/s"},
        {"p50_us", BestMean(m.p50_us), "us"},
        {"p95_us", BestMean(m.p95_us), "us"},
        {"restart_ms", Min(m.restart_ms), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  for (const Metric& metric : metrics) {
    std::printf("%-36s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const size_t samples = m.all_ns.count();
  const Extra extra{samples, static_cast<double>(m.all_ns.Percentile(99)) / 1e3,
                    Ratio(static_cast<double>(total.failed),
                          static_cast<double>(total.attempted))};
  std::printf(
      "rounds: %zu, tps %.0f..%.0f, p50 %.1f..%.1f us, p95 %.1f..%.1f us\n"
      "latency samples %zu (%zu per round, so %zu beyond each round's p95); "
      "whole-run p99 %.1f us (not gated)\n"
      "failed_frac %.6g (%llu of %llu); %zu restarts of %.1f..%.1f ms, "
      "tail %zu records\n",
      m.tps.size(), Min(m.tps), Max(m.tps), Min(m.p50_us), Max(m.p50_us),
      Min(m.p95_us), Max(m.p95_us), samples, samples / kRounds,
      samples / kRounds / 20, extra.p99_us, extra.failed_frac,
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.attempted), m.restart_ms.size(),
      Min(m.restart_ms), Max(m.restart_ms), image.tail_records);
  if (!o.json_out.empty()) {
    WriteResultFile(o, prov, total, extra, metrics);
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ccrbench

int main(int argc, char** argv) {
  ccrbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) ccrbench::Fail("flag %s needs a value", flag.c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--json-out") {
      o.json_out = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else {
      ccrbench::Fail("unknown flag %s", flag.c_str());
    }
  }
  if (o.workload.empty() || !(o.seconds > 0) || !(o.scale > 0)) {
    ccrbench::Fail(
        "usage: ccrbench --workload W --seed N --seconds S --trace 0|1 "
        "[--scale F] [--trace-out FILE] [--json-out FILE] [--git-sha SHA]");
  }
  return ccrbench::Run(o);
}
