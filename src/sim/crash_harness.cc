// Copyright 2026 The ccr Authors.

#include "sim/crash_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "common/temp_path.h"
#include "core/spec.h"
#include "txn/journal_format.h"

namespace ccr {
namespace {

// Audit 2, lifecycle-aware: every live object of `restarted` must equal
// the spec-level replay (RunSpec — independent of the engine path the
// restart used) of its current incarnation's op projection of the first
// `prefix` entries (a `create` starts an incarnation); every id the prefix
// ends dropped must not resolve, and every id it ends created must. A
// projection the spec refuses fails the audit.
bool AuditStateAgainstPrefix(TxnManager* restarted,
                             const std::vector<Journal::Entry>& entries,
                             size_t prefix) {
  std::map<ObjectId, OpSeq> ops;
  std::map<ObjectId, bool> live;  // ids with lifecycle records -> live?
  for (size_t i = 0; i < prefix; ++i) {
    const Journal::Entry& entry = entries[i];
    if (entry.is_lifecycle) {
      ops[entry.lifecycle.object].clear();
      live[entry.lifecycle.object] =
          entry.lifecycle.kind == LifecycleRecord::Kind::kCreate;
      continue;
    }
    for (const Operation& op : entry.commit.ops) {
      ops[op.object()].push_back(op);
    }
  }
  for (const auto& [id, alive] : live) {
    if ((restarted->object(id) != nullptr) != alive) return false;
  }
  for (AtomicObject* obj : restarted->objects()) {
    const auto it = ops.find(obj->id());
    const StateSet want =
        RunSpec(obj->adt().spec(), it == ops.end() ? OpSeq{} : it->second);
    if (want.size() != 1 || !obj->CommittedState()->Equals(want.at(0))) {
      return false;
    }
  }
  return true;
}

// The crash point a record death fires, so the sink, the checkpointer and
// the store — which share the CrashPoints — die with the journal.
constexpr std::string_view kRecordPoint = "journal.record";

// The machine's journal disk as the pipeline sees it. Appended records wait
// in its page cache until a sync writes them to the segmented sink and
// syncs that, so the machine's death loses what was never synced: a record
// death leaves a seeded prefix of it on the disk (the dying record at most
// torn), any other death none of it. Injects the record and I/O-error
// faults once armed, and counts the records that reached the disk whole.
// Every frame the pipeline hands it is first teed into `handed`, before
// any fault decides its fate: the run's sequence, in LSN order, that the
// audits hold the restart to. The pipeline serializes Append and Sync, one
// frame per append; Arm comes from a workload or ack thread. The tee and
// the count are read once the engine is gone.
struct FaultySink : ByteSink {
  FaultySink(ByteSink* disk, CrashPoints* crash, const CrashFault& fault,
             uint64_t seed)
      : disk(disk), crash(crash), fault(fault), tear(seed),
        armed(fault.fraction <= 0) {}

  Status Append(std::string_view bytes) override {
    std::lock_guard<std::mutex> lock(mu);
    const bool strike = Striking();
    handed.append(bytes);
    ++frames;
    if (strike && fault.kind == CrashFault::Kind::kAppendError) {
      return Inject("append");
    }
    unsynced.emplace_back(bytes);
    if (!strike || fault.kind != CrashFault::Kind::kRecord || crash->dead()) {
      return Status::OK();
    }
    // The machine dies while writing this record.
    size_t total = 0;
    for (const std::string& record : unsynced) total += record.size();
    size_t keep = tear.Uniform(total);
    for (const std::string& record : unsynced) {
      const size_t n = std::min(keep, record.size());
      if (n == 0 || !disk->Append(record.substr(0, n)).ok()) break;
      keep -= n;
      on_disk += n == record.size() ? 1 : 0;
    }
    crash->Hit(kRecordPoint);
    return Status::Unavailable("simulated crash at journal record");
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(mu);
    if (Striking() && fault.kind == CrashFault::Kind::kSyncError) {
      return Inject("sync");
    }
    for (const std::string& record : unsynced) {
      CCR_RETURN_IF_ERROR(disk->Append(record));
      ++on_disk;
    }
    unsynced.clear();
    return disk->Sync();
  }

  // Arms the fault: it strikes the first append (kSyncError: sync) made
  // once the sink has been handed `after` frames. Only the first call
  // counts; fraction 0 is armed from the start, at the first append.
  void Arm(size_t after) {
    std::lock_guard<std::mutex> lock(mu);
    if (armed) return;
    armed = true;
    strike_after = after;
  }

  bool Striking() const { return armed && frames >= strike_after; }

  Status Inject(const char* what) {
    error_fired = true;
    return Status::Internal(StrFormat("journal %s failed: %s", what,
                                      std::strerror(fault.error)));
  }

  ByteSink* const disk;
  CrashPoints* const crash;
  const CrashFault fault;
  std::mutex mu;
  Random tear;
  bool armed;
  size_t strike_after = 0;
  std::string handed;                 // every frame appended, in order
  size_t frames = 0;                  // ... and how many
  std::vector<std::string> unsynced;  // the page cache
  size_t on_disk = 0;
  bool error_fired = false;
};

size_t OpsOf(const std::vector<Journal::Entry>& entries, size_t prefix) {
  size_t ops = 0;
  for (size_t i = 0; i < prefix && i < entries.size(); ++i) {
    if (!entries[i].is_lifecycle) ops += entries[i].commit.ops.size();
  }
  return ops;
}

class Scenario {
 public:
  Scenario(const SystemFactory& factory, const CrashScenarioOptions& options)
      : factory_(factory), options_(options) {}

  CrashScenarioResult Run(const TxnBody* body,
                          const RequestFactory* make_request);

 private:
  // Records `s` as the scenario's error unless the fault explains it (the
  // machine is dead or the pipeline fail-stopped).
  void Note(const Status& s) {
    if (s.ok() || crash_.dead() || !engine_->pipeline()->status().ok()) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (result_.status.ok()) result_.status = s;
  }

  // Counts one unit of work's outcome: acknowledged (`lsn`: the record a
  // transaction's ack covers, for audit 3; `ops`: a submission's ops), or
  // refused — aborted by its body, turned away by a fail-stopped front
  // end. Every maintenance_every-th ack wakes the maintenance thread. A
  // record or I/O-error fault strikes the first journal append (sync)
  // after the acks reach its fraction of the work that can still be
  // acknowledged — the workload less what was refused so far — so it lands
  // mid-run, among acknowledged work. kRelaxed acknowledges at sequencing,
  // before the flusher hands the record to the sink, so there the fault
  // also waits for the sink to be handed every record sequenced by then.
  void OnOutcome(bool acked, Lsn lsn = kNoLsn, size_t ops = 0) {
    const Lsn sequenced =
        options_.group_commit.mode == DurabilityMode::kRelaxed
            ? engine_->journal()->high_lsn()
            : kNoLsn;
    std::lock_guard<std::mutex> lock(mu_);
    if (!acked) {
      ++refused_;
    } else {
      ++acked_;
      result_.acked_ops += ops;
      if (lsn != kNoLsn) acked_lsns_.push_back(lsn);
      if (options_.maintenance_every > 0 &&
          acked_ % options_.maintenance_every == 0) {
        maintenance_cv_.notify_one();
      }
    }
    if (static_cast<double>(acked_) >=
        options_.fault.fraction * static_cast<double>(work_ - refused_)) {
      disk_->Arm(static_cast<size_t>(sequenced));
    }
  }

  void MaintenanceLoop();
  void MaintenancePass();
  StatusOr<Lsn> CommitOne(const TxnBody& body, Random* rng, Random* backoff);
  void RunWorkers(const TxnBody& body);
  void RunBurst(const RequestFactory& make_request);
  void Audit(const std::vector<Journal::Entry>& entries);

  const SystemFactory& factory_;
  const CrashScenarioOptions& options_;
  CrashScenarioResult result_;
  // The machine's disk: journal segments, checkpoints and the store.
  const TempDir dir_{"ccr_crash_"};
  CrashPoints crash_;
  std::unique_ptr<FaultySink> disk_;  // laid over the engine's journal sink
  bool serving_ = false;
  // The live engine, valid during the run.
  Engine* engine_ = nullptr;
  TxnManager* manager_ = nullptr;
  size_t evict_cursor_ = 0;

  std::mutex mu_;  // guards everything below and result_.status
  std::condition_variable maintenance_cv_;
  size_t work_ = 0;     // transactions or submissions the workload issues
  size_t acked_ = 0;    // ... that returned OK
  size_t refused_ = 0;  // ... that were aborted or refused for good
  bool workload_done_ = false;
  std::vector<Lsn> acked_lsns_;  // the record each journaled ack covered
};

CrashScenarioResult Scenario::Run(const TxnBody* body,
                                  const RequestFactory* make_request) {
  EngineOptions engine_options;
  engine_options.group_commit = options_.group_commit;
  engine_options.journal.max_segment_bytes = options_.max_segment_bytes;
  engine_options.journal.crash = &crash_;
  if (options_.store) {
    engine_options.store = LogStoreOptions{};
    engine_options.store->max_segment_bytes = options_.store_segment_bytes;
    engine_options.store->crash = &crash_;
  }
  engine_options.checkpoint.crash = &crash_;
  engine_options.journal_decorator = [this](ByteSink* journal) {
    disk_ = std::make_unique<FaultySink>(journal, &crash_, options_.fault,
                                         options_.driver.seed);
    return disk_.get();
  };
  {
    // The live engine. Leaving this scope is the crash: every volatile
    // structure dies.
    StatusOr<std::unique_ptr<Engine>> engine =
        Engine::Open(dir_.path(), std::move(engine_options), factory_);
    if (!engine.ok()) {
      result_.status = engine.status();
      return result_;
    }
    engine_ = engine->get();
    manager_ = engine_->manager();
    // Armed only now: the initial segment creations of Open belong to
    // setup (the sink's and the store's Open bypass crash points), so
    // rotation points fire at the first mid-run rotation instead.
    if (options_.fault.kind == CrashFault::Kind::kPoint) {
      crash_.Arm(options_.fault.point);
    } else if (options_.fault.kind == CrashFault::Kind::kRecord) {
      crash_.Arm(std::string(kRecordPoint));
    }

    serving_ = body == nullptr;
    work_ = serving_ ? options_.requests
                     : static_cast<size_t>(options_.driver.threads) *
                           static_cast<size_t>(options_.driver.txns_per_thread);
    std::thread maintenance([this] { MaintenanceLoop(); });
    if (serving_) {
      RunBurst(*make_request);
    } else {
      RunWorkers(*body);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      workload_done_ = true;
    }
    maintenance_cv_.notify_one();
    maintenance.join();
    // Everything sequenced is made durable — or the pipeline fail-stops.
    GroupCommitPipeline* pipeline = engine_->pipeline();
    pipeline->Drain();
    result_.durable_lsn = pipeline->durable_lsn();
    result_.failure = pipeline->status();
    result_.records_total = pipeline->stats().records_sequenced;
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_.acked = acked_;
    }
    if (engine_->store() != nullptr) {
      result_.compactions = engine_->store()->stats().compactions;
    }
  }
  // The run's sequence: every frame the pipeline handed the sink. The
  // engine started on an empty directory, so its LSNs count from 1, as
  // the scan's do.
  std::vector<Journal::Entry> entries;
  RecoveryReport scan;
  const Status decoded = ForEachJournalEntry(
      disk_->handed, /*after_lsn=*/0,
      [&entries](Lsn, Journal::Entry&& entry) {
        entries.push_back(std::move(entry));
        return Status::OK();
      },
      &scan);
  if (result_.status.ok() && (!decoded.ok() || scan.corrupt_tail)) {
    result_.status = Status::Internal(
        StrFormat("the frames handed to the sink do not decode: %s %s",
                  decoded.ToString().c_str(), scan.ToString().c_str()));
  }
  result_.records_on_disk = disk_->on_disk;
  result_.fault_fired = crash_.fired() || disk_->error_fired;
  // The engine closed its journal sink, so the buffered bytes of the
  // records the disk wrote reached the files; its page cache dies
  // unwritten.
  disk_.reset();
  if (result_.status.ok()) Audit(entries);
  return result_;
}

void Scenario::MaintenanceLoop() {
  const size_t every = options_.maintenance_every;
  if (every == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  // Passes owed when the workload ends still run, so the number of passes
  // depends only on the commits acknowledged.
  for (size_t passes = 0;; ++passes) {
    maintenance_cv_.wait(
        lock, [&] { return workload_done_ || acked_ / every > passes; });
    if (acked_ / every <= passes) return;
    lock.unlock();
    MaintenancePass();
    lock.lock();
  }
}

void Scenario::MaintenancePass() {
  if (crash_.dead() || !engine_->pipeline()->status().ok()) return;
  if (engine_->store() != nullptr) {
    // Evict one quiescent object, round-robin, so later commits fault
    // evicted objects back in. Busy, raced or dropped objects are skipped.
    const std::vector<AtomicObject*> objects = manager_->objects();
    for (size_t probe = 0; probe < objects.size(); ++probe) {
      const size_t at = (evict_cursor_ + probe) % objects.size();
      if (objects[at]->evicted()) continue;
      const size_t before = manager_->evicted_objects();
      const Status s = manager_->EvictObject(objects[at]->id());
      if (s.ok() && manager_->evicted_objects() > before) {
        ++result_.evictions;
        evict_cursor_ = at + 1;
        break;
      }
      if (!s.ok() && s.code() != StatusCode::kIllegalState &&
          s.code() != StatusCode::kNotFound) {
        return Note(s);
      }
    }
  }
  const size_t segments = engine_->sink()->segment_count();
  const StatusOr<Lsn> written = engine_->Checkpoint();
  if (!written.ok()) return Note(written.status());
  ++result_.checkpoints;
  if (engine_->sink()->segment_count() < segments) ++result_.truncations;
  if (engine_->store() != nullptr) Note(engine_->store()->CompactNow());
}

// RunTransaction's loop, retrying what it retries, but acknowledged the
// way Commit does it — CommitAsync, then WaitDurable — so the driver knows
// the LSN each ack covers (kNoLsn: the transaction journaled nothing).
StatusOr<Lsn> Scenario::CommitOne(const TxnBody& body, Random* rng,
                                  Random* backoff) {
  constexpr int kMaxRetries = 1000;  // TxnManagerOptions' default
  for (int attempt = 0;; ++attempt) {
    const std::shared_ptr<Transaction> txn = manager_->Begin();
    Status s = body(manager_, txn.get(), rng);
    if (s.ok()) {
      const StatusOr<Lsn> lsn = manager_->CommitAsync(txn.get());
      if (lsn.ok()) {
        if (*lsn != kNoLsn) {
          CCR_RETURN_IF_ERROR(engine_->pipeline()->WaitDurable(*lsn));
        }
        return *lsn;
      }
      s = lsn.status();
    } else if (txn->active()) {
      manager_->Abort(txn.get());
    }
    if (!s.IsRetryable()) return s;
    if (attempt == kMaxRetries) {
      return Status::Aborted("transaction retry budget exhausted");
    }
    const uint64_t max_us = 32ull << std::min(attempt, 8);
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoff->Uniform(max_us) + 1));
  }
}

void Scenario::RunWorkers(const TxnBody& body) {
  const DriverOptions& driver = options_.driver;
  std::vector<std::thread> workers;
  for (int w = 0; w < driver.threads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(driver.seed * 1000003 + static_cast<uint64_t>(w));
      Random backoff(driver.seed * 7919 + static_cast<uint64_t>(w));
      for (int i = 0; i < driver.txns_per_thread; ++i) {
        const StatusOr<Lsn> lsn = CommitOne(body, &rng, &backoff);
        // kAborted: a body that injects aborts. Anything else stops the
        // worker: the engine fail-stopped (every later transaction would
        // fail alike), or the workload broke.
        if (!lsn.ok() && lsn.status().code() != StatusCode::kAborted) {
          return Note(lsn.status());
        }
        OnOutcome(lsn.ok(), lsn.ok() ? *lsn : kNoLsn);
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

void Scenario::RunBurst(const RequestFactory& make_request) {
  // The front end stops — its pending acks finish — before the pipeline
  // drains and the engine dies.
  ServeFrontend frontend(manager_, options_.frontend);
  // Unpaced burst from several submitter threads: the queue genuinely
  // fills (and sheds), so the fault lands with submissions queued and acks
  // outstanding.
  std::vector<std::thread> submitters;
  std::atomic<size_t> next{0};
  for (int t = 0; t < std::max(1, options_.driver.threads); ++t) {
    submitters.emplace_back([&, t] {
      Random rng(options_.driver.seed + 7919 * static_cast<uint64_t>(t + 1));
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= options_.requests) break;
        const std::vector<BatchOp> ops = make_request(i, &rng);
        for (;;) {
          const Status admitted = frontend.SubmitAsync(
              ops, [&](const Status& s, std::vector<Value> values) {
                if (s.ok()) OnOutcome(true, kNoLsn, values.size());
              });
          if (admitted.ok()) break;
          if (admitted.code() != StatusCode::kResourceExhausted) {
            OnOutcome(false);  // refused for good: the engine fail-stopped
            break;
          }
          // Shed: a real client backs off and retries. Yielding lets the
          // batcher drain, so the burst both sheds and lands every request.
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  frontend.Stop();
  result_.serve = frontend.stats();
}

void Scenario::Audit(const std::vector<Journal::Entry>& entries) {
  // A fresh engine on the crashed disk: the restart, then the resume
  // (the journal sink reopened at high_lsn + 1 cuts a torn tail).
  EngineOptions engine_options;
  if (options_.store) engine_options.store = LogStoreOptions{};
  engine_options.restart.replay_threads = options_.replay_threads;
  StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir_.path(), std::move(engine_options), factory_);
  if (!engine.ok()) {
    result_.status = engine.status();
    return;
  }
  TxnManager* restarted = (*engine)->manager();
  const RestartSummary& summary = (*engine)->restart();
  result_.summary = summary;
  const size_t high = static_cast<size_t>(summary.high_lsn);
  const size_t prefix = std::min(high, entries.size());
  const size_t durable =
      std::min(static_cast<size_t>(result_.durable_lsn), entries.size());
  const auto excess = [](size_t a, size_t b) { return a > b ? a - b : 0; };

  // Audit 1: recovery lands on exactly the records that reached the disk
  // whole, recovered ⊆ handed to the sink ⊆ sequenced, and every entry
  // past the checkpoint anchor is the run's entry at that LSN (the image
  // covers the ones at or below it; audit 2 checks those).
  result_.prefix_ok =
      high == result_.records_on_disk && high <= entries.size() &&
      entries.size() <= result_.records_total &&
      ForEachSegmentedEntry(
          dir_.path(), summary.checkpoint_anchor,
          [&](Lsn lsn, Journal::Entry&& entry) {
            return lsn <= entries.size() &&
                           EncodeEntryPayload(entry) ==
                               EncodeEntryPayload(entries[lsn - 1])
                       ? Status::OK()
                       : Status::Internal("recovered entry is not the run's");
          },
          nullptr)
          .ok();

  // Audit 2.
  result_.state_ok = AuditStateAgainstPrefix(restarted, entries, prefix);

  // Audit 3. Serving acks are counted in ops: coalescing hides which
  // record carried a submission.
  const bool relaxed =
      options_.group_commit.mode == DurabilityMode::kRelaxed;
  const size_t durable_ops = OpsOf(entries, durable);
  result_.journal_ops = OpsOf(entries, entries.size());
  result_.recovered_ops = OpsOf(entries, prefix);
  if (relaxed) {
    // The ack is sequencing by contract; the promise is the watermark.
    result_.acked_lost = excess(result_.durable_lsn, high);
  } else if (serving_) {
    result_.acked_lost = excess(result_.acked_ops, result_.recovered_ops);
    result_.acked_beyond_watermark = excess(result_.acked_ops, durable_ops);
  } else {
    // By the LSN each ack covered, whether or not its record reached the
    // sink: an ack for a record the fail-stop dropped is beyond the
    // watermark.
    for (const Lsn lsn : acked_lsns_) {
      result_.acked_lost += lsn > high ? 1 : 0;
      result_.acked_beyond_watermark += lsn > result_.durable_lsn ? 1 : 0;
    }
  }

  // Audit 4: transactions are all-or-nothing. Record L was applied at
  // object o iff last_committed_lsn(o) >= L (per-object records are totally
  // ordered, and an image carries its object's LSN). A transaction applied
  // at a strict, non-empty subset of the objects it wrote is torn.
  // (Meaningful without lifecycle churn of the written ids: an incarnation
  // reset rewinds last_committed_lsn.)
  std::map<TxnId, std::map<ObjectId, Lsn>> written;  // txn -> object -> LSN
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].is_lifecycle) continue;
    for (const Operation& op : entries[i].commit.ops) {
      written[entries[i].commit.txn][op.object()] = static_cast<Lsn>(i) + 1;
    }
  }
  for (const auto& [txn, objects] : written) {
    if (objects.size() < 2) continue;
    ++result_.multi_object_txns;
    size_t applied = 0;
    for (const auto& [id, lsn] : objects) {
      const AtomicObject* obj = restarted->object(id);
      if (obj != nullptr && obj->last_committed_lsn() >= lsn) ++applied;
    }
    if (applied == objects.size()) ++result_.multi_object_whole;
    if (applied != 0 && applied != objects.size()) {
      ++result_.multi_object_partial;
    }
  }

  // Audit 5 (serving): ops conserved exactly without a fault; otherwise
  // acked ⊆ recovered ⊆ journaled (under kRelaxed the watermark's ops are
  // the acked set).
  if (serving_) {
    const bool faultless = !result_.fault_fired && result_.failure.ok();
    const size_t acked = relaxed ? durable_ops : result_.acked_ops;
    result_.ops_ok = faultless ? result_.acked_ops == result_.journal_ops
                               : acked <= result_.recovered_ops &&
                                     result_.recovered_ops <=
                                         result_.journal_ops;
  }
}

}  // namespace

CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const TxnBody& body,
                                     const CrashScenarioOptions& options) {
  return Scenario(factory, options).Run(&body, nullptr);
}

CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const RequestFactory& make_request,
                                     const CrashScenarioOptions& options) {
  return Scenario(factory, options).Run(nullptr, &make_request);
}

}  // namespace ccr
