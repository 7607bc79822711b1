// Copyright 2026 The ccr Authors.

#include "sim/crash_harness.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "common/temp_path.h"
#include "store/log_store.h"
#include "txn/checkpoint.h"

namespace ccr {
namespace {

bool SameEntry(const Journal::Entry& a, const Journal::Entry& b) {
  if (a.is_lifecycle != b.is_lifecycle) return false;
  if (a.is_lifecycle) {
    return a.lifecycle.kind == b.lifecycle.kind &&
           a.lifecycle.object == b.lifecycle.object &&
           a.lifecycle.factory == b.lifecycle.factory;
  }
  return a.commit.txn == b.commit.txn && a.commit.ops == b.commit.ops;
}

// Per-id state a prefix of journal entries implies: the current
// incarnation's ops (a `create` is an incarnation boundary that clears
// them), which ids end the prefix dropped, and which end it dynamically
// created and live.
struct ExpectedState {
  std::map<ObjectId, OpSeq> ops;
  std::set<ObjectId> dropped;
  std::set<ObjectId> dynamic_live;
};

ExpectedState ComputeExpected(const std::vector<Journal::Entry>& prefix) {
  ExpectedState out;
  for (const Journal::Entry& entry : prefix) {
    if (entry.is_lifecycle) {
      const LifecycleRecord& lc = entry.lifecycle;
      out.ops[lc.object].clear();
      if (lc.kind == LifecycleRecord::Kind::kCreate) {
        out.dropped.erase(lc.object);
        out.dynamic_live.insert(lc.object);
      } else {
        out.dropped.insert(lc.object);
        out.dynamic_live.erase(lc.object);
      }
      continue;
    }
    for (const Operation& op : entry.commit.ops) {
      out.ops[op.object()].push_back(op);
    }
  }
  return out;
}

// Lifecycle-aware state audit: every live object of `restarted` must equal
// the spec-level replay (RecoverState — independent of the engine path the
// restart used) of its incarnation's op projection; every id the prefix
// ends dropped must not resolve; every id it ends created must.
bool AuditStateAgainstPrefix(TxnManager* restarted,
                             const std::vector<Journal::Entry>& prefix) {
  const ExpectedState expected = ComputeExpected(prefix);
  for (const ObjectId& id : expected.dropped) {
    if (restarted->object(id) != nullptr) return false;
  }
  for (const ObjectId& id : expected.dynamic_live) {
    if (restarted->object(id) == nullptr) return false;
  }
  for (AtomicObject* obj : restarted->objects()) {
    OpSeq ops;
    if (const auto it = expected.ops.find(obj->id());
        it != expected.ops.end()) {
      ops = it->second;
    }
    Journal per_object({Journal::CommitRecord{1, std::move(ops)}});
    const std::unique_ptr<SpecState> want =
        RecoverState(obj->adt(), per_object);
    if (!obj->CommittedState()->Equals(*want)) return false;
  }
  return true;
}

// Applies one ground-truth entry to the replica manager. Commit records:
// group ops per object (preserving per-object order) and replay each group
// at `lsn`, so the replica's per-object last-committed LSNs track the
// durable journal exactly — which is what makes its fuzzy checkpoints
// sound. Lifecycle records: re-create through the replica's own factory
// registry / retire (the replica has no lifecycle journal attached, so the
// mirror never double-journals).
Status MirrorApply(TxnManager* replica, const Journal::Entry& entry,
                   Lsn lsn) {
  if (entry.is_lifecycle) {
    const LifecycleRecord& lc = entry.lifecycle;
    if (lc.kind == LifecycleRecord::Kind::kCreate) {
      return replica->GetOrCreate(lc.object, lc.factory).status();
    }
    return replica->DropObject(lc.object);
  }
  const Journal::CommitRecord& record = entry.commit;
  std::vector<std::pair<AtomicObject*, OpSeq>> grouped;
  for (const Operation& op : record.ops) {
    AtomicObject* obj = replica->object(op.object());
    if (obj == nullptr) {
      return Status::Internal(StrFormat(
          "workload touched object %s the factory did not build",
          op.object().c_str()));
    }
    bool found = false;
    for (auto& [existing, ops] : grouped) {
      if (existing == obj) {
        ops.push_back(op);
        found = true;
        break;
      }
    }
    if (!found) grouped.emplace_back(obj, OpSeq{op});
  }
  for (auto& [obj, ops] : grouped) {
    CCR_RETURN_IF_ERROR(obj->ReplayCommitted(record.txn, ops, lsn));
  }
  replica->AdvanceTxnWatermark(record.txn);
  return Status::OK();
}

// Temp directory for one scenario's segmented journal + checkpoints.
// Removed (with contents) on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() { path_ = MakeTempDir("ccr_ckpt_"); }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    if (StatusOr<std::vector<std::string>> names = ListDir(path_);
        names.ok()) {
      for (const std::string& name : *names) {
        std::remove((path_ + "/" + name).c_str());
      }
    }
#ifndef _WIN32
    ::rmdir(path_.c_str());
#endif
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Post-run crash audit shared by the driver and serving scenarios: cut the
// image at `crash_fraction`, compute the acked ground truth from the sync
// offsets, restart a freshly built system from the surviving bytes, and
// run audits 1-4 into `result`.
void AuditCrashImage(const SystemFactory& factory, const Journal& journal,
                     const JournalWriter& writer, const std::string& image,
                     double crash_fraction, CrashScenarioResult* result);

}  // namespace

CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const TxnBody& body,
                                     const CrashScenarioOptions& options) {
  CrashScenarioResult result;

  // The pre-crash world: a fresh system journaling durably to an
  // in-memory "disk" through the group-commit pipeline (mode per
  // options; kSync reproduces the per-record-sync baseline).
  TxnManager manager;
  factory(&manager);
  MemorySink sink;
  JournalWriter writer(&sink);
  GroupCommitPipeline pipeline(&writer, options.group_commit);
  Journal journal;
  journal.set_pipeline(&pipeline);
  manager.set_commit_pipeline(&pipeline);
  manager.set_lifecycle_journal(&journal);
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  RunWorkload(&manager, body, options.driver);
  // Flush everything sequenced before inspecting the disk — the flusher
  // may still hold a lingering batch (and under kRelaxed, acknowledged
  // but not yet durable records).
  pipeline.Drain();

  AuditCrashImage(factory, journal, writer, sink.image(),
                  options.crash_fraction, &result);
  return result;
}

namespace {

void AuditCrashImage(const SystemFactory& factory, const Journal& journal,
                     const JournalWriter& writer, const std::string& image,
                     double crash_fraction, CrashScenarioResult* res) {
  CrashScenarioResult& result = *res;
  result.image_bytes = image.size();
  result.records_total = journal.size();
  result.syncs_total = writer.sync_offsets().size();

  // The crash: everything volatile dies; only the first crash_offset bytes
  // of the disk survive.
  const double fraction = std::clamp(crash_fraction, 0.0, 1.0);
  result.crash_offset =
      static_cast<uint64_t>(static_cast<double>(image.size()) * fraction);
  const std::string_view crashed =
      std::string_view(image).substr(0, result.crash_offset);

  // The acknowledgment audit's ground truth: a sync whose offset exceeds
  // the surviving bytes cannot have completed before the crash, so the
  // acknowledged transactions are exactly those whose record lies under
  // the last completed sync. (Under kRelaxed the engine acks earlier by
  // contract; the watermark — which is what this computes — is still the
  // only durability promise made.)
  uint64_t last_sync = 0;
  for (const uint64_t off : writer.sync_offsets()) {
    if (off <= result.crash_offset) last_sync = std::max(last_sync, off);
  }
  for (size_t i = 0; i < writer.records_appended(); ++i) {
    if (writer.boundary(i + 1) <= last_sync) ++result.acked_records;
  }

  // Restart: a newly built system recovered from the surviving bytes.
  TxnManager restarted;
  factory(&restarted);
  StatusOr<RestartSummary> summary = restarted.RestartFromImage(crashed);
  result.status = summary.status();
  if (!result.status.ok()) return;
  result.report = summary->scan;

  // Audit 3: every record a completed sync covered — every possibly
  // acknowledged commit — survived recovery.
  result.acked_recovered = result.report.records_replayed >=
                           result.acked_records;

  // Audit 1: the scanned entries (commit + lifecycle) are a prefix of the
  // run's journaled sequence.
  StatusOr<Journal> scanned = ScanJournalImage(crashed, nullptr);
  CCR_CHECK(scanned.ok());  // RestartFromImage just accepted this image
  const std::vector<Journal::Entry> prefix = scanned->Entries();
  const std::vector<Journal::Entry> full = journal.Entries();
  result.prefix_of_commit_order = prefix.size() <= full.size();
  for (size_t i = 0; result.prefix_of_commit_order && i < prefix.size();
       ++i) {
    result.prefix_of_commit_order = SameEntry(prefix[i], full[i]);
  }

  // Audit 2: every recovered object equals the spec-level replay of its
  // incarnation's projection of that prefix, dropped ids are gone, and
  // created ids are back.
  result.state_matches_prefix = AuditStateAgainstPrefix(&restarted, prefix);

  // Audit 4: transactions are all-or-nothing. After replay an object's
  // last_committed_lsn is the highest replayed record LSN naming it, and
  // per-object records are totally ordered in the journal — so record L
  // was applied at object o iff last_committed_lsn(o) >= L. The run's
  // commit records are grouped by transaction id, whatever their number:
  // a transaction applied at a strict, non-empty subset of the objects it
  // wrote is torn.
  std::map<TxnId, std::map<ObjectId, Lsn>> written;  // txn -> object -> LSN
  for (size_t i = 0; i < full.size(); ++i) {
    const Journal::Entry& entry = full[i];
    if (entry.is_lifecycle) continue;
    const Lsn lsn = static_cast<Lsn>(i) + 1;
    std::map<ObjectId, Lsn>& objects = written[entry.commit.txn];
    for (const Operation& op : entry.commit.ops) objects[op.object()] = lsn;
  }
  for (const auto& [txn, objects] : written) {
    if (objects.size() < 2) continue;
    ++result.batch_records_total;
    size_t applied = 0;
    for (const auto& [id, lsn] : objects) {
      AtomicObject* obj = restarted.object(id);
      if (obj != nullptr && obj->last_committed_lsn() >= lsn) ++applied;
    }
    if (applied == objects.size()) {
      ++result.batch_records_recovered;
    } else if (applied != 0) {
      ++result.batch_records_partial;
    }
  }
}

}  // namespace

ServeCrashResult RunServeCrashScenario(const SystemFactory& factory,
                                       const RequestFactory& make_request,
                                       const ServeCrashOptions& options) {
  ServeCrashResult result;

  // The pre-crash world, served: the same durable in-memory "disk" as
  // RunCrashScenario, but transactions arrive through the ServeFrontend —
  // coalesced at the boundary, committed via CommitAsync, acked off the
  // durable watermark.
  TxnManager manager;
  factory(&manager);
  MemorySink sink;
  JournalWriter writer(&sink);
  GroupCommitPipeline pipeline(&writer, options.group_commit);
  Journal journal;
  journal.set_pipeline(&pipeline);
  manager.set_commit_pipeline(&pipeline);
  manager.set_lifecycle_journal(&journal);
  for (AtomicObject* obj : manager.objects()) {
    obj->recovery().set_journal(&journal);
  }

  std::atomic<uint64_t> completed_ops{0};
  {
    ServeFrontend frontend(&manager, options.frontend);
    // Unpaced burst from several submitter threads: the queue genuinely
    // fills (max_queue_depth/shed below prove it), so any mid-run instant
    // — in particular the one the crash cut lands on — has submissions
    // queued and acks outstanding.
    std::vector<std::thread> submitters;
    std::atomic<size_t> next{0};
    for (size_t t = 0; t < std::max<size_t>(1, options.submit_threads); ++t) {
      submitters.emplace_back([&, t] {
        Random rng(options.seed + 7919 * (t + 1));
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= options.requests) break;
          const Status admitted = frontend.SubmitAsync(
              make_request(i, &rng),
              [&completed_ops](const Status& s, std::vector<Value> values) {
                if (s.ok()) {
                  completed_ops.fetch_add(values.size(),
                                          std::memory_order_relaxed);
                }
              });
          if (!admitted.ok()) {
            // Shed: a real client backs off. Yielding lets the batcher
            // drain, so the burst both sheds (queue-full behavior) and
            // still lands enough accepted groups for the recovery audits
            // to have a meaningful record sequence to check.
            std::this_thread::yield();
          }
        }
      });
    }
    for (std::thread& th : submitters) th.join();
    frontend.Drain();
    const ServeStats stats = frontend.stats();
    result.submitted = stats.submitted;
    result.accepted = stats.accepted;
    result.shed = stats.shed;
    result.completed_ok = stats.completed_ok;
    result.completed_error = stats.completed_error;
    result.max_queue_depth = stats.max_queue_depth;
    result.coalesced_txns = stats.coalesced_txns;
    // The front end stops (and its pending acks finish) before the
    // pipeline below drains and the "disk" is inspected.
  }
  pipeline.Drain();
  result.completed_ops = completed_ops.load();

  // Conservation at the journal: every op the journal holds belongs to
  // exactly one OK-acked submission and vice versa — shed and failed
  // submissions left no trace, acked ones left exactly their ops.
  for (const Journal::Entry& entry : journal.Entries()) {
    if (!entry.is_lifecycle) result.journal_ops += entry.commit.ops.size();
  }
  result.ops_conserved = result.journal_ops == result.completed_ops;

  AuditCrashImage(factory, journal, writer, sink.image(),
                  options.crash_fraction, &result.crash);

  // Submissions in flight at the crash instant: records any part of which
  // lies past the cut were still unacked (their sync had not completed)
  // when the machine died.
  size_t under_cut = 0;
  for (size_t i = 0; i < writer.records_appended(); ++i) {
    if (writer.boundary(i + 1) <= result.crash.crash_offset) ++under_cut;
  }
  result.inflight_at_crash = result.crash.records_total - under_cut;
  return result;
}

CheckpointCrashResult RunCheckpointCrashScenario(
    const SystemFactory& factory, const TxnBody& body,
    const CheckpointCrashOptions& options) {
  CheckpointCrashResult result;

  // Phase 1 — ground truth. The workload runs against a volatile journal;
  // its in-memory record sequence is the commit order the durable replay
  // below will feed through the segmented sink. (The group-commit pipeline
  // aborts the process on writer errors by design, so the crash-injected
  // sink cannot sit behind a live workload; feeding the recorded sequence
  // through the sink directly gives the harness record-exact control over
  // what the "disk" received.)
  TxnManager workload_manager;
  factory(&workload_manager);
  Journal journal;
  workload_manager.set_lifecycle_journal(&journal);
  for (AtomicObject* obj : workload_manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  RunWorkload(&workload_manager, body, options.driver);
  const std::vector<Journal::Entry> entries = journal.Entries();
  result.records_total = entries.size();

  // Phase 2 — the durable run. Replay the sequence through a segmented
  // sink with the crash point armed, mirror-applying every record that
  // reached the disk into a replica manager; maintenance passes checkpoint
  // the replica and truncate dead segments. Once the armed point fires,
  // everything else fails fast — the tail after it is lost.
  ScopedTempDir dir;
  if (dir.path().empty()) {
    result.status = Status::Internal("cannot create scenario temp dir");
    return result;
  }
  CrashPoints crash;
  if (!options.crash_point.empty()) crash.Arm(options.crash_point);
  SegmentedSinkOptions sink_options;
  sink_options.max_segment_bytes = options.max_segment_bytes;
  sink_options.crash = &crash;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1, sink_options);
  if (!sink.ok()) {
    result.status = sink.status();
    return result;
  }
  TxnManager replica;
  factory(&replica);
  Checkpointer checkpointer(dir.path(), CheckpointerOptions{2, &crash});
  const size_t every = options.checkpoint_every > 0
                           ? options.checkpoint_every
                           : std::max<size_t>(1, entries.size() / 3);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Lsn lsn = static_cast<Lsn>(i) + 1;
    const Status append = (*sink)->Append(EncodeEntryRecord(entries[i]));
    if (!append.ok()) {
      if (!crash.dead()) result.status = append;  // real failure, not crash
      break;
    }
    // Crash points sit at operation boundaries, so a successful Append put
    // the whole record on the (simulated) disk.
    ++result.records_appended;
    const Status sync = (*sink)->Sync();
    if (sync.ok()) ++result.acked_records;
    const Status mirror = MirrorApply(&replica, entries[i], lsn);
    if (!mirror.ok()) {
      result.status = mirror;
      break;
    }
    if (!sync.ok()) {
      if (!crash.dead()) result.status = sync;
      break;
    }
    if ((i + 1) % every == 0) {
      // Maintenance pass. The anchor is captured before the checkpoint
      // walk (here trivially: the replay is synchronous, so every record
      // <= lsn is in the replica); truncation runs only after Write
      // returned — i.e. only below a durable checkpoint.
      const StatusOr<Lsn> written = checkpointer.Write(&replica, lsn);
      if (written.ok()) {
        ++result.checkpoints_written;
        const size_t before = (*sink)->segment_count();
        const Status trunc = (*sink)->TruncateBelow(*written);
        if (trunc.ok()) {
          if ((*sink)->segment_count() < before) ++result.truncations;
        } else if (!crash.dead()) {
          result.status = trunc;
          break;
        }
      } else if (!crash.dead()) {
        result.status = written.status();
        break;
      }
      if (crash.dead()) break;
    }
  }
  result.crash_fired = crash.fired();
  if (!result.status.ok()) return result;

  // Phase 3 — recovery and audit. A fresh system restarts from whatever
  // the directory holds; it must land on exactly the appended prefix.
  TxnManager restarted;
  factory(&restarted);
  StatusOr<RestartSummary> summary = restarted.RestartFromDir(
      dir.path(), RestartOptions{options.replay_threads});
  if (!summary.ok()) {
    result.status = summary.status();
    return result;
  }
  result.summary = *summary;
  result.recovered_all_appended =
      result.summary.high_lsn == static_cast<Lsn>(result.records_appended);

  const std::vector<Journal::Entry> prefix(
      entries.begin(),
      entries.begin() + static_cast<ptrdiff_t>(result.records_appended));
  result.state_matches_prefix = AuditStateAgainstPrefix(&restarted, prefix);
  return result;
}

StoreCrashResult RunStoreCrashScenario(const SystemFactory& factory,
                                       const TxnBody& body,
                                       const StoreCrashOptions& options) {
  StoreCrashResult result;

  // Phase 1 — ground truth (same as the checkpoint scenario): the workload
  // runs against a volatile journal to fix the commit-record sequence.
  TxnManager workload_manager;
  factory(&workload_manager);
  Journal journal;
  workload_manager.set_lifecycle_journal(&journal);
  for (AtomicObject* obj : workload_manager.objects()) {
    obj->recovery().set_journal(&journal);
  }
  RunWorkload(&workload_manager, body, options.driver);
  const std::vector<Journal::Entry> entries = journal.Entries();
  result.records_total = entries.size();

  // Phase 2 — the durable run, now with the store in the loop. The journal
  // sink, the checkpointer, and the log-structured store share one
  // CrashPoints: wherever the armed point lives, once it fires every later
  // append, checkpoint, store batch, and compaction fails — the machine is
  // dead.
  ScopedTempDir dir;
  if (dir.path().empty()) {
    result.status = Status::Internal("cannot create scenario temp dir");
    return result;
  }
  CrashPoints crash;
  SegmentedSinkOptions sink_options;
  sink_options.max_segment_bytes = options.max_segment_bytes;
  sink_options.crash = &crash;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir.path(), 1, sink_options);
  if (!sink.ok()) {
    result.status = sink.status();
    return result;
  }
  LogStoreOptions store_options;
  store_options.max_segment_bytes = options.store_segment_bytes;
  store_options.crash = &crash;
  StatusOr<std::unique_ptr<LogStructuredStore>> store =
      LogStructuredStore::Open(dir.path(), store_options);
  if (!store.ok()) {
    result.status = store.status();
    return result;
  }
  // Armed only now: the initial segment creations above belong to setup
  // (mirroring the journal sink, whose Open also bypasses crash points);
  // rotation points fire at the first mid-run rotation instead.
  if (!options.crash_point.empty()) crash.Arm(options.crash_point);
  TxnManager replica;
  factory(&replica);
  replica.set_object_store(store->get());
  CheckpointerOptions ckpt_options;
  ckpt_options.crash = &crash;
  ckpt_options.store = store->get();
  ckpt_options.also_write_file = options.also_write_file;
  Checkpointer checkpointer(dir.path(), ckpt_options);
  const size_t every = options.checkpoint_every > 0
                           ? options.checkpoint_every
                           : std::max<size_t>(1, entries.size() / 3);
  size_t evict_cursor = 0;
  bool dead = false;
  for (size_t i = 0; i < entries.size() && !dead; ++i) {
    const Lsn lsn = static_cast<Lsn>(i) + 1;
    const Status append = (*sink)->Append(EncodeEntryRecord(entries[i]));
    if (!append.ok()) {
      if (!crash.dead()) result.status = append;
      break;
    }
    ++result.records_appended;
    const Status sync = (*sink)->Sync();
    if (sync.ok()) ++result.acked_records;
    // Mirror-apply even an unacked record — the replica is volatile state
    // of the dying machine. An evicted object faults back in here, which
    // Gets from the store; after the crash fired that Get fails too, which
    // is fine — recovery only ever reads the disk, not the replica.
    const Status mirror = MirrorApply(&replica, entries[i], lsn);
    if (!mirror.ok()) {
      if (!crash.dead()) result.status = mirror;
      break;
    }
    if (!sync.ok()) {
      if (!crash.dead()) result.status = sync;
      break;
    }
    // Eviction pass: push one quiescent object's state out to the store
    // (buffered Put — the next checkpoint sync hardens it). Round-robin so
    // later mirror-applies fault evicted objects back in.
    if (options.evict_every > 0 && (i + 1) % options.evict_every == 0) {
      const std::vector<AtomicObject*> objects = replica.objects();
      for (size_t probe = 0; probe < objects.size(); ++probe) {
        AtomicObject* victim = objects[(evict_cursor + probe) %
                                       objects.size()];
        if (victim->evicted()) continue;
        const size_t before = replica.evicted_objects();
        const Status evict = replica.EvictObject(victim->id());
        if (!evict.ok() && crash.dead()) {
          dead = true;
          break;
        }
        if (evict.ok() && replica.evicted_objects() > before) {
          ++result.evictions;
          evict_cursor = (evict_cursor + probe + 1) % objects.size();
          break;
        }
        // Raced / not evictable: try the next candidate.
      }
      if (dead) break;
    }
    if ((i + 1) % every == 0) {
      // Maintenance pass: store-backed checkpoint (one synced batch of
      // resident Puts + the meta key — the sync also hardens earlier
      // buffered eviction Puts), then truncation keyed to the now-durable
      // anchor, then a forced compaction of the store's oldest segment.
      const StatusOr<Lsn> written = checkpointer.Write(&replica, lsn);
      if (written.ok()) {
        ++result.checkpoints_written;
        const size_t before = (*sink)->segment_count();
        const Status trunc = (*sink)->TruncateBelow(*written);
        if (trunc.ok()) {
          if ((*sink)->segment_count() < before) ++result.truncations;
        } else if (!crash.dead()) {
          result.status = trunc;
          break;
        }
        const Status compact = (*store)->CompactNow();
        if (!compact.ok() && !crash.dead()) {
          result.status = compact;
          break;
        }
      } else if (!crash.dead()) {
        result.status = written.status();
        break;
      }
      if (crash.dead()) break;
    }
  }
  result.crash_fired = crash.fired();
  result.store_compactions = (*store)->stats().compactions;
  // The crash destroys the machine: close the dying store's descriptors
  // before recovery opens the surviving segments fresh.
  store->reset();
  if (!result.status.ok()) return result;

  // Phase 3 — recovery and audit. A fresh system with a freshly opened
  // store restarts from whatever the directory holds (store images + meta,
  // checkpoint files if any, journal tail) and must land on exactly the
  // appended prefix.
  StatusOr<std::unique_ptr<LogStructuredStore>> reopened =
      LogStructuredStore::Open(dir.path(), LogStoreOptions{});
  if (!reopened.ok()) {
    result.status = reopened.status();
    return result;
  }
  TxnManager restarted;
  factory(&restarted);
  restarted.set_object_store(reopened->get());
  StatusOr<RestartSummary> summary = restarted.RestartFromDir(
      dir.path(), RestartOptions{options.replay_threads});
  if (!summary.ok()) {
    result.status = summary.status();
    return result;
  }
  result.summary = *summary;
  result.recovered_all_appended =
      result.summary.high_lsn == static_cast<Lsn>(result.records_appended);

  const std::vector<Journal::Entry> prefix(
      entries.begin(),
      entries.begin() + static_cast<ptrdiff_t>(result.records_appended));
  result.state_matches_prefix = AuditStateAgainstPrefix(&restarted, prefix);
  return result;
}

}  // namespace ccr
