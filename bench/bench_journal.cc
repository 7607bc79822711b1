// Copyright 2026 The ccr Authors.
//
// PERF-JOURNAL: cost of the durable redo journal. Three scenarios:
//
//  1. append — commit-record append throughput through JournalWriter
//     (encode + CRC32C + frame + sync per record) for the in-memory sink
//     and the file-backed sink, plus a group-commit variant that frames
//     records individually but syncs every G records (the classical group
//     commit trade: G crash-vulnerable records for 1/G of the syncs).
//
//  2. replay — crash-recovery scan rate (ScanJournalImage: frame walk +
//     CRC verify + payload decode) vs journal length, and full engine
//     replay (TxnManager::RestartFromImage) for both recovery methods.
//
//  3. fault sweep — the recovery matrix: boundary crashes and torn/corrupt
//     tails must recover by truncation; mid-journal corruption must be
//     rejected. Reports counts over a sweep of injected faults.
//
//  4. group commit (PERF-GC) — the end-to-end experiment: a contended
//     multithreaded workload committing through a journal directory
//     (Engine::Open) in each DurabilityMode. kSync pays a per-record
//     fdatasync inside the object critical section; kGroup sequences under
//     the lock and batches the sync on the flusher (early lock release);
//     kRelaxed acknowledges before durability. Reports commit throughput,
//     ack latency, batch shape, and sync counts — plus a crash sweep
//     asserting that in every mode no acknowledged commit is ever lost.
//
//  5. restart (PERF-RESTART) — checkpoint-aware restart cost. A segmented
//     journal directory is grown 10x in total history with a fuzzy
//     checkpoint covering all but a fixed-size tail: restart time must
//     stay flat (it replays only the tail), while the no-checkpoint
//     baseline grows linearly with history. Also compares single-threaded
//     vs parallel tail replay on a multi-object workload.
//     `--restart-smoke` runs a scaled-down restart check and exits (the
//     fast path scripts/check.sh --fast uses).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include "adt/bank_account.h"
#include "adt/int_set.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/temp_path.h"
#include "sim/crash_harness.h"
#include "sim/driver.h"
#include "txn/checkpoint.h"
#include "txn/du_recovery.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<Journal::CommitRecord> MakeRecords(size_t n) {
  auto ba = MakeBankAccount();
  Random rng(99);
  std::vector<Journal::CommitRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    OpSeq ops;
    const int count = 1 + static_cast<int>(rng.Uniform(3));
    for (int j = 0; j < count; ++j) {
      ops.push_back(ba->Deposit(rng.UniformRange(1, 99)));
    }
    records.push_back({static_cast<TxnId>(i + 1), std::move(ops)});
  }
  return records;
}

std::string TempWalPath() { return TempDirRoot() + "/ccr_bench_journal.wal"; }

// Per-record durable appends through JournalWriter. Returns records/s.
double AppendThroughput(const std::vector<Journal::CommitRecord>& records,
                        ByteSink* sink, uint64_t* bytes) {
  JournalWriter writer(sink);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& record : records) {
    CCR_CHECK(writer.Append(EncodeCommitRecord(record)).ok());
    CCR_CHECK(writer.Sync().ok());
  }
  const double seconds = Seconds(start);
  *bytes = writer.bytes_written();
  return seconds > 0 ? static_cast<double>(records.size()) / seconds : 0;
}

// Group commit: frame records individually, sync once per `group`.
double GroupAppendThroughput(const std::vector<Journal::CommitRecord>& records,
                             ByteSink* sink, size_t group) {
  const auto start = std::chrono::steady_clock::now();
  size_t pending = 0;
  for (const auto& record : records) {
    CCR_CHECK(sink->Append(EncodeCommitRecord(record)).ok());
    if (++pending == group) {
      CCR_CHECK(sink->Sync().ok());
      pending = 0;
    }
  }
  if (pending > 0) CCR_CHECK(sink->Sync().ok());
  const double seconds = Seconds(start);
  return seconds > 0 ? static_cast<double>(records.size()) / seconds : 0;
}

void BenchAppend() {
  std::printf(
      "scenario: append (encode + crc32c + frame per commit record;\n"
      "sync per record unless grouped)\n");
  TablePrinter table({"sink", "group", "records", "records/s", "MB/s"});
  const auto records = MakeRecords(20000);
  const auto file_records = MakeRecords(2000);

  for (size_t group : {size_t{1}, size_t{32}}) {
    MemorySink sink;
    uint64_t bytes = 0;
    double rate;
    if (group == 1) {
      rate = AppendThroughput(records, &sink, &bytes);
    } else {
      rate = GroupAppendThroughput(records, &sink, group);
      bytes = sink.image().size();
    }
    const double mbps = rate * static_cast<double>(bytes) /
                        static_cast<double>(records.size()) / 1e6;
    table.AddRow({"memory", StrFormat("%zu", group),
                  StrFormat("%zu", records.size()), StrFormat("%.0f", rate),
                  StrFormat("%.1f", mbps)});
  }
  for (size_t group : {size_t{1}, size_t{32}}) {
    const std::string path = TempWalPath();
    auto sink = FileSink::Open(path);
    CCR_CHECK(sink.ok());
    uint64_t bytes = 0;
    double rate;
    if (group == 1) {
      rate = AppendThroughput(file_records, sink->get(), &bytes);
    } else {
      rate = GroupAppendThroughput(file_records, sink->get(), group);
      auto image = ReadFileImage(path);
      bytes = image.ok() ? image->size() : 0;
    }
    const double mbps = rate * static_cast<double>(bytes) /
                        static_cast<double>(file_records.size()) / 1e6;
    table.AddRow({"file", StrFormat("%zu", group),
                  StrFormat("%zu", file_records.size()),
                  StrFormat("%.0f", rate), StrFormat("%.1f", mbps)});
    std::remove(path.c_str());
  }
  std::printf("%s\n", table.ToString().c_str());
}

void BenchReplay() {
  std::printf(
      "scenario: replay — crash-recovery scan rate vs journal length,\n"
      "and full engine restart (scan + redo through the recovery manager)\n");
  TablePrinter table({"records", "bytes", "scan records/s", "scan MB/s"});
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{50000}}) {
    const auto records = MakeRecords(n);
    std::string image;
    for (const auto& record : records) image += EncodeCommitRecord(record);
    const auto start = std::chrono::steady_clock::now();
    RecoveryReport report;
    auto scanned = ScanJournalImage(image, &report);
    const double seconds = Seconds(start);
    CCR_CHECK(scanned.ok() && report.records_replayed == n);
    table.AddRow(
        {StrFormat("%zu", n), StrFormat("%zu", image.size()),
         StrFormat("%.0f", seconds > 0 ? static_cast<double>(n) / seconds : 0),
         StrFormat("%.1f", seconds > 0
                               ? static_cast<double>(image.size()) / seconds / 1e6
                               : 0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  TablePrinter engine({"method", "records", "restart records/s"});
  const size_t n = 5000;
  const auto records = MakeRecords(n);
  std::string image;
  for (const auto& record : records) image += EncodeCommitRecord(record);
  for (int method = 0; method < 2; ++method) {
    auto ba = MakeBankAccount();
    TxnManager manager;
    std::unique_ptr<RecoveryManager> recovery;
    if (method == 0) {
      recovery = std::make_unique<UipRecovery>(ba);
    } else {
      recovery = std::make_unique<DuRecovery>(ba);
    }
    manager.AddObject("BA", ba,
                      method == 0 ? MakeNrbcConflict(ba) : MakeNfcConflict(ba),
                      std::move(recovery));
    const auto start = std::chrono::steady_clock::now();
    CCR_CHECK(manager.RestartFromImage(image).ok());
    const double seconds = Seconds(start);
    engine.AddRow(
        {method == 0 ? "UIP" : "DU", StrFormat("%zu", n),
         StrFormat("%.0f", seconds > 0 ? static_cast<double>(n) / seconds : 0)});
  }
  std::printf("%s\n", engine.ToString().c_str());
}

void BenchFaultSweep() {
  std::printf(
      "scenario: fault sweep — recovery outcomes under injected faults\n");
  const auto records = MakeRecords(64);
  std::string image;
  std::vector<size_t> boundaries = {0};
  for (const auto& record : records) {
    image += EncodeCommitRecord(record);
    boundaries.push_back(image.size());
  }

  TablePrinter table({"fault", "trials", "recovered", "rejected", "expected"});
  // Boundary crashes: clean prefix, no truncation.
  size_t ok = 0;
  for (size_t n = 0; n < boundaries.size(); ++n) {
    RecoveryReport report;
    auto scanned = ScanJournalImage(
        std::string_view(image).substr(0, boundaries[n]), &report);
    if (scanned.ok() && report.records_replayed == n && !report.corrupt_tail) {
      ++ok;
    }
  }
  table.AddRow({"boundary crash", StrFormat("%zu", boundaries.size()),
                StrFormat("%zu", ok), "0", "all recovered"});

  // Torn writes: cut mid-record at varied depths; truncate to last boundary.
  size_t trials = 0;
  ok = 0;
  Random rng(4);
  for (size_t n = 0; n + 1 < boundaries.size(); ++n) {
    const size_t cut = boundaries[n] + 1 +
                       rng.Uniform(boundaries[n + 1] - boundaries[n] - 1);
    RecoveryReport report;
    auto scanned =
        ScanJournalImage(std::string_view(image).substr(0, cut), &report);
    ++trials;
    if (scanned.ok() && report.records_replayed == n && report.corrupt_tail) {
      ++ok;
    }
  }
  table.AddRow({"torn write", StrFormat("%zu", trials), StrFormat("%zu", ok),
                "0", "all recovered"});

  // Tail byte flips: truncate the tail record, keep the prefix.
  trials = ok = 0;
  for (size_t off = boundaries[boundaries.size() - 2]; off < image.size();
       off += 5) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x10);
    RecoveryReport report;
    auto scanned = ScanJournalImage(corrupted, &report);
    ++trials;
    if (scanned.ok() && report.records_replayed == records.size() - 1) ++ok;
  }
  table.AddRow({"tail byte flip", StrFormat("%zu", trials),
                StrFormat("%zu", ok), "0", "all recovered"});

  // Mid-journal byte flips: a damaged durable prefix must be rejected.
  trials = 0;
  size_t rejected = 0;
  for (size_t off = 0; off < boundaries[boundaries.size() - 2]; off += 97) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x10);
    auto scanned = ScanJournalImage(corrupted, nullptr);
    ++trials;
    if (!scanned.ok()) ++rejected;
  }
  table.AddRow({"mid-journal flip", StrFormat("%zu", trials), "0",
                StrFormat("%zu", rejected), "all rejected"});
  std::printf("%s\n", table.ToString().c_str());
}

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

// PERF-GC: end-to-end group commit. One contended bank account, 32 worker
// threads, every commit durable through a journal directory. (The ideal
// kGroup speedup is one batch of W committers per sync vs W serialized
// syncs, so it scales with the worker count.)
void BenchGroupCommit() {
  std::printf(
      "scenario: group commit (PERF-GC) — 32 workers committing through a\n"
      "journal directory; kSync pays fdatasync per record inside the\n"
      "object critical section, kGroup batches it behind early lock\n"
      "release, kRelaxed acks before durability\n");
  TablePrinter table({"mode", "txn/s", "ack p50", "ack p99", "batches",
                      "recs/batch", "syncs"});
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup,
        DurabilityMode::kRelaxed}) {
    auto ba = MakeBankAccount();
    const TempDir dir("ccr_bench_gc_");
    EngineOptions engine_options;
    engine_options.group_commit.mode = mode;
    const std::unique_ptr<Engine> engine = bench::OpenEngine(
        dir.path(), std::move(engine_options), [ba](TxnManager* manager) {
          manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                             std::make_unique<UipRecovery>(ba));
        });

    DriverOptions options;
    options.threads = 32;
    options.txns_per_thread = 150;
    const DriverResult result = RunWorkload(
        engine->manager(),
        [ba](TxnManager* m, Transaction* txn, Random* rng) -> Status {
          const StatusOr<Value> r =
              m->Execute(txn, ba->DepositInv(rng->UniformRange(1, 99)));
          return r.ok() ? Status::OK() : r.status();
        },
        options);
    engine->pipeline()->Drain();

    table.AddRow({ModeName(mode), StrFormat("%.0f", result.throughput),
                  StrFormat("%lluus",
                            static_cast<unsigned long long>(result.ack_p50_us)),
                  StrFormat("%lluus",
                            static_cast<unsigned long long>(result.ack_p99_us)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(result.gc_batches)),
                  StrFormat("%.1f", result.gc_records_per_batch),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(result.gc_syncs))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

// The ack-durability matrix: crash sweep x every durability mode, counting
// acknowledged-but-lost commits. Must be zero everywhere — in kRelaxed the
// durability promise is the watermark, which is what the driver audits.
void BenchGroupCommitFaultSweep() {
  std::printf(
      "scenario: ack-durability sweep — the live engine dies at crash\n"
      "fractions x durability modes; an acknowledged commit must never be\n"
      "lost\n");
  const SystemFactory factory = [](TxnManager* manager) {
    auto ba = MakeBankAccount();
    manager->AddObject("BA", ba, MakeNrbcConflict(ba),
                       std::make_unique<UipRecovery>(ba));
  };
  const auto ba = MakeBankAccount();
  const TxnBody body = [ba](TxnManager* manager, Transaction* txn,
                            Random* rng) -> Status {
    const StatusOr<Value> r =
        manager->Execute(txn, ba->DepositInv(rng->UniformRange(1, 9)));
    return r.ok() ? Status::OK() : r.status();
  };

  TablePrinter table(
      {"mode", "crashes", "acked (min..max)", "acked lost", "audits"});
  for (const DurabilityMode mode :
       {DurabilityMode::kSync, DurabilityMode::kGroup,
        DurabilityMode::kRelaxed}) {
    size_t crashes = 0;
    size_t lost = 0;
    size_t audits_ok = 0;
    size_t min_acked = SIZE_MAX;
    size_t max_acked = 0;
    for (const uint64_t seed : {7u, 19u, 31u}) {
      for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        CrashScenarioOptions options;
        options.driver.threads = 4;
        options.driver.txns_per_thread = 40;
        options.driver.seed = seed;
        options.fault = CrashFault::AtFraction(fraction);
        options.group_commit.mode = mode;
        const CrashScenarioResult result =
            RunCrashScenario(factory, body, options);
        ++crashes;
        lost += result.acked_lost;
        if (result.ok()) ++audits_ok;
        min_acked = std::min(min_acked, result.acked);
        max_acked = std::max(max_acked, result.acked);
      }
    }
    table.AddRow({ModeName(mode), StrFormat("%zu", crashes),
                  StrFormat("%zu..%zu", min_acked, max_acked),
                  StrFormat("%zu", lost),
                  StrFormat("%zu/%zu ok", audits_ok, crashes)});
    CCR_CHECK_MSG(lost == 0, "acknowledged commits lost in mode %s",
                  ModeName(mode));
    CCR_CHECK_MSG(audits_ok == crashes, "crash audits failed in mode %s",
                  ModeName(mode));
  }
  std::printf("%s\n", table.ToString().c_str());
}

// ---------------------------------------------------------------------------
// PERF-RESTART: checkpoint-aware restart vs total journal history
// ---------------------------------------------------------------------------

constexpr int kRestartObjects = 8;

std::string RestartObjectId(int i) { return StrFormat("BA%d", i); }

void RestartFactory(TxnManager* manager) {
  for (int i = 0; i < kRestartObjects; ++i) {
    auto ba = MakeBankAccount(RestartObjectId(i));
    manager->AddObject(RestartObjectId(i), ba, MakeNrbcConflict(ba),
                       std::make_unique<UipRecovery>(ba));
  }
}

// Records spread across the kRestartObjects accounts (1-2 deposits each).
std::vector<Journal::CommitRecord> MakeMultiObjectRecords(size_t n) {
  std::vector<std::shared_ptr<BankAccount>> accounts;
  for (int i = 0; i < kRestartObjects; ++i) {
    accounts.push_back(MakeBankAccount(RestartObjectId(i)));
  }
  Random rng(7);
  std::vector<Journal::CommitRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    OpSeq ops;
    const int count = 1 + static_cast<int>(rng.Uniform(2));
    for (int j = 0; j < count; ++j) {
      const auto& ba = accounts[rng.Uniform(kRestartObjects)];
      ops.push_back(ba->Deposit(rng.UniformRange(1, 99)));
    }
    records.push_back({static_cast<TxnId>(i + 1), std::move(ops)});
  }
  return records;
}

// Replays one ground-truth record into the replica (grouped per object) so
// its fuzzy checkpoint carries exact per-object LSNs.
void MirrorRecord(TxnManager* replica, const Journal::CommitRecord& record,
                  Lsn lsn) {
  std::vector<std::pair<AtomicObject*, OpSeq>> grouped;
  for (const Operation& op : record.ops) {
    AtomicObject* obj = replica->object(op.object());
    CCR_CHECK(obj != nullptr);
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
    CCR_CHECK(obj->ReplayCommitted(record.txn, ops, lsn).ok());
  }
  replica->AdvanceTxnWatermark(record.txn);
}

// Writes `records` into a fresh segmented journal under `dir`; when
// checkpoint_at > 0, a fuzzy checkpoint is taken at that LSN and every
// segment it covers is truncated — the directory then holds checkpoint +
// tail, which is what a long-running system's disk looks like.
void BuildRestartDir(const std::string& dir,
                     const std::vector<Journal::CommitRecord>& records,
                     size_t checkpoint_at,
                     const std::function<void(TxnManager*)>& factory) {
  SegmentedSinkOptions options;
  options.max_segment_bytes = 1 << 16;
  auto sink = SegmentedFileSink::Open(dir, 1, options);
  CCR_CHECK(sink.ok());
  TxnManager replica;
  factory(&replica);
  for (size_t i = 0; i < records.size(); ++i) {
    const Lsn lsn = static_cast<Lsn>(i) + 1;
    CCR_CHECK((*sink)->Append(EncodeCommitRecord(records[i])).ok());
    MirrorRecord(&replica, records[i], lsn);
    if ((i + 1) % 512 == 0) CCR_CHECK((*sink)->Sync().ok());
    if (checkpoint_at > 0 && i + 1 == checkpoint_at) {
      CCR_CHECK((*sink)->Sync().ok());
      Checkpointer checkpointer(dir);
      auto written = checkpointer.Write(&replica, lsn);
      CCR_CHECK(written.ok());
      CCR_CHECK((*sink)->TruncateBelow(*written).ok());
    }
  }
  CCR_CHECK((*sink)->Sync().ok());
}

// Restarts a fresh system from `dir`, audits the recovered balances
// against the ground-truth records, and returns elapsed seconds.
double TimedRestart(const std::string& dir, int threads, size_t high_lsn,
                    const std::function<void(TxnManager*)>& factory,
                    const std::function<void(TxnManager&)>& audit,
                    RestartSummary* summary) {
  // Best of three: the first restart after building the directory pays
  // cold page-cache costs that have nothing to do with replay.
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    TxnManager restarted;
    factory(&restarted);
    const auto start = std::chrono::steady_clock::now();
    auto result = restarted.RestartFromDir(dir, RestartOptions{threads});
    const double seconds = Seconds(start);
    CCR_CHECK(result.ok());
    CCR_CHECK(result->high_lsn == high_lsn);
    audit(restarted);
    if (run == 0 || seconds < best) {
      best = seconds;
      *summary = *result;
    }
  }
  return best;
}

// Ground-truth audit for the bank-account workload: every balance equals
// the sum of the deposits the records carry.
std::function<void(TxnManager&)> BalanceAudit(
    const std::vector<Journal::CommitRecord>& records) {
  auto expected = std::make_shared<std::map<std::string, int64_t>>();
  for (const auto& record : records) {
    for (const Operation& op : record.ops) {
      (*expected)[op.object()] += op.inv().args()[0].AsInt();
    }
  }
  return [expected](TxnManager& restarted) {
    for (AtomicObject* obj : restarted.objects()) {
      const int64_t balance =
          TypedSpecAutomaton<Int64State>::Unwrap(*obj->CommittedState()).v;
      CCR_CHECK(balance == (*expected)[obj->id()]);
    }
  };
}

// The wide-tail workload uses IntSet objects: every insert's spec-level
// replay copies the whole set, so per-record replay cost grows with state
// size and the tail replay — not the serial segment scan — dominates
// restart. That is the regime where the per-object thread fan-out matters.
std::string RestartSetId(int i) { return StrFormat("SET%d", i); }

void RestartSetFactory(TxnManager* manager) {
  for (int i = 0; i < kRestartObjects; ++i) {
    auto set = MakeIntSet(RestartSetId(i));
    manager->AddObject(RestartSetId(i), set, MakeNrbcConflict(set),
                       std::make_unique<UipRecovery>(set));
  }
}

// One distinct-element insert per record, spread across the sets.
std::vector<Journal::CommitRecord> MakeSetRecords(size_t n) {
  std::vector<std::shared_ptr<IntSet>> sets;
  for (int i = 0; i < kRestartObjects; ++i) {
    sets.push_back(MakeIntSet(RestartSetId(i)));
  }
  Random rng(11);
  std::vector<Journal::CommitRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& set = sets[rng.Uniform(kRestartObjects)];
    records.push_back({static_cast<TxnId>(i + 1),
                       OpSeq{set->Insert(static_cast<int64_t>(i))}});
  }
  return records;
}

std::function<void(TxnManager&)> SetAudit(
    const std::vector<Journal::CommitRecord>& records) {
  auto expected =
      std::make_shared<std::map<std::string, std::set<int64_t>>>();
  for (const auto& record : records) {
    for (const Operation& op : record.ops) {
      (*expected)[op.object()].insert(op.inv().args()[0].AsInt());
    }
  }
  return [expected](TxnManager& restarted) {
    for (AtomicObject* obj : restarted.objects()) {
      const std::unique_ptr<SpecState> state = obj->CommittedState();
      CCR_CHECK(TypedSpecAutomaton<SetState>::Unwrap(*state).elems ==
                (*expected)[obj->id()]);
    }
  };
}

void BenchRestart(bool smoke) {
  std::printf(
      "scenario: restart (PERF-RESTART) — checkpoint + tail replay vs full\n"
      "history; restart cost must track the tail, not total history\n"
      "(hardware threads: %u — the 4-thread rows can only beat 1-thread\n"
      "when more than one core is available; on a single core they tie)\n",
      std::thread::hardware_concurrency());
  const size_t base = smoke ? 500 : 20000;
  const size_t tail = smoke ? 100 : 2000;
  TablePrinter table({"history", "checkpoint", "tail records", "threads",
                      "restart ms", "tail records/s"});
  for (const size_t mult : {size_t{1}, size_t{10}}) {
    const size_t n = base * mult;
    const auto records = MakeMultiObjectRecords(n);
    const auto audit = BalanceAudit(records);
    {
      const TempDir dir("ccr_bench_restart_");
      BuildRestartDir(dir.path(), records, n - tail, RestartFactory);
      for (const int threads : {1, 4}) {
        RestartSummary summary;
        const double seconds =
            TimedRestart(dir.path(), threads, records.size(), RestartFactory,
                         audit, &summary);
        CCR_CHECK(summary.checkpoint_anchor == n - tail);
        table.AddRow(
            {StrFormat("%zu", n), "yes", StrFormat("%zu", summary.tail_records),
             StrFormat("%d", threads), StrFormat("%.2f", seconds * 1e3),
             StrFormat("%.0f",
                       seconds > 0
                           ? static_cast<double>(summary.tail_records) / seconds
                           : 0)});
      }
    }
    {
      const TempDir dir("ccr_bench_restart_");
      BuildRestartDir(dir.path(), records, 0, RestartFactory);
      RestartSummary summary;
      const double seconds = TimedRestart(dir.path(), 1, records.size(),
                                          RestartFactory, audit, &summary);
      CCR_CHECK(summary.checkpoint_anchor == 0);
      table.AddRow({StrFormat("%zu", n), "no",
                    StrFormat("%zu", summary.tail_records), "1",
                    StrFormat("%.2f", seconds * 1e3),
                    StrFormat("%.0f",
                              seconds > 0
                                  ? static_cast<double>(summary.tail_records) /
                                        seconds
                                  : 0)});
    }
  }
  // Wide tail over IntSet objects: replay cost per record grows with set
  // size, so the per-object parallel replay — not the serial segment scan
  // — dominates, and the thread fan-out shows through end to end.
  {
    const size_t n = smoke ? 2000 : 16000;
    const auto records = MakeSetRecords(n);
    const auto audit = SetAudit(records);
    const TempDir dir("ccr_bench_restart_");
    BuildRestartDir(dir.path(), records, n / 2, RestartSetFactory);
    for (const int threads : {1, 4}) {
      RestartSummary summary;
      const double seconds =
          TimedRestart(dir.path(), threads, records.size(), RestartSetFactory,
                       audit, &summary);
      table.AddRow({StrFormat("%zu (set)", n), "yes",
                    StrFormat("%zu", summary.tail_records),
                    StrFormat("%d", threads),
                    StrFormat("%.2f", seconds * 1e3),
                    StrFormat("%.0f",
                              seconds > 0
                                  ? static_cast<double>(summary.tail_records) /
                                        seconds
                                  : 0)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace ccr

int main(int argc, char** argv) {
  using namespace ccr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--restart-smoke") == 0) {
      std::printf("PERF-RESTART smoke: checkpoint + tail restart audit\n\n");
      BenchRestart(/*smoke=*/true);
      std::printf("restart smoke OK\n");
      return 0;
    }
  }
  std::printf("PERF-JOURNAL: durable redo journal — append, replay, faults\n\n");
  BenchAppend();
  BenchReplay();
  BenchFaultSweep();
  BenchGroupCommit();
  BenchGroupCommitFaultSweep();
  BenchRestart(/*smoke=*/false);
  std::printf(
      "Shape to check: memory-sink appends well above file-sink appends\n"
      "(fdatasync dominates); group commit recovering most of the gap at\n"
      "G=32; scan rate roughly flat in journal length (linear walk); the\n"
      "fault matrices all-recovered / all-rejected exactly as labeled;\n"
      "kGroup engine throughput an order of magnitude above kSync with ack\n"
      "p50 within ~2x the linger, and zero acknowledged commits lost in\n"
      "any durability mode; checkpointed restart time flat (within ~20%%)\n"
      "across the 10x history growth while the no-checkpoint baseline\n"
      "grows ~10x; on the replay-bound set rows, 4-thread tail replay\n"
      "beats single-threaded given >1 hardware thread (ties on 1 core).\n");
  return 0;
}
