// Copyright 2026 The ccr Authors.
//
// CODEC: the durable text codecs restart pays for, per unit and free of
// core count — ns per journal record for DecodeEntryPayload /
// EncodeEntryPayload and for EncodeEntryRecord, the framed record every
// append encodes once (1-, 2- and 8-op commit records and a create record),
// ns per object for DecodeCheckpointPayload on a 16,384-object image, and
// FrameBlob + CRC32C per KiB. One iteration is one record (the Time column
// is ns/record) except for the checkpoint image (see per_object) and the
// frame (see per_KiB). Inputs are built at run time from a seeded Random
// and cycled through a pool, so nothing folds to a constant. Uses
// google-benchmark:
//
//   ./build/bench/bench_codec [--benchmark_min_time=0.01]

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "adt/bank_account.h"
#include "common/random.h"
#include "txn/checkpoint.h"
#include "txn/journal_format.h"

namespace ccr {
namespace {

constexpr size_t kPool = 256;  // distinct inputs cycled per benchmark

// A commit record of `ops` BankAccount operations over 1,024 accounts —
// the shape of a bank_direct tail record (ops = 1) or of a batch.
Journal::Entry CommitEntry(Random& rng, size_t ops) {
  OpSeq seq;
  for (size_t i = 0; i < ops; ++i) {
    const auto ba = MakeBankAccount("acct-" + std::to_string(rng.Uniform(1024)));
    const int64_t amount = rng.UniformRange(1, 100);
    switch (rng.Uniform(3)) {
      case 0:
        seq.emplace_back(ba->DepositInv(amount), Value("ok"));
        break;
      case 1:
        seq.emplace_back(ba->WithdrawInv(amount),
                         Value(rng.Bernoulli(0.5) ? "ok" : "no"));
        break;
      default:
        seq.emplace_back(ba->BalanceInv(),
                         Value(rng.UniformRange(0, 1000000)));
        break;
    }
  }
  return Journal::Entry::Commit(1 + rng.Uniform(1u << 30), std::move(seq));
}

Journal::Entry CreateEntry(Random& rng) {
  LifecycleRecord record;
  record.kind = LifecycleRecord::Kind::kCreate;
  record.object = "k" + std::to_string(rng.Uniform(100000));
  record.factory = "counter";
  return Journal::Entry::Lifecycle(std::move(record));
}

// The pool of entries one benchmark cycles through: range(0) ops per
// commit record, or a create record when range(0) is 0.
std::vector<Journal::Entry> EntryPool(const benchmark::State& state) {
  Random rng(0xc0dec + static_cast<uint64_t>(state.range(0)));
  std::vector<Journal::Entry> pool;
  for (size_t i = 0; i < kPool; ++i) {
    pool.push_back(state.range(0) == 0
                       ? CreateEntry(rng)
                       : CommitEntry(rng, static_cast<size_t>(state.range(0))));
  }
  return pool;
}

void EntryArgs(benchmark::internal::Benchmark* b) {
  b->ArgName("ops")->Arg(1)->Arg(2)->Arg(8)->Arg(0);  // 0: create record
}

void BM_EncodeEntryPayload(benchmark::State& state) {
  const std::vector<Journal::Entry> pool = EntryPool(state);
  size_t i = 0;
  for (auto _ : state) {
    std::string payload = EncodeEntryPayload(pool[i++ % kPool]);
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeEntryPayload)->Apply(EntryArgs);

// The whole frame an append encodes: payload, length and CRC32C.
void BM_EncodeEntryRecord(benchmark::State& state) {
  const std::vector<Journal::Entry> pool = EntryPool(state);
  size_t i = 0;
  for (auto _ : state) {
    std::string frame = EncodeEntryRecord(pool[i++ % kPool]);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeEntryRecord)->Apply(EntryArgs);

void BM_DecodeEntryPayload(benchmark::State& state) {
  std::vector<std::string> payloads;
  for (const Journal::Entry& entry : EntryPool(state)) {
    payloads.push_back(EncodeEntryPayload(entry));
  }
  size_t i = 0;
  for (auto _ : state) {
    StatusOr<Journal::Entry> entry = DecodeEntryPayload(payloads[i++ % kPool]);
    if (!entry.ok()) {
      state.SkipWithError(entry.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(entry->commit.ops.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeEntryPayload)->Apply(EntryArgs);

// A checkpoint image of range(0) Counter objects, half of them dynamic.
void BM_DecodeCheckpointPayload(benchmark::State& state) {
  const size_t objects = static_cast<size_t>(state.range(0));
  Random rng(0xc4e);
  CheckpointImage image;
  image.anchor = 1 + rng.Uniform(1u << 20);
  image.max_txn = image.anchor + rng.Uniform(1000);
  for (size_t i = 0; i < objects; ++i) {
    CheckpointImage::ObjectEntry entry;
    entry.id = "k" + std::to_string(i);
    if (rng.Bernoulli(0.5)) entry.factory = "counter";
    entry.lsn = rng.Uniform(image.anchor + 1);
    entry.encoded = "i " + std::to_string(rng.UniformRange(-1000, 1000000));
    image.objects.push_back(std::move(entry));
  }
  const std::string payload = EncodeCheckpointPayload(image);
  for (auto _ : state) {
    StatusOr<CheckpointImage> decoded = DecodeCheckpointPayload(payload);
    if (!decoded.ok() || decoded->objects.size() != objects) {
      state.SkipWithError("checkpoint image did not round-trip");
      break;
    }
    benchmark::DoNotOptimize(decoded->objects.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(objects));
  state.counters["per_object"] = benchmark::Counter(
      static_cast<double>(objects),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DecodeCheckpointPayload)->ArgName("objects")->Arg(16384);

// FrameBlob (length prefix + CRC32C + copy) over range(0) KiB payloads.
void BM_FrameBlobCrc32c(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0)) * 1024;
  Random rng(0xf4a);
  std::vector<std::string> payloads(8);
  for (std::string& payload : payloads) {
    payload.resize(bytes);
    for (char& c : payload) c = static_cast<char>(rng.Next());
  }
  size_t i = 0;
  for (auto _ : state) {
    std::string framed = FrameBlob(payloads[i++ % payloads.size()]);
    benchmark::DoNotOptimize(framed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["per_KiB"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_FrameBlobCrc32c)->ArgName("KiB")->Arg(1)->Arg(64);

}  // namespace
}  // namespace ccr

BENCHMARK_MAIN();
