// Copyright 2026 The ccr Authors.
//
// Shared helpers for the benchmark binaries: the (recovery, conflict)
// configurations the theory sanctions, aggregated "paper layout" relation
// tables, and small formatting utilities.

#ifndef CCR_BENCH_BENCH_UTIL_H_
#define CCR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <map>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "adt/bank_account.h"
#include "adt/counter.h"
#include "common/temp_path.h"
#include "core/commutativity.h"
#include "core/conflict_relation.h"
#include "engine/engine.h"
#include "txn/du_recovery.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace bench {

// The engine configurations compared throughout the PERF-* experiments.
// Each pairs a recovery method with a conflict relation that Theorem 9/10
// proves sufficient for it.
enum class EngineConfig {
  kUipNrbc,     // UIP + NRBC            (this paper's minimal relation)
  kUipSymNrbc,  // UIP + sym-closure     (prior work's symmetric relations)
  kDuNfc,       // DU + NFC              (Theorem 10's minimal relation)
  kRw2pl,       // UIP + read/write      (classical strict 2PL baseline)
};

inline const std::vector<EngineConfig>& AllEngineConfigs() {
  static const std::vector<EngineConfig> kConfigs = {
      EngineConfig::kUipNrbc, EngineConfig::kUipSymNrbc,
      EngineConfig::kDuNfc, EngineConfig::kRw2pl};
  return kConfigs;
}

inline const char* EngineConfigName(EngineConfig c) {
  switch (c) {
    case EngineConfig::kUipNrbc:
      return "UIP+NRBC";
    case EngineConfig::kUipSymNrbc:
      return "UIP+symNRBC";
    case EngineConfig::kDuNfc:
      return "DU+NFC";
    case EngineConfig::kRw2pl:
      return "2PL-RW";
  }
  return "?";
}

inline std::shared_ptr<const ConflictRelation> ConflictFor(
    EngineConfig c, std::shared_ptr<const Adt> adt) {
  switch (c) {
    case EngineConfig::kUipNrbc:
      return MakeNrbcConflict(adt);
    case EngineConfig::kUipSymNrbc:
      return MakeSymmetricNrbcConflict(adt);
    case EngineConfig::kDuNfc:
      return MakeNfcConflict(adt);
    case EngineConfig::kRw2pl:
      return MakeReadWriteConflict(adt);
  }
  return nullptr;
}

inline std::unique_ptr<RecoveryManager> RecoveryFor(
    EngineConfig c, std::shared_ptr<const Adt> adt) {
  switch (c) {
    case EngineConfig::kUipNrbc:
    case EngineConfig::kUipSymNrbc:
    case EngineConfig::kRw2pl:
      return std::make_unique<UipRecovery>(adt);
    case EngineConfig::kDuNfc:
      return std::make_unique<DuRecovery>(adt);
  }
  return nullptr;
}

// The factory name benches register their counter factory under.
inline constexpr const char* kCounterFactoryName = "counter";

// Registers a TxnManager object factory that lazily builds a Counter (with
// the conflict relation and recovery manager `config` sanctions) for any
// object id. Used by the lazy-instantiation benchmark modes.
inline void RegisterCounterFactory(TxnManager* manager, EngineConfig config,
                                   const std::string& name =
                                       kCounterFactoryName) {
  manager->RegisterFactory(name, [config](const ObjectId& id) {
    std::shared_ptr<Counter> ctr = MakeCounter(id);
    ObjectConfig cfg;
    cfg.adt = ctr;
    cfg.conflict = ConflictFor(config, ctr);
    cfg.recovery = RecoveryFor(config, ctr);
    return cfg;
  });
}

// Eagerly registers `n` counters `<prefix>0 .. <prefix>n-1` with `manager`.
// Dedupes the per-bench object-setup boilerplate the benches used to copy.
inline std::vector<std::shared_ptr<Counter>> AddCounterBank(
    TxnManager* manager, EngineConfig config, int n,
    const std::string& prefix = "CTR") {
  std::vector<std::shared_ptr<Counter>> counters;
  counters.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::shared_ptr<Counter> ctr = MakeCounter(prefix + std::to_string(i));
    manager->AddObject(ctr->object_name(), ctr, ConflictFor(config, ctr),
                       RecoveryFor(config, ctr));
    counters.push_back(std::move(ctr));
  }
  return counters;
}

// Engine::Open over `dir`; a bench stops on a failed open.
std::unique_ptr<Engine> OpenEngine(const std::string& dir,
                                   EngineOptions options,
                                   const SystemFactory& factory);

// A fresh durable engine over a bank of `keys` counters (AddCounterBank),
// committing through a `mode` pipeline into a temp journal directory that
// outlives it. History recording is off: a perf run needs no verification
// oracle.
struct CounterBankEngine {
  CounterBankEngine(EngineConfig config, int keys, DurabilityMode mode);

  TempDir dir;
  std::vector<std::shared_ptr<Counter>> counters;
  std::unique_ptr<Engine> engine;
};

// One-line human-readable rendering of the directory's stats counters.
std::string DirectoryStatsLine(const DirectoryStats& stats);

// Stands in for the think time / I/O a real transaction performs between
// operations while holding its locks. Implemented as a sleep, not a spin:
// lock-compatible transactions can overlap their hold times even on a
// single-CPU host, so throughput differences reflect the *admitted
// concurrency* of the conflict relation rather than core count. Without
// any hold time, operations are so cheap that even fully serialized
// execution saturates and the conflict structure is invisible.
inline void HoldLockWork(std::chrono::microseconds duration) {
  std::this_thread::sleep_for(duration);
}

// Aggregates a per-operation relation into the paper's symbolic layout: one
// row/column per operation *kind* (name plus distinguished result), with a
// kind-pair marked non-commuting iff SOME argument instantiation fails.
struct AggregatedTable {
  std::vector<std::string> kinds;
  // non_commuting[i][j]: some instantiation of (kinds[i], kinds[j]) fails.
  std::vector<std::vector<bool>> non_commuting;

  std::string ToString(const std::string& marker = "x") const;
};

// The symbolic kind of an operation: "name" or "name/result" when several
// results occur for the same name in the universe.
std::string OperationKind(const Operation& op,
                          const std::vector<Operation>& universe);

template <typename Related>
AggregatedTable Aggregate(const std::vector<Operation>& universe,
                          Related related) {
  AggregatedTable table;
  std::map<std::string, size_t> index;
  for (const Operation& op : universe) {
    const std::string kind = OperationKind(op, universe);
    if (index.emplace(kind, table.kinds.size()).second) {
      table.kinds.push_back(kind);
    }
  }
  const size_t n = table.kinds.size();
  table.non_commuting.assign(n, std::vector<bool>(n, false));
  for (const Operation& p : universe) {
    for (const Operation& q : universe) {
      if (!related(p, q)) {
        table.non_commuting[index.at(OperationKind(p, universe))]
                           [index.at(OperationKind(q, universe))] = true;
      }
    }
  }
  return table;
}

}  // namespace bench
}  // namespace ccr

#endif  // CCR_BENCH_BENCH_UTIL_H_
