// Copyright 2026 The ccr Authors.

#include "bench_util.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace ccr {
namespace bench {

std::string AggregatedTable::ToString(const std::string& marker) const {
  std::vector<std::string> header{""};
  for (const std::string& kind : kinds) header.push_back(kind);
  TablePrinter printer(std::move(header));
  for (size_t i = 0; i < kinds.size(); ++i) {
    std::vector<std::string> row{kinds[i]};
    for (size_t j = 0; j < kinds.size(); ++j) {
      row.push_back(non_commuting[i][j] ? marker : ".");
    }
    printer.AddRow(std::move(row));
  }
  return printer.ToString();
}

std::unique_ptr<Engine> OpenEngine(const std::string& dir,
                                   EngineOptions options,
                                   const SystemFactory& factory) {
  StatusOr<std::unique_ptr<Engine>> engine =
      Engine::Open(dir, std::move(options), factory);
  CCR_CHECK_MSG(engine.ok(), "open %s: %s", dir.c_str(),
                engine.status().ToString().c_str());
  return std::move(*engine);
}

CounterBankEngine::CounterBankEngine(EngineConfig config, int keys,
                                     DurabilityMode mode)
    : dir("ccr_bench_") {
  EngineOptions options;
  options.manager.record_history = false;
  options.group_commit.mode = mode;
  engine = OpenEngine(dir.path(), std::move(options),
                      [&](TxnManager* manager) {
                        counters = AddCounterBank(manager, config, keys);
                      });
}

std::string DirectoryStatsLine(const DirectoryStats& stats) {
  return StrFormat(
      "directory: %zu stripes, %zu live, %zu retired, %zu creates, "
      "%zu drops, max stripe depth %zu",
      stats.stripes, stats.live_objects, stats.retired_objects,
      static_cast<size_t>(stats.creates), static_cast<size_t>(stats.drops),
      stats.max_stripe_depth);
}

std::string OperationKind(const Operation& op,
                          const std::vector<Operation>& universe) {
  // Results distinguish kinds only when the same invocation name appears
  // with multiple non-numeric results in the universe (withdraw ok/no,
  // member true/false). Numeric results (balance, size, ...) are argument
  // positions, not kinds.
  bool multi_result = false;
  for (const Operation& other : universe) {
    if (other.name() == op.name() && other.result() != op.result() &&
        !other.result().is_int()) {
      multi_result = true;
      break;
    }
  }
  if (multi_result && !op.result().is_int()) {
    return op.name() + "/" + op.result().ToString();
  }
  return op.name();
}

}  // namespace bench
}  // namespace ccr
