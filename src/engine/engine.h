// Copyright 2026 The ccr Authors.
//
// Engine: a durable engine over one directory, assembled, restarted and
// resumed in one place. Engine::Open builds the stack in this order:
//
//   1. the TxnManager, then the SystemFactory that fills it;
//   2. the LogStructuredStore, if requested, attached to the manager;
//   3. RestartFromDir: the newest checkpoint plus the journal tail (an
//      empty directory restarts to nothing: a fresh engine);
//   4. only if the restart succeeded, journaling resumes at its
//      high_lsn + 1: the SegmentedFileSink reopened there (which cuts a
//      torn tail), the JournalWriter, the GroupCommitPipeline, the
//      Journal, attached to the manager and to every object;
//   5. a Checkpointer over the same directory and store.
//
// A failed restart returns its status before any journal segment is opened
// or repaired, so the directory stays as the crash left it.

#ifndef CCR_ENGINE_ENGINE_H_
#define CCR_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "store/log_store.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"

namespace ccr {

// Builds the system's objects into a fresh manager: eagerly added objects
// and registered factories. Every open of a directory must build the same
// system, since the restart replays the journal against it.
using SystemFactory = std::function<void(TxnManager* manager)>;

struct EngineOptions {
  TxnManagerOptions manager;
  // first_lsn is the engine's: Open sets it to the restart's high_lsn + 1.
  GroupCommitOptions group_commit;
  SegmentedSinkOptions journal;
  // Engaged: a LogStructuredStore in the same directory.
  std::optional<LogStoreOptions> store;
  // store is the engine's: Open sets it to the engine's store.
  CheckpointerOptions checkpoint;
  RestartOptions restart;
  // Lays a sink over the opened journal sink (fault injection, timing):
  // the writer appends to the sink it returns. The caller owns that sink
  // and keeps it alive until the engine is gone. Unset: the writer appends
  // to the journal sink itself.
  std::function<ByteSink*(ByteSink* journal)> journal_decorator;
};

class Engine {
 public:
  // Opens the engine over the existing directory `dir`, restarting it from
  // what the directory holds. Returns the store's or the restart's error,
  // or the journal sink's error on reopen.
  static StatusOr<std::unique_ptr<Engine>> Open(const std::string& dir,
                                                EngineOptions options,
                                                const SystemFactory& factory);

  // Drains the pipeline (at once when it has fail-stopped), then tears
  // down the manager, checkpointer, journal, pipeline, writer, sink and
  // store, in that order.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TxnManager* manager() const { return manager_.get(); }
  Journal* journal() const { return journal_.get(); }
  GroupCommitPipeline* pipeline() const { return pipeline_.get(); }
  SegmentedFileSink* sink() const { return sink_.get(); }
  LogStructuredStore* store() const { return store_.get(); }  // may be null
  // What the restart inside Open found.
  const RestartSummary& restart() const { return restart_; }

  // A fuzzy checkpoint: reads the anchor from the journal before the walk,
  // publishes the checkpoint, then deletes the journal segments it covers.
  // Returns the anchor written.
  StatusOr<Lsn> Checkpoint();

 private:
  Engine() = default;

  // Declared in reverse teardown order.
  std::unique_ptr<LogStructuredStore> store_;
  std::unique_ptr<SegmentedFileSink> sink_;
  std::unique_ptr<JournalWriter> writer_;
  std::unique_ptr<GroupCommitPipeline> pipeline_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<TxnManager> manager_;
  RestartSummary restart_;
};

}  // namespace ccr

#endif  // CCR_ENGINE_ENGINE_H_
