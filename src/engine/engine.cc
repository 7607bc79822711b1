// Copyright 2026 The ccr Authors.

#include "engine/engine.h"

namespace ccr {

StatusOr<std::unique_ptr<Engine>> Engine::Open(const std::string& dir,
                                               EngineOptions options,
                                               const SystemFactory& factory) {
  std::unique_ptr<Engine> engine(new Engine());
  engine->manager_ = std::make_unique<TxnManager>(options.manager);
  TxnManager* manager = engine->manager_.get();
  factory(manager);
  if (options.store.has_value()) {
    StatusOr<std::unique_ptr<LogStructuredStore>> store =
        LogStructuredStore::Open(dir, *options.store);
    if (!store.ok()) return store.status();
    engine->store_ = std::move(*store);
    manager->set_object_store(engine->store_.get());
  }
  StatusOr<RestartSummary> restart =
      manager->RestartFromDir(dir, options.restart);
  if (!restart.ok()) return restart.status();
  engine->restart_ = std::move(*restart);

  // The resume rule: the journal's LSN space continues after the restart's
  // high LSN, so no new record reuses an LSN a checkpoint or a surviving
  // segment already holds.
  const Lsn first_lsn = engine->restart_.high_lsn + 1;
  StatusOr<std::unique_ptr<SegmentedFileSink>> sink =
      SegmentedFileSink::Open(dir, first_lsn, options.journal);
  if (!sink.ok()) return sink.status();
  engine->sink_ = std::move(*sink);
  ByteSink* bytes = engine->sink_.get();
  if (options.journal_decorator) bytes = options.journal_decorator(bytes);
  engine->writer_ = std::make_unique<JournalWriter>(bytes);
  options.group_commit.first_lsn = first_lsn;
  engine->pipeline_ = std::make_unique<GroupCommitPipeline>(
      engine->writer_.get(), options.group_commit);
  engine->journal_ = std::make_unique<Journal>();
  Journal* journal = engine->journal_.get();
  journal->set_pipeline(engine->pipeline_.get());
  manager->set_commit_pipeline(engine->pipeline_.get());
  manager->set_lifecycle_journal(journal);
  for (AtomicObject* obj : manager->objects()) {
    obj->recovery().set_journal(journal);
  }

  options.checkpoint.store = engine->store_.get();
  engine->checkpointer_ =
      std::make_unique<Checkpointer>(dir, std::move(options.checkpoint));
  return engine;
}

Engine::~Engine() {
  if (pipeline_ != nullptr) pipeline_->Drain();
}

StatusOr<Lsn> Engine::Checkpoint() {
  const StatusOr<Lsn> written =
      checkpointer_->Write(manager_.get(), journal_->high_lsn());
  if (!written.ok()) return written.status();
  CCR_RETURN_IF_ERROR(sink_->TruncateBelow(*written));
  return *written;
}

}  // namespace ccr
