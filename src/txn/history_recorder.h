// Copyright 2026 The ccr Authors.
//
// Thread-safe event recorder. The engine appends every invocation,
// response, commit, and abort event here, producing a core::History that
// the offline checkers can audit — the bridge between the runtime engine
// and the paper's formal model.
//
// Events are recorded into a registry of append-only buffers (shards), one
// registered per object by the engine, plus a default shard for
// unregistered appends. Each entry is stamped with a ticket drawn from a
// single global atomic sequence counter while the shard lock is held.
// Because the engine records response/commit/abort events while the
// object's own mutex is held, a per-object shard's lock is essentially
// uncontended — same-object appends are already serialized by the object,
// and cross-object appends go to different shards. Per-object ticket order
// equals effect order (the fetch_add happens inside the object's critical
// section, so mutex ordering implies ticket ordering), and cross-object
// ticket order respects real time (one global counter: if one Record
// returns before another begins, its ticket is smaller). Snapshot() locks
// all shards, merges entries by ticket, and runs well-formedness
// validation *once* over the merged sequence via History::FromEvents
// instead of per append under a hot global lock. Dynamic atomicity is a
// local property (paper Lemma 1): the checkers only rely on per-object
// event order plus the per-transaction order the single-threaded
// transaction contract already provides, both of which the tickets
// preserve.

#ifndef CCR_TXN_HISTORY_RECORDER_H_
#define CCR_TXN_HISTORY_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "core/history.h"

namespace ccr {

struct RecorderStats {
  uint64_t events = 0;     // events recorded so far
  uint64_t snapshots = 0;  // Snapshot() calls served
  uint64_t shards = 0;     // registered append targets
};

class HistoryRecorder {
 public:
  // A registered append target with its own buffer and lock. The engine
  // registers one per object and records through it, so appends taken
  // inside an object's critical section never contend with other objects'.
  //
  // Shard pointers remain valid for the owning recorder's lifetime.
  class Shard {
   public:
    // Appends an event (taken by value: call sites pass temporaries, which
    // move all the way into the buffer). A well-formedness violation is
    // caught (and aborts) at the next Snapshot.
    void Record(Event event);

   private:
    friend class HistoryRecorder;

    struct TicketedEvent {
      uint64_t ticket;
      Event event;
    };

    explicit Shard(HistoryRecorder* owner) : owner_(owner) {}

    HistoryRecorder* const owner_;
    std::mutex mu_;
    std::vector<TicketedEvent> events_;  // ticket order (appended under mu_)
  };

  HistoryRecorder();

  CCR_DISALLOW_COPY_AND_ASSIGN(HistoryRecorder);

  // Registers a new append target (typically one per object). The returned
  // pointer is owned by the recorder and valid for its lifetime.
  Shard* RegisterShard();

  // Appends an event through the default shard. Engine hot paths use a
  // registered Shard instead.
  void Record(Event event);

  // A consistent copy of the history so far: the shard buffers merged in
  // ticket order and validated once. Snapshots taken later extend earlier
  // ones (the earlier merged sequence is a prefix of the later one).
  History Snapshot() const;

  size_t size() const;
  RecorderStats stats() const;

 private:
  std::atomic<uint64_t> next_ticket_{0};
  mutable std::atomic<uint64_t> snapshots_{0};

  // Shard registry. Registration is rare (object creation); the vector is
  // append-only and each Shard is heap-allocated, so handed-out pointers
  // stay stable.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* default_shard_ = nullptr;  // for unregistered Records
};

}  // namespace ccr

#endif  // CCR_TXN_HISTORY_RECORDER_H_
