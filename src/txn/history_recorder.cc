// Copyright 2026 The ccr Authors.

#include "txn/history_recorder.h"

#include <algorithm>

namespace ccr {

HistoryRecorder::HistoryRecorder() : default_shard_(RegisterShard()) {}

HistoryRecorder::Shard* HistoryRecorder::RegisterShard() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  shards_.push_back(std::unique_ptr<Shard>(new Shard(this)));
  // Pre-size so the first few hundred appends never reallocate while the
  // shard lock is held.
  shards_.back()->events_.reserve(256);
  return shards_.back().get();
}

void HistoryRecorder::Shard::Record(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  // The ticket is drawn under the shard lock, so each shard's buffer is
  // already in ticket order, and a ticket is never published without its
  // event: once Snapshot holds every shard lock, tickets 0..N-1 are all
  // present in the buffers (dense, no stragglers).
  const uint64_t ticket =
      owner_->next_ticket_.fetch_add(1, std::memory_order_relaxed);
  events_.push_back(TicketedEvent{ticket, std::move(event)});
}

void HistoryRecorder::Record(Event event) {
  default_shard_->Record(std::move(event));
}

History HistoryRecorder::Snapshot() const {
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  // Copy out all shard buffers under the registry lock plus all shard
  // locks (a consistent cut: every drawn ticket is present, and no new
  // tickets can be drawn until the locks drop), then merge and validate
  // outside the locks.
  std::vector<Shard::TicketedEvent> merged;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_) locks.emplace_back(shard->mu_);
    merged.reserve(next_ticket_.load(std::memory_order_relaxed));
    for (const auto& shard : shards_) {
      merged.insert(merged.end(), shard->events_.begin(),
                    shard->events_.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Shard::TicketedEvent& a, const Shard::TicketedEvent& b) {
              return a.ticket < b.ticket;
            });

  // Validation happens once here, over the merged sequence, instead of per
  // append under a hot lock. An ill-formed merge is an engine bug.
  std::vector<Event> events;
  events.reserve(merged.size());
  for (Shard::TicketedEvent& te : merged) events.push_back(std::move(te.event));
  StatusOr<History> history = History::FromEvents(std::move(events));
  CCR_CHECK_MSG(history.ok(), "engine produced ill-formed history: %s",
                history.status().ToString().c_str());
  return std::move(history).value();
}

size_t HistoryRecorder::size() const {
  return next_ticket_.load(std::memory_order_relaxed);
}

RecorderStats HistoryRecorder::stats() const {
  RecorderStats stats;
  stats.events = size();
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu_);
  stats.shards = shards_.size();
  return stats;
}

}  // namespace ccr
