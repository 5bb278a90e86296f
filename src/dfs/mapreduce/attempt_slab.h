#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/fetch_supervisor.h"
#include "dfs/net/network.h"

namespace dfs::mapreduce {

/// A live map attempt (fault layer bookkeeping; maintained even when the
/// layer is off — pure state, no events). Keyed by record index in
/// MasterState::map_attempts; an entry is erased when the attempt finishes,
/// loses its race, fails, or is killed — stale scheduled callbacks look the
/// key up and no-op when it is gone.
struct MapAttempt {
  core::JobId job = -1;
  int map_idx = -1;
  bool backup = false;
  /// Node compute-failed; attempt will be finalized (killed) at detection.
  bool doomed = false;
  std::vector<net::FlowId> flows;  ///< in-flight rack-local/remote fetch
  /// Degraded read in flight under the fetch supervisor; 0 when none.
  /// Teardown must cancel it through the supervisor.
  ReadId read = 0;
};

/// Flat registry of the live map attempts, keyed by record index.
///
/// Record indexes are handed out densely (every launch appends one record to
/// RunResult::map_tasks), so a record -> slot vector replaces the hash map
/// the registry used to be: find/emplace/erase are O(1) array steps with no
/// hashing on the per-event hot path (every input-ready/complete event does
/// a lookup — millions per 10k-slave run). Slots are free-listed; an
/// intrusive doubly-linked list threaded through them in insertion order is
/// automatically ascending-record order (records grow monotonically), so the
/// kill/replan sweeps get their deterministic sorted iteration for free
/// instead of snapshotting and sorting hash-map keys.
class AttemptSlab {
 public:
  std::size_t size() const { return live_; }

  /// Live attempt for `record`, or nullptr.
  MapAttempt* find(int record) {
    const int slot = slot_of(record);
    return slot >= 0 ? &slots_[static_cast<std::size_t>(slot)].attempt
                     : nullptr;
  }
  const MapAttempt* find(int record) const {
    const int slot = slot_of(record);
    return slot >= 0 ? &slots_[static_cast<std::size_t>(slot)].attempt
                     : nullptr;
  }

  /// Live attempt for `record`; must exist.
  MapAttempt& at(int record) {
    MapAttempt* a = find(record);
    assert(a != nullptr && "AttemptSlab::at of a dead record");
    return *a;
  }
  const MapAttempt& at(int record) const {
    const MapAttempt* a = find(record);
    assert(a != nullptr && "AttemptSlab::at of a dead record");
    return *a;
  }

  /// Register the attempt under `record`. Records must arrive in strictly
  /// increasing order (they are RunResult::map_tasks indexes, appended at
  /// launch) — that is what keeps insertion order == ascending record order.
  MapAttempt& emplace(int record, MapAttempt attempt) {
    assert(record >= min_next_record_ &&
           "AttemptSlab records must be handed out in increasing order");
    min_next_record_ = record + 1;
    if (static_cast<std::size_t>(record) >= slot_of_record_.size()) {
      slot_of_record_.resize(static_cast<std::size_t>(record) + 1, -1);
    }
    int slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<int>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.attempt = std::move(attempt);
    s.record = record;
    s.prev = tail_;
    s.next = -1;
    if (tail_ >= 0) {
      slots_[static_cast<std::size_t>(tail_)].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
    slot_of_record_[static_cast<std::size_t>(record)] = slot;
    ++live_;
    return s.attempt;
  }

  /// Drop `record`'s attempt. Returns false when it was not live (erasing
  /// twice is allowed, matching unordered_map::erase(key)).
  bool erase(int record) {
    const int slot = slot_of(record);
    if (slot < 0) return false;
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (s.prev >= 0) {
      slots_[static_cast<std::size_t>(s.prev)].next = s.next;
    } else {
      head_ = s.next;
    }
    if (s.next >= 0) {
      slots_[static_cast<std::size_t>(s.next)].prev = s.prev;
    } else {
      tail_ = s.prev;
    }
    s.record = -1;
    s.attempt = MapAttempt{};  // release flow vectors eagerly
    slot_of_record_[static_cast<std::size_t>(record)] = -1;
    free_.push_back(slot);
    --live_;
    return true;
  }

  /// Live record indexes in ascending order. The sweeps iterate this
  /// snapshot and re-find each record, so a sweep body may erase entries
  /// (including ones not yet visited) without invalidating the walk.
  std::vector<int> records() const {
    std::vector<int> out;
    out.reserve(live_);
    for (int slot = head_; slot >= 0;
         slot = slots_[static_cast<std::size_t>(slot)].next) {
      out.push_back(slots_[static_cast<std::size_t>(slot)].record);
    }
    return out;
  }

 private:
  struct Slot {
    MapAttempt attempt;
    int record = -1;  ///< -1 when the slot is free
    int prev = -1;    ///< insertion-order list, slot indexes
    int next = -1;
  };

  int slot_of(int record) const {
    if (record < 0 ||
        static_cast<std::size_t>(record) >= slot_of_record_.size()) {
      return -1;
    }
    return slot_of_record_[static_cast<std::size_t>(record)];
  }

  std::vector<Slot> slots_;
  std::vector<int> slot_of_record_;  ///< record -> slot, -1 when dead
  std::vector<int> free_;
  int head_ = -1;  ///< insertion order == ascending record order
  int tail_ = -1;
  std::size_t live_ = 0;
  int min_next_record_ = 0;
};

}  // namespace dfs::mapreduce
