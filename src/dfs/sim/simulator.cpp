#include "dfs/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dfs::sim {

void Simulator::Ring::push_back(const Event& ev) {
  if (size_ == buf_.size()) {
    std::vector<Event> grown(std::max<std::size_t>(16, buf_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = buf_[(head_ + i) & mask()];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & mask()] = ev;
  ++size_;
}

std::uint32_t Simulator::allocate_slot(Callback cb) {
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(cb);
  slot.next_free = kOccupied;
  ++pending_;
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  assert(slot.next_free == kOccupied);
  slot.fn.reset();
  if (++slot.gen == 0) slot.gen = 1;  // keep EventId::value != 0
  slot.next_free = free_head_;
  free_head_ = index;
  assert(pending_ > 0);
  --pending_;
}

void Simulator::release_timer(std::uint32_t index) {
  Timer& timer = timers_[index];
  assert(timer.next_free == kOccupied);
  timer.fn = nullptr;
  timer.next_free = timer_free_;
  timer_free_ = index;
}

void Simulator::push(Ring& ring, const Event& ev) {
  if (!ring.empty() && ring.back().time > ev.time) {
    heap_.push(ev);
  } else {
    ring.push_back(ev);
  }
}

void Simulator::enqueue(const Event& ev) {
  if (ev.time == now_) {
    push(now_lane_, ev);
  } else {
    heap_.push(ev);
  }
}

EventId Simulator::schedule_in(util::Seconds delay, Callback cb) {
  assert(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(util::Seconds at, Callback cb) {
  assert(at >= now_);
  const std::uint32_t index = allocate_slot(std::move(cb));
  const std::uint32_t gen = slots_[index].gen;
  enqueue(Event{at, next_seq_++, index, gen});
  return make_id(index, gen);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto index = static_cast<std::uint32_t>(id.value >> 32);
  const auto gen = static_cast<std::uint32_t>(id.value);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.gen != gen || slot.next_free != kOccupied) return false;
  // The queue entry stays behind as a stale (slot, gen) pair; run() skips
  // it when it surfaces because the generation no longer matches.
  release_slot(index);
  return true;
}

void Simulator::schedule_periodic(util::Seconds phase, util::Seconds period,
                                  std::function<bool()> cb) {
  assert(phase >= 0.0);
  assert(period > 0.0);
  std::uint32_t lane = 0;
  while (lane < lanes_.size() && lanes_[lane].period != period) ++lane;
  if (lane == lanes_.size()) lanes_.push_back(PeriodLane{period, Ring{}});
  std::uint32_t index;
  if (timer_free_ != kFreeListEnd) {
    index = timer_free_;
    timer_free_ = timers_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(timers_.size());
    timers_.emplace_back();
  }
  timers_[index] = Timer{std::move(cb), lane, kOccupied};
  ++pending_;
  enqueue(Event{now_ + phase, next_seq_++, index, 0});
}

void Simulator::fire_tick(const Event& ev) {
  --pending_;
  now_ = ev.time;
  ++executed_;
  Timer& timer = timers_[ev.slot];
  firing_ = ev.slot;
  const bool again = timer.fn();
  firing_ = kFreeListEnd;
  if (again && !firing_cleared_) {
    // Looked up after the callback: it may have added a lane.
    PeriodLane& lane = lanes_[timer.lane];
    ++pending_;
    push(lane.ring, Event{now_ + lane.period, next_seq_++, ev.slot, 0});
  } else {
    release_timer(ev.slot);
  }
  firing_cleared_ = false;
}

util::Seconds Simulator::run(util::Seconds until) {
  for (;;) {
    // The least (time, seq) among the heap top and the lane fronts; a null
    // `from` means the heap.
    const Event* next = heap_.empty() ? nullptr : &heap_.top();
    Ring* from = nullptr;
    const auto consider = [&next, &from](Ring& ring) {
      if (ring.empty()) return;
      const Event& ev = ring.front();
      if (next == nullptr || ev.time < next->time ||
          (ev.time == next->time && ev.seq < next->seq)) {
        next = &ev;
        from = &ring;
      }
    };
    consider(now_lane_);
    for (PeriodLane& lane : lanes_) consider(lane.ring);
    if (next == nullptr) break;
    const Event ev = *next;
    if (until >= 0.0 && ev.time > until) {
      now_ = until;
      return now_;
    }
    if (from != nullptr) {
      from->pop_front();
    } else {
      heap_.pop();
    }
    if (ev.gen == 0) {
      fire_tick(ev);
      continue;
    }
    Slot& slot = slots_[ev.slot];
    if (slot.gen != ev.gen || slot.next_free != kOccupied) {
      continue;  // cancelled (slot released, possibly recycled since)
    }
    SmallFn fn = std::move(slot.fn);
    release_slot(ev.slot);
    now_ = ev.time;
    ++executed_;
    if (fn) fn();
  }
  return now_;
}

void Simulator::clear() {
  while (!heap_.empty()) heap_.pop();
  now_lane_.clear();
  for (PeriodLane& lane : lanes_) lane.ring.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].next_free == kOccupied) release_slot(i);
  }
  // Every live timer but a firing one has exactly one tick pending. A
  // firing callback must not be destroyed under itself; fire_tick releases
  // it once it returns.
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    if (timers_[i].next_free != kOccupied) continue;
    if (i == firing_) {
      firing_cleared_ = true;
      continue;
    }
    release_timer(i);
    assert(pending_ > 0);
    --pending_;
  }
  assert(pending_ == 0);
}

std::size_t Simulator::lane_capacity() const {
  std::size_t total = now_lane_.capacity();
  for (const PeriodLane& lane : lanes_) total += lane.ring.capacity();
  return total;
}

}  // namespace dfs::sim
