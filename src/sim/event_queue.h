// Discrete-event scheduling core.
//
// The simulator is time-stepped between *kernel events* (scan-daemon ticks, reclaim wakeups,
// DCSC sampling, promotion-queue drains): application processes execute access batches up to
// the next event horizon, then the due events fire. This file provides the event queue and
// the simulated clock that everything shares.
//
// The event core is allocation-free in steady state: callbacks are stored in InlineFunction
// small-buffer wrappers (no per-callback heap block for captures up to 48 bytes) inside a
// generational slot map (erased slots are recycled through a free list). Cancel() and
// callback lookup are O(1) by slot index — they do not scan pending events, so cancel cost
// stays flat as the pending count grows (bench/micro_overhead pins this).

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/time.h"

namespace chronotier {

// Callback invoked at its scheduled simulated time. Move-only small-buffer callable:
// captures up to kInlineFunctionBytes are stored inline (scheduling never heap-allocates).
using EventFn = InlineFunction<void(SimTime now)>;

// Opaque handle used to cancel a scheduled event: (slot generation << 32 | slot index).
// Generations start at 1, so no live handle ever equals kInvalidEventId, and a handle to a
// completed/cancelled event stays stale even after its slot is recycled.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn at absolute simulated time `when` (clamped to now). Events scheduled for
  // the same instant fire in scheduling order.
  EventId ScheduleAt(SimTime when, EventFn fn);

  // Schedules fn `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, EventFn fn);

  // Schedules fn every `period`, first firing at now + period. The callback may call
  // Cancel() on the returned id to stop the series.
  EventId SchedulePeriodic(SimDuration period, EventFn fn);

  // Cancels a pending event (periodic series cancel all future firings). Returns true if the
  // event was pending. O(1): retires the slot; the stale heap entry is skipped when popped.
  bool Cancel(EventId id);

  // Time of the earliest pending event, or kNeverTime when empty.
  SimTime NextEventTime() const;

  // Runs every event due at or before `horizon`, advancing the clock to each event's time,
  // then advances the clock to `horizon`. Returns the number of events fired.
  size_t RunUntil(SimTime horizon);

  // Pops and runs the single earliest event (advancing the clock to it). Returns false when
  // the queue is empty.
  bool RunNext();

  SimTime now() const { return now_; }

  // Advances the clock without running events; `t` must not be before now and must not skip
  // over pending events (asserted in debug builds).
  void AdvanceTo(SimTime t);

  size_t pending() const;

  // Slot-map footprint (live + recycled slots). Steady state == peak concurrent events;
  // bench/micro_overhead uses it to pin the event core allocation-free after warmup.

 private:
  struct Item {
    SimTime when;
    uint64_t seq;
    EventId id;
    SimDuration period;  // 0 for one-shot.
    // Heap is a max-heap by default; invert. Ordering is (when, seq) only — EventId plays
    // no part, so the slot-map handle format cannot perturb firing order.
    bool operator<(const Item& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  // One slot per pending event. `fn` is empty while a periodic callback is mid-invoke
  // (moved out) — `live` distinguishes that from a cancelled slot.
  struct Slot {
    EventFn fn;
    uint32_t generation = 1;  // Bumped on retire; >= 1 so no handle is kInvalidEventId.
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  static EventId MakeId(uint32_t generation, uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }

  // Claims a slot (free list first, else grows), stores fn, returns the generational id.
  EventId AllocateSlot(EventFn fn);
  // Live slot for `id`, or nullptr when the id is stale/cancelled. O(1).
  Slot* FindSlot(EventId id);
  const Slot* FindSlot(EventId id) const;

  void Push(SimTime when, EventId id, SimDuration period);
  // Drops cancelled entries from the heap top so NextEventTime() is exact.
  void PurgeStale() const;

  mutable std::priority_queue<Item> heap_;
  // Callbacks live outside the heap so cancellation never touches it: a cancelled id's
  // slot is retired (generation bump) and the heap entry is ignored when popped.
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_events_ = 0;
};

}  // namespace chronotier
