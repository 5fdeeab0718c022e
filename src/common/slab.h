// SlotArena: a generational slot-map arena for transient records on the hot path.
//
// Replaces unordered_map for collections whose elements are (a) inserted and erased
// frequently (one per async migration transaction), (b) looked up by a stable key captured
// in scheduled events, and (c) iterated during fault handling. Compared to the hash map it
// replaces:
//
//   - Insert/Find/Erase are O(1) with no per-element heap allocation once the backing
//     vector reaches steady state: erased slots go on an intrusive free list and are
//     reused (LIFO, deterministically).
//   - Keys are generational: (generation << 32 | slot). Erasing a slot bumps its
//     generation, so a stale key held by an already-scheduled event resolves to nullptr
//     instead of aliasing the slot's next occupant.
//   - ForEach walks slots in index order — a deterministic order, unlike unordered_map
//     traversal, which leaks hash-table layout into simulation results.
//
// T is stored in-place; T's own members may allocate (e.g. a route vector), but the arena
// itself never allocates per insert after warmup.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace chronotier {

template <typename T>
class SlotArena {
 public:
  using Key = uint64_t;
  // Never returned by Insert: generations start at 1, so the high word of a real key is
  // nonzero.
  static constexpr Key kInvalidKey = 0;

  Key Insert(T value) {
    uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = entries_[slot].next_free;
    } else {
      CHECK_LT(entries_.size(), size_t{kNoSlot}) << "SlotArena overflow";
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();  // detlint:allow(hot-path-alloc) arena high-water growth; steady state reuses the free list
    }
    Entry& entry = entries_[slot];
    entry.value.emplace(std::move(value));
    ++live_;
    return MakeKey(entry.generation, slot);
  }

  // nullptr when the key was never issued, or its element was erased (stale generation).
  T* Find(Key key) {
    const uint32_t slot = SlotOf(key);
    if (slot >= entries_.size()) {
      return nullptr;
    }
    Entry& entry = entries_[slot];
    if (!entry.value.has_value() || MakeKey(entry.generation, slot) != key) {
      return nullptr;
    }
    return &*entry.value;
  }
  const T* Find(Key key) const { return const_cast<SlotArena*>(this)->Find(key); }

  // Destroys the element and recycles its slot under a new generation. Returns false for
  // stale or never-issued keys (nothing erased).
  bool Erase(Key key) {
    T* value = Find(key);
    if (value == nullptr) {
      return false;
    }
    const uint32_t slot = SlotOf(key);
    Entry& entry = entries_[slot];
    entry.value.reset();
    ++entry.generation;
    entry.next_free = free_head_;
    free_head_ = slot;
    --live_;
    return true;
  }

  // Visits every live element in slot-index order (deterministic). fn(Key, T&).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t slot = 0; slot < entries_.size(); ++slot) {
      Entry& entry = entries_[slot];
      if (entry.value.has_value()) {
        fn(MakeKey(entry.generation, static_cast<uint32_t>(slot)), *entry.value);
      }
    }
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  // Backing-vector length (live + free slots): steady-state == peak live count.

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Entry {
    std::optional<T> value;
    uint32_t generation = 1;  // >= 1 always, so no live key equals kInvalidKey.
    uint32_t next_free = kNoSlot;
  };

  static Key MakeKey(uint32_t generation, uint32_t slot) {
    return (static_cast<Key>(generation) << 32) | slot;
  }
  static uint32_t SlotOf(Key key) { return static_cast<uint32_t>(key); }

  std::vector<Entry> entries_;
  uint32_t free_head_ = kNoSlot;
  size_t live_ = 0;
};

}  // namespace chronotier
