// A copy channel: the finite-bandwidth path that moves page bytes between one *unordered*
// pair of tiers. Both directions share one channel — a promotion (slow->fast) and a
// demotion (fast->slow) each read one device and write the other, so they contend for the
// same two devices' bandwidth — while distinct tier pairs copy concurrently. Concurrent
// copies on a channel share its bandwidth; the model books them FIFO on a virtual cursor,
// which conserves bandwidth exactly (N concurrent copies of duration d finish no earlier
// than N*d after the first starts) and makes the queueing delay each new copy sees
// explicit — the quantity admission control decides on. This replaces the old model in
// which every migration saw the channel's full bandwidth regardless of queue depth.

#pragma once

#include <algorithm>

#include "src/common/time.h"
#include "src/mem/tier.h"

namespace chronotier {

class CopyChannel {
 public:
  CopyChannel() = default;
  // `lo` < `hi`: the unordered pair of tiers the channel connects.
  CopyChannel(NodeId lo, NodeId hi) : lo_(lo), hi_(hi) {}

  NodeId lo() const { return lo_; }
  NodeId hi() const { return hi_; }

  // Queueing delay a copy submitted at `now` would wait before its bytes start moving.
  SimDuration Backlog(SimTime now) const { return cursor_ > now ? cursor_ - now : 0; }

  struct Booking {
    SimTime start = 0;
    SimTime finish = 0;
  };

  // Books a copy of `copy_time` submitted at `now`, starting no earlier than `earliest`
  // (retry backoff). FIFO: the copy begins when the channel drains. A copy that starts
  // inside an injected bandwidth-collapse window is slowed by the window's factor.
  Booking Book(SimTime now, SimTime earliest, SimDuration copy_time) {
    if (now < down_until_) ++books_while_down_;  // Audited fabric invariant: must stay 0.
    Booking booking;
    booking.start = std::max({now, earliest, cursor_});
    SimDuration effective = copy_time;
    if (booking.start < degraded_until_ && degrade_factor_ > 1.0) {
      effective = static_cast<SimDuration>(static_cast<double>(copy_time) * degrade_factor_);
    }
    booking.finish = booking.start + effective;
    cursor_ = booking.finish;
    return booking;
  }

  // --- fault injection (src/fault) ---
  // Stalls the channel: the cursor jumps forward by `stall`, so every queued and future
  // copy waits it out. Models a device hiccup that moves no bytes.
  void InjectStall(SimTime now, SimDuration stall) {
    cursor_ = std::max(cursor_, now) + stall;
  }
  // Bandwidth collapse: copies starting before `until` take `factor`x as long.
  void DegradeBandwidth(SimTime until, double factor) {
    degraded_until_ = until;
    degrade_factor_ = factor;
  }

  // --- fabric faults (src/fault/fabric_faults) ---
  // Link-down window: the engine must never book on a down link (it routes around or
  // parks), so Book() calls landing inside the window are counted and audited, not
  // silently served. The cursor also jumps past the window — a link that was down moved
  // no bytes, so copies booked right after recovery queue behind the outage.
  void MarkDown(SimTime until) {
    if (until <= down_until_) return;
    down_until_ = until;
    cursor_ = std::max(cursor_, until);
  }
  uint64_t books_while_down() const { return books_while_down_; }

 private:
  NodeId lo_ = kInvalidNode;
  NodeId hi_ = kInvalidNode;
  SimTime cursor_ = 0;  // When the last booked copy drains.
  SimTime degraded_until_ = 0;  // Injected bandwidth-collapse window end.
  double degrade_factor_ = 1.0;
  SimTime down_until_ = 0;  // Injected link-down window end (0 = never down).
  uint64_t books_while_down_ = 0;
};

}  // namespace chronotier
