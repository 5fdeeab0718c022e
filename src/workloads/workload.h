// Workload abstraction: a stream of memory operations issued by a simulated process.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/vm/process.h"

namespace chronotier {

// One memory operation.
struct MemOp {
  uint64_t vaddr = 0;
  bool is_store = false;
  // Compute time spent before this access (models instruction work / artificial delay).
  SimDuration think_time = 0;
};

// Most pages one value of `value_bytes` can touch in a heap of back-to-back values (the
// KV streams): its page count, plus one when values are not page multiples and can
// therefore start mid-page. Each touched page costs one op of a fixed-size burst.
constexpr uint64_t MaxValuePages(uint64_t value_bytes) {
  const uint64_t bytes = value_bytes == 0 ? 1 : value_bytes;
  return (bytes + kBasePageSize - 1) / kBasePageSize + (bytes % kBasePageSize == 0 ? 0 : 1);
}

// The references of one KV operation, replayed op by op: a probe (hash bucket or tenant
// directory entry), then one reference per page the value spans (at least one).
class ValueBurst {
 public:
  static constexpr int kMaxOps = 8;

  // Rejects values that can span more pages than a burst holds after its probe; a longer
  // value would silently skip its tail pages. `stream` names the caller in the message.
  static void CheckFits(const char* stream, uint64_t value_bytes) {
    CHECK_LE(MaxValuePages(value_bytes), static_cast<uint64_t>(kMaxOps - 1))
        << stream << " value_bytes " << value_bytes << " can span more than "
        << kMaxOps - 1 << " pages";
  }

  // Starts a burst: `probe`, then the pages of the value at `first`, each charged
  // `think_time`.
  void Emit(MemOp probe, uint64_t first, uint64_t value_bytes, bool is_store,
            SimDuration think_time) {
    pos_ = 0;
    len_ = 0;
    ops_[len_++] = probe;
    const uint64_t last = first + std::max<uint64_t>(value_bytes, 1) - 1;
    for (uint64_t page = first / kBasePageSize;
         page <= last / kBasePageSize && len_ < kMaxOps; ++page) {
      ops_[len_++] = MemOp{std::max(first, page * kBasePageSize), is_store, think_time};
    }
  }

  // Takes the next op of the burst; false once it is used up.
  bool Pop(MemOp* op) {
    if (pos_ == len_) {
      return false;
    }
    *op = ops_[pos_++];
    return true;
  }

 private:
  MemOp ops_[kMaxOps];
  int len_ = 0;
  int pos_ = 0;
};

// A generator of MemOps bound to one process.
//
// Threading contract: the machine generates ops ahead of replay into a ring per process,
// so FillBatch/Next may run on a helper thread, not the thread that calls Machine::Run.
// Within one Run call exactly one thread calls a given stream. A stream may therefore
// touch only itself and the Rng it is handed — not the Process, the Machine, or anything
// else the simulation reads while it runs. Its state (counters, timing spans) may be read
// only between Run calls, when no fill is in flight. Up to one ring of ops
// (Machine::kStreamRingOps) may have been generated past the last replayed op, so such
// state can run that far ahead of the process's completed accesses.
class AccessStream {
 public:
  virtual ~AccessStream() = default;

  // Maps the working set into the process's address space. Called exactly once, before any
  // Next() call.
  virtual void Init(Process& process, Rng& rng) = 0;

  // Produces the next operation. Returns false when the stream is exhausted (finite
  // workloads such as graph traversals); infinite workloads always return true.
  virtual bool Next(Rng& rng, MemOp* op) = 0;

  // Fills up to `max` operations into `ops` and returns how many were produced; fewer than
  // `max` means the stream ended. The default implementation delegates to Next() in a loop,
  // so any stream is batchable and the op/RNG sequence is identical to single-stepping —
  // that equivalence is what lets the machine generate a slot of ops per call, ahead of
  // replay and with the virtual dispatch hoisted out of the per-op loop
  // (tests/bitwise_equivalence_test holds batched and single-step replay to the same
  // fingerprint). Streams with cheap bulk generation may override it; overrides must draw
  // from `rng` exactly as Next() would.
  virtual size_t FillBatch(Rng& rng, MemOp* ops, size_t max) {
    size_t produced = 0;
    while (produced < max && Next(rng, &ops[produced])) {
      ++produced;
    }
    return produced;
  }
};

}  // namespace chronotier
