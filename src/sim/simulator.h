// Discrete-event simulation core — one *shard* of it.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule closures; insertion order breaks ties so execution is fully
// deterministic. Events can be cancelled through the returned EventId.
//
// Since the PDES refactor the Simulator is the per-shard event core (the
// alias `Shard` names the same class): a ShardGroup owns one Simulator per
// pod-partition plus a control-lane Simulator, runs the shards on a thread
// pool under conservative-lookahead windows, and carries cross-shard packet
// handoff through deterministic per-(src,dst) channels. A default-constructed
// Simulator is standalone (no group) and behaves exactly as the
// single-threaded core always has; a group of one shard takes the identical
// code path, which is why 1-shard runs reproduce the pre-PDES determinism
// digest byte-for-byte.
//
// Internals are built for the hot path:
//  - Callbacks are InlineCallback (small-buffer optimized, move-only): the
//    common [this, a-few-ints] closures never touch the heap.
//  - Event storage is a slab of slots recycled through a free list; the
//    queue itself holds 8-byte {slot, generation} refs, so no closure moves.
//  - The queue is a monotone radix queue over a packed (time, seq) key: an
//    entry is filed by the highest bit in which its key differs from the
//    last settled minimum, so a pop costs the same at any queue depth and
//    each entry is re-filed at most a few times on its way to the front.
//  - Cancellation is a generation tag bump on the slot: O(1), no hashing on
//    the fire path, and the closure is destroyed at cancel time. The stale
//    queue entry is skimmed off lazily when it reaches the front.
// Tie-breaking by a monotonically increasing sequence number preserves the
// seed-stable FIFO-within-timestamp order of the original implementation;
// the order is strict and total, so the pop sequence is fully determined.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/inline_callback.h"

namespace rocelab {

class MetricRegistry;
class ShardGroup;

/// Opaque handle to a scheduled event, packing (shard, slot, generation):
/// the owning shard's tag in the top 6 bits, (slot+1) in bits [32, 58), and
/// the slot's generation in the low 32. Zero is never a valid id, and ids
/// are never reused (slot reuse bumps the generation), so cancelling a
/// stale id is always a harmless no-op. A standalone Simulator has shard
/// tag 0, so its ids are bit-identical to the pre-PDES encoding.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Shard tags: group shards are numbered from 0; the control lane uses a
/// reserved tag so control EventIds route back to it through any shard.
inline constexpr std::uint32_t kMaxShards = 62;
inline constexpr std::uint32_t kControlShardTag = 63;
inline constexpr int kEventIdShardShift = 58;

/// "No event" sentinel for horizon computations.
inline constexpr Time kTimeInfinity = INT64_MAX;

class Simulator {
 public:
  using Callback = InlineCallback;

  /// Standalone core (no group): the classic single-threaded simulator.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The telemetry plane (§5.2): every port/switch/NIC registers its
  /// counters here at construction time; monitors read through it. Purely
  /// observational — never schedules events or draws randomness. Group
  /// shards share their group's registry so glob queries span the fabric.
  [[nodiscard]] MetricRegistry& metrics();
  [[nodiscard]] const MetricRegistry& metrics() const;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` to run at absolute time `at` (>= now). Returns an id
  /// usable with cancel(). Must only be called for events this shard owns:
  /// during a parallel window, scheduling into a foreign shard is a
  /// lookahead violation and trips a logic_error (cross-shard delivery goes
  /// through the group's channels instead).
  EventId schedule_at(Time at, Callback cb);
  /// Schedule `cb` to run `delay` after now.
  EventId schedule_in(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op (timers race with the events that would cancel them).
  /// The closure is destroyed immediately, releasing anything it captured.
  /// Ids carrying a foreign shard tag are routed to the owning shard; that
  /// is only safe between windows (components cancel their own timers, so
  /// in-window cancels are same-shard by construction).
  void cancel(EventId id);

  /// Run until the event queue drains or stop() is called. On a group
  /// shard this drives the whole group (all shards + control lane).
  void run();
  /// Run until simulated time reaches `deadline` (events at exactly
  /// `deadline` still execute), the queue drains, or stop() is called.
  void run_until(Time deadline);
  /// Halt the run after the current event. From inside a parallel window
  /// this deterministically stops the calling shard at the current event
  /// and the group at the current window boundary.
  void stop();

  /// Exact count of live (scheduled and not cancelled or fired) events.
  [[nodiscard]] std::size_t pending_events() const { return static_cast<std::size_t>(live_); }
  [[nodiscard]] std::uint64_t executed_events() const {
    return static_cast<std::uint64_t>(executed_);
  }
  /// Total schedule_at calls so far (fired + cancelled + pending).
  [[nodiscard]] std::uint64_t scheduled_events() const { return seq_ - 1; }
  /// Queue entries, live and stale-cancelled; minus pending_events() this is
  /// the lazy-cancel debt the queue is currently carrying.
  [[nodiscard]] std::size_t queued_entries() const { return queued_; }

  /// Hand out device ids. Per-group (not process-global) so that two
  /// fabrics built in the same process — e.g. the perf gate's determinism
  /// double-run — assign identical ids, MACs, and derived seeds.
  [[nodiscard]] std::uint32_t allocate_node_id();

  /// The owning group, or nullptr for a standalone core. Ports use this to
  /// discover cross-shard peers and their channels.
  [[nodiscard]] ShardGroup* group() const { return group_; }
  [[nodiscard]] std::uint32_t shard_tag() const { return shard_tag_; }

 private:
  friend class ShardGroup;

  /// Group-owned shard: shares the group's registry and node-id counter.
  Simulator(ShardGroup* group, std::uint32_t shard_tag);

  /// The queue key packs (time << 64) | seq into one 128-bit integer: time
  /// is non-negative (schedule_at rejects the past) and seq is unique, so
  /// unsigned order on the packed value IS the event order — time first,
  /// insertion sequence as the tie-break. Bit 127 is always clear.
  using QueueKey = unsigned __int128;
  static QueueKey make_key(Time at, std::uint64_t seq) {
    return (static_cast<QueueKey>(static_cast<std::uint64_t>(at)) << 64) | seq;
  }
  static Time key_time(QueueKey k) {
    return static_cast<Time>(static_cast<std::uint64_t>(k >> 64));
  }

  /// One recyclable unit of event storage. A slot is owned by exactly one
  /// queue entry from schedule until that entry pops (fired or stale); cancel
  /// disarms the slot (gen bump + closure destruction) but leaves the
  /// reservation — and the key — to the pending entry.
  struct Slot {
    Callback cb;
    QueueKey key = 0;
    std::uint32_t gen = 0;
  };
  /// A queue entry: the slot and the generation it was armed with. The
  /// entry is stale once the slot's generation has moved on.
  struct QueueRef {
    std::uint32_t slot;
    std::uint32_t gen;
  };

  [[nodiscard]] EventId encode(std::uint32_t slot, std::uint32_t gen) const {
    return (static_cast<EventId>(shard_tag_) << kEventIdShardShift) |
           (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  // Monotone radix queue: an entry lives in bucket bit_width(key ^ last_),
  // i.e. one past the highest bit in which it differs from the last settled
  // minimum, so bucket 0 holds last_ itself and every entry in a lower
  // bucket precedes every entry in a higher one. Key bit 127 is always
  // clear, so bucket_of never exceeds 127.
  static constexpr int kBuckets = 128;
  static int bucket_of(QueueKey last, QueueKey key);
  void mark(int b, bool occupied) {  // keep occupied_ in step with bucket b
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    occupied_[b >> 6] = occupied ? occupied_[b >> 6] | bit : occupied_[b >> 6] & ~bit;
  }
  void queue_push(QueueKey key, QueueRef ref);
  /// Settle the next minimum into bucket 0: take the lowest non-empty
  /// bucket, make its minimum last_, and spread its entries over the lower
  /// buckets. False when the queue is empty.
  bool settle_top();
  /// Remove and return the settled top (the bucket-0 entry).
  QueueRef pop_top();
  /// Drop stale (cancelled) entries. Far-future timers that were cancelled
  /// otherwise linger until their time arrives; compaction caps the dead
  /// weight at ~50% of the queue.
  void compact_queue();

  bool step();  // executes one event; false when queue empty
  /// Skim cancelled entries off the queue top, releasing their slots.
  /// Returns true if a live event remains at the top (the bucket-0 entry,
  /// whose key is last_). Shared by step() and run_until() so the
  /// lazy-cancel policy lives in exactly one place.
  bool purge_stale_top();

  /// Cancel an id this shard owns (no routing). Shared by cancel() and the
  /// group's cross-shard routing.
  void cancel_local(EventId id);

  // --- group-side internals (ShardGroup is a friend) -------------------------
  /// The classic single-threaded loops; the group's 1-shard path calls
  /// these directly so that path is byte-identical to the pre-PDES core.
  void run_local();
  void run_until_local(Time deadline);
  /// Execute every event with time strictly below `end` (one conservative
  /// PDES window). Does not advance now_ past the last executed event.
  void run_window(Time end);
  /// Time of the earliest live event, or kTimeInfinity. Purges stale
  /// entries off the top as a side effect.
  [[nodiscard]] Time next_event_time();
  /// Execute exactly the earliest event (control-lane serialization).
  void step_one() { step(); }
  void clamp_now(Time t) {
    if (now_ < t) now_ = t;
  }

  Time now_ = 0;
  std::uint64_t seq_ = 1;  // insertion order; tie-breaks equal timestamps
  // Counters are int64 so the telemetry plane can export them as gauges
  // through raw-pointer registration (live events, lazy-cancel queue debt,
  // per-shard executed events — the shard-imbalance signals).
  std::int64_t executed_ = 0;
  std::int64_t live_ = 0;
  std::int64_t heap_debt_ = 0;  // stale-cancelled entries still queued
  bool stopped_ = false;
  ShardGroup* group_ = nullptr;
  std::uint32_t shard_tag_ = 0;
  std::uint32_t next_node_id_ = 1;  // standalone only; group shards defer
  QueueKey last_ = 0;          // the last settled minimum
  std::size_t queued_ = 0;      // entries over all buckets, live and stale
  std::uint64_t occupied_[2] = {};  // bit b set <=> buckets_[b] is non-empty
  std::vector<QueueRef> buckets_[kBuckets];
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unique_ptr<MetricRegistry> metrics_;  // standalone only
};

/// PDES vocabulary: a Simulator is one shard of the group.
using Shard = Simulator;

}  // namespace rocelab
