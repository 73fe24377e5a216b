#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/monitor/metric_registry.h"
#include "src/sim/shard_group.h"

namespace rocelab {

namespace {
// The shard whose window is executing on this thread, if any. run_window
// maintains it; schedule_at consults it to catch cross-shard scheduling
// during a parallel window — which would be a write into a neighbour's
// queue from the wrong thread AND a lookahead violation.
thread_local Simulator* t_running_shard = nullptr;
}  // namespace

Simulator::Simulator() : metrics_(std::make_unique<MetricRegistry>()) {}

Simulator::Simulator(ShardGroup* group, std::uint32_t shard_tag)
    : group_(group), shard_tag_(shard_tag) {}

Simulator::~Simulator() = default;

MetricRegistry& Simulator::metrics() { return group_ ? group_->metrics() : *metrics_; }
const MetricRegistry& Simulator::metrics() const {
  return const_cast<Simulator*>(this)->metrics();
}

std::uint32_t Simulator::allocate_node_id() {
  return group_ ? group_->allocate_node_id() : next_node_id_++;
}

int Simulator::bucket_of(QueueKey last, QueueKey key) {
  const QueueKey x = key ^ last;
  const auto hi = static_cast<std::uint64_t>(x >> 64);
  return hi != 0 ? 64 + static_cast<int>(std::bit_width(hi))
                 : static_cast<int>(std::bit_width(static_cast<std::uint64_t>(x)));
}

void Simulator::queue_push(QueueKey key, QueueRef ref) {
  if (key < last_) {
    // Below the settled minimum: a peek settled it, then something was
    // scheduled ahead of it. Re-anchor at `key`. Every entry in a bucket
    // below b agrees with `key` above bit b-1, so it joins bucket b, where
    // it still precedes every entry of the buckets above; those keep their
    // places. Bucket b may now hold entries that belong lower, which only
    // means settle_top spreads them once more.
    const int b = bucket_of(last_, key);
    for (int i = 0; i < b; ++i) {
      if (buckets_[i].empty()) continue;
      buckets_[b].insert(buckets_[b].end(), buckets_[i].begin(), buckets_[i].end());
      buckets_[i].clear();
      mark(i, false);
      mark(b, true);
    }
    last_ = key;
  }
  const int b = bucket_of(last_, key);
  buckets_[b].push_back(ref);
  mark(b, true);
  ++queued_;
}

bool Simulator::settle_top() {
  if (occupied_[0] & 1) return true;
  if (occupied_[0] == 0 && occupied_[1] == 0) return false;
  const int b = occupied_[0] != 0 ? std::countr_zero(occupied_[0])
                                  : 64 + std::countr_zero(occupied_[1]);
  // The bucket's minimum is the queue's minimum: it becomes last_ and lands
  // in bucket 0. The rest share their bits above b-1 with it, so each one
  // moves to a lower bucket, or stays in b after a re-anchor (queue_push).
  std::vector<QueueRef>& bucket = buckets_[b];
  last_ = slots_[bucket.front().slot].key;
  for (const QueueRef r : bucket) last_ = std::min(last_, slots_[r.slot].key);
  std::size_t stay = 0;
  for (const QueueRef r : bucket) {
    const int to = bucket_of(last_, slots_[r.slot].key);
    if (to == b) {
      bucket[stay++] = r;
      continue;
    }
    buckets_[to].push_back(r);
    mark(to, true);
  }
  bucket.resize(stay);
  mark(b, stay != 0);
  return true;
}

void Simulator::compact_queue() {
  // Filter stale entries in place, releasing their slot reservations.
  // Removal never breaks the bucket invariant, so nothing is re-filed.
  for (int b = 0; b < kBuckets; ++b) {
    std::vector<QueueRef>& bucket = buckets_[b];
    std::size_t w = 0;
    for (const QueueRef r : bucket) {
      if (slots_[r.slot].gen != r.gen) {
        free_.push_back(r.slot);
        --heap_debt_;
        --queued_;
        continue;
      }
      bucket[w++] = r;
    }
    bucket.resize(w);
    mark(b, w != 0);
  }
}

EventId Simulator::schedule_at(Time at, Callback cb) {
  // The foreign-shard guard must run before anything else: it is the one
  // check that may execute on the wrong thread, so it can only consult the
  // group's atomic phase flag and the thread-local mark — reading now_ or
  // the queue here would itself race with the owning shard's window.
  if (group_ && group_->in_parallel_phase() && t_running_shard != this) {
    // A neighbour shard (or anything off this shard's thread) is writing
    // into our queue mid-window: lookahead violation. Cross-shard traffic
    // must go through the group's channels, which enforce the horizon.
    throw std::logic_error("schedule_at on a foreign shard during a parallel window");
  }
  if (at < now_) throw std::invalid_argument("schedule_at in the past");
  // Amortized O(1): a compaction pass runs at most once per ~live_/2
  // schedules, and each pass is linear in the queue size.
  if (queued_ >= 128 && queued_ - static_cast<std::size_t>(live_) > static_cast<std::size_t>(live_)) {
    compact_queue();
  }
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.key = make_key(at, seq_++);
  queue_push(s.key, QueueRef{slot, s.gen});
  ++live_;
  return encode(slot, s.gen);
}

void Simulator::cancel(EventId id) {
  const auto tag = static_cast<std::uint32_t>(id >> kEventIdShardShift);
  if (tag == shard_tag_) {
    cancel_local(id);
    return;
  }
  if (group_ == nullptr) return;  // foreign-tagged id on a standalone core: no-op
  Simulator* owner = group_->shard_by_tag(tag);
  if (owner != nullptr) owner->cancel_local(id);
}

void Simulator::cancel_local(EventId id) {
  constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << (kEventIdShardShift - 32)) - 1;
  const std::uint64_t slot_plus1 = (id >> 32) & kSlotMask;
  if (slot_plus1 == 0 || slot_plus1 > slots_.size()) return;  // invalid/foreign id
  Slot& s = slots_[static_cast<std::size_t>(slot_plus1 - 1)];
  if (s.gen != static_cast<std::uint32_t>(id)) return;  // already fired or cancelled
  ++s.gen;       // retire the id; the queue entry is now stale
  s.cb.reset();  // release captured resources right away
  --live_;
  ++heap_debt_;
}

Simulator::QueueRef Simulator::pop_top() {
  const QueueRef top = buckets_[0].back();
  buckets_[0].pop_back();
  mark(0, false);  // keys are unique: bucket 0 held one entry
  --queued_;
  return top;
}

bool Simulator::purge_stale_top() {
  while (settle_top()) {
    const QueueRef top = buckets_[0].back();
    if (slots_[top.slot].gen == top.gen) return true;
    free_.push_back(pop_top().slot);  // the stale entry owned the slot reservation
    --heap_debt_;
  }
  return false;
}

bool Simulator::step() {
  if (!purge_stale_top()) return false;
  const QueueRef item = pop_top();
  Slot& s = slots_[item.slot];
  now_ = key_time(last_);
  ++s.gen;  // retire the id before invoking: cancel-from-within is a no-op
  free_.push_back(item.slot);
  --live_;
  ++executed_;
  // Moves the closure out (slot storage may be reused reentrantly by
  // whatever it schedules), invokes, destroys — one dispatch.
  s.cb.consume_and_invoke();
  return true;
}

Time Simulator::next_event_time() {
  if (!purge_stale_top()) return kTimeInfinity;
  return key_time(last_);
}

void Simulator::run() {
  if (group_ != nullptr) {
    group_->run();
    return;
  }
  run_local();
}

void Simulator::run_until(Time deadline) {
  if (group_ != nullptr) {
    group_->run_until(deadline);
    return;
  }
  run_until_local(deadline);
}

void Simulator::stop() {
  stopped_ = true;
  if (group_ != nullptr) group_->stop();
}

void Simulator::run_local() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until_local(Time deadline) {
  stopped_ = false;
  while (!stopped_) {
    if (!purge_stale_top()) break;
    if (key_time(last_) > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_window(Time end) {
  // One conservative window: everything strictly below the horizon is safe
  // to execute without hearing from the neighbours again. The guard clears
  // the running-shard mark even when a lookahead-violation check throws out
  // of an event, so the diagnostic doesn't poison later windows.
  struct RunningMark {
    explicit RunningMark(Simulator* s) { t_running_shard = s; }
    ~RunningMark() { t_running_shard = nullptr; }
  } mark(this);
  while (!stopped_) {
    if (!purge_stale_top()) break;
    if (key_time(last_) >= end) break;
    step();
  }
}

}  // namespace rocelab
