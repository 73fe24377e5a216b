#include "src/link/port.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/link/node.h"
#include "src/monitor/metric_registry.h"
#include "src/net/packet_pool.h"
#include "src/sim/shard_group.h"

namespace rocelab {

namespace {
constexpr std::int64_t kDwrrQuantumBytes = 1600;
}

EgressPort::EgressPort(Simulator& sim, Node& owner, int index)
    : sim_(sim), owner_(owner), index_(index) {
  // §5.2 telemetry plane: every per-port counter is queryable by name the
  // moment the port exists. Registration stores pointers into counters_;
  // the data path keeps bumping plain fields at zero extra cost.
  MetricRegistry& reg = sim_.metrics();
  const std::string prefix = owner.name() + "/port" + std::to_string(index);
  reg.add_lanes(this, prefix, "tx_packets", counters_.tx_packets.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "tx_bytes", counters_.tx_bytes.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "rx_packets", counters_.rx_packets.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "rx_bytes", counters_.rx_bytes.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "tx_pause", counters_.tx_pause.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "rx_pause", counters_.rx_pause.data(), kNumPriorities);
  reg.add_lanes(this, prefix, "paused_time", counters_.paused_time.data(), kNumPriorities);
  reg.add(this, prefix + "/ingress_drops", &counters_.ingress_drops);
  reg.add(this, prefix + "/headroom_overflow_drops", &counters_.headroom_overflow_drops);
  reg.add(this, prefix + "/egress_drops", &counters_.egress_drops);
  reg.add(this, prefix + "/arp_incomplete_drops", &counters_.arp_incomplete_drops);
  reg.add(this, prefix + "/mac_mismatch_drops", &counters_.mac_mismatch_drops);
  reg.add(this, prefix + "/link_down_drops", &counters_.link_down_drops);
  reg.add(this, prefix + "/fcs_errors", &counters_.fcs_errors);
  reg.add(this, prefix + "/impairment_drops", &counters_.impairment_drops);
  reg.add(this, prefix + "/filtered_drops", &counters_.filtered_drops);
  reg.add(this, prefix + "/corrupt_delivered", &counters_.corrupt_delivered);
  reg.add(this, prefix + "/queued_bytes", &total_bytes_, MetricKind::kGauge);
}

EgressPort::~EgressPort() { sim_.metrics().remove_owner(this); }

void EgressPort::connect(Node* peer, int peer_port, Bandwidth bandwidth, Time prop_delay) {
  peer_ = peer;
  peer_port_ = peer_port;
  bandwidth_ = bandwidth;
  prop_delay_ = prop_delay;
  peer_mac_ = peer->port_mac(peer_port);
  ps_per_byte_ = (8 * kSecond) % bandwidth == 0 ? (8 * kSecond) / bandwidth : 0;
  // Shard-boundary detection: a peer on a different shard of the same group
  // makes this direction a PDES boundary — its propagation delay joins the
  // conservative lookahead, and deliveries go through the pair's channel.
  cross_ = nullptr;
  ShardGroup* group = sim_.group();
  Simulator& peer_sim = peer->sim();
  if (group != nullptr && peer_sim.group() == group &&
      peer_sim.shard_tag() != sim_.shard_tag()) {
    group->note_boundary(sim_.shard_tag(), peer_sim.shard_tag(), prop_delay);
    cross_ = &group->channel(sim_.shard_tag(), peer_sim.shard_tag());
  }
}

void EgressPort::enqueue(PooledPacket pp) {
  if (!link_up_) {
    // Link is down: the packet is lost at the port. on_dequeue keeps the
    // owner's (in, out, pg) accounting consistent; the MMU charge is
    // released when the packet destructs.
    if (on_dequeue) on_dequeue(*pp, pp->priority);
    ++counters_.link_down_drops;
    return;
  }
  const auto prio = static_cast<std::size_t>(pp->priority);
  queue_bytes_[prio] += pp->frame_bytes;
  total_bytes_ += pp->frame_bytes;
  queues_[prio].push_back(std::move(pp));
  nonempty_ |= 1u << prio;
  try_send();
}

void EgressPort::enqueue_control(Packet pkt) {
  if (!link_up_) {
    ++counters_.link_down_drops;
    return;
  }
  control_.push_back(acquire_pooled_packet(std::move(pkt)));
  try_send();
}

void EgressPort::set_impairment(const LinkImpairment& imp) {
  impair_ = std::make_unique<ImpairState>(imp);
}

const ImpairmentStats& EgressPort::impairment_stats() const {
  static const ImpairmentStats kEmpty{};
  return impair_ != nullptr ? impair_->stats : kEmpty;
}

void EgressPort::set_up(bool up) {
  if (link_up_ == up) return;
  link_up_ = up;
  ++link_epoch_;
  if (!up) {
    // Drop everything queued and reset PFC pause state: a pause that was
    // asserted across this link is meaningless once the link is gone.
    for (int p = 0; p < kNumPriorities; ++p) {
      const auto i = static_cast<std::size_t>(p);
      counters_.link_down_drops += static_cast<std::int64_t>(queues_[i].size());
      counters_.egress_drops -= static_cast<std::int64_t>(queues_[i].size());
      flush_priority(p);
      if (pause_active_[i]) {
        counters_.paused_time[i] += sim_.now() - pause_started_[i];
        pause_active_[i] = false;
      }
    }
    counters_.link_down_drops += static_cast<std::int64_t>(control_.size());
    control_.clear();
    // The flush freed the whole queue: tell the owner, as a dequeue would.
    // A host NIC parks QPs on a full queue until this callback; without it
    // they stay parked across the flap and nothing else wakes them.
    if (on_drain) on_drain();
  } else {
    try_send();
  }
}

std::size_t EgressPort::flush_priority(int prio) {
  const auto i = static_cast<std::size_t>(prio);
  const std::size_t n = queues_[i].size();
  for (auto& pp : queues_[i]) {
    if (on_dequeue) on_dequeue(*pp, prio);
    ++counters_.egress_drops;
  }
  total_bytes_ -= queue_bytes_[i];
  queue_bytes_[i] = 0;
  deficit_[i] = 0;
  queues_[i].clear();
  nonempty_ &= ~(1u << static_cast<unsigned>(prio));
  return n;
}

void EgressPort::settle_pause(int prio) {
  const auto i = static_cast<std::size_t>(prio);
  if (pause_active_[i] && sim_.now() >= paused_until_[i]) {
    counters_.paused_time[i] += paused_until_[i] - pause_started_[i];
    pause_active_[i] = false;
  }
}

bool EgressPort::paused(int prio) const {
  const auto i = static_cast<std::size_t>(prio);
  return pause_active_[i] && sim_.now() < paused_until_[i];
}

bool EgressPort::fully_blocked() const {
  if (!control_.empty()) return false;
  bool any_queued = false;
  for (int p = 0; p < kNumPriorities; ++p) {
    if (queues_[static_cast<std::size_t>(p)].empty()) continue;
    any_queued = true;
    if (!paused(p)) return false;
  }
  return any_queued;
}

void EgressPort::receive_pause(int prio, std::uint16_t quanta) {
  const auto i = static_cast<std::size_t>(prio);
  settle_pause(prio);
  if (quanta == 0) {
    // XON: resume immediately.
    if (pause_active_[i]) {
      counters_.paused_time[i] += sim_.now() - pause_started_[i];
      pause_active_[i] = false;
    }
    try_send();
    return;
  }
  const Time until = sim_.now() + static_cast<Time>(quanta) * quantum_time();
  if (!pause_active_[i]) {
    pause_active_[i] = true;
  } else {
    // Refresh while paused: bank the elapsed interval so monitoring sees
    // in-progress pause time (§5.2 pause intervals).
    counters_.paused_time[i] += sim_.now() - pause_started_[i];
  }
  pause_started_[i] = sim_.now();
  paused_until_[i] = until;
  // Kick the transmitter when the pause expires on its own.
  sim_.schedule_at(until, [this, prio] {
    settle_pause(prio);
    try_send();
  });
}

int EgressPort::pick_queue() {
  // Strict-priority queues first, highest index wins (convention: the
  // real-time class is configured strict at a high priority).
  std::uint32_t strict_avail = nonempty_ & strict_mask_;
  while (strict_avail != 0) {
    const int p = 31 - std::countl_zero(strict_avail);
    if (!paused(p)) return p;
    strict_avail &= ~(1u << static_cast<unsigned>(p));
  }
  // Eligible = non-strict, non-empty, not paused. Pause state cannot change
  // inside this call, so the mask is computed once up front.
  std::uint32_t elig = 0;
  for (std::uint32_t m = nonempty_ & ~strict_mask_; m != 0; m &= m - 1) {
    const int p = std::countr_zero(m);
    if (!paused(p)) elig |= 1u << static_cast<unsigned>(p);
  }
  if (elig == 0) return -1;
  const int first_eligible = std::countr_zero(elig);

  // Deficit round robin: a queue receives its quantum once per visit of the
  // round-robin pointer and is served for as long as its deficit covers the
  // head-of-line packet. A visit to an ineligible queue only advances the
  // pointer and clears the grant flag, so runs of them are applied in one
  // jump — state after the jump is identical to stepping through them.
  int attempts = 0;
  while (attempts < 2 * kNumPriorities) {
    if (((elig >> static_cast<unsigned>(rr_next_)) & 1u) == 0) {
      const auto r = static_cast<unsigned>(rr_next_);
      const std::uint32_t rot =
          ((elig >> r) | (elig << (static_cast<unsigned>(kNumPriorities) - r))) & 0xffu;
      int dist = std::countr_zero(rot);  // >= 1: bit 0 of rot is rr_next_'s, known clear
      const int budget = 2 * kNumPriorities - attempts;
      if (dist > budget) dist = budget;  // don't visit past the attempt cap
      attempts += dist;
      rr_next_ = (rr_next_ + dist) % kNumPriorities;
      rr_granted_ = false;
      continue;  // re-check the cap before the eligible visit
    }
    const auto i = static_cast<std::size_t>(rr_next_);
    const std::int64_t head = queues_[i].front()->frame_bytes;
    if (deficit_[i] >= head) return rr_next_;
    if (!rr_granted_) {
      rr_granted_ = true;
      deficit_[i] += kDwrrQuantumBytes * std::max(1, qcfg_[i].weight);
      if (deficit_[i] >= head) return rr_next_;
    }
    rr_next_ = (rr_next_ + 1) % kNumPriorities;
    rr_granted_ = false;
    ++attempts;
  }
  // Degenerate configs (e.g. quantum never covering a jumbo head): don't
  // wedge the port — serve the first eligible queue.
  return first_eligible;
}

void EgressPort::try_send() {
  if (busy_ || peer_ == nullptr || !link_up_) return;
  // Fast path for the common "kicked while empty" case (every dequeue fires
  // on_drain, which often finds nothing new to send).
  if (control_.empty() && total_bytes_ == 0) return;

  PooledPacket pp;
  bool is_control = false;
  if (!control_.empty()) {
    pp = std::move(control_.front());
    control_.pop_front();
    is_control = true;
  } else {
    const int p = pick_queue();
    if (p < 0) return;
    const auto i = static_cast<std::size_t>(p);
    pp = std::move(queues_[i].front());
    queues_[i].pop_front();
    queue_bytes_[i] -= pp->frame_bytes;
    total_bytes_ -= pp->frame_bytes;
    deficit_[i] -= pp->frame_bytes;
    if (queues_[i].empty()) {
      deficit_[i] = 0;
      nonempty_ &= ~(1u << i);
    }
    if (on_dequeue) on_dequeue(*pp, p);
    pp->charge.reset();  // this copy is leaving the device: release its share
  }

  const auto prio = static_cast<std::size_t>(pp->priority);
  if (is_control && pp->kind == PacketKind::kPfcPause) {
    for (int p = 0; p < kNumPriorities; ++p) {
      if (pp->pfc && pp->pfc->enabled(p)) ++counters_.tx_pause[static_cast<std::size_t>(p)];
    }
  } else {
    ++counters_.tx_packets[prio];
    counters_.tx_bytes[prio] += pp->frame_bytes;
  }

  const Time ser = ser_time(pp->frame_bytes + kWireOverheadBytes);
  busy_ = true;
  sim_.schedule_in(ser, [this] {
    busy_ = false;
    try_send();
  });

  // Gray-failure impairment (§5.2), decided at transmit time so the wire
  // occupancy and tx counters above are unchanged — the sending side looks
  // healthy, which is exactly what makes these faults gray. Inactive (or
  // merely constructed-but-disabled) impairments draw no randomness.
  bool eaten = false;       // blackholed: the frame never reaches the peer
  bool fcs_corrupt = false; // arrives, but the receiver's FCS check fails
  bool escaped = false;     // corrupted AND delivered: the FCS missed it
  Time extra = 0;           // added one-way delay + jitter
  if (impair_ != nullptr && impair_->cfg.active()) {
    ImpairState& im = *impair_;
    if (im.cfg.blackhole) {
      ++im.stats.blackhole_drops;
      ++counters_.impairment_drops;
      eaten = true;
    } else if (im.cfg.flow_blackhole_frac > 0.0 && pp->ip &&
               static_cast<double>(five_tuple_hash(*pp, im.flow_key)) * 0x1.0p-64 <
                   im.cfg.flow_blackhole_frac) {
      ++im.stats.flow_drops;
      ++counters_.impairment_drops;
      eaten = true;
    } else {
      if (im.cfg.fcs_drop_rate > 0.0 && im.rng.bernoulli(im.cfg.fcs_drop_rate)) {
        ++im.stats.fcs_drops;
        fcs_corrupt = true;
      }
      // §5.2 silent corruption: the frame is damaged on the wire, and the
      // escape split decides whether the receiver's FCS check catches it
      // (counted as an fcs drop) or the corruption escapes link-level
      // checking and the frame is delivered carrying a bad payload. Both
      // draws are gated so pre-existing fcs-only impairments keep their
      // exact RNG sequence.
      if (!fcs_corrupt && im.cfg.corrupt_deliver_rate > 0.0 &&
          im.rng.bernoulli(im.cfg.corrupt_deliver_rate)) {
        if (im.rng.bernoulli(im.cfg.escape_fcs_frac)) {
          ++im.stats.corrupt_delivered;
          escaped = true;
        } else {
          ++im.stats.fcs_drops;
          fcs_corrupt = true;
        }
      }
      if (im.cfg.added_delay > 0 || im.cfg.jitter > 0) {
        extra = im.cfg.added_delay +
                (im.cfg.jitter > 0 ? im.rng.uniform_int(0, im.cfg.jitter) : 0);
        ++im.stats.delayed;
      }
    }
  }

  if (eaten) {
    // Nothing to schedule: the frame occupied the wire for `ser` and died.
  } else if (fcs_corrupt) {
    // The corrupted frame still arrives — into the receiver's FCS check,
    // which discards it and bumps the rx-side error counter the monitoring
    // plane watches. The payload box is released here at tx time.
    if (cross_ != nullptr) {
      cross_->push_fcs_error(sim_.now() + ser + prop_delay_ + extra, peer_, peer_port_);
    } else {
      sim_.schedule_in(ser + prop_delay_ + extra, [this, epoch = link_epoch_] {
        if (!link_up_ || epoch != link_epoch_ || peer_ == nullptr) return;
        ++peer_->port(peer_port_).counters().fcs_errors;
      });
    }
  } else if (cross_ != nullptr) {
    // Shard boundary: hand the box to the peer shard's channel (drained in
    // deterministic (time, src, seq) order at the barrier). The MMU charge
    // was released at dequeue above, so nothing in the box still points at
    // this shard's mutable state. In-flight link faults are gated on the
    // *receiving* direction's state at arrival rather than this port's
    // epoch — the one (documented) fidelity difference of multi-shard runs.
    if (escaped) pp->corrupt = true;
    cross_->push_deliver(sim_.now() + ser + prop_delay_ + extra, peer_, peer_port_,
                         pp.release(), /*newly_corrupt=*/escaped);
  } else {
    // Delivery is gated on the link epoch: if the link goes down (and maybe
    // back up) while the packet is in flight, the packet is lost. The packet
    // rides in a pooled box so the closure stays inside the event core's
    // inline buffer (no per-packet allocation on the transmit path).
    // An escaped corruption bumps the receiving port's corrupt_delivered at
    // arrival — the PHY-layer telemetry of the hop that damaged the frame;
    // downstream hops re-serialize the (damaged) payload cleanly and see
    // nothing, which is what makes the fault end-to-end.
    if (escaped) pp->corrupt = true;
    sim_.schedule_in(ser + prop_delay_ + extra,
                     [this, epoch = link_epoch_, newly = escaped,
                      pp = std::move(pp)]() mutable {
                       if (!link_up_ || epoch != link_epoch_ || peer_ == nullptr) {
                         ++counters_.link_down_drops;
                         return;
                       }
                       if (newly) ++peer_->port(peer_port_).counters().corrupt_delivered;
                       peer_->deliver(std::move(pp), peer_port_);
                     });
  }
  // Notify at dequeue time — this is when queue room actually appears.
  // (Reentrant enqueues are safe: busy_ is already set.)
  if (!is_control && on_drain) on_drain();
}

}  // namespace rocelab
