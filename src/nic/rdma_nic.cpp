#include "src/nic/rdma_nic.h"

#include <algorithm>
#include <stdexcept>

#include "src/monitor/metric_registry.h"
#include "src/nic/host.h"

namespace rocelab {

namespace {
/// Retransmission timeout backoff cap (1 << 3 = 8x).
constexpr int kMaxBackoffShift = 3;
}  // namespace

/// The narrow NIC view handed to the loss-recovery engine: wall clock,
/// single-packet retransmission, and in-flight message lookup.
struct RdmaNic::SenderOps final : LossRecoveryEngine::Sender {
  RdmaNic& nic;
  Qp& q;
  SenderOps(RdmaNic& n, Qp& qq) : nic(n), q(qq) {}

  [[nodiscard]] Time now() const override { return nic.host_.sim().now(); }
  void retransmit(std::uint64_t psn) override { nic.retransmit_one(q, psn); }
  [[nodiscard]] std::optional<std::uint64_t> message_start(
      std::uint64_t psn) const override {
    const InflightMsg* m = find_inflight(q, psn);
    return m != nullptr ? std::optional<std::uint64_t>(m->first_psn) : std::nullopt;
  }
};

RdmaNic::RdmaNic(Host& host, const HostConfig& cfg) : host_(host), cfg_(cfg) {
  MetricRegistry& reg = host_.sim().metrics();
  const std::string prefix = host_.name() + "/rdma";
  reg.add(this, prefix + "/data_packets_sent", &stats_.data_packets_sent);
  reg.add(this, prefix + "/data_packets_retx", &stats_.data_packets_retx);
  reg.add(this, prefix + "/acks_sent", &stats_.acks_sent);
  reg.add(this, prefix + "/naks_sent", &stats_.naks_sent);
  reg.add(this, prefix + "/rnr_naks_sent", &stats_.rnr_naks_sent);
  reg.add(this, prefix + "/rnr_naks_received", &stats_.rnr_naks_received);
  reg.add(this, prefix + "/cnps_sent", &stats_.cnps_sent);
  reg.add(this, prefix + "/cnps_received", &stats_.cnps_received);
  reg.add(this, prefix + "/messages_completed", &stats_.messages_completed);
  reg.add(this, prefix + "/bytes_completed", &stats_.bytes_completed);
  reg.add(this, prefix + "/messages_received", &stats_.messages_received);
  reg.add(this, prefix + "/bytes_received", &stats_.bytes_received);
  reg.add(this, prefix + "/out_of_order_drops", &stats_.out_of_order_drops);
  reg.add(this, prefix + "/timeouts", &stats_.timeouts);
  reg.add(this, prefix + "/qp_errors", &stats_.qp_errors);
  reg.add(this, prefix + "/injected_drops", &stats_.injected_drops);
  reg.add(this, prefix + "/injected_reorders", &stats_.injected_reorders);
  reg.add(this, prefix + "/injected_dup_acks", &stats_.injected_dup_acks);
  reg.add(this, prefix + "/injected_dup_reqs", &stats_.injected_dup_reqs);
  reg.add(this, prefix + "/icrc_errors", &stats_.icrc_errors);
  reg.add(this, prefix + "/corrupt_completions", &stats_.corrupt_completions);
  reg.add(this, prefix + "/selrep/sacked", &stats_.selrep.sacked);
  reg.add(this, prefix + "/selrep/retx", &stats_.selrep.retx);
  reg.add(this, prefix + "/selrep/ooo_buffered", &stats_.selrep.ooo_buffered);
  reg.add(this, prefix + "/atomic/cas_executed", &stats_.atomic.cas_executed);
  reg.add(this, prefix + "/atomic/cas_failed", &stats_.atomic.cas_failed);
  reg.add(this, prefix + "/atomic/faa_executed", &stats_.atomic.faa_executed);
  reg.add(this, prefix + "/atomic/completions", &stats_.atomic.completions);
  reg.add(this, prefix + "/atomic/reissues", &stats_.atomic.reissues);
  reg.add(this, prefix + "/atomic/acks_sent", &stats_.atomic.acks_sent);
  reg.add(this, prefix + "/atomic/dup_requests", &stats_.atomic.dup_requests);
  reg.add(this, prefix + "/atomic/replay_evictions", &stats_.atomic.replay_evictions);
}

RdmaNic::~RdmaNic() { host_.sim().metrics().remove_owner(this); }

RdmaNic::Qp* RdmaNic::find_qp(std::uint32_t qpn) const {
  // qpn 0 wraps to SIZE_MAX and fails the bounds check with the rest.
  const std::size_t i = static_cast<std::size_t>(qpn) - 1;
  return i < qps_.size() ? qps_[i].get() : nullptr;
}

RdmaNic::Qp& RdmaNic::qp(std::uint32_t qpn) {
  Qp* q = find_qp(qpn);
  if (q == nullptr) throw std::invalid_argument("unknown QP");
  return *q;
}
const RdmaNic::Qp& RdmaNic::qp(std::uint32_t qpn) const {
  const Qp* q = find_qp(qpn);
  if (q == nullptr) throw std::invalid_argument("unknown QP");
  return *q;
}

std::uint32_t RdmaNic::create_qp(QpConfig cfg) {
  auto q = std::make_unique<Qp>();
  q->qpn = static_cast<std::uint32_t>(qps_.size() + 1);
  q->cfg = cfg;
  q->engine = LossRecoveryEngine::make(cfg, &stats_.selrep);
  // Random source UDP port per QP so distinct QPs take distinct ECMP paths (§2).
  q->udp_sport = static_cast<std::uint16_t>(host_.rng().uniform_int(49152, 65535));
  if (cfg.dcqcn) {
    if (cfg.cc == CcAlgorithm::kDcqcn) {
      q->rate = std::make_unique<DcqcnRp>(host_.sim(), cfg_.dcqcn, host_.port(0).bandwidth());
    } else {
      q->timely = std::make_unique<TimelyRp>(cfg.timely, host_.port(0).bandwidth());
    }
  }
  const auto qpn = q->qpn;
  qps_.push_back(std::move(q));
  return qpn;
}

void RdmaNic::connect_qp(std::uint32_t qpn, Ipv4Addr peer_ip, std::uint32_t peer_qpn) {
  Qp& q = qp(qpn);
  q.peer_ip = peer_ip;
  q.peer_qpn = peer_qpn;
  q.connected = true;
}

const QpConfig& RdmaNic::qp_config(std::uint32_t qpn) const { return qp(qpn).cfg; }

std::int64_t RdmaNic::backlog_bytes(std::uint32_t qpn) const {
  const Qp& q = qp(qpn);
  std::int64_t total = 0;
  for (const auto& w : q.pending) total += w.bytes;
  for (const auto& m : q.inflight) total += m.wqe.bytes;
  return total;
}

Bandwidth RdmaNic::current_rate(const Qp& q) const {
  if (q.rate) return q.rate->rate();
  if (q.timely) return q.timely->rate();
  return host_.port(0).bandwidth();
}

Bandwidth RdmaNic::qp_rate(std::uint32_t qpn) const { return current_rate(qp(qpn)); }

double RdmaNic::qp_alpha(std::uint32_t qpn) const {
  const Qp& q = qp(qpn);
  return q.rate ? q.rate->alpha() : 0.0;
}

// --- verbs ---------------------------------------------------------------------

void RdmaNic::post_send(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id) {
  post_message(qp(qpn), SendWqe{SendWqe::Kind::kSend, bytes, msg_id, host_.sim().now()});
}

void RdmaNic::post_write(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id) {
  post_message(qp(qpn), SendWqe{SendWqe::Kind::kWrite, bytes, msg_id, host_.sim().now()});
}

void RdmaNic::post_read(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id) {
  Qp& q = qp(qpn);
  if (!q.connected) throw std::logic_error("post_read on unconnected QP");
  const Qp::PendingRead pr{bytes, host_.sim().now(), q.next_req_psn++};
  q.reads[msg_id] = pr;
  issue_read_req(q, msg_id, pr);
  arm_read_retx(q, msg_id);
}

void RdmaNic::issue_read_req(Qp& q, std::uint64_t msg_id, const Qp::PendingRead& pr) {
  Packet pkt = make_roce_packet(q, PacketKind::kRoceReadReq);
  pkt.bth->opcode = RoceOpcode::kReadRequest;
  // The request PSN is the responder's replay key: a re-issue carries the
  // same value, so a raced duplicate is recognized instead of re-executed.
  pkt.bth->psn = static_cast<std::uint32_t>(pr.req_psn & 0x00ffffffu);
  pkt.read_length = pr.bytes;
  pkt.msg_id = msg_id;
  pkt.frame_bytes = kRoceDataOverheadBytes + kRethBytes;
  host_.send_frame(std::move(pkt));
}

// Requester-side reliability for the READ request itself: re-issue if the
// response has not completed within a generous timeout. The event id is
// tracked per msg_id so completion and reset_qp cancel it, and the closure
// checks the error flag — an errored-but-connected QP must go quiet, not
// keep re-posting requests.
void RdmaNic::arm_read_retx(Qp& q, std::uint64_t msg_id) {
  const Time timeout = 8 * q.cfg.retx_timeout;
  const auto qpn = q.qpn;
  q.read_retx_evs[msg_id] = host_.sim().schedule_in(timeout, [this, qpn, msg_id] {
    Qp& qq = qp(qpn);
    qq.read_retx_evs.erase(msg_id);
    if (qq.error || !qq.connected) return;
    auto it = qq.reads.find(msg_id);
    if (it == qq.reads.end()) return;  // completed
    ++stats_.timeouts;
    issue_read_req(qq, msg_id, it->second);
    arm_read_retx(qq, msg_id);
  });
}

// --- atomic verbs (CAS / FAA) ---------------------------------------------------

void RdmaNic::post_cas(std::uint32_t qpn, std::uint64_t addr, std::uint64_t compare,
                       std::uint64_t swap, std::uint64_t msg_id) {
  post_atomic(qpn, Qp::PendingAtomic{RoceOpcode::kCompareSwap, addr, compare, swap,
                                     msg_id, host_.sim().now(), 0, false});
}

void RdmaNic::post_faa(std::uint32_t qpn, std::uint64_t addr, std::uint64_t add,
                       std::uint64_t msg_id) {
  post_atomic(qpn, Qp::PendingAtomic{RoceOpcode::kFetchAdd, addr, 0, add, msg_id,
                                     host_.sim().now(), 0, false});
}

void RdmaNic::post_atomic(std::uint32_t qpn, Qp::PendingAtomic a) {
  Qp& q = qp(qpn);
  if (q.error) throw std::logic_error("post on errored QP (reset it first)");
  if (!q.connected) throw std::logic_error("post on unconnected QP");
  q.atomic_queue.push_back(a);
  try_issue_atomic(q);
}

std::uint64_t RdmaNic::memory_read(std::uint64_t addr) const {
  auto it = memory_.find(addr);
  return it == memory_.end() ? 0 : it->second;
}

void RdmaNic::memory_write(std::uint64_t addr, std::uint64_t value) {
  memory_[addr] = value;
}

/// Issue the oldest posted atomic once the IB fence clears: atomics wait for
/// every previously posted operation (SEND/WRITE/READ) to complete, then run
/// one at a time in post order. Ops posted *after* the atomic also hold it
/// back (a stricter fence than IB requires — simpler, and still exactly the
/// post-order execution the lock workloads need).
void RdmaNic::try_issue_atomic(Qp& q) {
  if (q.atomic_queue.empty()) return;
  if (q.error || !q.connected) return;
  Qp::PendingAtomic& a = q.atomic_queue.front();
  if (a.issued) return;  // waiting on its ACK
  if (!q.pending.empty() || !q.inflight.empty() || !q.reads.empty()) return;
  a.issued = true;
  a.req_psn = q.next_req_psn++;
  issue_atomic_req(q, a);
  arm_atomic_retx(q);
}

void RdmaNic::issue_atomic_req(Qp& q, const Qp::PendingAtomic& a) {
  Packet pkt = make_roce_packet(q, PacketKind::kRoceAtomicReq);
  pkt.bth->opcode = a.op;
  pkt.bth->psn = static_cast<std::uint32_t>(a.req_psn & 0x00ffffffu);
  pkt.atomic = RoceAtomicEth{a.addr, /*rkey=*/0, a.swap_add, a.compare};
  pkt.msg_id = a.msg_id;
  pkt.frame_bytes = kRoceDataOverheadBytes + kAtomicEthBytes;
  host_.send_frame(std::move(pkt));
}

/// Same 8xRTO re-issue discipline as READ requests; only one atomic is ever
/// outstanding per QP, so a single tracked event id suffices.
void RdmaNic::arm_atomic_retx(Qp& q) {
  const Time timeout = 8 * q.cfg.retx_timeout;
  const auto qpn = q.qpn;
  q.atomic_retx_ev = host_.sim().schedule_in(timeout, [this, qpn] {
    Qp& qq = qp(qpn);
    qq.atomic_retx_ev = kInvalidEventId;
    if (qq.error || !qq.connected) return;
    if (qq.atomic_queue.empty() || !qq.atomic_queue.front().issued) return;
    ++stats_.atomic.reissues;
    issue_atomic_req(qq, qq.atomic_queue.front());  // same req PSN: a duplicate
    arm_atomic_retx(qq);
  });
}

void RdmaNic::post_recv(std::uint32_t qpn, int count) {
  if (count <= 0) throw std::invalid_argument("post_recv needs a positive count");
  qp(qpn).recv_credits += count;
}

void RdmaNic::post_message(Qp& q, SendWqe wqe) {
  if (q.error) throw std::logic_error("post on errored QP (reset it first)");
  if (!q.connected) throw std::logic_error("post on unconnected QP");
  if (wqe.bytes <= 0) throw std::invalid_argument("message must have positive size");
  q.pending.push_back(wqe);
  arm_pacer(q);
}

// --- sender machinery -------------------------------------------------------------

void RdmaNic::arm_pacer(Qp& q) {
  if (q.pacer_ev != kInvalidEventId || q.blocked_on_port || q.error) return;
  const Time at = std::max(host_.sim().now(), q.next_tx_time);
  q.pacer_ev = host_.sim().schedule_at(at, [this, qptr = &q] { pacer_fire(*qptr); });
}

void RdmaNic::pacer_fire(Qp& q) {
  q.pacer_ev = kInvalidEventId;
  if (q.error) return;
  if (transmit_next(q)) arm_pacer(q);
}

bool RdmaNic::transmit_next(Qp& q) {
  // Selective repeat: skip PSNs the receiver already SACKed, and hold new
  // data while a BDP's worth is unacknowledged (IRN's stand-in for PFC
  // backpressure). No-ops in the go-back modes.
  while (q.cursor_psn < q.next_new_psn && q.engine->is_sacked(q.cursor_psn)) {
    ++q.cursor_psn;
  }
  if (q.cursor_psn == q.next_new_psn && !q.engine->window_open(q.cursor_psn, q.una_psn)) {
    return false;
  }

  // Start the next message if the cursor has caught up with new territory.
  // In-flight messages cover contiguous, increasing PSN ranges, so the
  // cursor lies in one of them iff it is below the last one's end.
  if (q.cursor_psn == q.next_new_psn) {
    if (q.inflight.empty() || q.cursor_psn >= q.inflight.back().end_psn) {
      if (q.pending.empty()) return false;  // idle
      const SendWqe wqe = q.pending.front();
      q.pending.pop_front();
      const auto nseg = static_cast<std::uint64_t>(
          (wqe.bytes + q.cfg.mtu_payload - 1) / q.cfg.mtu_payload);
      q.inflight.push_back(InflightMsg{q.next_new_psn, q.next_new_psn + nseg, wqe});
    }
  }

  const InflightMsg* msg = find_inflight(q, q.cursor_psn);
  if (msg == nullptr) return false;

  if (!host_.tx_has_room(q.cfg.priority)) {
    park(q);
    return false;
  }

  Packet pkt = build_data_packet(q, *msg, q.cursor_psn, /*force_ack=*/false);

  const bool is_retx = q.cursor_psn < q.next_new_psn;
  ++q.cursor_psn;
  q.next_new_psn = std::max(q.next_new_psn, q.cursor_psn);
  ++stats_.data_packets_sent;
  if (is_retx) ++stats_.data_packets_retx;
  q.engine->on_tx_segment(pkt.bth->psn, is_retx, host_.sim().now());

  if (q.rate) q.rate->on_bytes_sent(pkt.frame_bytes);
  if (q.timely && pkt.bth->ack_request && q.rtt_probes.size() < 64) {
    q.rtt_probes.emplace_back(pkt.bth->psn + 1, host_.sim().now());
  }
  const Bandwidth rate = current_rate(q);
  q.next_tx_time =
      host_.sim().now() + serialization_time(pkt.frame_bytes + kWireOverheadBytes, rate);

  host_.send_frame(std::move(pkt));
  arm_retx(q);
  return true;
}

const RdmaNic::InflightMsg* RdmaNic::find_inflight(const Qp& q, std::uint64_t psn) {
  // In-flight messages cover contiguous, increasing PSN ranges: the first
  // one ending past `psn` is the only candidate.
  const auto it = std::partition_point(q.inflight.begin(), q.inflight.end(),
                                       [psn](const InflightMsg& m) { return m.end_psn <= psn; });
  return it != q.inflight.end() && it->first_psn <= psn ? &*it : nullptr;
}

Packet RdmaNic::build_data_packet(Qp& q, const InflightMsg& msg, std::uint64_t psn,
                                  bool force_ack) {
  const std::uint64_t seg = psn - msg.first_psn;
  const std::uint64_t nseg = msg.end_psn - msg.first_psn;
  const std::int64_t payload = std::min<std::int64_t>(
      q.cfg.mtu_payload, msg.wqe.bytes - static_cast<std::int64_t>(seg) * q.cfg.mtu_payload);
  const bool first = seg == 0;
  const bool last = seg == nseg - 1;

  Packet pkt = make_roce_packet(q, PacketKind::kRoceData);
  pkt.payload_bytes = static_cast<std::int32_t>(payload);
  pkt.frame_bytes = kRoceDataOverheadBytes + payload;
  pkt.msg_id = msg.wqe.msg_id;
  pkt.bth->psn = static_cast<std::uint32_t>(psn);
  pkt.bth->ack_request = force_ack || last ||
                         (seg % static_cast<std::uint64_t>(q.cfg.ack_every) ==
                          static_cast<std::uint64_t>(q.cfg.ack_every) - 1);
  switch (msg.wqe.kind) {
    case SendWqe::Kind::kSend:
      pkt.bth->opcode = nseg == 1 ? RoceOpcode::kSendOnly
                        : first   ? RoceOpcode::kSendFirst
                        : last    ? RoceOpcode::kSendLast
                                  : RoceOpcode::kSendMiddle;
      break;
    case SendWqe::Kind::kWrite:
      pkt.bth->opcode = nseg == 1 ? RoceOpcode::kWriteOnly
                        : first   ? RoceOpcode::kWriteFirst
                        : last    ? RoceOpcode::kWriteLast
                                  : RoceOpcode::kWriteMiddle;
      break;
    case SendWqe::Kind::kReadResponse:
      pkt.bth->opcode = nseg == 1 ? RoceOpcode::kReadResponseOnly
                        : first   ? RoceOpcode::kReadResponseFirst
                        : last    ? RoceOpcode::kReadResponseLast
                                  : RoceOpcode::kReadResponseMiddle;
      break;
  }
  return pkt;
}

void RdmaNic::retransmit_one(Qp& q, std::uint64_t psn) {
  if (psn < q.una_psn) return;  // already acked
  const InflightMsg* m = find_inflight(q, psn);
  if (m == nullptr) return;
  // Prompt ACK on the hole-filling packet so the sender's window and the
  // receiver's hole state advance immediately.
  Packet pkt = build_data_packet(q, *m, psn, /*force_ack=*/true);
  ++stats_.data_packets_sent;
  ++stats_.data_packets_retx;
  q.engine->on_tx_segment(psn, /*is_retx=*/true, host_.sim().now());
  if (q.rate) q.rate->on_bytes_sent(pkt.frame_bytes);
  host_.send_frame(std::move(pkt));
  arm_retx(q);
}

void RdmaNic::arm_retx(Qp& q) {
  // The timer tracks the OLDEST unacked packet: once armed it must not be
  // refreshed by further transmissions, or a blackholed QP that keeps being
  // fed new work would reset its own timeout forever and never detect the
  // loss. It restarts only on ack progress (restart_retx) or on the
  // timeout itself.
  if (q.retx_ev != kInvalidEventId) return;
  if (q.una_psn >= q.next_new_psn) return;  // nothing outstanding
  // A throttled QP solicits its next ACK only after clocking out up to
  // ack_every more packets at its own rate — that self-clocking delay is
  // expected silence, not loss, so it extends the timeout. (At line rate
  // it is negligible; at DCQCN/TIMELY floor rates it dominates.)
  const Time self_clock = serialization_time(
      static_cast<std::int64_t>(q.cfg.ack_every) *
          (q.cfg.mtu_payload + kRoceDataOverheadBytes),
      current_rate(q));
  // The engine may adapt the base timeout to the path (selective repeat's
  // SRTT estimate); the go-back modes return the configured value as-is.
  const Time delay = (q.engine->rto(q.cfg.retx_timeout) + self_clock)
                     << std::min(q.consecutive_timeouts, kMaxBackoffShift);
  q.retx_ev = host_.sim().schedule_in(delay, [this, qptr = &q] { on_retx_timeout(*qptr); });
}

void RdmaNic::restart_retx(Qp& q) {
  host_.sim().cancel(q.retx_ev);
  q.retx_ev = kInvalidEventId;
  arm_retx(q);
}

void RdmaNic::on_retx_timeout(Qp& q) {
  q.retx_ev = kInvalidEventId;
  if (q.una_psn >= q.next_new_psn) return;
  // PFC gate: when our own egress is XOFF'd for this priority — or the
  // oldest unacked packet may still be sitting in the local port queue —
  // the silence is flow control, not loss. Lossless fabrics pause, they
  // don't drop; firing go-back-N here would retransmit packets that were
  // never lost and melt an incast. Hold the retry state machine instead
  // (it resumes once the pause clears and the queue drains). The pause
  // half applies only when this host actually runs the priority lossless:
  // on a PFC-disabled (lossy) fabric a stray pause frame must not wedge
  // the timer behind a gate that never clears.
  const EgressPort& out = host_.port(0);
  const bool pfc_gated = cfg_.lossless[static_cast<std::size_t>(q.cfg.priority)];
  if ((pfc_gated && out.paused(q.cfg.priority)) ||
      out.queued_bytes(q.cfg.priority) > 0) {
    arm_retx(q);
    return;
  }
  ++stats_.timeouts;
  ++q.consecutive_timeouts;
  if (q.cfg.retry_limit > 0 && q.consecutive_timeouts >= q.cfg.retry_limit) {
    // Retry exhausted: the QP enters the error state and goes quiet. The
    // application heals through the qp-error callback (the RDMA CM tears
    // the QP down and re-establishes a fresh one via REQ/REP).
    q.error = true;
    host_.sim().cancel(q.pacer_ev);
    q.pacer_ev = kInvalidEventId;
    ++stats_.qp_errors;
    for (const auto& cb : error_cbs_) cb(q.qpn);
    return;
  }
  // Selective repeat retransmits expired holes itself; the go-back modes
  // decline and fall through to the classic go_back from una.
  SenderOps ops{*this, q};
  if (!q.engine->on_timeout(q.una_psn, q.next_new_psn, ops)) {
    go_back(q, q.una_psn);
  }
  arm_retx(q);
}

void RdmaNic::reset_qp(std::uint32_t qpn) {
  Qp& q = qp(qpn);
  host_.sim().cancel(q.pacer_ev);
  host_.sim().cancel(q.retx_ev);
  host_.sim().cancel(q.atomic_retx_ev);
  for (auto& [msg_id, ev] : q.read_retx_evs) host_.sim().cancel(ev);
  q.read_retx_evs.clear();
  q.pacer_ev = q.retx_ev = q.atomic_retx_ev = kInvalidEventId;
  q.pending.clear();
  q.inflight.clear();
  q.next_new_psn = q.cursor_psn = q.una_psn = 0;
  // next_req_psn is deliberately NOT rewound: if only this side resets, the
  // peer's replay table may still hold entries under the old keys, and a
  // fresh request must never alias a stale one.
  q.expected_psn = 0;
  q.nak_armed = true;
  q.rx_taint = false;
  q.engine->reset();
  q.rtt_probes.clear();
  q.reads.clear();
  q.atomic_queue.clear();
  q.replay.clear();
  q.consecutive_timeouts = 0;
  if (q.blocked_on_port) unpark(q);  // a reconnected QP must not wake twice
  q.error = false;
  q.connected = false;
}

void RdmaNic::go_back(Qp& q, std::uint64_t psn) {
  q.rtt_probes.clear();  // Karn's rule: never time across a retransmission
  // go-back-N (and selective repeat's RNR path) restart from psn itself;
  // go-back-0 rewinds to the containing message's first PSN, floors una
  // there, and stamps its restart barrier (the §4.1 livelock couplings).
  SenderOps ops{*this, q};
  const LossRecoveryEngine::Restart plan = q.engine->plan_restart(psn, ops);
  q.cursor_psn = plan.cursor;
  if (plan.rewind_una) q.una_psn = std::min(q.una_psn, plan.cursor);
  arm_pacer(q);
}

void RdmaNic::advance_una(Qp& q, std::uint64_t msn) {
  if (msn <= q.una_psn) return;
  q.una_psn = msn;
  q.cursor_psn = std::max(q.cursor_psn, q.una_psn);
  q.consecutive_timeouts = 0;
  while (!q.inflight.empty() && q.inflight.front().end_psn <= q.una_psn) {
    const InflightMsg& m = q.inflight.front();
    if (m.wqe.kind != SendWqe::Kind::kReadResponse) {
      ++stats_.messages_completed;
      stats_.bytes_completed += m.wqe.bytes;
      if (completion_cb_) {
        completion_cb_(RdmaCompletion{q.qpn, m.wqe.msg_id, m.wqe.bytes, m.wqe.posted_at,
                                      host_.sim().now()});
      }
    }
    q.inflight.pop_front();
  }
  restart_retx(q);  // progress: time the next-oldest unacked packet afresh
  try_issue_atomic(q);  // the fence may have cleared (no-op without atomics)
}

// --- receive side ---------------------------------------------------------------

void RdmaNic::set_qp_fault(std::uint32_t qpn, const QpFaultSpec& spec) {
  qp_faults_.erase(qpn);  // replace = fresh RNG, fresh stats
  qp_faults_.emplace(qpn, QpFaultInjector(spec));
}

const QpFaultStats& RdmaNic::qp_fault_stats(std::uint32_t qpn) const {
  static const QpFaultStats kEmpty{};
  auto it = qp_faults_.find(qpn);
  return it == qp_faults_.end() ? kEmpty : it->second.stats;
}

void RdmaNic::handle(Packet pkt) {
  if (!pkt.bth) return;
  // Per-QP fault injection sits between the rx pipeline and the transport:
  // only packets addressed to a targeted QPN are touched, and a NIC with no
  // injectors installed pays a single emptiness check.
  if (!qp_faults_.empty()) {
    auto fit = qp_faults_.find(pkt.bth->dest_qp);
    if (fit != qp_faults_.end() && fit->second.spec.enabled) {
      QpFaultInjector& inj = fit->second;
      if (pkt.kind == PacketKind::kRoceData) {
        if (inj.spec.drop_rate > 0.0 && inj.rng.bernoulli(inj.spec.drop_rate)) {
          ++inj.stats.drops;
          ++stats_.injected_drops;
          return;
        }
        if (inj.spec.reorder_rate > 0.0 && inj.rng.bernoulli(inj.spec.reorder_rate)) {
          // Held back, then re-injected past the injector (a held packet
          // must not be re-dropped or re-held).
          ++inj.stats.reorders;
          ++stats_.injected_reorders;
          host_.sim().schedule_in(inj.spec.reorder_delay,
                                  [this, pkt = std::move(pkt)]() mutable {
                                    dispatch(std::move(pkt));
                                  });
          return;
        }
      } else if (pkt.kind == PacketKind::kRoceAck) {
        if (inj.spec.dup_ack_rate > 0.0 && inj.rng.bernoulli(inj.spec.dup_ack_rate)) {
          ++inj.stats.dup_acks;
          ++stats_.injected_dup_acks;
          dispatch(pkt);  // the duplicate; the original follows below
        }
      } else if (pkt.kind == PacketKind::kRoceReadReq ||
                 pkt.kind == PacketKind::kRoceAtomicReq) {
        if (inj.spec.dup_req_rate > 0.0 && inj.rng.bernoulli(inj.spec.dup_req_rate)) {
          // The non-idempotent-request duplicate: without the responder
          // replay table this re-executes the verb.
          ++inj.stats.dup_reqs;
          ++stats_.injected_dup_reqs;
          dispatch(pkt);  // the duplicate; the original follows below
        }
      }
    }
  }
  dispatch(std::move(pkt));
}

void RdmaNic::dispatch(Packet pkt) {
  Qp* found = find_qp(pkt.bth->dest_qp);
  if (found == nullptr) return;
  Qp& q = *found;
  if (q.error) return;  // wedged until reset; late packets must not revive it

  // §5.2 end-to-end integrity: the packet carries corruption that escaped
  // every link-level FCS check on its path, so only the invariant CRC —
  // which travels unmodified end to end — can catch it here. A corrupt data
  // packet is dropped and NAKed exactly like a lost one (once per episode,
  // §4.1), so go-back-N resends it and go-back-0 restarts the message
  // through the same restart-barrier machinery loss uses; a corrupted
  // ACK/NAK (or read request / CNP) is simply discarded — its fields can't
  // be trusted, and the sender's retransmission timer covers the loss.
  if (pkt.corrupt && icrc_verify_) {
    ++stats_.icrc_errors;
    if (pkt.kind == PacketKind::kRoceData && q.engine->on_icrc_drop(q.nak_armed)) {
      q.nak_armed = false;
      send_ack(q, AethSyndrome::kNakPsnSequenceError);
    }
    return;
  }

  switch (pkt.kind) {
    case PacketKind::kRoceData:
      handle_data(q, pkt);
      break;
    case PacketKind::kRoceAck:
      // Atomic ACKs bypass the PSN/engine machinery entirely: they complete
      // the one outstanding atomic by request-PSN match, nothing else.
      if (pkt.bth->opcode == RoceOpcode::kAtomicAck) {
        handle_atomic_ack(q, pkt);
      } else {
        handle_ack(q, pkt);
      }
      break;
    case PacketKind::kRoceReadReq:
      handle_read_req(q, pkt);
      break;
    case PacketKind::kRoceAtomicReq:
      handle_atomic_req(q, pkt);
      break;
    case PacketKind::kCnp:
      handle_cnp(q);
      break;
    default:
      break;
  }
}

void RdmaNic::maybe_send_cnp(Qp& q, const Packet& pkt) {
  if (!pkt.ip || pkt.ip->ecn != Ecn::kCe) return;
  const Time now = host_.sim().now();
  if (now - q.last_cnp_time < cfg_.dcqcn.cnp_interval) return;
  q.last_cnp_time = now;
  Packet cnp = make_roce_packet(q, PacketKind::kCnp);
  cnp.bth->opcode = RoceOpcode::kCnp;
  cnp.frame_bytes = kRoceDataOverheadBytes;
  cnp.ip->dscp = cfg_.cnp_dscp;
  cnp.ip->ecn = Ecn::kNotEct;
  cnp.priority = cfg_.cnp_dscp;
  ++stats_.cnps_sent;
  host_.send_frame(std::move(cnp));
}

void RdmaNic::deliver_in_order(Qp& q, const RxSegment& seg) {
  const RoceOpcode op = seg.opcode;
  const bool first = is_roce_message_start(op);
  const bool last = op == RoceOpcode::kSendLast || op == RoceOpcode::kWriteLast ||
                    op == RoceOpcode::kReadResponseLast || op == RoceOpcode::kSendOnly ||
                    op == RoceOpcode::kWriteOnly || op == RoceOpcode::kReadResponseOnly;
  if (first) {
    q.rx_msg_bytes = 0;
    q.rx_msg_start = seg.created_at;
    q.rx_taint = false;
  }
  q.rx_msg_bytes += seg.payload;
  // Only reachable with ICRC verification off: the corrupt segment was
  // consumed into the message, so whatever completes now is torn data.
  if (seg.corrupt) q.rx_taint = true;
  if (!last) return;
  if (q.rx_taint) ++stats_.corrupt_completions;

  if (is_read_response(op)) {
    // READ completion at the requester: exactly once — the entry is erased
    // and its re-issue timer cancelled, so neither a duplicate response
    // stream nor a stale timer can complete (or re-request) it again.
    auto rit = q.reads.find(seg.msg_id);
    if (rit != q.reads.end()) {
      const Time posted = rit->second.posted_at;
      ++stats_.messages_completed;
      stats_.bytes_completed += q.rx_msg_bytes;
      if (completion_cb_) {
        completion_cb_(
            RdmaCompletion{q.qpn, seg.msg_id, q.rx_msg_bytes, posted, host_.sim().now()});
      }
      q.reads.erase(rit);
      auto evit = q.read_retx_evs.find(seg.msg_id);
      if (evit != q.read_retx_evs.end()) {
        host_.sim().cancel(evit->second);
        q.read_retx_evs.erase(evit);
      }
      try_issue_atomic(q);  // a fenced atomic may now be unblocked
    }
  } else {
    ++stats_.messages_received;
    stats_.bytes_received += q.rx_msg_bytes;
    if (recv_cb_) {
      recv_cb_(RdmaRecv{q.qpn, seg.msg_id, q.rx_msg_bytes, q.rx_msg_start, host_.sim().now()});
    }
  }
}

void RdmaNic::handle_data(Qp& q, Packet& pkt) {
  maybe_send_cnp(q, pkt);  // NP reacts to the mark even on out-of-order packets

  const std::uint64_t psn = pkt.bth->psn;
  const RxSegment seg{pkt.payload_bytes, pkt.bth->opcode, pkt.msg_id, pkt.created_at,
                      pkt.corrupt};

  // go-back-0 peers restart the whole message on any loss (§4.1): when the
  // message-start segment comes around again below the cumulative high-water
  // mark, the receiver abandons its partial progress and takes the restarted
  // stream in order. Retaining expected_psn across restarts is what let each
  // pass resume mid-message and quietly defeated the livelock.
  bool retaken_start = false;
  if (q.engine->retake_message_start(psn, q.expected_psn, seg.opcode)) {
    q.expected_psn = psn;
    q.nak_armed = true;
    retaken_start = true;
  }

  if (psn == q.expected_psn) {
    // Receive WQE contract: the FIRST packet of a SEND needs a posted
    // receive buffer; otherwise the responder answers RNR NAK and does not
    // advance (the sender backs off and retries the whole message).
    const bool send_first = seg.opcode == RoceOpcode::kSendFirst ||
                            seg.opcode == RoceOpcode::kSendOnly;
    // A restarted message already consumed its receive WQE on the first pass.
    if (send_first && q.cfg.require_recv_wqes && !retaken_start) {
      if (q.recv_credits <= 0) {
        ++stats_.rnr_naks_sent;
        send_ack(q, AethSyndrome::kRnrNak);
        return;
      }
      --q.recv_credits;
    }
    ++q.expected_psn;
    q.nak_armed = true;
    deliver_in_order(q, seg);
    // Drain buffered segments the hole was blocking (selective repeat).
    bool drained_ooo = false;
    RxSegment buffered;
    while (q.engine->pop_buffered(q.expected_psn, &buffered)) {
      deliver_in_order(q, buffered);
      ++q.expected_psn;
      drained_ooo = true;
    }
    if (q.engine->has_buffered() && q.nak_armed) {
      // Another hole remains: report it right away.
      q.nak_armed = false;
      send_ack(q, AethSyndrome::kNakPsnSequenceError);
      return;
    }
    if (pkt.bth->ack_request || drained_ooo) send_ack(q, AethSyndrome::kAck);
    return;
  }

  if (psn > q.expected_psn) {
    // Selective repeat buffers up to its BDP cap; the go-back modes (and
    // overflow) drop.
    if (!q.engine->buffer_out_of_order(psn, seg)) ++stats_.out_of_order_drops;
    // Gap: a packet was lost. NAK once per episode (§4.1).
    if (q.nak_armed) {
      q.nak_armed = false;
      send_ack(q, AethSyndrome::kNakPsnSequenceError);
    } else if (q.engine->acks_out_of_order() && pkt.bth->ack_request) {
      send_ack(q, AethSyndrome::kAck);  // keep the sender's window fresh
    }
    return;
  }
  // Duplicate (psn < expected): the sender went back — re-arm NAK so a
  // repeated loss of the expected packet triggers a fresh NAK instead of
  // stalling until the retransmission timer (this is what keeps the §4.1
  // livelock link "fully utilized with line rate" while goodput stays 0).
  q.nak_armed = true;
  if (pkt.bth->ack_request) send_ack(q, AethSyndrome::kAck);
}

void RdmaNic::handle_ack(Qp& q, const Packet& pkt) {
  if (!pkt.aeth) return;
  // go-back-0: feedback generated before the last whole-message restart is
  // about the aborted pass. Same-priority RoCE paths deliver FIFO, so no
  // legitimate post-restart ACK can predate the barrier.
  if (!q.engine->admit_feedback(pkt.created_at)) return;
  // The wire MSN is 24 bits; widen it back around our cumulative-ack state
  // so PSN spaces past 2^24 keep advancing instead of snapping to zero.
  const std::uint64_t msn = expand_seq24(q.una_psn, pkt.aeth->msn);
  // TIMELY: RTT sample from the freshest probe this ACK covers.
  if (q.timely) {
    Time sent_at = -1;
    while (!q.rtt_probes.empty() && q.rtt_probes.front().first <= msn) {
      sent_at = q.rtt_probes.front().second;
      q.rtt_probes.pop_front();
    }
    if (sent_at >= 0) q.timely->on_rtt_sample(host_.sim().now() - sent_at);
  }
  // Selective repeat: SACK bookkeeping and the SRTT sample, before una
  // moves (the sample needs the tx record the cumulative ACK retires).
  q.engine->on_ack(msn, pkt.sack, host_.sim().now());
  advance_una(q, msn);
  if (pkt.aeth->syndrome == AethSyndrome::kNakPsnSequenceError) {
    if (q.engine->on_nak(msn).retransmit_single) {
      retransmit_one(q, msn);  // resend only the missing packet
    } else {
      go_back(q, msn);
    }
  } else if (pkt.aeth->syndrome == AethSyndrome::kRnrNak) {
    // Receiver not ready: back off, then retry the message from its start.
    ++stats_.rnr_naks_received;
    q.next_tx_time = std::max(q.next_tx_time, host_.sim().now() + q.cfg.rnr_delay);
    host_.sim().schedule_in(q.cfg.rnr_delay, [this, qptr = &q, msn] { go_back(*qptr, msn); });
  }
  // Selective repeat: ACK progress may have reopened the BDP window, and
  // the pacer is the only thing that resumes transmission.
  if (q.engine->reopen_window_on_ack()) arm_pacer(q);
}

void RdmaNic::handle_read_req(Qp& q, const Packet& pkt) {
  // Replay guard: a duplicate READ request (requester 8xRTO re-issue racing
  // a delayed response, or injected duplication) must not re-execute — the
  // original response stream is already in flight on the PSN-reliable
  // channel, so a second execution would double-send the data and burn
  // PSNs. Recognize it and drop it.
  const std::uint64_t req_psn = pkt.bth->psn;
  if (replay_lookup(q, req_psn) != nullptr) {
    ++stats_.atomic.dup_requests;
    return;
  }
  replay_insert(q, Qp::ReplayEntry{req_psn, /*atomic=*/false, 0});
  post_message(q, SendWqe{SendWqe::Kind::kReadResponse, pkt.read_length, pkt.msg_id,
                          pkt.created_at});
}

// --- responder-side atomic execution + replay guard -----------------------------

const RdmaNic::Qp::ReplayEntry* RdmaNic::replay_lookup(const Qp& q,
                                                       std::uint64_t req_psn) const {
  for (const auto& e : q.replay) {
    if (e.req_psn == req_psn) return &e;
  }
  return nullptr;
}

void RdmaNic::replay_insert(Qp& q, Qp::ReplayEntry entry) {
  q.replay.push_back(entry);
  while (q.replay.size() > static_cast<std::size_t>(std::max(1, q.cfg.replay_entries))) {
    q.replay.pop_front();
    ++stats_.atomic.replay_evictions;
  }
}

void RdmaNic::handle_atomic_req(Qp& q, const Packet& pkt) {
  if (!pkt.atomic) return;
  const std::uint64_t req_psn = pkt.bth->psn;
  // A duplicate atomic must NOT re-execute (FAA would double-increment, CAS
  // could succeed twice against an ABA'd word): answer from the cached
  // result instead — the IRN requirement that lossy-fabric recovery makes
  // non-idempotent-request dedup mandatory.
  if (const Qp::ReplayEntry* hit = replay_lookup(q, req_psn)) {
    ++stats_.atomic.dup_requests;
    send_atomic_ack(q, pkt, hit->orig);
    return;
  }
  const RoceAtomicEth& ath = *pkt.atomic;
  std::uint64_t& word = memory_[ath.addr];
  const std::uint64_t orig = word;
  if (pkt.bth->opcode == RoceOpcode::kCompareSwap) {
    ++stats_.atomic.cas_executed;
    if (orig == ath.compare) {
      word = ath.swap_add;
    } else {
      ++stats_.atomic.cas_failed;
    }
  } else {
    ++stats_.atomic.faa_executed;
    word = orig + ath.swap_add;
  }
  replay_insert(q, Qp::ReplayEntry{req_psn, /*atomic=*/true, orig});
  send_atomic_ack(q, pkt, orig);
}

void RdmaNic::send_atomic_ack(Qp& q, const Packet& req, std::uint64_t orig) {
  Packet ack = make_roce_packet(q, PacketKind::kRoceAck);
  ack.bth->opcode = RoceOpcode::kAtomicAck;
  // Echo the request PSN so the requester matches the ACK to its one
  // outstanding atomic (and ignores stale duplicates).
  ack.bth->psn = req.bth->psn;
  ack.aeth = RoceAeth{AethSyndrome::kAck,
                      static_cast<std::uint32_t>(q.expected_psn & 0x00ffffffu)};
  ack.atomic_ack = RoceAtomicAckEth{orig};
  ack.msg_id = req.msg_id;
  ack.frame_bytes = kRoceDataOverheadBytes + kAethBytes + kAtomicAckEthBytes;
  ++stats_.atomic.acks_sent;
  host_.send_frame(std::move(ack));
}

void RdmaNic::handle_atomic_ack(Qp& q, const Packet& pkt) {
  if (!pkt.atomic_ack) return;
  if (q.atomic_queue.empty()) return;  // stale/duplicate ACK: already done
  Qp::PendingAtomic& a = q.atomic_queue.front();
  if (!a.issued || (a.req_psn & 0x00ffffffu) != pkt.bth->psn) return;
  host_.sim().cancel(q.atomic_retx_ev);
  q.atomic_retx_ev = kInvalidEventId;
  ++stats_.atomic.completions;
  RdmaCompletion c{q.qpn, a.msg_id, static_cast<std::int64_t>(sizeof(std::uint64_t)),
                   a.posted_at, host_.sim().now()};
  c.atomic_orig = pkt.atomic_ack->orig;
  q.atomic_queue.pop_front();
  if (completion_cb_) completion_cb_(c);
  try_issue_atomic(q);  // next queued atomic, if any
}

void RdmaNic::handle_cnp(Qp& q) {
  ++stats_.cnps_received;
  if (q.rate) q.rate->on_cnp();
}

void RdmaNic::send_ack(Qp& q, AethSyndrome syndrome) {
  Packet ack = make_roce_packet(q, PacketKind::kRoceAck);
  ack.bth->opcode = RoceOpcode::kAcknowledge;
  // The AETH MSN field is 24 bits on the wire: mask here (the header is
  // metadata, but it must match what the codec would emit) and let the
  // requester's expand_seq24 widen it back around its una_psn.
  ack.aeth = RoceAeth{syndrome, static_cast<std::uint32_t>(q.expected_psn & 0x00ffffffu)};
  ack.frame_bytes = kRoceDataOverheadBytes + kAethBytes;
  // Selective repeat advertises its out-of-order buffer in a SACK bitmap
  // (always attached, even empty: presence marks the mode on the wire).
  if (const auto bitmap = q.engine->sack_bitmap(q.expected_psn)) {
    ack.sack = RoceSackExt{*bitmap};
    ack.frame_bytes += kSackBytes;
  }
  if (syndrome == AethSyndrome::kAck) {
    ++stats_.acks_sent;
  } else {
    ++stats_.naks_sent;
  }
  host_.send_frame(std::move(ack));
}

Packet RdmaNic::make_roce_packet(const Qp& q, PacketKind kind) {
  Packet pkt;
  pkt.kind = kind;
  pkt.created_at = host_.sim().now();
  pkt.priority = q.cfg.priority;
  Ipv4Header ip;
  ip.src = host_.ip();
  ip.dst = q.peer_ip;
  ip.dscp = q.cfg.dscp;
  ip.ecn = kind == PacketKind::kRoceData ? Ecn::kEct0 : Ecn::kNotEct;
  ip.id = host_.next_ip_id();
  pkt.ip = ip;
  pkt.udp = UdpHeader{q.udp_sport, kRoceUdpPort, 0};
  RoceBth bth;
  bth.dest_qp = q.peer_qpn;
  pkt.bth = bth;
  return pkt;
}

// --- transmit scheduling: the park list ----------------------------------------

void RdmaNic::park(Qp& q) {
  q.blocked_on_port = true;
  q.park_prev = park_tail_;
  q.park_next = nullptr;
  (park_tail_ != nullptr ? park_tail_->park_next : park_head_) = &q;
  park_tail_ = &q;
  ++parked_;
}

void RdmaNic::unpark(Qp& q) {
  (q.park_prev != nullptr ? q.park_prev->park_next : park_head_) = q.park_next;
  (q.park_next != nullptr ? q.park_next->park_prev : park_tail_) = q.park_prev;
  q.park_prev = q.park_next = nullptr;
  q.blocked_on_port = false;
  --parked_;
}

std::vector<std::uint32_t> RdmaNic::parked_qpns() const {
  std::vector<std::uint32_t> out;
  for (const Qp* q = park_head_; q != nullptr; q = q->park_next) out.push_back(q->qpn);
  return out;
}

void RdmaNic::on_port_drain() {
  // Wake the QPs parked when the drain began, oldest first. One that parks
  // again goes to the back, behind them, so the walk ends after `n` visits.
  for (std::size_t n = parked_; n > 0 && park_head_ != nullptr; --n) {
    Qp& q = *park_head_;
    unpark(q);
    ++stats_.port_wakes;
    // Grab the freed slot synchronously: a QP whose pacer fires at the same
    // timestamp as the drain would otherwise always win the tie and starve
    // the parked ones.
    if (q.pacer_ev != kInvalidEventId || q.next_tx_time > host_.sim().now()) {
      arm_pacer(q);
    } else {
      pacer_fire(q);
    }
  }
}

std::pair<std::uint32_t, std::uint32_t> connect_qp_pair(Host& a, Host& b, QpConfig cfg) {
  const auto qa = a.rdma().create_qp(cfg);
  const auto qb = b.rdma().create_qp(cfg);
  a.rdma().connect_qp(qa, b.ip(), qb);
  b.rdma().connect_qp(qb, a.ip(), qa);
  return {qa, qb};
}

}  // namespace rocelab
