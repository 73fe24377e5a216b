// The RoCEv2 NIC transport engine: queue pairs, verbs (SEND/WRITE/READ),
// PSN-sequenced reliable delivery with ACK/NAK, per-QP DCQCN rate control,
// and the DCQCN notification point (CNP generation on ECN marks). Loss
// recovery (go-back-0 / go-back-N / IRN-style selective repeat, §4.1 and
// §8.1) is delegated to the pluggable per-QP engine in src/nic/recovery.h.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include <map>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/net/packet.h"
#include "src/nic/config.h"
#include "src/nic/dcqcn.h"
#include "src/nic/recovery.h"
#include "src/nic/timely.h"
#include "src/sim/simulator.h"

namespace rocelab {

class Host;

/// Sender-side completion of a verb (SEND/WRITE acked end-to-end, READ
/// data fully arrived, or an atomic's original value returned).
struct RdmaCompletion {
  std::uint32_t qpn = 0;
  std::uint64_t msg_id = 0;
  std::int64_t bytes = 0;
  Time posted_at = 0;
  Time completed_at = 0;
  /// CAS/FAA only: the value the remote word held before the atomic
  /// executed. A CAS succeeded iff this equals the compare operand.
  std::uint64_t atomic_orig = 0;
};

/// Receiver-side arrival of a full message (SEND or WRITE).
struct RdmaRecv {
  std::uint32_t qpn = 0;
  std::uint64_t msg_id = 0;
  std::int64_t bytes = 0;
  Time sent_at = 0;   // when the first packet of the message was created
  Time received_at = 0;
};

/// Per-QP fault injection on the NIC receive path: the "which packet drops
/// matters" knob (Mittal et al., PAPERS.md) the link-level plane can't give
/// — packets for one target QPN are dropped, held back (reordered), or
/// ACK-duplicated before the transport sees them, while every other QP on
/// the NIC is untouched. Seeded; a constructed-but-disabled spec draws no
/// randomness, so installing one cannot perturb a deterministic run.
struct QpFaultSpec {
  bool enabled = true;
  double drop_rate = 0.0;     // drop incoming data segments
  double reorder_rate = 0.0;  // hold an incoming data segment for reorder_delay
  Time reorder_delay = microseconds(20);
  double dup_ack_rate = 0.0;  // deliver an incoming ACK/NAK a second time
  /// Deliver an incoming READ or atomic *request* a second time: the
  /// deterministic duplicate source the responder replay table is tested
  /// against (a re-executed duplicate corrupts application state).
  double dup_req_rate = 0.0;
  std::uint64_t seed = 1;
};

struct QpFaultStats {
  std::int64_t drops = 0;
  std::int64_t reorders = 0;
  std::int64_t dup_acks = 0;
  std::int64_t dup_reqs = 0;
};

struct RdmaNicStats {
  std::int64_t data_packets_sent = 0;
  std::int64_t data_packets_retx = 0;
  std::int64_t acks_sent = 0;
  std::int64_t naks_sent = 0;
  std::int64_t rnr_naks_sent = 0;
  std::int64_t rnr_naks_received = 0;
  std::int64_t cnps_sent = 0;
  std::int64_t cnps_received = 0;
  std::int64_t messages_completed = 0;
  std::int64_t bytes_completed = 0;     // sender goodput (acked)
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;      // receiver goodput (in-order delivered)
  std::int64_t out_of_order_drops = 0;
  std::int64_t timeouts = 0;
  /// QPs taken off the park list by transmit-queue drains (each visit
  /// counts, including an immediate re-park). Diagnostic only: not in the
  /// metric registry.
  std::int64_t port_wakes = 0;
  std::int64_t qp_errors = 0;  // QPs that exhausted their retry budget
  std::int64_t injected_drops = 0;     // per-QP fault plane: data segments eaten
  std::int64_t injected_reorders = 0;  // data segments delivered late
  std::int64_t injected_dup_acks = 0;  // ACKs delivered twice
  std::int64_t injected_dup_reqs = 0;  // READ/atomic requests delivered twice
  /// §5.2 end-to-end integrity: packets whose ICRC verify failed (corruption
  /// escaped every link-level FCS check) and were dropped by the NIC.
  std::int64_t icrc_errors = 0;
  /// Ground truth with ICRC verification DISABLED: messages completed to the
  /// application (sender completion or receiver delivery) that contained a
  /// corrupt segment — the torn data the InvariantAuditor's kDataIntegrity
  /// check asserts can never happen with the verify on.
  std::int64_t corrupt_completions = 0;
  /// Selective-repeat engine counters (rdma/selrep/*); zero in go-back modes.
  RecoveryCounters selrep;
  /// Atomic-verb plane (rdma/atomic/*): CAS/FAA execution at the responder,
  /// requester-side completions, and the replay guard that answers duplicate
  /// atomic *and* READ requests from cached state instead of re-executing.
  struct AtomicStats {
    std::int64_t cas_executed = 0;   // CAS requests executed (first delivery)
    std::int64_t cas_failed = 0;     // of those, compare mismatched (no swap)
    std::int64_t faa_executed = 0;   // FAA requests executed (first delivery)
    std::int64_t completions = 0;    // requester-side atomic completions
    std::int64_t reissues = 0;       // 8xRTO re-issues of an unacked atomic
    std::int64_t acks_sent = 0;      // atomic ACKs sent (replayed ones included)
    std::int64_t dup_requests = 0;   // replay-table hits: atomic + READ dups
    std::int64_t replay_evictions = 0;  // bounded-table entries pushed out
  } atomic;
};

class RdmaNic {
 public:
  RdmaNic(Host& host, const HostConfig& cfg);
  ~RdmaNic();
  RdmaNic(const RdmaNic&) = delete;
  RdmaNic& operator=(const RdmaNic&) = delete;

  // --- verbs API -----------------------------------------------------------
  std::uint32_t create_qp(QpConfig cfg);
  void connect_qp(std::uint32_t qpn, Ipv4Addr peer_ip, std::uint32_t peer_qpn);
  [[nodiscard]] const QpConfig& qp_config(std::uint32_t qpn) const;

  void post_send(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id = 0);
  void post_write(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id = 0);
  void post_read(std::uint32_t qpn, std::int64_t bytes, std::uint64_t msg_id = 0);
  /// Atomic verbs: compare-and-swap / fetch-and-add on one 64-bit word of
  /// the peer NIC's memory table. Atomics fence behind every prior posted
  /// operation on the QP (IB ordering) and execute one at a time, in post
  /// order; the completion carries the word's original value (atomic_orig).
  /// Exactly-once execution under loss/duplication is the responder replay
  /// table's job — a duplicate request is answered from the cached result.
  void post_cas(std::uint32_t qpn, std::uint64_t addr, std::uint64_t compare,
                std::uint64_t swap, std::uint64_t msg_id = 0);
  void post_faa(std::uint32_t qpn, std::uint64_t addr, std::uint64_t add,
                std::uint64_t msg_id = 0);

  /// The responder-side memory table atomics execute against: a flat
  /// 64-bit-word store keyed by virtual address, per NIC (it survives QP
  /// resets — it is application state, not transport state).
  [[nodiscard]] std::uint64_t memory_read(std::uint64_t addr) const;
  void memory_write(std::uint64_t addr, std::uint64_t value);
  /// Post `count` receive WQEs (only meaningful with
  /// QpConfig::require_recv_wqes; each incoming SEND consumes one).
  void post_recv(std::uint32_t qpn, int count);
  [[nodiscard]] int recv_credits(std::uint32_t qpn) const { return qp(qpn).recv_credits; }

  using CompletionCb = std::function<void(const RdmaCompletion&)>;
  using RecvCb = std::function<void(const RdmaRecv&)>;
  void set_completion_cb(CompletionCb cb) { completion_cb_ = std::move(cb); }
  void set_recv_cb(RecvCb cb) { recv_cb_ = std::move(cb); }

  /// Fires when a QP exhausts QpConfig::retry_limit consecutive timeouts
  /// and enters the error state (it stops transmitting; pending work is
  /// frozen until reset_qp). Multiple observers may register — the RDMA CM
  /// uses one slot for automatic reconnection, tests another.
  using QpErrorCb = std::function<void(std::uint32_t qpn)>;
  void add_qp_error_cb(QpErrorCb cb) { error_cbs_.push_back(std::move(cb)); }
  [[nodiscard]] bool qp_errored(std::uint32_t qpn) const { return qp(qpn).error; }
  [[nodiscard]] bool qp_connected(std::uint32_t qpn) const { return qp(qpn).connected; }

  /// Return a QP to a fresh, unconnected state: timers cancelled, send and
  /// receive state cleared, error flag dropped. The application (or the CM)
  /// re-connects it — or abandons it — afterwards.
  void reset_qp(std::uint32_t qpn);

  /// Pending (posted but not completed) work on a QP, in bytes.
  [[nodiscard]] std::int64_t backlog_bytes(std::uint32_t qpn) const;
  [[nodiscard]] Bandwidth qp_rate(std::uint32_t qpn) const;
  [[nodiscard]] double qp_alpha(std::uint32_t qpn) const;

  [[nodiscard]] const RdmaNicStats& stats() const { return stats_; }

  // --- per-QP fault injection ------------------------------------------------
  /// Install (or replace) a fault injector targeting `qpn` on this NIC's
  /// receive path; the QPN need not exist yet. Install/remove through
  /// ChaosEngine::qp_fault to journal the campaign.
  void set_qp_fault(std::uint32_t qpn, const QpFaultSpec& spec);
  void clear_qp_fault(std::uint32_t qpn) { qp_faults_.erase(qpn); }
  [[nodiscard]] const QpFaultStats& qp_fault_stats(std::uint32_t qpn) const;

  /// The UDP source port a QP stamps on its packets — the ECMP identity of
  /// its flow, needed to trace the QP's path through the fabric.
  [[nodiscard]] std::uint16_t qp_sport(std::uint32_t qpn) const { return qp(qpn).udp_sport; }

  /// §5.2 end-to-end integrity check, on by default: a received packet whose
  /// payload was corrupted past the link-level FCS checks fails the ICRC
  /// verify and is dropped (data packets additionally NAK so transport
  /// recovery resends them; corrupted ACKs are simply discarded). Turning it
  /// off models a NIC without end-to-end protection: torn payloads complete
  /// to the application and are tallied in stats().corrupt_completions.
  void set_icrc_verify(bool on) { icrc_verify_ = on; }
  [[nodiscard]] bool icrc_verify() const { return icrc_verify_; }

  // --- wiring from Host ------------------------------------------------------
  void handle(Packet pkt);     // a RoCE packet cleared the rx pipeline
  void on_port_drain();        // tx queue drained below the cap: resume QPs

  /// QPs parked on a full host transmit queue, in wake order (oldest first).
  [[nodiscard]] std::vector<std::uint32_t> parked_qpns() const;

 private:
  struct SendWqe {
    enum class Kind { kSend, kWrite, kReadResponse };
    Kind kind = Kind::kSend;
    std::int64_t bytes = 0;
    std::uint64_t msg_id = 0;
    Time posted_at = 0;
  };
  struct InflightMsg {
    std::uint64_t first_psn = 0;
    std::uint64_t end_psn = 0;  // one past the last PSN
    SendWqe wqe;
  };
  struct Qp {
    std::uint32_t qpn = 0;
    QpConfig cfg;
    Ipv4Addr peer_ip{};
    std::uint32_t peer_qpn = 0;
    std::uint16_t udp_sport = 0;
    bool connected = false;

    // Sender state.
    std::deque<SendWqe> pending;      // posted, not yet started
    std::deque<InflightMsg> inflight; // started, not fully acked
    std::uint64_t next_new_psn = 0;   // first never-transmitted PSN
    std::uint64_t cursor_psn = 0;     // next PSN to put on the wire
    std::uint64_t una_psn = 0;        // cumulative acked
    std::unique_ptr<DcqcnRp> rate;
    Time next_tx_time = 0;
    EventId pacer_ev = kInvalidEventId;
    EventId retx_ev = kInvalidEventId;
    /// Parked on a full transmit queue: set exactly while the QP is linked
    /// into the NIC's park list (park_prev/park_next).
    bool blocked_on_port = false;
    Qp* park_prev = nullptr;
    Qp* park_next = nullptr;
    int consecutive_timeouts = 0;
    bool error = false;  // retry budget exhausted; QP is wedged until reset
    /// The pluggable loss-recovery engine (src/nic/recovery.h): restart
    /// semantics, feedback admission, SACK/OOO state, and timer policy for
    /// this QP's configured mode.
    std::unique_ptr<LossRecoveryEngine> engine;

    // Receiver state.
    std::uint64_t expected_psn = 0;
    bool nak_armed = true;
    std::int64_t rx_msg_bytes = 0;
    Time rx_msg_start = 0;
    /// True if any segment consumed into the in-flight receive message was
    /// corrupt (only reachable with ICRC verification off): the completion
    /// is then a torn one and counts into corrupt_completions.
    bool rx_taint = false;
    Time last_cnp_time = -kSecond;
    int recv_credits = 0;  // receive WQEs available (require_recv_wqes)

    // TIMELY state: (first unacked psn after probe, tx time) pairs.
    std::unique_ptr<TimelyRp> timely;
    std::deque<std::pair<std::uint64_t, Time>> rtt_probes;

    // --- requester-side request plane (READs and atomics) ------------------
    /// Every READ / atomic request this side issues gets the next value of
    /// this counter stamped into its BTH PSN (masked to 24 wire bits): the
    /// responder's replay key. Re-issues of the same request reuse the same
    /// req PSN, so the responder can tell "duplicate" from "new request".
    std::uint64_t next_req_psn = 0;

    /// Outstanding READ requests issued by this side, keyed by msg_id.
    struct PendingRead {
      std::int64_t bytes = 0;
      Time posted_at = 0;
      std::uint64_t req_psn = 0;
    };
    std::unordered_map<std::uint64_t, PendingRead> reads;
    /// The 8xRTO re-issue timer per outstanding READ: stored so completion
    /// and reset_qp can cancel it (an untracked timer could re-post on an
    /// errored-but-connected QP).
    std::unordered_map<std::uint64_t, EventId> read_retx_evs;

    /// Posted atomics, front = oldest. Only the front may be on the wire
    /// (`issued`), and only once pending/inflight/reads have drained — the
    /// IB fence: an atomic executes after every prior op on the QP.
    struct PendingAtomic {
      RoceOpcode op = RoceOpcode::kFetchAdd;  // kCompareSwap or kFetchAdd
      std::uint64_t addr = 0;
      std::uint64_t compare = 0;
      std::uint64_t swap_add = 0;
      std::uint64_t msg_id = 0;
      Time posted_at = 0;
      std::uint64_t req_psn = 0;
      bool issued = false;
    };
    std::deque<PendingAtomic> atomic_queue;
    EventId atomic_retx_ev = kInvalidEventId;

    // --- responder-side replay guard ---------------------------------------
    /// Bounded FIFO of recently executed non-idempotent requests (atomics
    /// and READs), keyed by the requester's req PSN. A duplicate atomic is
    /// answered by resending the cached original value; a duplicate READ is
    /// dropped (its response stream is already PSN-reliable). Linear scan:
    /// the table is small (QpConfig::replay_entries) and scanned only on
    /// request arrival.
    struct ReplayEntry {
      std::uint64_t req_psn = 0;
      bool atomic = false;
      std::uint64_t orig = 0;  // atomics: value returned by the execution
    };
    std::deque<ReplayEntry> replay;
  };

  struct QpFaultInjector {
    QpFaultSpec spec;
    Rng rng;
    QpFaultStats stats;
    explicit QpFaultInjector(const QpFaultSpec& s) : spec(s), rng(s.seed) {}
  };

  /// The LossRecoveryEngine::Sender adapter an engine calls back through
  /// (now, single-packet retransmit, in-flight message lookup).
  struct SenderOps;

  Qp& qp(std::uint32_t qpn);
  const Qp& qp(std::uint32_t qpn) const;
  /// nullptr for a qpn this NIC never handed out (e.g. a wire dest_qp).
  Qp* find_qp(std::uint32_t qpn) const;
  void dispatch(Packet pkt);  // post-injection receive path
  void post_message(Qp& q, SendWqe wqe);
  void arm_pacer(Qp& q);
  void pacer_fire(Qp& q);
  bool transmit_next(Qp& q);
  /// The in-flight message holding `psn`, or nullptr.
  static const InflightMsg* find_inflight(const Qp& q, std::uint64_t psn);
  void park(Qp& q);
  void unpark(Qp& q);
  void arm_retx(Qp& q);
  void restart_retx(Qp& q);
  void on_retx_timeout(Qp& q);
  void go_back(Qp& q, std::uint64_t psn);
  void advance_una(Qp& q, std::uint64_t msn);

  [[nodiscard]] Bandwidth current_rate(const Qp& q) const;
  Packet build_data_packet(Qp& q, const InflightMsg& msg, std::uint64_t psn, bool force_ack);
  void retransmit_one(Qp& q, std::uint64_t psn);
  void deliver_in_order(Qp& q, const RxSegment& seg);
  void handle_data(Qp& q, Packet& pkt);
  void handle_ack(Qp& q, const Packet& pkt);
  void handle_read_req(Qp& q, const Packet& pkt);
  void handle_atomic_req(Qp& q, const Packet& pkt);
  void handle_atomic_ack(Qp& q, const Packet& pkt);
  void handle_cnp(Qp& q);
  // Requester-side READ/atomic request plane.
  void issue_read_req(Qp& q, std::uint64_t msg_id, const Qp::PendingRead& pr);
  void arm_read_retx(Qp& q, std::uint64_t msg_id);
  void post_atomic(std::uint32_t qpn, Qp::PendingAtomic a);
  void try_issue_atomic(Qp& q);
  void issue_atomic_req(Qp& q, const Qp::PendingAtomic& a);
  void arm_atomic_retx(Qp& q);
  // Responder-side replay guard + atomic execution.
  [[nodiscard]] const Qp::ReplayEntry* replay_lookup(const Qp& q,
                                                     std::uint64_t req_psn) const;
  void replay_insert(Qp& q, Qp::ReplayEntry entry);
  void send_atomic_ack(Qp& q, const Packet& req, std::uint64_t orig);
  void maybe_send_cnp(Qp& q, const Packet& pkt);
  void send_ack(Qp& q, AethSyndrome syndrome);
  Packet make_roce_packet(const Qp& q, PacketKind kind);

  Host& host_;
  HostConfig cfg_;
  /// Dense QP table: qpn N lives at index N - 1. QPs are never destroyed,
  /// so a Qp& (or a Qp* captured by a timer closure) stays valid for the
  /// NIC's lifetime.
  std::vector<std::unique_ptr<Qp>> qps_;
  std::unordered_map<std::uint32_t, QpFaultInjector> qp_faults_;
  /// Intrusive FIFO of parked QPs (linked through Qp::park_prev/park_next):
  /// no allocation on park, wake or unlink.
  Qp* park_head_ = nullptr;
  Qp* park_tail_ = nullptr;
  std::size_t parked_ = 0;
  CompletionCb completion_cb_;
  RecvCb recv_cb_;
  std::vector<QpErrorCb> error_cbs_;
  RdmaNicStats stats_;
  bool icrc_verify_ = true;
  /// Responder memory table: the 64-bit words atomics execute against.
  /// Never iterated (lookups only), so the unordered layout cannot leak
  /// into simulation order.
  std::unordered_map<std::uint64_t, std::uint64_t> memory_;
};

/// Create and connect a QP pair between two hosts with the same config.
/// Returns {qpn on a, qpn on b}.
std::pair<std::uint32_t, std::uint32_t> connect_qp_pair(Host& a, Host& b, QpConfig cfg);

}  // namespace rocelab
