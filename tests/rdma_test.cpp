// RoCEv2 transport: segmentation, ACK/NAK, go-back-0 vs go-back-N (§4.1),
// retransmission timers, READ, and multi-QP behaviour.
#include <gtest/gtest.h>

#include "src/app/demux.h"
#include "src/app/traffic.h"
#include "tests/testutil.h"

namespace rocelab {
namespace {

using testing::StarTopology;

QpConfig lab_qp() {
  QpConfig qp;
  qp.dcqcn = false;
  return qp;
}

TEST(RdmaTransport, SegmentsTo1086ByteFrames) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 10 * 1024, 1);  // 10 full + 1 partial
  topo.sim().run_until(milliseconds(1));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().data_packets_sent, 10);
  EXPECT_EQ(topo.hosts[1]->rdma().stats().bytes_received, 10 * 1024);
}

TEST(RdmaTransport, WriteBehavesLikeSend) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  std::int64_t got = 0;
  RdmaDemux demux(*topo.hosts[1]);
  demux.on_recv(qb, [&](const RdmaRecv& r) { got = r.bytes; });
  topo.hosts[0]->rdma().post_write(qa, 3000, 9);
  topo.sim().run_until(milliseconds(1));
  EXPECT_EQ(got, 3000);
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 1);
}

TEST(RdmaTransport, ReadPullsDataFromResponder) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  RdmaCompletion done{};
  RdmaDemux demux(*topo.hosts[0]);
  demux.on_completion(qa, [&](const RdmaCompletion& c) { done = c; });
  topo.hosts[0]->rdma().post_read(qa, 64 * 1024, 77);
  topo.sim().run_until(milliseconds(2));
  EXPECT_EQ(done.msg_id, 77u);
  EXPECT_EQ(done.bytes, 64 * 1024);
  // Data flowed from the responder, so B's NIC transmitted the packets.
  EXPECT_GT(topo.hosts[1]->rdma().stats().data_packets_sent, 60);
}

TEST(RdmaTransport, MessagesCompleteInOrder) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  std::vector<std::uint64_t> completed;
  RdmaDemux demux(*topo.hosts[0]);
  demux.on_completion(qa, [&](const RdmaCompletion& c) { completed.push_back(c.msg_id); });
  for (std::uint64_t m = 1; m <= 5; ++m) topo.hosts[0]->rdma().post_send(qa, 8 * 1024, m);
  topo.sim().run_until(milliseconds(2));
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(RdmaTransport, ZeroOrNegativeSizeThrows) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  EXPECT_THROW(topo.hosts[0]->rdma().post_send(qa, 0, 1), std::invalid_argument);
  EXPECT_THROW(topo.hosts[0]->rdma().post_send(qa, -5, 1), std::invalid_argument);
}

TEST(RdmaTransport, PostOnUnconnectedQpThrows) {
  StarTopology topo(2);
  const auto qpn = topo.hosts[0]->rdma().create_qp(lab_qp());
  EXPECT_THROW(topo.hosts[0]->rdma().post_send(qpn, 100, 1), std::logic_error);
}

TEST(RdmaTransport, UnknownQpThrows) {
  StarTopology topo(2);
  EXPECT_THROW(topo.hosts[0]->rdma().post_send(999, 100, 1), std::invalid_argument);
}

TEST(RdmaLoss, GoBackNRecoversSingleDrop) {
  StarTopology topo(2);
  // Drop exactly one data packet.
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceData && p.bth->psn == 5 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp = lab_qp();
  qp.recovery = LossRecovery::kGoBackN;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 20 * 1024, 1);
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 1);
  EXPECT_EQ(topo.hosts[1]->rdma().stats().bytes_received, 20 * 1024);
  EXPECT_EQ(topo.hosts[1]->rdma().stats().naks_sent, 1);
  // Go-back-N resends from PSN 5 only: at most ~RTT worth of dups.
  EXPECT_LE(topo.hosts[0]->rdma().stats().data_packets_retx, 15);
}

TEST(RdmaLoss, GoBack0RestartsWholeMessage) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceData && p.bth->psn == 5 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp = lab_qp();
  qp.recovery = LossRecovery::kGoBack0;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 20 * 1024, 1);  // PSNs 0..19
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 1);
  // Restarted from packet 0: at least the 5 pre-drop packets retransmitted.
  EXPECT_GE(topo.hosts[0]->rdma().stats().data_packets_retx, 5);
}

TEST(RdmaLoss, TailDropRecoveredByTimeout) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    // Drop the LAST packet of the message once: no later packet triggers a
    // NAK, so only the retransmission timer can recover.
    if (p.kind == PacketKind::kRoceData && p.bth->psn == 9 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp = lab_qp();
  qp.retx_timeout = microseconds(100);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 10 * 1024, 1);
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 1);
  EXPECT_GT(topo.hosts[0]->rdma().stats().timeouts, 0);
}

TEST(RdmaLoss, LostAckRecovered) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceAck && dropped < 1) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp = lab_qp();
  qp.retx_timeout = microseconds(100);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 4 * 1024, 1);
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 1);
}

TEST(RdmaLoss, DuplicatesDoNotDoubleDeliver) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceData && p.bth->psn == 2 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp = lab_qp();
  qp.recovery = LossRecovery::kGoBack0;  // maximizes duplicates
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  int recv_count = 0;
  std::int64_t recv_bytes = 0;
  RdmaDemux demux(*topo.hosts[1]);
  demux.on_recv(qb, [&](const RdmaRecv& r) {
    ++recv_count;
    recv_bytes += r.bytes;
  });
  topo.hosts[0]->rdma().post_send(qa, 10 * 1024, 1);
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(recv_count, 1);
  EXPECT_EQ(recv_bytes, 10 * 1024);
}

TEST(RdmaLoss, NakSuppressedToOnePerEpisode) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceData && p.bth->psn == 3 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 40 * 1024, 1);  // many packets follow the gap
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.hosts[1]->rdma().stats().naks_sent, 1);
  EXPECT_GT(topo.hosts[1]->rdma().stats().out_of_order_drops, 1);
}

TEST(RdmaQp, MultipleQpsShareTheNicFairly) {
  StarTopology topo(3);
  QpConfig qp = lab_qp();
  auto [q1, q1b] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  auto [q2, q2b] = connect_qp_pair(*topo.hosts[0], *topo.hosts[2], qp);
  (void)q1b; (void)q2b;
  RdmaDemux demux(*topo.hosts[0]);
  RdmaStreamSource s1(*topo.hosts[0], demux, q1, {.message_bytes = 64 * kKiB, .max_outstanding = 2});
  RdmaStreamSource s2(*topo.hosts[0], demux, q2, {.message_bytes = 64 * kKiB, .max_outstanding = 2});
  s1.start();
  s2.start();
  topo.sim().run_until(milliseconds(10));
  const double g1 = s1.goodput_bps();
  const double g2 = s2.goodput_bps();
  EXPECT_GT(g1, 10e9);
  EXPECT_GT(g2, 10e9);
  EXPECT_NEAR(g1 / g2, 1.0, 0.25);
}

TEST(RdmaQp, DistinctUdpSourcePorts) {
  StarTopology topo(2);
  auto& nic = topo.hosts[0]->rdma();
  // Registered source ports should differ across QPs (ECMP spreading, §2).
  std::set<std::uint32_t> qpns;
  for (int i = 0; i < 8; ++i) qpns.insert(nic.create_qp(lab_qp()));
  EXPECT_EQ(qpns.size(), 8u);
}

TEST(RdmaQp, BacklogTracksPendingWork) {
  StarTopology topo(2);
  // Pause the host's egress so nothing escapes.
  topo.hosts[0]->port(0).receive_pause(3, 0xffff);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 100 * 1024, 1);
  EXPECT_EQ(topo.hosts[0]->rdma().backlog_bytes(qa), 100 * 1024);
}

TEST(RdmaAck, PeriodicAcksBoundSenderUncertainty) {
  StarTopology topo(2);
  QpConfig qp = lab_qp();
  qp.ack_every = 4;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 32 * 1024, 1);  // 32 packets
  topo.sim().run_until(milliseconds(2));
  // With ack_every=4 over 32 packets: 8 acks.
  EXPECT_GE(topo.hosts[1]->rdma().stats().acks_sent, 8);
}

// --- transmit scheduling: QPs parked on a full host queue -------------------------

// XOFFs the host's RDMA class (priority 3) for 0xffff quanta (~839 us at
// 40G), so its egress queue fills to the 32 KiB cap and the sending QPs park.
void pause_host(Host& h) { h.port(0).receive_pause(3, 0xffff); }

// Releases exactly one queued frame: XON starts one transmission (the
// dequeue fires the drain), and the immediate XOFF holds the rest.
void release_one_frame(Host& h) {
  h.port(0).receive_pause(3, 0);
  h.port(0).receive_pause(3, 0xffff);
}

TEST(RdmaPark, HostLinkFlapWakesParkedQps) {
  // A link-down flush empties the queue without a dequeue. It must still
  // wake the parked QPs, or nothing ever does: the pacer, go_back and the
  // retransmit timer all leave a parked QP alone.
  StarTopology topo(2);
  Host& h0 = *topo.hosts[0];
  const std::uint32_t qa = connect_qp_pair(h0, *topo.hosts[1], lab_qp()).first;
  RdmaDemux demux(h0);
  RdmaStreamSource src(h0, demux, qa, {});
  src.start();
  topo.sim().schedule_at(microseconds(100), [&] { pause_host(h0); });
  topo.sim().schedule_at(microseconds(120), [&] { h0.set_link_up(0, false); });
  topo.sim().schedule_at(microseconds(125), [&] { h0.set_link_up(0, true); });
  topo.sim().run_until(microseconds(119));
  ASSERT_EQ(h0.rdma().parked_qpns(), std::vector<std::uint32_t>{qa});
  topo.sim().run_until(microseconds(125));
  EXPECT_TRUE(h0.rdma().parked_qpns().empty());
  const std::int64_t sent = h0.rdma().stats().data_packets_sent;
  const std::int64_t done = src.completed_messages();
  topo.sim().run_until(milliseconds(20));
  EXPECT_GT(h0.rdma().stats().data_packets_sent - sent, 10000);
  EXPECT_GT(src.completed_messages(), done);
}

TEST(RdmaPark, ParkedQpsResumeInFifoOrder) {
  StarTopology topo(4);
  Host& h0 = *topo.hosts[0];
  RdmaNic& nic = h0.rdma();
  std::vector<std::uint32_t> qpns;
  for (int i = 1; i <= 3; ++i) {
    qpns.push_back(connect_qp_pair(h0, *topo.hosts[static_cast<std::size_t>(i)], lab_qp()).first);
  }
  pause_host(h0);
  // Park in the order c, a, b: c fills the queue, then a and b find it full.
  const std::uint32_t a = qpns[0], b = qpns[1], c = qpns[2];
  nic.post_send(c, 1 * kMiB, 1);
  topo.sim().run_until(microseconds(20));
  nic.post_send(a, 1 * kMiB, 2);
  topo.sim().run_until(microseconds(30));
  nic.post_send(b, 1 * kMiB, 3);
  topo.sim().run_until(microseconds(40));
  ASSERT_EQ(nic.parked_qpns(), (std::vector<std::uint32_t>{c, a, b}));

  // Each one-frame drain hands the freed slot to the oldest parked QP; the
  // others park again in their old order, and the served QP rejoins at the
  // back once its pacer finds the queue full.
  const std::vector<std::vector<std::uint32_t>> expect_after_release = {
      {a, b}, {b, c}, {c, a}, {a, b}};
  const std::vector<std::vector<std::uint32_t>> expect_after_pacer = {
      {a, b, c}, {b, c, a}, {c, a, b}, {a, b, c}};
  for (std::size_t round = 0; round < expect_after_release.size(); ++round) {
    const std::int64_t wakes = nic.stats().port_wakes;
    release_one_frame(h0);
    EXPECT_EQ(nic.stats().port_wakes - wakes, 3) << "round " << round;
    EXPECT_EQ(nic.parked_qpns(), expect_after_release[round]) << "round " << round;
    topo.sim().run_until(topo.sim().now() + microseconds(2));
    EXPECT_EQ(nic.parked_qpns(), expect_after_pacer[round]) << "round " << round;
  }
}

TEST(RdmaPark, FullQueueAtOnePriorityDoesNotHoldBackAnother) {
  StarTopology topo(3);
  Host& h0 = *topo.hosts[0];
  RdmaNic& nic = h0.rdma();
  QpConfig low = lab_qp();
  low.priority = 1;
  low.dscp = 1;
  const std::uint32_t parked = connect_qp_pair(h0, *topo.hosts[1], lab_qp()).first;
  const std::uint32_t other = connect_qp_pair(h0, *topo.hosts[2], low).first;
  RdmaCompletion done{};
  RdmaDemux demux(h0);
  demux.on_completion(other, [&](const RdmaCompletion& c) { done = c; });
  pause_host(h0);
  nic.post_send(parked, 1 * kMiB, 1);
  topo.sim().run_until(microseconds(20));
  ASSERT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{parked});

  const std::int64_t wakes = nic.stats().port_wakes;
  nic.post_send(other, 64 * kKiB, 7);
  topo.sim().run_until(microseconds(200));
  EXPECT_EQ(done.msg_id, 7u);
  EXPECT_EQ(done.bytes, 64 * kKiB);
  // Every priority-1 dequeue woke the parked QP, and each time it parked
  // again behind its still-full priority-3 queue.
  EXPECT_GE(nic.stats().port_wakes - wakes, 64);
  EXPECT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{parked});
  EXPECT_EQ(nic.backlog_bytes(parked), 1 * kMiB);
}

TEST(RdmaPark, ResetUnparksSoAReconnectedQpWakesOnce) {
  StarTopology topo(2);
  Host& h0 = *topo.hosts[0];
  RdmaNic& nic = h0.rdma();
  auto [qa, qb] = connect_qp_pair(h0, *topo.hosts[1], lab_qp());
  pause_host(h0);
  nic.post_send(qa, 1 * kMiB, 1);
  topo.sim().run_until(microseconds(20));
  ASSERT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{qa});

  nic.reset_qp(qa);
  EXPECT_TRUE(nic.parked_qpns().empty());
  nic.connect_qp(qa, topo.hosts[1]->ip(), qb);
  nic.post_send(qa, 1 * kMiB, 2);
  topo.sim().run_until(microseconds(40));
  ASSERT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{qa});

  // The queue is still full and paused: one drain visits the QP once, and
  // it parks again in the same single slot.
  const std::int64_t wakes = nic.stats().port_wakes;
  nic.on_port_drain();
  EXPECT_EQ(nic.stats().port_wakes - wakes, 1);
  EXPECT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{qa});
}

TEST(RdmaPark, SelrepWokenQpWithClosedWindowLeavesTheList) {
  // A QP parked mid-retransmission (cursor below next_new) is not window
  // checked. If a SACK then covers the cursor, the woken QP skips to
  // next_new, finds the window closed, and must leave the park list: the
  // ACK that reopens the window re-arms its pacer.
  StarTopology topo(2);
  Host& h0 = *topo.hosts[0];
  RdmaNic& nic = h0.rdma();
  QpConfig qp = lab_qp();
  qp.recovery = LossRecovery::kSelectiveRepeat;
  qp.selrep_bdp_bytes = 16 * 1024;  // a 16-packet window
  auto [qa, qb] = connect_qp_pair(h0, *topo.hosts[1], qp);
  (void)qb;
  pause_host(h0);
  nic.post_send(qa, 64 * kKiB, 1);
  topo.sim().run_until(microseconds(20));
  ASSERT_TRUE(nic.parked_qpns().empty());  // stopped by the window, not the port
  ASSERT_EQ(nic.stats().data_packets_sent, 16);

  auto ack_to_a = [&](AethSyndrome syndrome, std::optional<RoceSackExt> sack) {
    Packet pkt;
    pkt.kind = PacketKind::kRoceAck;
    pkt.created_at = topo.sim().now();
    RoceBth bth;
    bth.opcode = RoceOpcode::kAcknowledge;
    bth.dest_qp = qa;
    pkt.bth = bth;
    pkt.aeth = RoceAeth{syndrome, 0};
    pkt.sack = sack;
    nic.handle(std::move(pkt));
  };
  // An RNR NAK at PSN 0 rewinds the cursor. The resend of PSNs 0..14 fills
  // the queue, and the QP parks at PSN 15 with next_new at 16.
  ack_to_a(AethSyndrome::kRnrNak, std::nullopt);
  topo.sim().run_until(microseconds(200));
  ASSERT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{qa});
  ASSERT_EQ(nic.stats().data_packets_sent, 31);

  ack_to_a(AethSyndrome::kAck, RoceSackExt{1ull << 14});  // SACKs PSN 15
  EXPECT_EQ(nic.parked_qpns(), std::vector<std::uint32_t>{qa});
  nic.on_port_drain();
  EXPECT_TRUE(nic.parked_qpns().empty());
  EXPECT_EQ(nic.stats().data_packets_sent, 31);
}

TEST(RdmaPark, DispatchDropsFramesForUnknownQps) {
  StarTopology topo(2);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], lab_qp());
  (void)qa;
  RdmaNic& nic = topo.hosts[1]->rdma();
  for (const std::uint32_t dest : {0u, qb + 1, 0xffffffu}) {
    Packet pkt;
    pkt.kind = PacketKind::kRoceData;
    pkt.created_at = topo.sim().now();
    pkt.payload_bytes = 1024;
    RoceBth bth;
    bth.opcode = RoceOpcode::kSendOnly;
    bth.dest_qp = dest;
    bth.ack_request = true;
    pkt.bth = bth;
    nic.handle(std::move(pkt));
  }
  topo.sim().run_until(microseconds(10));
  EXPECT_EQ(nic.stats().messages_received, 0);
  EXPECT_EQ(nic.stats().acks_sent, 0);
  EXPECT_EQ(nic.stats().naks_sent, 0);
  EXPECT_EQ(nic.stats().out_of_order_drops, 0);
}

}  // namespace
}  // namespace rocelab
