// Second coverage battery: transport parameter sweeps, switch accounting
// internals, application-layer behaviours, and regression cases for bugs
// found during development.
#include <gtest/gtest.h>

#include "src/app/demux.h"
#include "src/app/traffic.h"
#include "tests/testutil.h"

namespace rocelab {
namespace {

using testing::StarTopology;

// --- transport parameter sweeps -------------------------------------------------

// gtest names each case by the raw bytes of its param struct, so the struct
// has no implicit padding, whose bytes would change the test ids from run to
// run. The `pad` values mean nothing: they only reproduce the ids these cases
// were first recorded under. They play no part in the test.
struct MtuCase {
  std::int32_t mtu;
  std::uint32_t pad;
  std::int64_t message;
};

class MtuSweep : public ::testing::TestWithParam<MtuCase> {};

TEST_P(MtuSweep, SegmentationAndDeliveryExact) {
  const auto param = GetParam();
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  qp.mtu_payload = param.mtu;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, param.message, 1);
  topo.sim().run_until(milliseconds(20));
  EXPECT_EQ(topo.hosts[1]->rdma().stats().bytes_received, param.message);
  const std::int64_t expect_packets = (param.message + param.mtu - 1) / param.mtu;
  EXPECT_EQ(topo.hosts[0]->rdma().stats().data_packets_sent, expect_packets);
}

INSTANTIATE_TEST_SUITE_P(Cases, MtuSweep,
                         ::testing::Values(MtuCase{256, 0x5624, 10000},
                                           MtuCase{512, 0x5624, 512}, MtuCase{1024, 0, 1},
                                           MtuCase{1024, 0x7fff, 1024},
                                           MtuCase{1024, 0x7fff, 1025},
                                           MtuCase{4096, 0, 1 * kMiB},
                                           MtuCase{1024, 0x5624, 3 * kMiB}));

class AckEverySweep : public ::testing::TestWithParam<int> {};

TEST_P(AckEverySweep, CompletesRegardlessOfAckCadence) {
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  qp.ack_every = GetParam();
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  for (std::uint64_t m = 0; m < 4; ++m) topo.hosts[0]->rdma().post_send(qa, 50000, m);
  topo.sim().run_until(milliseconds(10));
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 4);
}

INSTANTIATE_TEST_SUITE_P(Cadence, AckEverySweep, ::testing::Values(1, 2, 8, 64));

TEST(RdmaRead, LostRequestRecoveredByReissue) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceReadReq && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp;
  qp.dcqcn = false;
  qp.retx_timeout = microseconds(100);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  RdmaCompletion done{};
  RdmaDemux demux(*topo.hosts[0]);
  demux.on_completion(qa, [&](const RdmaCompletion& c) { done = c; });
  topo.hosts[0]->rdma().post_read(qa, 16 * 1024, 5);
  topo.sim().run_until(milliseconds(20));
  EXPECT_EQ(done.msg_id, 5u);
  EXPECT_EQ(done.bytes, 16 * 1024);
  EXPECT_EQ(dropped, 1);
}

TEST(RdmaRead, ResponseLossRecoveredByResponderGoBackN) {
  StarTopology topo(2);
  int dropped = 0;
  topo.sw().set_drop_filter([&dropped](const Packet& p) {
    if (p.kind == PacketKind::kRoceData && is_read_response(p.bth->opcode) && dropped == 0 &&
        p.bth->psn == 3) {
      ++dropped;
      return true;
    }
    return false;
  });
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  RdmaCompletion done{};
  RdmaDemux demux(*topo.hosts[0]);
  demux.on_completion(qa, [&](const RdmaCompletion& c) { done = c; });
  topo.hosts[0]->rdma().post_read(qa, 32 * 1024, 9);
  topo.sim().run_until(milliseconds(20));
  EXPECT_EQ(done.bytes, 32 * 1024);
  EXPECT_EQ(dropped, 1);
  // The RESPONDER (host 1) ran the go-back-N recovery for its response
  // stream.
  EXPECT_GT(topo.hosts[1]->rdma().stats().data_packets_retx, 0);
}

TEST(RdmaCompletionTiming, LatencyCoversWireTime) {
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  RdmaCompletion done{};
  RdmaDemux demux(*topo.hosts[0]);
  demux.on_completion(qa, [&](const RdmaCompletion& c) { done = c; });
  topo.hosts[0]->rdma().post_send(qa, 1 * kMiB, 1);
  topo.sim().run_until(milliseconds(5));
  // 1MiB at 40G is ~210us of pure serialization; the completion must be
  // at least that far after the post.
  EXPECT_GE(done.completed_at - done.posted_at, microseconds(200));
  EXPECT_LT(done.completed_at - done.posted_at, microseconds(400));
}

TEST(RdmaCnp, RidesConfiguredLossyClass) {
  SwitchConfig cfg = testing::basic_switch_config();
  cfg.ecn[3] = EcnConfig{true, 1 * kKiB, 2 * kKiB, 1.0};  // mark everything
  StarTopology topo(3, cfg);
  QpConfig qp;  // DCQCN on
  auto [q1, q1b] = connect_qp_pair(*topo.hosts[0], *topo.hosts[2], qp);
  auto [q2, q2b] = connect_qp_pair(*topo.hosts[1], *topo.hosts[2], qp);
  (void)q1b; (void)q2b;
  topo.hosts[0]->rdma().post_send(q1, 256 * kKiB, 1);
  topo.hosts[1]->rdma().post_send(q2, 256 * kKiB, 2);
  topo.sim().run_until(milliseconds(5));
  ASSERT_GT(topo.hosts[2]->rdma().stats().cnps_sent, 0);
  // CNPs left the receiver on the configured cnp_dscp class (6 default).
  EXPECT_GT(topo.hosts[2]->port(0).counters().tx_packets[6], 0);
}

// --- switch internals ---------------------------------------------------------

TEST(SwitchRouting, LongestPrefixWins) {
  StarTopology topo(2);
  // Add a /16 route pointing at port 0 (the wrong place) and keep the /24
  // local subnet: local delivery must win by prefix length.
  topo.sw().add_route(Ipv4Prefix{Ipv4Addr::from_octets(10, 0, 0, 0), 16}, {0});
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 4096, 1);
  topo.sim().run_until(milliseconds(1));
  EXPECT_EQ(topo.hosts[1]->rdma().stats().messages_received, 1);
}

TEST(SwitchMatrix, InflightBytesTracksQueuedTraffic) {
  StarTopology topo(3);
  // Pause host 2's port at the switch so traffic to it stays queued.
  topo.sw().port(2).receive_pause(3, 0xffff);
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[2], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 20 * 1024, 1);
  topo.sim().run_until(microseconds(100));
  // Bytes admitted on ingress 0 queued at egress 2 on priority 3.
  EXPECT_GT(topo.sw().inflight_bytes(0, 2, 3), 0);
  EXPECT_EQ(topo.sw().inflight_bytes(1, 2, 3), 0);
  // Unpause: matrix drains back to zero.
  topo.sw().port(2).receive_pause(3, 0);
  topo.sim().run_until(milliseconds(5));
  EXPECT_EQ(topo.sw().inflight_bytes(0, 2, 3), 0);
}

TEST(SwitchFlooding, SharedChargeReleasedWhenLastCopyLeaves) {
  StarTopology topo(4);
  topo.fabric->kill_host(*topo.hosts[1]);
  // Pause one flood target so one copy lingers.
  topo.sw().port(3).receive_pause(3, 0xffff);
  QpConfig qp;
  qp.dcqcn = false;
  qp.retx_timeout = milliseconds(50);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 2048, 1);
  // Check well before the 0xffff pause expires on its own (~839us).
  topo.sim().run_until(microseconds(300));
  // Copies to ports 1,2 drained, but the shared buffer is still charged
  // because the port-3 copy is stuck.
  EXPECT_GT(topo.sw().mmu().pg_total(0, 3), 0);
  topo.sw().port(3).receive_pause(3, 0);
  topo.sim().run_until(milliseconds(2));
  EXPECT_EQ(topo.sw().mmu().pg_total(0, 3), 0);
}

TEST(SwitchWatchdog, DoesNotTripOnHealthyCongestion) {
  SwitchConfig cfg = testing::basic_switch_config();
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_interval = milliseconds(1);
  cfg.watchdog.trigger_after = milliseconds(5);
  StarTopology topo(4, cfg);
  // Honest 3-to-1 incast: pauses happen, but the receiver keeps draining,
  // so the watchdog must NOT disable lossless mode.
  QpConfig qp;
  qp.dcqcn = false;
  std::vector<std::unique_ptr<RdmaDemux>> demuxes;
  std::vector<std::unique_ptr<RdmaStreamSource>> sources;
  for (int i = 0; i < 3; ++i) {
    auto [qa, qb] = connect_qp_pair(*topo.hosts[static_cast<std::size_t>(i)], *topo.hosts[3], qp);
    (void)qb;
    demuxes.push_back(std::make_unique<RdmaDemux>(*topo.hosts[static_cast<std::size_t>(i)]));
    sources.push_back(std::make_unique<RdmaStreamSource>(
        *topo.hosts[static_cast<std::size_t>(i)], *demuxes.back(), qa,
        RdmaStreamSource::Options{.message_bytes = 128 * kKiB, .max_outstanding = 2}));
    sources.back()->start();
  }
  topo.sim().run_until(milliseconds(50));
  EXPECT_EQ(topo.sw().watchdog_trips(), 0);
  for (int p = 0; p < 4; ++p) EXPECT_FALSE(topo.sw().lossless_disabled(p));
}

TEST(SwitchDscpMapping, ManyToOneMapping) {
  // §3: "The mapping between DSCP values and PFC priorities can be
  // flexible and can even be many-to-one."
  SwitchConfig cfg = testing::basic_switch_config();
  cfg.dscp_to_pg = {3, 3, 3, 3, 4, 4, 4, 4};  // 0-3 -> PG3, 4-7 -> PG4
  cfg.lossless[4] = true;
  StarTopology topo(2, cfg);
  for (int dscp : {0, 2, 5}) {
    Packet pkt;
    pkt.kind = PacketKind::kRaw;
    pkt.frame_bytes = 100;
    Ipv4Header ip;
    ip.src = topo.hosts[0]->ip();
    ip.dst = topo.hosts[1]->ip();
    ip.dscp = static_cast<std::uint8_t>(dscp);
    pkt.ip = ip;
    topo.hosts[0]->send_frame(std::move(pkt));
  }
  topo.sim().run_until(milliseconds(1));
  EXPECT_EQ(topo.sw().port(1).counters().tx_packets[3], 2);  // dscp 0 and 2
  EXPECT_EQ(topo.sw().port(1).counters().tx_packets[4], 1);  // dscp 5
}

// --- application layer -------------------------------------------------------------

TEST(Apps, StreamSourceStopsAfterLimit) {
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  RdmaDemux demux(*topo.hosts[0]);
  RdmaStreamSource src(*topo.hosts[0], demux, qa,
                       {.message_bytes = 8 * 1024, .max_outstanding = 2,
                        .stop_after_messages = 7});
  src.start();
  topo.sim().run_until(milliseconds(10));
  EXPECT_EQ(src.completed_messages(), 7);
  EXPECT_EQ(src.completed_bytes(), 7 * 8 * 1024);
}

TEST(Apps, StreamSourceLatencyPercentilesPopulated) {
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  RdmaDemux demux(*topo.hosts[0]);
  RdmaStreamSource src(*topo.hosts[0], demux, qa,
                       {.message_bytes = 64 * 1024, .max_outstanding = 1,
                        .stop_after_messages = 20});
  src.start();
  topo.sim().run_until(milliseconds(10));
  EXPECT_EQ(src.latencies_us().count(), 20u);
  EXPECT_GT(src.latencies_us().percentile(50), 10.0);  // 64KB ~ 14us wire time
}

TEST(Apps, PingmeshCountsTimeoutsAsFailures) {
  StarTopology topo(2);
  QpConfig qp;
  qp.dcqcn = false;
  qp.retx_timeout = seconds(10);  // never recovers within the test
  auto [pq, tq] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  RdmaDemux da(*topo.hosts[0]), db(*topo.hosts[1]);
  RdmaEchoServer echo(*topo.hosts[1], db, tq, 512);
  RdmaPingmesh ping(*topo.hosts[0], da, {pq},
                    RdmaPingmesh::Options{.probe_bytes = 512, .interval = milliseconds(1),
                                          .timeout = milliseconds(3)});
  ping.start();
  topo.sim().run_until(milliseconds(2));
  topo.hosts[1]->set_dead(true);  // probes start vanishing
  topo.sim().run_until(milliseconds(30));
  EXPECT_GT(ping.probes_failed(), 5);
  EXPECT_GT(ping.rtt_us().count(), 0u);  // the early ones succeeded
}

TEST(Apps, IncastOpenLoopIssuesOverTime) {
  StarTopology topo(3);
  Host& client = *topo.hosts[0];
  RdmaDemux dc(client);
  std::vector<std::unique_ptr<RdmaDemux>> ds;
  std::vector<std::unique_ptr<RdmaEchoServer>> echoes;
  std::vector<std::uint32_t> qpns;
  QpConfig qp;
  qp.dcqcn = false;
  for (int i = 1; i <= 2; ++i) {
    auto [cq, sq] = connect_qp_pair(client, *topo.hosts[static_cast<std::size_t>(i)], qp);
    ds.push_back(std::make_unique<RdmaDemux>(*topo.hosts[static_cast<std::size_t>(i)]));
    echoes.push_back(
        std::make_unique<RdmaEchoServer>(*topo.hosts[static_cast<std::size_t>(i)], *ds.back(), sq, 4096));
    qpns.push_back(cq);
  }
  RdmaIncastClient incast(client, dc, qpns,
                          RdmaIncastClient::Options{.request_bytes = 512,
                                                    .mean_interval = microseconds(500)});
  incast.start();
  topo.sim().run_until(milliseconds(20));
  // ~40 queries expected; allow wide Poisson slack.
  EXPECT_GT(incast.queries_completed(), 15);
  EXPECT_LT(incast.queries_completed(), 100);
  EXPECT_EQ(echoes[0]->requests_served() + echoes[1]->requests_served(),
            2 * incast.queries_completed());
}

// --- port details -------------------------------------------------------------------

TEST(PortDetails, QuantumTimeMatches802_3) {
  StarTopology topo(2);
  // One PFC quantum = 512 bit times: at 40G that is 12.8ns.
  EXPECT_EQ(topo.hosts[0]->port(0).quantum_time(), picoseconds(12800));
}

TEST(PortDetails, PausedTimeAccumulatesAcrossRefreshes) {
  StarTopology topo(2);
  auto& port = topo.sw().port(0);
  port.receive_pause(3, 0xffff);
  topo.sim().run_until(microseconds(100));
  port.receive_pause(3, 0xffff);  // refresh mid-pause
  topo.sim().run_until(microseconds(200));
  port.receive_pause(3, 0);  // resume
  EXPECT_NEAR(static_cast<double>(port.counters().paused_time[3]),
              static_cast<double>(microseconds(200)), static_cast<double>(microseconds(2)));
}

}  // namespace
}  // namespace rocelab
