// Property-style sweeps (TEST_P) over the core invariants:
//  - LOSSLESS: under arbitrary congestion, a PFC-protected class never
//    drops a packet and all messages eventually complete.
//  - INTEGRITY: with random loss and go-back-N, everything still completes
//    exactly once.
//  - QUIESCENCE: when traffic stops, every pause clears and every queue and
//    MMU pool drains to zero.
#include <gtest/gtest.h>

#include "src/app/demux.h"
#include "src/app/traffic.h"
#include "tests/testutil.h"

namespace rocelab {
namespace {

using testing::StarTopology;

// gtest names each case by the raw bytes of its param struct, so the struct
// has no implicit padding, whose bytes would change the test ids from run to
// run. The `pad` values mean nothing: they only reproduce the ids these cases
// were first recorded under. They play no part in the test.
struct LosslessCase {
  int senders;
  std::uint32_t pad;
  double alpha;
  std::int64_t message_kib;
};

class LosslessInvariant : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessInvariant, NoDropsAllCompleteAndQuiesce) {
  const auto param = GetParam();
  SwitchConfig cfg = testing::basic_switch_config();
  cfg.mmu.alpha = param.alpha;
  StarTopology topo(param.senders + 1, cfg);
  Host& receiver = *topo.hosts[static_cast<std::size_t>(param.senders)];

  QpConfig qp;
  qp.dcqcn = false;  // maximum pressure on PFC
  const int messages_per_sender = 4;
  for (int i = 0; i < param.senders; ++i) {
    auto [qa, qb] = connect_qp_pair(*topo.hosts[static_cast<std::size_t>(i)], receiver, qp);
    (void)qb;
    for (int m = 0; m < messages_per_sender; ++m) {
      topo.hosts[static_cast<std::size_t>(i)]->rdma().post_send(
          qa, param.message_kib * kKiB, static_cast<std::uint64_t>(m));
    }
  }
  topo.sim().run_until(milliseconds(200));

  // 1. Lossless: zero drops anywhere.
  for (int p = 0; p < topo.sw().port_count(); ++p) {
    EXPECT_EQ(topo.sw().port(p).counters().headroom_overflow_drops, 0) << "port " << p;
  }
  // 2. Complete delivery.
  EXPECT_EQ(receiver.rdma().stats().messages_received, param.senders * messages_per_sender);
  EXPECT_EQ(receiver.rdma().stats().bytes_received,
            static_cast<std::int64_t>(param.senders) * messages_per_sender * param.message_kib *
                kKiB);
  // 3. Quiescence: pauses cleared, queues empty, MMU drained.
  for (int p = 0; p < topo.sw().port_count(); ++p) {
    EXPECT_EQ(topo.sw().port(p).total_queued_bytes(), 0) << "port " << p;
    for (int pg = 0; pg < kNumPriorities; ++pg) {
      EXPECT_FALSE(topo.sw().pause_asserted(p, pg));
    }
  }
  EXPECT_EQ(topo.sw().mmu().shared_used(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LosslessInvariant,
    ::testing::Values(LosslessCase{2, 0x7fff, 1.0 / 16, 64},
                      LosslessCase{2, 0x7ff6, 1.0 / 64, 64},
                      LosslessCase{4, 0, 1.0 / 16, 128},
                      LosslessCase{4, 0x854df61c, 1.0 / 64, 128},
                      LosslessCase{8, 0, 1.0 / 16, 64},
                      LosslessCase{8, 0x854df61c, 1.0 / 64, 256},
                      LosslessCase{6, 0, 1.0 / 4, 256}));

class LossRecoveryIntegrity : public ::testing::TestWithParam<double> {};

TEST_P(LossRecoveryIntegrity, EverythingCompletesExactlyOnceUnderRandomLoss) {
  const double loss = GetParam();
  StarTopology topo(2);
  auto rng = std::make_shared<Rng>(static_cast<std::uint64_t>(loss * 1e7) + 1);
  topo.sw().set_drop_filter([rng, loss](const Packet& p) {
    (void)p;
    return rng->bernoulli(loss);  // drop ANY packet: data, acks, naks
  });
  QpConfig qp;
  qp.dcqcn = false;
  qp.retx_timeout = microseconds(200);
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);

  std::vector<int> delivered(20, 0);
  RdmaDemux demux(*topo.hosts[1]);
  demux.on_recv(qb, [&](const RdmaRecv& r) { ++delivered[r.msg_id]; });
  for (std::uint64_t m = 0; m < 20; ++m) {
    topo.hosts[0]->rdma().post_send(qa, 16 * 1024, m);
  }
  topo.sim().run_until(milliseconds(500));
  for (int m = 0; m < 20; ++m) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(m)], 1) << "msg " << m;
  }
  EXPECT_EQ(topo.hosts[0]->rdma().stats().messages_completed, 20);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossRecoveryIntegrity,
                         ::testing::Values(0.0, 0.001, 0.005, 0.02, 0.05));

class DcqcnStability : public ::testing::TestWithParam<int> {};

TEST_P(DcqcnStability, IncastConvergesWithBoundedQueue) {
  const int senders = GetParam();
  SwitchConfig cfg = testing::basic_switch_config();
  cfg.ecn[3] = EcnConfig{true, 5 * kKiB, 200 * kKiB, 0.01};
  StarTopology topo(senders + 1, cfg);
  Host& receiver = *topo.hosts[static_cast<std::size_t>(senders)];
  std::vector<std::unique_ptr<RdmaDemux>> demuxes;
  std::vector<std::unique_ptr<RdmaStreamSource>> sources;
  for (int i = 0; i < senders; ++i) {
    auto [qa, qb] = connect_qp_pair(*topo.hosts[static_cast<std::size_t>(i)], receiver, QpConfig{});
    (void)qb;
    demuxes.push_back(std::make_unique<RdmaDemux>(*topo.hosts[static_cast<std::size_t>(i)]));
    sources.push_back(std::make_unique<RdmaStreamSource>(
        *topo.hosts[static_cast<std::size_t>(i)], *demuxes.back(), qa,
        RdmaStreamSource::Options{.message_bytes = 64 * kKiB, .max_outstanding = 2}));
    sources.back()->start();
  }
  topo.sim().run_until(milliseconds(20));
  // Steady state: queue to the receiver stays in the ECN-managed band most
  // of the time; sample it now.
  const std::int64_t q = topo.sw().port(senders).queued_bytes(3);
  EXPECT_LT(q, 2 * kMiB) << "queue runaway with " << senders << " senders";
  // All senders make progress.
  for (auto& s : sources) EXPECT_GT(s->completed_messages(), 0);
}

INSTANTIATE_TEST_SUITE_P(Fanin, DcqcnStability, ::testing::Values(2, 4, 8, 16));

class EcmpUniformity : public ::testing::TestWithParam<int> {};

TEST_P(EcmpUniformity, HashSpreadsFlowsEvenly) {
  const int ports = GetParam();
  // Synthetic 5-tuple population hashed over `ports` next-hops: chi-square
  // style bound on imbalance.
  std::vector<int> counts(static_cast<std::size_t>(ports), 0);
  const int flows = 20000;
  for (int f = 0; f < flows; ++f) {
    Packet pkt;
    Ipv4Header ip;
    ip.src = Ipv4Addr{0x0a000001u + static_cast<std::uint32_t>(f % 251)};
    ip.dst = Ipv4Addr{0x0a010001u + static_cast<std::uint32_t>(f % 509)};
    pkt.ip = ip;
    pkt.udp = UdpHeader{static_cast<std::uint16_t>(49152 + f), kRoceUdpPort, 0};
    ++counts[five_tuple_hash(pkt, 12345) % static_cast<std::uint64_t>(ports)];
  }
  const double expected = static_cast<double>(flows) / ports;
  for (int p = 0; p < ports; ++p) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(p)], expected, 5 * std::sqrt(expected))
        << "port " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(PortCounts, EcmpUniformity, ::testing::Values(2, 4, 8, 16, 64));

class PauseQuiescence : public ::testing::TestWithParam<int> {};

TEST_P(PauseQuiescence, TransientStormAlwaysClears) {
  const int seed = GetParam();
  StarTopology topo(3);
  Rng rng(static_cast<std::uint64_t>(seed));
  // Random storm window on host 2.
  const Time start = microseconds(rng.uniform_int(100, 3000));
  const Time stop = start + microseconds(rng.uniform_int(500, 5000));
  topo.sim().schedule_at(start, [&] { topo.hosts[2]->set_storm_mode(true); });
  topo.sim().schedule_at(stop, [&] { topo.hosts[2]->set_storm_mode(false); });
  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[2], qp);
  (void)qb;
  RdmaDemux demux(*topo.hosts[0]);
  RdmaStreamSource src(*topo.hosts[0], demux, qa,
                       {.message_bytes = 64 * kKiB, .max_outstanding = 1,
                        .stop_after_messages = 40});
  src.start();
  topo.sim().run_until(milliseconds(100));
  // After the storm, everything completed and all pauses cleared.
  EXPECT_EQ(src.completed_messages(), 40);
  for (int p = 0; p < topo.sw().port_count(); ++p) {
    for (int pg = 0; pg < kNumPriorities; ++pg) {
      EXPECT_FALSE(topo.sw().port(p).paused(pg));
      EXPECT_FALSE(topo.sw().pause_asserted(p, pg));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PauseQuiescence, ::testing::Range(1, 9));

}  // namespace
}  // namespace rocelab
