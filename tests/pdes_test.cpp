// Pod-partitioned PDES: determinism, lookahead enforcement, cross-shard
// event routing, and the queue-health metric plane.
//
// The determinism contract under test: for a FIXED shard count, reruns of
// the same workload are byte-identical (same counters digest, same executed
// event count, same chaos journal hash). Different shard counts may order
// same-timestamp events differently and are not required to agree with each
// other — but each count must agree with itself, and one shard must be the
// classic single-threaded core (control lane aliased to shard 0).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/exp/harness.h"
#include "src/faults/chaos.h"
#include "src/link/impairment.h"
#include "src/monitor/digest.h"
#include "src/monitor/metric_registry.h"
#include "src/rocev2/deployment.h"
#include "src/sim/shard_group.h"
#include "src/sim/simulator.h"
#include "src/topo/clos.h"

namespace rocelab {
namespace {

struct MiniRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t journal = 0;
  std::int64_t cross_msgs = 0;
  std::int64_t windows = 0;
  std::int64_t corrupt_delivered = 0;
};

/// A 4-podset ring workload on a minimal 3-tier Clos, optionally with two
/// journalled chaos faults. Every stream crosses a podset boundary, so at
/// shards > 1 every data/ACK frame exercises the cross-shard channels.
MiniRun run_mini(int shards, bool with_chaos, bool with_corruption = false) {
  QosPolicy policy;
  ClosParams p = make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/4,
                                  /*leaves=*/1, /*tors=*/1, /*servers=*/2, /*spines=*/2);
  p.shards = shards;
  ClosFabric clos(p);

  exp::TrafficSet traffic;
  for (int ps = 0; ps < 4; ++ps) {
    traffic.add_streams(clos.server(ps, 0, 0), clos.server((ps + 1) % 4, 0, 1),
                        make_qp_config(policy),
                        RdmaStreamSource::Options{.message_bytes = 8 * kKiB, .max_outstanding = 2});
  }

  std::unique_ptr<ChaosEngine> chaos;
  if (with_chaos) {
    chaos = std::make_unique<ChaosEngine>(clos.fabric(), /*seed=*/7);
    LinkImpairment lossy;
    lossy.fcs_drop_rate = 0.01;
    lossy.seed = 5;
    chaos->impair_link(clos.leaf(0, 0), /*port=*/0, lossy, microseconds(50), microseconds(400));
    LinkImpairment bh;
    bh.blackhole = true;
    chaos->impair_link(clos.tor(1, 0), /*port=*/2, bh, microseconds(100), microseconds(300));
  }
  if (with_corruption) {
    // §5.2 delivered corruption on a podset-boundary hop: the corrupted
    // frames ride the cross-shard channels as kDeliverCorrupt, so the
    // receiving port's corrupt_delivered bump happens on the peer's shard.
    LinkImpairment corrupt;
    corrupt.corrupt_deliver_rate = 0.05;
    corrupt.escape_fcs_frac = 1.0;
    corrupt.seed = 11;
    clos.leaf(0, 0).port(1).set_impairment(corrupt);  // first uplink, to a spine
    clos.spine(0).port(1).set_impairment(corrupt);    // down into podset 1
  }

  clos.sim().run_until(microseconds(500));

  MiniRun r;
  r.digest = counters_digest(clos.fabric());
  r.events = clos.fabric().group().executed_events();
  r.journal = chaos ? chaos->journal_hash() : 0;
  r.cross_msgs = clos.fabric().group().cross_messages();
  r.windows = clos.fabric().group().windows();
  r.corrupt_delivered = clos.sim().metrics().sum("*/port*/corrupt_delivered");
  return r;
}

TEST(PdesDeterminism, OneShardRerunByteIdentical) {
  const MiniRun a = run_mini(1, false);
  const MiniRun b = run_mini(1, false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  // One shard is the classic core: no windows, no channel traffic.
  EXPECT_EQ(a.windows, 0);
  EXPECT_EQ(a.cross_msgs, 0);
}

TEST(PdesDeterminism, TwoShardRerunByteIdentical) {
  const MiniRun a = run_mini(2, false);
  const MiniRun b = run_mini(2, false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cross_msgs, b.cross_msgs);
  EXPECT_GT(a.windows, 0);
  EXPECT_GT(a.cross_msgs, 0);  // the ring traffic really crossed shards
}

TEST(PdesDeterminism, FourShardRerunByteIdentical) {
  const MiniRun a = run_mini(4, false);
  const MiniRun b = run_mini(4, false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cross_msgs, b.cross_msgs);
  EXPECT_GT(a.cross_msgs, 0);
}

TEST(PdesDeterminism, ChaosJournalHashStablePerShardCount) {
  for (int shards : {1, 2, 4}) {
    const MiniRun a = run_mini(shards, true);
    const MiniRun b = run_mini(shards, true);
    EXPECT_EQ(a.journal, b.journal) << "shards=" << shards;
    EXPECT_NE(a.journal, 0u) << "shards=" << shards;
    EXPECT_EQ(a.digest, b.digest) << "shards=" << shards;
  }
}

TEST(PdesDeterminism, DeliveredCorruptionByteIdenticalPerShardCount) {
  // kDeliverCorrupt cross-shard deliveries must not perturb determinism:
  // at every shard count a rerun reproduces digest, event count, and the
  // corruption ground truth exactly — and the corrupting hops really fire.
  for (int shards : {1, 2, 4}) {
    const MiniRun a = run_mini(shards, false, /*with_corruption=*/true);
    const MiniRun b = run_mini(shards, false, /*with_corruption=*/true);
    EXPECT_EQ(a.digest, b.digest) << "shards=" << shards;
    EXPECT_EQ(a.events, b.events) << "shards=" << shards;
    EXPECT_EQ(a.corrupt_delivered, b.corrupt_delivered) << "shards=" << shards;
    EXPECT_GT(a.corrupt_delivered, 0) << "shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(a.cross_msgs, 0) << "shards=" << shards;
    }
  }
}

TEST(PdesGroup, ControlLaneAliasesShardZeroAtOneShard) {
  Fabric fabric(1);
  EXPECT_EQ(&fabric.control_sim(), &fabric.sim());
  Fabric sharded(2);
  EXPECT_NE(&sharded.control_sim(), &sharded.sim());
}

TEST(PdesGroup, ShardCountClampedToPodsets) {
  QosPolicy policy;
  ClosParams p = make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/2,
                                  /*leaves=*/1, /*tors=*/1, /*servers=*/1, /*spines=*/1);
  p.shards = 16;  // more shards than podsets: partition can't be finer
  ClosFabric clos(p);
  EXPECT_EQ(clos.fabric().shard_count(), 2);
}

TEST(PdesGroup, ZeroLookaheadBoundaryThrows) {
  ShardGroup group(2);
  EXPECT_THROW(group.note_boundary(0, 1, 0), std::invalid_argument);
}

TEST(PdesGroup, ForeignScheduleDuringWindowThrows) {
  // An event on shard 0 reaching into shard 1's heap mid-window is exactly
  // the class of bug the lookahead assertion exists to catch.
  ShardGroup group(2);
  group.note_boundary(0, 1, microseconds(1));
  group.note_boundary(1, 0, microseconds(1));
  group.shard(1).schedule_at(microseconds(1), [] {});  // keeps shard 1 live
  group.shard(0).schedule_at(microseconds(1), [&group] {
    group.shard(1).schedule_at(microseconds(100), [] {});
  });
  EXPECT_THROW(group.run_until(microseconds(10)), std::logic_error);
}

TEST(PdesGroup, SchedulingOwnShardDuringWindowIsFine) {
  ShardGroup group(2);
  group.note_boundary(0, 1, microseconds(1));
  group.note_boundary(1, 0, microseconds(1));
  int fired = 0;
  std::function<void()> self = [&] {
    if (++fired < 5) group.shard(0).schedule_in(microseconds(1), self);
  };
  group.shard(0).schedule_at(microseconds(1), self);
  group.shard(1).schedule_at(microseconds(1), [] {});
  group.run_until(microseconds(20));
  EXPECT_EQ(fired, 5);
}

TEST(PdesGroup, ChannelPushBelowHorizonThrows) {
  ShardGroup group(2);
  group.note_boundary(0, 1, microseconds(1));
  group.note_boundary(1, 0, microseconds(1));
  group.shard(0).schedule_at(microseconds(1), [] {});
  group.shard(1).schedule_at(microseconds(1), [] {});
  group.run_until(microseconds(10));
  ASSERT_GT(group.horizon_floor(), 0);
  // A message dated before the horizon every shard was already promised is
  // a lookahead violation, caught at the push (both message kinds).
  EXPECT_THROW(group.channel(0, 1).push_deliver(0, nullptr, 0, nullptr), std::logic_error);
  EXPECT_THROW(group.channel(0, 1).push_fcs_error(0, nullptr, 0), std::logic_error);
}

TEST(PdesGroup, CrossShardCancelRoutesByShardTag) {
  ShardGroup group(2);
  group.note_boundary(0, 1, microseconds(1));
  group.note_boundary(1, 0, microseconds(1));
  bool fired = false;
  const EventId id = group.shard(1).schedule_at(microseconds(5), [&] { fired = true; });
  // Cancel through the WRONG shard's front door: the shard tag in the id
  // routes it home.
  group.shard(0).cancel(id);
  group.shard(0).schedule_at(microseconds(1), [] {});
  group.shard(1).schedule_at(microseconds(1), [] {});
  group.run_until(microseconds(10));
  EXPECT_FALSE(fired);
}

TEST(PdesGroup, QueueHealthGaugesMatchAggregates) {
  QosPolicy policy;
  ClosParams p = make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/2,
                                  /*leaves=*/1, /*tors=*/1, /*servers=*/2, /*spines=*/1);
  p.shards = 2;
  ClosFabric clos(p);
  exp::TrafficSet traffic;
  traffic.add_streams(clos.server(0, 0, 0), clos.server(1, 0, 0), make_qp_config(policy),
                      RdmaStreamSource::Options{.message_bytes = 8 * kKiB, .max_outstanding = 2});
  clos.sim().run_until(microseconds(200));

  ShardGroup& group = clos.fabric().group();
  MetricRegistry& reg = group.metrics();
  // Per-shard executed counters + the control lane = the group aggregate.
  const std::int64_t per_shard = reg.sum("sim/shard*/executed_events");
  const std::int64_t control = reg.sum("sim/control/executed_events");
  EXPECT_EQ(static_cast<std::uint64_t>(per_shard + control), group.executed_events());
  EXPECT_GT(per_shard, 0);
  // Live-event gauges = the group's pending total.
  const std::int64_t live =
      reg.sum("sim/shard*/live_events") + reg.sum("sim/control/live_events");
  EXPECT_EQ(static_cast<std::size_t>(live), group.pending_events());
  // The window/channel counters are exported too.
  EXPECT_EQ(reg.sum("sim/windows"), group.windows());
  EXPECT_EQ(reg.sum("sim/cross_messages"), group.cross_messages());
  EXPECT_GT(reg.sum("sim/boundary_links"), 0);
  EXPECT_GT(reg.sum("sim/lookahead_ps"), 0);
}

TEST(PdesGroup, ChannelDeliveriesUnderAPeekedTopKeepOrder) {
  // Each round of the group loop peeks every shard's earliest event, which
  // settles it at the front of the shard's queue; the channel drain then
  // schedules deliveries that can precede it. The one stream runs from
  // podset 0 to podset 1, so between bursts the receiving shard holds only
  // a far-future sentinel, and the next burst's deliveries land under it.
  // The sentinel never fires, and it shifts the shard's later sequence
  // numbers by one, which keeps their order: the run must match the run
  // without it.
  struct Result {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::int64_t cross_msgs = 0;
    std::int64_t messages = 0;
  };
  auto run = [](bool sentinels) {
    QosPolicy policy;
    ClosParams p = make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/2,
                                    /*leaves=*/1, /*tors=*/1, /*servers=*/2, /*spines=*/1);
    p.shards = 2;
    ClosFabric clos(p);
    ShardGroup& group = clos.fabric().group();
    if (sentinels) {
      for (int i = 0; i < group.shard_count(); ++i) {
        group.shard(i).schedule_at(milliseconds(10), [] {});
      }
    }
    exp::TrafficSet traffic;
    traffic.add_streams(clos.server(0, 0, 0), clos.server(1, 0, 1), make_qp_config(policy),
                        RdmaStreamSource::Options{.message_bytes = 8 * kKiB, .max_outstanding = 1});
    clos.sim().run_until(microseconds(300));
    return Result{counters_digest(clos.fabric()), group.executed_events(), group.cross_messages(),
                  traffic.sources().front()->completed_messages()};
  };
  const Result plain = run(false);
  const Result with_sentinels = run(true);
  EXPECT_GT(plain.messages, 20) << "the stream stalled";
  EXPECT_EQ(with_sentinels.messages, plain.messages);
  EXPECT_EQ(with_sentinels.digest, plain.digest);
  EXPECT_EQ(with_sentinels.events, plain.events);
  EXPECT_EQ(with_sentinels.cross_msgs, plain.cross_msgs);
}

TEST(PdesGroup, HeapDebtGaugeTracksLazyCancels) {
  ShardGroup group(1);
  Simulator& sim = group.shard(0);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_at(microseconds(1) + nanoseconds(i), [] {}));
  }
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(group.metrics().sum("sim/shard0/heap_debt"), 8);
  sim.schedule_at(microseconds(2), [] {});
  group.run();  // purging the stale entries repays the debt
  EXPECT_EQ(group.metrics().sum("sim/shard0/heap_debt"), 0);
}

}  // namespace
}  // namespace rocelab
