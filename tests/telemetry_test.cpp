// Tests for the telemetry plane (MetricRegistry + RegistrySampler) and the
// experiment plane (scenario knobs), plus edge cases of the stats
// primitives they sample into.
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/exp/scenario.h"
#include "src/monitor/metric_registry.h"
#include "src/monitor/monitor.h"
#include "tests/testutil.h"

namespace rocelab {
namespace {

using testing::StarTopology;

// --- MetricRegistry core -----------------------------------------------------

TEST(MetricRegistry, PatternMatching) {
  EXPECT_TRUE(MetricRegistry::matches("t0/port1/prio3/rx_pause", "t0/port1/prio3/rx_pause"));
  EXPECT_TRUE(MetricRegistry::matches("t0/port1/prio3/rx_pause", "t0/port*/prio*/rx_pause"));
  EXPECT_TRUE(MetricRegistry::matches("t0/port12/prio3/rx_pause", "t0/port1*/prio3/rx_pause"));
  EXPECT_FALSE(MetricRegistry::matches("t0/port2/prio3/rx_pause", "t0/port1*/prio3/rx_pause"));
  // '*' matches exactly one segment, never across '/'.
  EXPECT_FALSE(MetricRegistry::matches("t0/port1/prio3/rx_pause", "t0/*/rx_pause"));
  // Trailing '**' swallows any remainder, but requires at least one segment.
  EXPECT_TRUE(MetricRegistry::matches("t0/port1/prio3/rx_pause", "t0/**"));
  EXPECT_FALSE(MetricRegistry::matches("t0/port1", "t0/port1/**"));
  EXPECT_FALSE(MetricRegistry::matches("t1/port1/prio3/rx_pause", "t0/**"));
}

TEST(MetricRegistry, SumSelectAndRemoveOwner) {
  MetricRegistry reg;
  std::int64_t a = 3, b = 4, c = 5;
  int owner1 = 0, owner2 = 0;
  reg.add(&owner1, "n0/x", &a);
  reg.add(&owner1, "n0/y", &b);
  reg.add(&owner2, "n1/x", &c);
  EXPECT_EQ(reg.live_entries(), 3u);
  EXPECT_EQ(reg.sum("*/x"), 8);
  EXPECT_EQ(reg.sum("n0/*"), 7);
  EXPECT_EQ(reg.sum("**"), 12);
  EXPECT_EQ(reg.sum("nope/*"), 0);

  // select() is registration-ordered and live values read through.
  const auto ids = reg.select("*/x");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(reg.entry(ids[0]).name, "n0/x");
  EXPECT_EQ(reg.entry(ids[1]).name, "n1/x");
  a = 100;
  EXPECT_EQ(reg.sum("*/x"), 105);

  const std::uint64_t v = reg.version();
  reg.remove_owner(&owner1);
  EXPECT_GT(reg.version(), v);
  EXPECT_EQ(reg.live_entries(), 1u);
  EXPECT_EQ(reg.sum("**"), 5);
  reg.remove_owner(&owner1);  // unknown/already-removed owner: no-op
  EXPECT_EQ(reg.live_entries(), 1u);
}

TEST(MetricRegistry, SelectionCachesAndRevalidates) {
  MetricRegistry reg;
  std::int64_t a = 1;
  int owner = 0;
  MetricSelection sel(reg, "n*/x");
  EXPECT_EQ(sel.sum(), 0);
  reg.add(&owner, "n0/x", &a);  // registry grew: selection must re-resolve
  EXPECT_EQ(sel.count(), 1u);
  EXPECT_EQ(sel.sum(), 1);
  reg.remove_owner(&owner);
  EXPECT_EQ(sel.sum(), 0);
}

TEST(MetricSelection, SumRateBetweenSamples) {
  MetricRegistry reg;
  int owner = 0;
  std::int64_t a = 0;
  reg.add(&owner, "n0/x", &a);
  MetricSelection sel(reg, "n*/x");
  const MetricSample s0 = sel.sample(0);
  a = 1000;
  const MetricSample s1 = sel.sample(milliseconds(1));
  // 1000 counter units over 1 ms of simulated time.
  EXPECT_DOUBLE_EQ(MetricSelection::sum_rate(s0, s1), 1000.0 / 1e-3);
  // No elapsed time (or samples out of order): rate is defined as zero.
  EXPECT_DOUBLE_EQ(MetricSelection::sum_rate(s1, s1), 0.0);
  EXPECT_DOUBLE_EQ(MetricSelection::sum_rate(s1, s0), 0.0);
}

TEST(MetricSelection, SampleRevalidatesAgainstRegistryVersion) {
  MetricRegistry reg;
  int owner = 0;
  int late_owner = 0;
  std::int64_t a = 5;
  reg.add(&owner, "n0/x", &a);
  MetricSelection sel(reg, "n*/x");
  const MetricSample s0 = sel.sample(0);
  EXPECT_EQ(s0.value, 5);

  // A matching metric registered AFTER the first sample (topology change)
  // must be covered by the next one — the cached id list revalidates
  // against the registry version instead of going stale.
  std::int64_t b = 7;
  reg.add(&late_owner, "n1/x", &b);
  const MetricSample s1 = sel.sample(milliseconds(1));
  EXPECT_EQ(s1.value, 12);
  EXPECT_DOUBLE_EQ(MetricSelection::sum_rate(s0, s1), 7.0 / 1e-3);

  // And removals shrink the next sample the same way.
  reg.remove_owner(&late_owner);
  EXPECT_EQ(sel.sample(milliseconds(2)).value, 5);
}

TEST(MetricRegistry, ComponentsRegisterAtConstruction) {
  StarTopology topo(2);
  const MetricRegistry& reg = topo.sim().metrics();
  // Switch ports, MMU, switch counters, host NIC stats all show up under
  // hierarchical names without any explicit wiring.
  EXPECT_EQ(reg.select("sw/port0/prio3/tx_packets").size(), 1u);
  EXPECT_EQ(reg.select("sw/mmu/shared_used").size(), 1u);
  EXPECT_EQ(reg.select("h0/rdma/messages_completed").size(), 1u);
  EXPECT_EQ(reg.select("h0/host/rx_queue_bytes").size(), 1u);

  QpConfig qp;
  qp.dcqcn = false;
  auto [qa, qb] = connect_qp_pair(*topo.hosts[0], *topo.hosts[1], qp);
  (void)qb;
  topo.hosts[0]->rdma().post_send(qa, 64 * kKiB, 1);
  topo.sim().run_until(milliseconds(5));
  EXPECT_GT(reg.sum("sw/port1/prio*/tx_bytes"), 64 * kKiB);
  EXPECT_EQ(reg.sum("h1/rdma/messages_received"), 1);
  // Registry reads agree with the component's own counters.
  EXPECT_EQ(reg.sum("sw/port1/prio3/tx_packets"),
            topo.sw().port(1).counters().tx_packets[3]);
}

// --- RegistrySampler ---------------------------------------------------------

TEST(RegistrySampler, NeverMovingCounterYieldsZeroDeltas) {
  StarTopology topo(2);
  std::int64_t ctr = 42;
  int owner = 0;
  topo.sim().metrics().add(&owner, "test/ctr", &ctr);
  RegistrySampler sampler(topo.sim(), microseconds(100));
  sampler.watch("ch", "test/ctr");
  sampler.start();
  topo.sim().run_until(milliseconds(1));
  // The counter never moved: every interval delta is zero, but the live
  // read still sees the absolute value.
  EXPECT_DOUBLE_EQ(sampler.series("ch").total(), 0.0);
  EXPECT_EQ(sampler.current("ch"), 42);
  topo.sim().metrics().remove_owner(&owner);
}

TEST(RegistrySampler, CounterDeltasAndGaugeLevels) {
  StarTopology topo(2);
  std::int64_t ctr = 0, gauge = 7;
  int owner = 0;
  topo.sim().metrics().add(&owner, "test/ctr", &ctr);
  topo.sim().metrics().add(&owner, "test/gauge", &gauge, MetricKind::kGauge);
  RegistrySampler sampler(topo.sim(), microseconds(100));
  sampler.watch("c", "test/ctr");
  sampler.watch("g", "test/gauge", MetricKind::kGauge);
  sampler.start();
  topo.sim().schedule_at(microseconds(250), [&] { ctr += 10; gauge = 3; });
  topo.sim().run_until(milliseconds(1));
  EXPECT_DOUBLE_EQ(sampler.series("c").total(), 10.0);
  EXPECT_DOUBLE_EQ(sampler.samples("g").max(), 7.0);
  EXPECT_DOUBLE_EQ(sampler.samples("g").min(), 3.0);
  topo.sim().metrics().remove_owner(&owner);
}

// --- PeriodicSampler stop/restart regression --------------------------------

TEST(PeriodicSampler, StopGuaranteesNoFurtherTick) {
  StarTopology topo(2);
  int probes = 0;
  PeriodicSampler sampler(topo.sim(), [&] { return static_cast<double>(++probes); },
                          microseconds(100));
  sampler.start();
  topo.sim().run_until(microseconds(550));
  EXPECT_EQ(probes, 5);
  sampler.stop();
  // Even though a tick was already scheduled for t=600us, stop() cancels it.
  topo.sim().run_until(milliseconds(2));
  EXPECT_EQ(probes, 5);
}

TEST(PeriodicSampler, RestartDoesNotDoubleSchedule) {
  StarTopology topo(2);
  int probes = 0;
  PeriodicSampler sampler(topo.sim(), [&] { return static_cast<double>(++probes); },
                          microseconds(100));
  sampler.start();
  sampler.start();  // idempotent: cancels the pending tick first
  topo.sim().run_until(microseconds(1050));
  EXPECT_EQ(probes, 10);

  sampler.stop();
  sampler.start();  // stop/start cycle resumes a single cadence
  topo.sim().run_until(microseconds(2050));
  EXPECT_EQ(probes, 20);
}

// --- stats primitive edge cases ---------------------------------------------

TEST(IntervalSeries, EmptySeries) {
  IntervalSeries s(milliseconds(1));
  EXPECT_EQ(s.last_bucket(), -1);
  EXPECT_DOUBLE_EQ(s.total(), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_value(0), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_value(17), 0.0);
  EXPECT_TRUE(s.buckets().empty());
}

TEST(IntervalSeries, SingleBucketAndOutOfOrderQueries) {
  IntervalSeries s(milliseconds(1));
  s.add(microseconds(300), 2.0);
  s.add(microseconds(900), 3.0);
  EXPECT_EQ(s.last_bucket(), 0);
  EXPECT_DOUBLE_EQ(s.bucket_value(0), 5.0);
  // Queries for buckets before/after anything recorded are zero, not UB.
  EXPECT_DOUBLE_EQ(s.bucket_value(-3), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_value(100), 0.0);
  // Sparse series: missing middle buckets read as zero.
  s.add(milliseconds(5), 7.0);
  EXPECT_EQ(s.last_bucket(), 5);
  EXPECT_DOUBLE_EQ(s.bucket_value(2), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_value(5), 7.0);
  EXPECT_DOUBLE_EQ(s.total(), 12.0);
}

TEST(PercentileSampler, EmptyAndSingleSample) {
  PercentileSampler p;
  EXPECT_TRUE(p.empty());
  EXPECT_THROW((void)p.percentile(99), std::logic_error);
  EXPECT_THROW((void)p.mean(), std::logic_error);
  p.add(42.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(p.mean(), 42.0);
}

// --- scenario knobs ----------------------------------------------------------

TEST(Knobs, ResolutionOrderDefaultEnvOverride) {
  ::unsetenv("ROCELAB_TEST_KNOB");
  {
    exp::Knobs k;
    k.declare(exp::knob_int("ms", 40, "ROCELAB_TEST_KNOB"));
    EXPECT_EQ(k.get_int("ms"), 40);
  }
  ::setenv("ROCELAB_TEST_KNOB", "70", 1);
  {
    exp::Knobs k;
    k.declare(exp::knob_int("ms", 40, "ROCELAB_TEST_KNOB"));
    EXPECT_EQ(k.get_int("ms"), 70);  // env beats default
    EXPECT_TRUE(k.set_override("ms", "90"));
    EXPECT_EQ(k.get_int("ms"), 90);  // CLI beats env
    EXPECT_FALSE(k.set_override("unknown", "1"));
  }
  ::unsetenv("ROCELAB_TEST_KNOB");
}

TEST(Knobs, TypesAndListParsing) {
  exp::Knobs k;
  k.declare(exp::knob_double("rate", 0.01));
  k.declare(exp::knob_string("sweep", "0,1e-4,2.5"));
  EXPECT_TRUE(k.has("rate"));
  EXPECT_FALSE(k.has("nope"));
  EXPECT_DOUBLE_EQ(k.get_double("rate"), 0.01);
  const auto list = k.get_list("sweep");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0], 0.0);
  EXPECT_DOUBLE_EQ(list[1], 1e-4);
  EXPECT_DOUBLE_EQ(list[2], 2.5);
}

TEST(Knobs, MalformedValuesThrowNamingKnobAndValue) {
  exp::Knobs k;
  k.declare(exp::knob_int("run_ms", 40));
  k.declare(exp::knob_double("rate", 0.01));
  k.declare(exp::knob_string("sweep", "0,1e-4"));
  for (const char* bad : {"abc", "", "12abc", "1.5", " 7", "99999999999999999999"}) {
    ASSERT_TRUE(k.set_override("run_ms", bad));
    try {
      (void)k.get_int("run_ms");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const exp::KnobError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("'run_ms'"), what.find("knob ") + 5) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  for (const char* bad : {"0.01x", "", "fast", "1e"}) {
    ASSERT_TRUE(k.set_override("rate", bad));
    EXPECT_THROW((void)k.get_double("rate"), exp::KnobError) << bad;
  }
  ASSERT_TRUE(k.set_override("sweep", "0,1e-4x,2"));
  EXPECT_THROW((void)k.get_list("sweep"), exp::KnobError);
}

TEST(Knobs, WholeValueParses) {
  exp::Knobs k;
  k.declare(exp::knob_int("pfc", -1));
  k.declare(exp::knob_double("rate", 0.01));
  k.declare(exp::knob_string("sweep", ""));
  EXPECT_EQ(k.get_int("pfc"), -1);
  EXPECT_DOUBLE_EQ(k.get_double("pfc"), -1.0);  // an int knob reads as a double too
  ASSERT_TRUE(k.set_override("rate", "1e-5"));
  EXPECT_DOUBLE_EQ(k.get_double("rate"), 1e-5);
  EXPECT_TRUE(k.get_list("sweep").empty());
  ASSERT_TRUE(k.set_override("sweep", "0.5,,2,"));  // empty items are skipped
  EXPECT_EQ(k.get_list("sweep"), (std::vector<double>{0.5, 2.0}));
}

TEST(Knobs, MalformedEnvValueThrows) {
  ::setenv("ROCELAB_TEST_KNOB", "7ms", 1);
  exp::Knobs k;
  k.declare(exp::knob_int("ms", 40, "ROCELAB_TEST_KNOB"));
  ::unsetenv("ROCELAB_TEST_KNOB");
  EXPECT_THROW((void)k.get_int("ms"), exp::KnobError);
}

TEST(Knobs, RunnerExitsTwoOnMalformedValue) {
  // The runner parses every typed knob before the body runs, and a list
  // knob that fails inside the body ends the run the same way.
  int bodies = 0;
  exp::Scenario sc{"knob_test", "knob test", "", {exp::knob_int("run_ms", 40),
                                                   exp::knob_string("sweep", "0,1")},
                   [&bodies](exp::Context& ctx) {
                     ++bodies;
                     (void)ctx.knob_list("sweep");
                   }};
  std::string arg0 = "knob_test", bad_int = "--run_ms=abc", bad_list = "--sweep=0,x";
  char* int_argv[] = {arg0.data(), bad_int.data()};
  EXPECT_EQ(exp::run_scenario(sc, 2, int_argv), 2);
  EXPECT_EQ(bodies, 0);
  char* list_argv[] = {arg0.data(), bad_list.data()};
  EXPECT_EQ(exp::run_scenario(sc, 2, list_argv), 2);
  EXPECT_EQ(bodies, 1);
}

}  // namespace
}  // namespace rocelab
