// ISSUE 6 coverage: the IncidentManager's fleet-level adjudication —
// drain-over-cost-out ranking, escalation that absorbs a prior cost-out,
// the blast-radius budget (shed the lowest-ranked mitigation, veto when
// nothing ranks below), §6.2 config-drift rollback, the per-pod blast
// gauges the InvariantAuditor audits independently, and byte-identical
// journalling.
//
// Evidence is hand-fed through GrayFailureLocalizer::observe. A failed
// probe charges EVERY hop on its traced request + response paths, so each
// scenario pairs its failures with "dilution" successes routed across the
// collateral hops — only the intended directions stay at a confirmed
// score, exactly like a healthy pingmesh mesh would keep them.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/faults/auditor.h"
#include "src/faults/chaos.h"
#include "src/faults/incident_manager.h"
#include "src/faults/localizer.h"
#include "src/monitor/metric_registry.h"
#include "src/rocev2/deployment.h"
#include "src/switch/sw.h"
#include "src/topo/clos.h"
#include "src/topo/trace.h"

namespace rocelab {
namespace {

using Hops = std::vector<TraceHop>;

// 2 podsets x (2 leaves x 2 ToRs x 2 servers) + 4 spines: leaf down-routes
// are single-member (only a drain can fix them), up-routes have two
// members (cost-outs are floor-safe).
ClosParams fleet_params() {
  QosPolicy policy;
  policy.max_cable_m = 20.0;
  return make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/2,
                          /*leaves=*/2, /*tors=*/2, /*servers=*/2, /*spines=*/4);
}

IncidentManagerConfig lab_cfg() {
  IncidentManagerConfig cfg;
  cfg.score_threshold = 0.6;
  cfg.min_probes = 1;
  cfg.confirm_scans = 2;
  cfg.drain_threshold = 2;
  cfg.probation = seconds(1);  // no restores unless a test advances time
  cfg.restore_cooldown = milliseconds(1);
  cfg.blast_budget_frac = 0.30;
  cfg.rollback_config = false;
  return cfg;
}

bool hops_contain(const Hops& hops, const Node* node, int port) {
  for (const TraceHop& h : hops) {
    if (h.node == node && h.port == port) return true;
  }
  return false;
}

bool hops_touch(const Hops& hops, const Node* node) {
  for (const TraceHop& h : hops) {
    if (h.node == node) return true;
  }
  return false;
}

int port_used_at(const Hops& hops, const Node* node) {
  for (const TraceHop& h : hops) {
    if (h.node == node) return h.port;
  }
  return -1;
}

struct FleetRig {
  ClosFabric clos{fleet_params()};
  GrayFailureLocalizer localizer{clos.fabric()};

  // One synthetic probe pair: fwd identifies the request flow src->dst,
  // rsp the response flow dst->src (both paths are charged per observe).
  struct Pair {
    const Host* src = nullptr;
    const Host* dst = nullptr;
    std::uint16_t fwd = 0;
    std::uint16_t rsp = 0;
  };

  Hops trace(const Host& src, const Host& dst, std::uint16_t sport) {
    return trace_route(clos.fabric(), src, dst, sport);
  }

  // First sport whose CURRENT traced path satisfies `pred` (paths move
  // when weights change, so stage-2 sports are found after stage-1
  // mitigations land). Deterministic: plain ascending scan.
  std::uint16_t find_sport(const Host& src, const Host& dst,
                           const std::function<bool(const Hops&)>& pred) {
    for (int s = 1000; s < 60000; ++s) {
      const auto sport = static_cast<std::uint16_t>(s);
      if (pred(trace(src, dst, sport))) return sport;
    }
    ADD_FAILURE() << "no sport found " << src.name() << " -> " << dst.name();
    return 0;
  }

  void feed(const Pair& p, bool ok) { localizer.observe(*p.src, *p.dst, p.fwd, p.rsp, ok); }
};

// A switch owning two confirmed-bad directions gets ONE drain, not two
// cost-outs — and a drain is the only mitigation that can cover a
// single-member down-route at all.
TEST(IncidentManagerLoop, DrainCoversTwoDirectionsInsteadOfTwoCostOuts) {
  FleetRig rig;
  Switch& leaf00 = rig.clos.leaf(0, 0);
  Switch& tor00 = rig.clos.tor(0, 0);
  Switch& tor01 = rig.clos.tor(0, 1);
  const Host& s010 = rig.clos.server(0, 1, 0);
  const Host& s000 = rig.clos.server(0, 0, 0);
  const Host& s110 = rig.clos.server(1, 1, 0);

  // One probe pair whose request crosses leaf-0-0's down port 0 and whose
  // response crosses down port 1: a single failing pair condemns both.
  FleetRig::Pair bad{&s010, &s000, 0, 0};
  bad.fwd = rig.find_sport(s010, s000, [&](const Hops& h) { return hops_contain(h, &leaf00, 0); });
  bad.rsp = rig.find_sport(s000, s010, [&](const Hops& h) { return hops_contain(h, &leaf00, 1); });
  const int upA = port_used_at(rig.trace(s010, s000, bad.fwd), &tor01);
  const int upB = port_used_at(rig.trace(s000, s010, bad.rsp), &tor00);
  ASSERT_GE(upA, 0);
  ASSERT_GE(upB, 0);

  // Dilution: the ToR uplinks feeding leaf-0-0 also carry healthy traffic
  // (out through leaf-0-0's spine side), so they must stay cold.
  FleetRig::Pair dil1{&s010, &s110, 0, 0};
  dil1.fwd = rig.find_sport(s010, s110, [&](const Hops& h) { return hops_contain(h, &tor01, upA); });
  dil1.rsp = rig.find_sport(s110, s010, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  FleetRig::Pair dil2{&s000, &s110, 0, 0};
  dil2.fwd = rig.find_sport(s000, s110, [&](const Hops& h) { return hops_contain(h, &tor00, upB); });
  dil2.rsp = rig.find_sport(s110, s000, [&](const Hops& h) { return !hops_touch(h, &leaf00); });

  IncidentManager mgr(rig.clos.fabric(), rig.localizer, lab_cfg());
  ChaosEngine chaos(rig.clos.fabric(), /*seed=*/2016);
  mgr.set_chaos(&chaos);

  for (int round = 0; round < 2; ++round) {
    rig.feed(bad, false);
    rig.feed(dil1, true);
    rig.feed(dil2, true);
    mgr.scan_now();
  }

  EXPECT_EQ(mgr.stats().drains, 1);
  EXPECT_EQ(mgr.stats().cost_outs, 0) << "adjudicated per-direction instead of per-switch";
  EXPECT_TRUE(mgr.switch_drained("leaf-0-0"));
  EXPECT_TRUE(leaf00.drained());

  const FleetMitigation* drain = nullptr;
  for (const FleetMitigation& m : mgr.mitigations()) {
    if (m.kind == MitigationKind::kSwitchDrain) drain = &m;
  }
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(drain->target, "leaf-0-0");
  EXPECT_EQ(drain->covers.size(), 2u);
  EXPECT_DOUBLE_EQ(drain->rank, 2.0);  // sum of both direction scores

  // The drain zero-weighted every neighbour port facing leaf-0-0.
  for (Switch* n : {&tor00, &tor01}) {
    for (int p = 0; p < n->port_count(); ++p) {
      if (n->port(p).peer() == &leaf00) {
        EXPECT_EQ(n->port_weight(p), 0);
      }
    }
  }
  // Both gray incidents are open and covered.
  int gray = 0;
  for (const Incident& inc : mgr.incidents()) {
    if (inc.kind != IncidentKind::kGrayDirection) continue;
    ++gray;
    EXPECT_EQ(inc.node, "leaf-0-0");
    EXPECT_GE(inc.mitigated_at, 0);
  }
  EXPECT_EQ(gray, 2);
  EXPECT_NE(chaos.journal_text().find("switch_drain leaf-0-0"), std::string::npos);
}

// A second bad direction confirming AFTER a cost-out escalates the switch
// to a drain that absorbs the cost-out; the eventual undrain restores the
// absorbed weight too.
TEST(IncidentManagerLoop, EscalationAbsorbsPriorCostOutAndUndrainRestoresAll) {
  FleetRig rig;
  Simulator& sim = rig.clos.sim();
  Switch& leaf00 = rig.clos.leaf(0, 0);
  Switch& tor00 = rig.clos.tor(0, 0);
  Switch& tor01 = rig.clos.tor(0, 1);
  Switch& tor10 = rig.clos.tor(1, 0);
  Switch& leaf11 = rig.clos.leaf(1, 1);
  const Host& s000 = rig.clos.server(0, 0, 0);
  const Host& s010 = rig.clos.server(0, 1, 0);
  const Host& s011 = rig.clos.server(0, 1, 1);
  const Host& s001 = rig.clos.server(0, 0, 1);
  const Host& s100 = rig.clos.server(1, 0, 0);
  const Host& s110 = rig.clos.server(1, 1, 0);

  IncidentManagerConfig cfg = lab_cfg();
  cfg.probation = milliseconds(5);
  IncidentManager mgr(rig.clos.fabric(), rig.localizer, cfg);
  ChaosEngine chaos(rig.clos.fabric(), /*seed=*/2016);
  mgr.set_chaos(&chaos);

  // Stage 1: leaf-0-0's uplink 2 goes gray. One confirmed direction on the
  // switch -> a plain cost-out.
  FleetRig::Pair up{&s000, &s100, 0, 0};
  up.fwd = rig.find_sport(s000, s100, [&](const Hops& h) { return hops_contain(h, &leaf00, 2); });
  up.rsp = rig.find_sport(s100, s000, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  const int tor00_up = port_used_at(rig.trace(s000, s100, up.fwd), &tor00);
  const int tor10_up = port_used_at(rig.trace(s100, s000, up.rsp), &tor10);
  const int leaf11_up = port_used_at(rig.trace(s100, s000, up.rsp), &leaf11);
  ASSERT_GE(tor00_up, 0);
  ASSERT_GE(tor10_up, 0);
  ASSERT_GE(leaf11_up, 0);
  FleetRig::Pair da{&s000, &s010, 0, 0};
  da.fwd = rig.find_sport(s000, s010, [&](const Hops& h) { return hops_contain(h, &tor00, tor00_up); });
  da.rsp = rig.find_sport(s010, s000, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  FleetRig::Pair db{&s100, &s010, 0, 0};
  db.fwd = rig.find_sport(s100, s010, [&](const Hops& h) { return hops_contain(h, &tor10, tor10_up); });
  db.rsp = rig.find_sport(s010, s100, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  FleetRig::Pair dc{&s110, &s011, 0, 0};
  dc.fwd = rig.find_sport(s110, s011, [&](const Hops& h) { return hops_contain(h, &leaf11, leaf11_up); });
  dc.rsp = rig.find_sport(s011, s110, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  for (int round = 0; round < 2; ++round) {
    rig.feed(up, false);
    rig.feed(da, true);
    rig.feed(db, true);
    rig.feed(dc, true);
    mgr.scan_now();
  }
  ASSERT_EQ(mgr.stats().cost_outs, 1);
  ASSERT_EQ(mgr.stats().drains, 0);
  ASSERT_TRUE(mgr.costed_out("leaf-0-0", 2));
  ASSERT_EQ(leaf00.port_weight(2), 0);

  // Stage 2: the blackholed down port 0 confirms too (sports found now —
  // the cost-out moved the paths). Escalation: drain, absorbing the
  // cost-out so one undrain owns every zeroed weight.
  FleetRig::Pair dn{&s010, &s000, 0, 0};
  dn.fwd = rig.find_sport(s010, s000, [&](const Hops& h) { return hops_contain(h, &leaf00, 0); });
  dn.rsp = rig.find_sport(s000, s010, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  const int tor01_up = port_used_at(rig.trace(s010, s000, dn.fwd), &tor01);
  const int tor00_up2 = port_used_at(rig.trace(s000, s010, dn.rsp), &tor00);
  ASSERT_GE(tor01_up, 0);
  ASSERT_GE(tor00_up2, 0);
  FleetRig::Pair dd{&s010, &s110, 0, 0};
  dd.fwd = rig.find_sport(s010, s110, [&](const Hops& h) { return hops_contain(h, &tor01, tor01_up); });
  dd.rsp = rig.find_sport(s110, s010, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  FleetRig::Pair de{&s001, &s011, 0, 0};
  de.fwd = rig.find_sport(s001, s011, [&](const Hops& h) { return hops_contain(h, &tor00, tor00_up2); });
  de.rsp = rig.find_sport(s011, s001, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  for (int round = 0; round < 2; ++round) {
    rig.feed(dn, false);
    rig.feed(dd, true);
    rig.feed(de, true);
    mgr.scan_now();
  }

  EXPECT_EQ(mgr.stats().drains, 1);
  EXPECT_EQ(mgr.stats().cost_outs, 1);  // no second cost-out: escalated
  EXPECT_TRUE(mgr.switch_drained("leaf-0-0"));
  EXPECT_FALSE(mgr.costed_out("leaf-0-0", 2)) << "cost-out should be absorbed";
  const FleetMitigation& costout = mgr.mitigations().front();
  ASSERT_EQ(costout.kind, MitigationKind::kCostOut);
  EXPECT_TRUE(costout.absorbed);
  EXPECT_GE(costout.reverted_at, 0);
  const FleetMitigation& drain = mgr.mitigations().back();
  ASSERT_EQ(drain.kind, MitigationKind::kSwitchDrain);
  EXPECT_EQ(drain.covers.size(), 2u);
  bool owns_absorbed = false;
  for (const auto& [node, port] : drain.members) {
    if (node == "leaf-0-0" && port == 2) owns_absorbed = true;
  }
  EXPECT_TRUE(owns_absorbed) << "absorbed weight did not transfer to the drain";
  EXPECT_NE(chaos.journal_text().find("absorbed 1"), std::string::npos);

  // Clean probation: ONE undrain restores the neighbours AND the absorbed
  // uplink weight.
  sim.run_until(milliseconds(6));
  mgr.scan_now();
  EXPECT_EQ(mgr.stats().restores, 1);
  EXPECT_FALSE(mgr.switch_drained("leaf-0-0"));
  EXPECT_FALSE(leaf00.drained());
  EXPECT_EQ(leaf00.port_weight(2), 1);
  for (Switch* n : {&tor00, &tor01}) {
    for (int p = 0; p < n->port_count(); ++p) {
      if (n->port(p).peer() == &leaf00) {
        EXPECT_EQ(n->port_weight(p), 1);
      }
    }
  }
  EXPECT_NE(chaos.journal_text().find("switch_undrain leaf-0-0"), std::string::npos);
}

// The blast-radius scenario: three pod-1 cost-outs sit inside the budget;
// a higher-ranked drain then needs pod-1 headroom, sheds exactly the
// lowest-ranked (first-applied) cost-out, and coexists with the remaining
// two — all deterministic, all journalled.
struct ShedOutcome {
  std::string journal;
  std::int64_t cost_outs = 0;
  std::int64_t drains = 0;
  std::int64_t sheds = 0;
  std::int64_t budget_vetoes = 0;
  bool shed_was_leaf10 = false;
  bool leaf10_weight_restored = false;
  bool drained_leaf11 = false;
  bool tor10_still_out = false;
  bool tor11_still_out = false;
  double pod1_frac = 0.0;
  double spine_frac = 0.0;
};

ShedOutcome run_shed_sequence() {
  FleetRig rig;
  Switch& tor10 = rig.clos.tor(1, 0);
  Switch& tor11 = rig.clos.tor(1, 1);
  Switch& leaf10 = rig.clos.leaf(1, 0);
  Switch& leaf11 = rig.clos.leaf(1, 1);
  Switch& leaf00 = rig.clos.leaf(0, 0);
  Switch& tor00 = rig.clos.tor(0, 0);
  Switch& leaf01 = rig.clos.leaf(0, 1);
  const Host& s100 = rig.clos.server(1, 0, 0);
  const Host& s101 = rig.clos.server(1, 0, 1);
  const Host& s110 = rig.clos.server(1, 1, 0);
  const Host& s111 = rig.clos.server(1, 1, 1);
  const Host& s000 = rig.clos.server(0, 0, 0);
  const Host& s010 = rig.clos.server(0, 1, 0);

  // Budget arithmetic (pod-1 pool = 12 members, spine pool = 8): at 0.35,
  // three cost-outs fit (3/12), the drain's +2 does not (5/12 > 0.35),
  // shedding one does (4/12), and the spine side fits (2/8).
  auto pod_total = [&](int pod) {
    std::int64_t t = 0;
    for (const auto& swp : rig.clos.fabric().switches()) {
      if (IncidentManager::pod_of(swp->name()) == pod) {
        t += static_cast<std::int64_t>(swp->ecmp_member_ports().size());
      }
    }
    return t;
  };
  EXPECT_EQ(pod_total(1), 12);
  EXPECT_EQ(pod_total(-1), 8);

  IncidentManagerConfig cfg = lab_cfg();
  cfg.blast_budget_frac = 0.35;
  IncidentManager mgr(rig.clos.fabric(), rig.localizer, cfg);
  ChaosEngine chaos(rig.clos.fabric(), /*seed=*/2016);
  mgr.set_chaos(&chaos);

  // Stage 1: three independent gray uplinks -> three cost-outs.
  FleetRig::Pair p1{&s100, &s110, 0, 0};
  p1.fwd = rig.find_sport(s100, s110, [&](const Hops& h) { return hops_contain(h, &tor10, 2); });
  p1.rsp = rig.find_sport(s110, s100, [&](const Hops& h) { return hops_contain(h, &tor11, 2); });
  FleetRig::Pair p2{&s101, &s000, 0, 0};
  p2.fwd = rig.find_sport(s101, s000, [&](const Hops& h) {
    return hops_contain(h, &tor10, 2) && hops_contain(h, &leaf10, 2);
  });
  p2.rsp = rig.find_sport(s000, s101, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  const int tor00_up = port_used_at(rig.trace(s000, s101, p2.rsp), &tor00);
  const int leaf01_up = port_used_at(rig.trace(s000, s101, p2.rsp), &leaf01);
  EXPECT_GE(tor00_up, 0);
  EXPECT_GE(leaf01_up, 0);
  // Dilution for every multi-member collateral hop of p1/p2.
  FleetRig::Pair d1{&s000, &s010, 0, 0};
  d1.fwd = rig.find_sport(s000, s010, [&](const Hops& h) { return hops_contain(h, &tor00, tor00_up); });
  d1.rsp = rig.find_sport(s010, s000, [&](const Hops& h) { return !hops_touch(h, &leaf00); });
  FleetRig::Pair d2{&s000, &s111, 0, 0};
  d2.fwd = rig.find_sport(s000, s111, [&](const Hops& h) { return hops_contain(h, &leaf10, 1); });
  d2.rsp = rig.find_sport(s111, s000, [&](const Hops& h) { return !hops_contain(h, &tor11, 2); });
  FleetRig::Pair d7{&s010, &s100, 0, 0};
  d7.fwd = rig.find_sport(s010, s100, [&](const Hops& h) { return hops_contain(h, &leaf10, 0); });
  d7.rsp = rig.find_sport(s100, s010, [&](const Hops& h) {
    return !hops_contain(h, &tor10, 2) && !hops_contain(h, &leaf10, 2);
  });
  FleetRig::Pair d8a{&s000, &s100, 0, 0};
  d8a.fwd = rig.find_sport(s000, s100, [&](const Hops& h) { return hops_contain(h, &leaf01, leaf01_up); });
  d8a.rsp = rig.find_sport(s100, s000, [&](const Hops& h) {
    return !hops_contain(h, &tor10, 2) && !hops_contain(h, &leaf10, 2);
  });
  FleetRig::Pair d8b{&s000, &s110, 0, 0};
  d8b.fwd = rig.find_sport(s000, s110, [&](const Hops& h) { return hops_contain(h, &leaf01, leaf01_up); });
  d8b.rsp = rig.find_sport(s110, s000, [&](const Hops& h) { return !hops_contain(h, &tor11, 2); });
  // Every failing pair also charges its destination ToR's server-facing
  // down port; healthy intra-ToR chatter keeps those dirs cold so neither
  // ToR appears to own a second bad direction.
  FleetRig::Pair loc_a{&s101, &s100, 1000, 1000};
  FleetRig::Pair loc_b{&s111, &s110, 1000, 1000};
  for (int round = 0; round < 2; ++round) {
    rig.feed(p1, false);
    rig.feed(p2, false);
    rig.feed(d1, true);
    rig.feed(d2, true);
    rig.feed(d7, true);
    rig.feed(round == 0 ? d8a : d8b, true);
    rig.feed(loc_a, true);
    rig.feed(loc_b, true);
    mgr.scan_now();
  }
  EXPECT_EQ(mgr.stats().cost_outs, 3);
  EXPECT_TRUE(mgr.costed_out("leaf-1-0", 2));
  EXPECT_TRUE(mgr.costed_out("tor-1-0", 2));
  EXPECT_TRUE(mgr.costed_out("tor-1-1", 2));

  // Stage 2: both of leaf-1-1's down directions go bad -> a drain that
  // needs more pod-1 capacity than the budget leaves.
  FleetRig::Pair p3{&s110, &s100, 0, 0};
  p3.fwd = rig.find_sport(s110, s100, [&](const Hops& h) { return hops_contain(h, &leaf11, 0); });
  p3.rsp = rig.find_sport(s100, s110, [&](const Hops& h) { return hops_contain(h, &leaf11, 1); });
  FleetRig::Pair d3{&s111, &s010, 0, 0};
  d3.fwd = rig.find_sport(s111, s010, [&](const Hops& h) { return hops_contain(h, &tor11, 3); });
  d3.rsp = rig.find_sport(s010, s111, [&](const Hops& h) { return !hops_touch(h, &leaf11); });
  FleetRig::Pair d4{&s101, &s010, 0, 0};
  d4.fwd = rig.find_sport(s101, s010, [&](const Hops& h) { return hops_contain(h, &tor10, 3); });
  d4.rsp = rig.find_sport(s010, s101, [&](const Hops& h) { return !hops_touch(h, &leaf11); });
  for (int round = 0; round < 3; ++round) {
    rig.feed(p3, false);
    rig.feed(d3, true);
    rig.feed(d4, true);
    rig.feed(loc_a, true);
    rig.feed(loc_b, true);
    rig.feed(loc_b, true);
    mgr.scan_now();
  }

  ShedOutcome out;
  out.journal = chaos.journal_text();
  out.cost_outs = mgr.stats().cost_outs;
  out.drains = mgr.stats().drains;
  out.sheds = mgr.stats().sheds;
  out.budget_vetoes = mgr.stats().budget_vetoes;
  const FleetMitigation& first = mgr.mitigations().front();
  out.shed_was_leaf10 = first.shed && first.target == "leaf-1-0" && first.port == 2;
  out.leaf10_weight_restored = leaf10.port_weight(2) == 1;
  out.drained_leaf11 = mgr.switch_drained("leaf-1-1") && leaf11.drained();
  out.tor10_still_out = mgr.costed_out("tor-1-0", 2) && tor10.port_weight(2) == 0;
  out.tor11_still_out = mgr.costed_out("tor-1-1", 2) && tor11.port_weight(2) == 0;
  out.pod1_frac = mgr.pod_costed_frac(1);
  out.spine_frac = mgr.pod_costed_frac(-1);
  return out;
}

TEST(IncidentManagerLoop, BudgetExhaustionShedsLowestRankedDeterministically) {
  const ShedOutcome out = run_shed_sequence();
  EXPECT_EQ(out.cost_outs, 3);
  EXPECT_EQ(out.drains, 1);
  EXPECT_EQ(out.sheds, 1);
  EXPECT_EQ(out.budget_vetoes, 0);
  EXPECT_TRUE(out.shed_was_leaf10) << "shed victim must be the first-applied rank-1.0 cost-out";
  EXPECT_TRUE(out.leaf10_weight_restored);
  // Drain + the two surviving far cost-outs coexist under the budget.
  EXPECT_TRUE(out.drained_leaf11);
  EXPECT_TRUE(out.tor10_still_out);
  EXPECT_TRUE(out.tor11_still_out);
  EXPECT_LE(out.pod1_frac, 0.35 + 1e-9);
  EXPECT_LE(out.spine_frac, 0.35 + 1e-9);
  EXPECT_NE(out.journal.find("mitigation_shed leaf-1-0"), std::string::npos);
  EXPECT_NE(out.journal.find("switch_drain leaf-1-1"), std::string::npos);
}

// Identical evidence must reproduce the identical decision sequence byte
// for byte — the property CI pins with a golden journal hash.
TEST(IncidentManagerLoop, JournalIsByteIdenticalAcrossReruns) {
  const ShedOutcome a = run_shed_sequence();
  const ShedOutcome b = run_shed_sequence();
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_FALSE(a.journal.empty());
}

// §6.2: drifted runtime fields are detected against the golden policy and
// rolled back in one scan; the incident resolves on the next.
TEST(IncidentManagerLoop, ConfigDriftDetectedAndRolledBack) {
  FleetRig rig;
  QosPolicy policy;
  policy.max_cable_m = 20.0;
  IncidentManagerConfig cfg = lab_cfg();
  cfg.rollback_config = true;
  IncidentManager mgr(rig.clos.fabric(), rig.localizer, cfg);
  ChaosEngine chaos(rig.clos.fabric(), /*seed=*/2016);
  mgr.set_chaos(&chaos);
  mgr.set_golden_policy(policy, DeploymentStage::kFull);

  Switch& tor11 = rig.clos.tor(1, 1);
  Switch& leaf10 = rig.clos.leaf(1, 0);
  tor11.set_buffer_alpha(1.0 / 64);
  const ArpIncompletePolicy golden_arp =
      make_switch_config(policy, tier_of(leaf10), DeploymentStage::kFull).arp_policy;
  leaf10.set_arp_policy(golden_arp == ArpIncompletePolicy::kFlood
                            ? ArpIncompletePolicy::kDropLossless
                            : ArpIncompletePolicy::kFlood);

  std::vector<Switch*> sws;
  for (const auto& swp : rig.clos.fabric().switches()) sws.push_back(swp.get());
  ASSERT_EQ(check_switch_configs(sws, policy, DeploymentStage::kFull).size(), 2u);

  mgr.scan_now();
  EXPECT_EQ(mgr.stats().rollbacks, 2);  // one per drifted switch
  EXPECT_TRUE(check_switch_configs(sws, policy, DeploymentStage::kFull).empty());
  int drift_incidents = 0;
  for (const Incident& inc : mgr.incidents()) {
    if (inc.kind != IncidentKind::kConfigDrift) continue;
    ++drift_incidents;
    EXPECT_GE(inc.mitigated_at, 0);
  }
  EXPECT_EQ(drift_incidents, 2);
  EXPECT_NE(chaos.journal_text().find("config_rollback tor-1-1 restored mmu.alpha"),
            std::string::npos);
  EXPECT_NE(chaos.journal_text().find("config_rollback leaf-1-0 restored arp_policy"),
            std::string::npos);

  // The next scan sees clean configs and resolves the incidents; no
  // further rollbacks fire.
  mgr.scan_now();
  EXPECT_EQ(mgr.stats().rollbacks, 2);
  for (const Incident& inc : mgr.incidents()) {
    if (inc.kind == IncidentKind::kConfigDrift) {
      EXPECT_GE(inc.resolved_at, 0);
    }
  }
}

// Blast radius is a first-class metric: the manager exports per-pod
// costed-capacity gauges, and the InvariantAuditor's kBlastRadius check
// audits them independently of the manager's own budget logic.
TEST(IncidentManagerLoop, BlastGaugesExportedAndAuditorFlagsOverBudget) {
  FleetRig rig;
  Simulator& sim = rig.clos.sim();
  IncidentManager mgr(rig.clos.fabric(), rig.localizer, lab_cfg());
  const MetricRegistry& reg = sim.metrics();
  EXPECT_EQ(reg.select("fleet/pod0/costed_capacity_frac_bp").size(), 1u);
  EXPECT_EQ(reg.select("fleet/pod1/costed_capacity_frac_bp").size(), 1u);
  EXPECT_EQ(reg.select("fleet/spine/costed_capacity_frac_bp").size(), 1u);

  InvariantAuditor::Options aopts;
  aopts.interval = microseconds(100);
  aopts.registry = &sim.metrics();
  aopts.blast_budget_bp = 2500;
  std::vector<Switch*> sws;
  for (const auto& swp : rig.clos.fabric().switches()) sws.push_back(swp.get());
  std::vector<Host*> hosts;
  for (const auto& h : rig.clos.fabric().hosts()) hosts.push_back(h.get());
  InvariantAuditor auditor(sim, sws, hosts, aopts);
  auditor.start();

  // Nothing costed out: gauges are zero and the auditor stays quiet.
  mgr.scan_now();
  sim.run_until(milliseconds(1));
  EXPECT_EQ(reg.sum("fleet/*/costed_capacity_frac_bp"), 0);
  EXPECT_EQ(auditor.hard_violations(), 0);

  // A rogue actor (not the manager) zeroes 4 of pod 0's 12 members:
  // 3333 bp, past the 2500 bp budget.
  rig.clos.tor(0, 0).set_port_weight(2, 0);
  rig.clos.tor(0, 0).set_port_weight(3, 0);
  rig.clos.tor(0, 1).set_port_weight(2, 0);
  rig.clos.tor(0, 1).set_port_weight(3, 0);
  mgr.scan_now();  // gauge refresh happens on the manager's scan
  EXPECT_EQ(reg.sum("fleet/pod0/costed_capacity_frac_bp"), 4 * 10000 / 12);
  EXPECT_DOUBLE_EQ(mgr.pod_costed_frac(0), 4.0 / 12.0);

  sim.run_until(milliseconds(2));
  EXPECT_GE(auditor.hard_violations(), 1);
  bool saw_blast = false;
  for (const auto& v : auditor.violations()) {
    if (v.kind == InvariantAuditor::Kind::kBlastRadius) saw_blast = true;
  }
  EXPECT_TRUE(saw_blast);
}

}  // namespace
}  // namespace rocelab
