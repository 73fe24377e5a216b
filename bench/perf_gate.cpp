// Perf gate: a fixed seeded Clos macro workload that measures the simulator
// core's throughput (events/sec, wall-clock per simulated second, peak RSS)
// and emits a determinism digest of the final fabric counters.
//
// The digest is the contract: any change to the event core or the packet
// pipeline must leave it byte-identical for the same workload — optimizations
// may only change how fast the answer is computed, never the answer. CI runs
// this as a smoke (small window, run twice, digests must match) and writes
// BENCH_simcore.json at the repo root so the perf trajectory accumulates.
//
// Usage:
//   perf_gate [--ms N] [--json PATH] [--twice] [--expect-digest HEX] [--gray-noop]
//   env: ROCELAB_PERFGATE_MS overrides the default window (--ms wins).
//
// --gray-noop re-runs the workload with the whole gray-failure plane
// installed but disabled (a LinkImpairment on every port, a QpFaultSpec on
// every NIC) and requires the digest to stay byte-identical: constructing
// the fault plane must cost zero RNG draws and zero behaviour.
//
// --corruption-noop is the same contract for the data-integrity plane: a
// disabled corruption impairment (corrupt_deliver_rate/escape_fcs_frac set)
// on every port, with the NICs' ICRC verify left at its always-on default.
//
// --selrep-noop is the same contract for the loss-recovery engine seam:
// every QP keeps the pinned go-back-N engine, and a detached selective-
// repeat engine is constructed and driven per host — the refactored seam
// and the dormant selrep machinery must cost zero RNG draws and zero
// events on the go-back-N path.
//
// --atomics-noop is the same contract for the atomic-verbs plane: every
// host's responder memory table is written and read, and a disabled
// dup-request fault spec is installed on live QPs — with no atomic ever
// posted, none of it may cost an RNG draw or an event.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/app/demux.h"
#include "src/app/traffic.h"
#include "src/exp/scenario.h"
#include "src/link/impairment.h"
#include "src/monitor/digest.h"
#include "src/nic/recovery.h"
#include "src/rocev2/deployment.h"

using namespace rocelab;

namespace {

struct GateResult {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;     // total schedule_at calls
  std::uint64_t final_pending = 0;
  std::size_t heap_entries = 0;    // live + stale entries at deadline
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time: stable even when the box is busy
  double sim_s = 0;
  std::uint64_t digest = 0;
  std::int64_t messages_completed = 0;
  std::int64_t bytes_received = 0;
};

double cpu_seconds() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// The fixed workload: a 3-tier Clos (`podsets` x 2 leaves x 3 ToRs x 4
/// servers, 4 spines) carrying saturating cross-podset streams, an RDMA
/// pingmesh, and a small incast — the three traffic shapes every experiment
/// in the paper is built from. At the default podsets=2 / shards=1 this is
/// byte-identical to the historical workload behind the pinned digest;
/// podsets pair up (m <-> m + podsets/2) so every stream stays cross-podset
/// at any size, and `shards` turns on the pod-partitioned PDES core.
GateResult run_workload(Time window, int shards = 1, int podsets = 2, bool gray_noop = false,
                        bool corruption_noop = false, bool selrep_noop = false,
                        bool atomics_noop = false) {
  QosPolicy policy;
  const int tors = 3, servers = 4;
  const int half = podsets / 2;
  ClosParams params =
      make_clos_params(policy, DeploymentStage::kFull, podsets, /*leaves=*/2, tors,
                       servers, /*spines=*/4);
  params.shards = shards;
  ClosFabric clos(params);

  if (gray_noop) {
    // Install the entire gray-failure plane, disabled. If any of this ever
    // costs an RNG draw or an event, the digest comparison below catches it.
    LinkImpairment imp;
    imp.enabled = false;
    imp.fcs_drop_rate = 0.5;
    imp.blackhole = true;
    imp.added_delay = milliseconds(1);
    imp.jitter = microseconds(100);
    QpFaultSpec spec;
    spec.enabled = false;
    spec.drop_rate = 0.5;
    spec.reorder_rate = 0.5;
    spec.dup_ack_rate = 0.5;
    for (auto* sw : clos.fabric().switch_ptrs()) {
      for (int p = 0; p < sw->port_count(); ++p) sw->port(p).set_impairment(imp);
    }
    for (const auto& h : clos.fabric().hosts()) {
      for (int p = 0; p < h->port_count(); ++p) h->port(p).set_impairment(imp);
      for (std::uint32_t qpn = 1; qpn <= 4; ++qpn) h->rdma().set_qp_fault(qpn, spec);
    }
  }

  if (corruption_noop) {
    // The data-integrity plane, constructed but disabled: a corruption
    // impairment on every port and ICRC verify at its always-on default.
    // Must cost zero RNG draws and zero events — the digest proves it.
    LinkImpairment imp;
    imp.enabled = false;
    imp.corrupt_deliver_rate = 0.5;
    imp.escape_fcs_frac = 0.5;
    for (auto* sw : clos.fabric().switch_ptrs()) {
      for (int p = 0; p < sw->port_count(); ++p) sw->port(p).set_impairment(imp);
    }
    for (const auto& h : clos.fabric().hosts()) {
      for (int p = 0; p < h->port_count(); ++p) h->port(p).set_impairment(imp);
      h->rdma().set_icrc_verify(true);
    }
  }

  if (selrep_noop) {
    // The recovery seam, exercised but inert: the live QPs keep the policy
    // default (go-back-N), while a detached selective-repeat engine per host
    // is constructed and walked through its sender/receiver surface. None of
    // this may touch the simulator — the digest comparison proves the seam
    // and the dormant selrep code cost zero RNG draws and zero events.
    for (const auto& h : clos.fabric().hosts()) {
      QpConfig qp = make_qp_config(policy);
      qp.recovery = LossRecovery::kSelectiveRepeat;
      RecoveryCounters scratch;
      const auto engine = LossRecoveryEngine::make(qp, &scratch);
      engine->on_tx_segment(0, /*is_retx=*/false, 0);
      engine->on_ack(1, std::nullopt, 0);
      (void)engine->window_open(1, 1);
      (void)engine->sack_bitmap(1);
      (void)h;
    }
  }

  if (atomics_noop) {
    // The atomic-verbs plane, present but dormant: the responder memory
    // table is touched on every host and a dup-request fault spec sits
    // disabled on the live QPs. No atomic is posted, so none of it may cost
    // an RNG draw or an event — the digest comparison proves it.
    QpFaultSpec spec;
    spec.enabled = false;
    spec.dup_req_rate = 0.5;
    for (const auto& h : clos.fabric().hosts()) {
      h->rdma().memory_write(0x100, 42);
      if (h->rdma().memory_read(0x100) != 42) std::abort();
      h->rdma().memory_write(0x100, 0);
      for (std::uint32_t qpn = 1; qpn <= 4; ++qpn) h->rdma().set_qp_fault(qpn, spec);
    }
  }

  std::vector<std::unique_ptr<RdmaDemux>> demuxes;
  std::vector<std::unique_ptr<RdmaStreamSource>> sources;
  std::vector<std::unique_ptr<RdmaEchoServer>> echoes;

  auto demux_for = [&](Host& h) -> RdmaDemux& {
    demuxes.push_back(std::make_unique<RdmaDemux>(h));
    return *demuxes.back();
  };

  // Saturating streams: every server pairs with its mirror in the paired
  // podset (m <-> m + half), both directions, 2 QPs each. At podsets=2 this
  // loop nest (m=0 only) is exactly the historical 0<->1 pairing, in the
  // same construction order.
  for (int t = 0; t < tors; ++t) {
    for (int s = 0; s < servers; ++s) {
      for (int m = 0; m < half; ++m) {
        for (int dir = 0; dir < 2; ++dir) {
          Host& src = clos.server(dir == 0 ? m : m + half, t, s);
          Host& dst = clos.server(dir == 0 ? m + half : m, t, s);
          RdmaDemux& demux = demux_for(src);
          for (int q = 0; q < 2; ++q) {
            auto [qa, qb] = connect_qp_pair(src, dst, make_qp_config(policy));
            (void)qb;
            sources.push_back(std::make_unique<RdmaStreamSource>(
                src, demux, qa,
                RdmaStreamSource::Options{.message_bytes = 32 * kKiB, .max_outstanding = 2}));
            sources.back()->start();
          }
        }
      }
    }
  }

  // Pingmesh: server (0,0,0) probes server (ps,t,0) of every remote podset's
  // ToRs on the real-time class.
  Host& prober = clos.server(0, 0, 0);
  RdmaDemux& prober_demux = demux_for(prober);
  std::vector<std::uint32_t> probe_qpns;
  for (int ps = 1; ps < podsets; ++ps) {
    for (int t = 0; t < tors; ++t) {
      auto [qa, qb] = connect_qp_pair(prober, clos.server(ps, t, 0),
                                      make_qp_config(policy, /*realtime=*/true));
      (void)qb;
      probe_qpns.push_back(qa);
    }
  }
  RdmaPingmesh pingmesh(prober, prober_demux, probe_qpns,
                        RdmaPingmesh::Options{.interval = microseconds(100)});
  pingmesh.start();

  // Incast: server (0,1,1) fans 512B queries to one responder per remote ToR.
  Host& client = clos.server(0, 1, 1);
  RdmaDemux& client_demux = demux_for(client);
  std::vector<std::uint32_t> incast_qpns;
  for (int ps = 1; ps < podsets; ++ps) {
    for (int t = 0; t < tors; ++t) {
      Host& responder = clos.server(ps, t, 3);
      auto [qa, qb] = connect_qp_pair(client, responder, make_qp_config(policy));
      echoes.push_back(std::make_unique<RdmaEchoServer>(responder, demux_for(responder), qb,
                                                        /*response_bytes=*/4 * kKiB));
      incast_qpns.push_back(qa);
    }
  }
  RdmaIncastClient incast(client, client_demux, incast_qpns,
                          RdmaIncastClient::Options{.mean_interval = microseconds(100)});
  incast.start();

  const double cpu0 = cpu_seconds();
  const auto wall0 = std::chrono::steady_clock::now();
  clos.sim().run_until(window);
  const auto wall1 = std::chrono::steady_clock::now();
  const double cpu1 = cpu_seconds();

  GateResult r;
  ShardGroup& group = clos.fabric().group();
  r.events = group.executed_events();
  r.final_pending = group.pending_events();
  for (int i = 0; i < group.shard_count(); ++i) {
    r.scheduled += group.shard(i).scheduled_events();
    r.heap_entries += group.shard(i).queued_entries();
  }
  if (group.shard_count() > 1) {
    r.scheduled += group.control().scheduled_events();
    r.heap_entries += group.control().queued_entries();
  }
  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  r.cpu_s = cpu1 - cpu0;
  r.sim_s = to_seconds(window);
  r.digest = counters_digest(clos.fabric());
  for (const auto& h : clos.fabric().hosts()) {
    r.messages_completed += h->rdma().stats().messages_completed;
    r.bytes_received += h->rdma().stats().bytes_received;
  }
  return r;
}

long peak_rss_kib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  // The digest contract needs an exactly reproducible window, so the window
  // knob goes through the same env resolution as every scenario knob.
  exp::Knobs knobs;
  knobs.declare(exp::knob_int("ms", 10, "ROCELAB_PERFGATE_MS", "simulated window"));
  std::string json_path;
  std::string expect_digest;
  bool twice = false;
  bool gray_noop = false;
  bool corruption_noop = false;
  bool selrep_noop = false;
  bool atomics_noop = false;
  int shards = 1;
  int podsets = 2;
  std::vector<int> scaling;  // e.g. --scaling 1,2,4: PDES scaling sweep
  double scale_min = 0.0;    // min events/sec ratio (last/first) to pass
  int scaling_podsets = 0;   // sweep fabric size (0 = same as --podsets)
  long scaling_ms = 0;       // sweep window (0 = same as --ms)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      knobs.set_override("ms", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--expect-digest") == 0 && i + 1 < argc) {
      expect_digest = argv[++i];
    } else if (std::strcmp(argv[i], "--twice") == 0) {
      twice = true;
    } else if (std::strcmp(argv[i], "--gray-noop") == 0) {
      gray_noop = true;
    } else if (std::strcmp(argv[i], "--corruption-noop") == 0) {
      corruption_noop = true;
    } else if (std::strcmp(argv[i], "--selrep-noop") == 0) {
      selrep_noop = true;
    } else if (std::strcmp(argv[i], "--atomics-noop") == 0) {
      atomics_noop = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--podsets") == 0 && i + 1 < argc) {
      podsets = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scaling") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        scaling.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strcmp(argv[i], "--scale-min") == 0 && i + 1 < argc) {
      scale_min = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--scaling-podsets") == 0 && i + 1 < argc) {
      scaling_podsets = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scaling-ms") == 0 && i + 1 < argc) {
      scaling_ms = std::atol(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: perf_gate [--ms N] [--json PATH] [--twice] [--expect-digest HEX] "
                   "[--gray-noop] [--corruption-noop] [--selrep-noop] [--atomics-noop] "
                   "[--shards N] [--podsets N] "
                   "[--scaling 1,2,4] [--scale-min R] [--scaling-podsets N] [--scaling-ms N]\n");
      return 2;
    }
  }
  long ms = 0;
  try {
    ms = knobs.get_int("ms");
  } catch (const exp::KnobError& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 2;
  }

  std::printf("\n=== perf gate — seeded Clos macro workload ===\n");
  std::printf("config: %d podsets, %d shard%s\n", podsets, shards, shards == 1 ? "" : "s");
  const GateResult r = run_workload(milliseconds(ms), shards, podsets);
  const double events_per_sec = static_cast<double>(r.events) / r.wall_s;
  const double wall_per_sim_s = r.wall_s / r.sim_s;
  const long rss = peak_rss_kib();

  std::printf("window: %ld ms simulated   wall: %.3f s   cpu: %.3f s\n", ms, r.wall_s, r.cpu_s);
  std::printf("events: %llu (%llu scheduled; %.0f pending, %zu heap entries at deadline)\n",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.scheduled), static_cast<double>(r.final_pending),
              r.heap_entries);
  std::printf("events/sec: %.3fM (%.3fM per cpu-sec)   wall-clock per simulated second: %.2f\n",
              events_per_sec / 1e6, static_cast<double>(r.events) / r.cpu_s / 1e6,
              wall_per_sim_s);
  std::printf("peak RSS: %.1f MiB\n", static_cast<double>(rss) / 1024.0);
  std::printf("messages completed: %lld   bytes received: %lld\n",
              static_cast<long long>(r.messages_completed),
              static_cast<long long>(r.bytes_received));
  std::printf("determinism digest: %s\n", digest_hex(r.digest).c_str());

  bool ok = true;
  if (twice) {
    const GateResult r2 = run_workload(milliseconds(ms), shards, podsets);
    const bool same = r2.digest == r.digest && r2.events == r.events;
    std::printf("second run digest:  %s (%s)\n", digest_hex(r2.digest).c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }
  if (!expect_digest.empty()) {
    const bool same = digest_hex(r.digest) == expect_digest;
    std::printf("expected digest:    %s (%s)\n", expect_digest.c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }
  if (gray_noop) {
    const GateResult rg = run_workload(milliseconds(ms), shards, podsets, /*gray_noop=*/true);
    const bool same = rg.digest == r.digest && rg.events == r.events;
    std::printf("gray-noop digest:   %s (%s)\n", digest_hex(rg.digest).c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }
  if (corruption_noop) {
    const GateResult rc = run_workload(milliseconds(ms), shards, podsets, /*gray_noop=*/false,
                                       /*corruption_noop=*/true);
    const bool same = rc.digest == r.digest && rc.events == r.events;
    std::printf("corruption-noop digest: %s (%s)\n", digest_hex(rc.digest).c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }
  if (selrep_noop) {
    const GateResult rs = run_workload(milliseconds(ms), shards, podsets, /*gray_noop=*/false,
                                       /*corruption_noop=*/false, /*selrep_noop=*/true);
    const bool same = rs.digest == r.digest && rs.events == r.events;
    std::printf("selrep-noop digest: %s (%s)\n", digest_hex(rs.digest).c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }
  if (atomics_noop) {
    const GateResult ra = run_workload(milliseconds(ms), shards, podsets, /*gray_noop=*/false,
                                       /*corruption_noop=*/false, /*selrep_noop=*/false,
                                       /*atomics_noop=*/true);
    const bool same = ra.digest == r.digest && ra.events == r.events;
    std::printf("atomics-noop digest: %s (%s)\n", digest_hex(ra.digest).c_str(),
                same ? "MATCH" : "MISMATCH");
    ok = ok && same;
  }

  // PDES scaling sweep: the same workload at each shard count, run twice —
  // per-count reruns must be byte-identical (the determinism half of the
  // gate); aggregate events/sec per count is the scaling half.
  struct ScalePoint {
    int shards = 0;
    GateResult res;
    double events_per_sec = 0;
  };
  std::vector<ScalePoint> scale_points;
  // The sweep can use its own fabric size and window: the digest pin above
  // is only valid for the default 2-podset workload, but a {1,2,4} shard
  // sweep needs >= 4 podsets to partition, so CI runs both in one process.
  const int sweep_podsets = scaling_podsets > 0 ? scaling_podsets : podsets;
  const long sweep_ms = scaling_ms > 0 ? scaling_ms : ms;
  if (!scaling.empty()) {
    std::printf("\n--- PDES scaling (podsets=%d, %ld ms window) ---\n", sweep_podsets, sweep_ms);
    for (int n : scaling) {
      const GateResult a = run_workload(milliseconds(sweep_ms), n, sweep_podsets);
      const GateResult b = run_workload(milliseconds(sweep_ms), n, sweep_podsets);
      const bool stable = a.digest == b.digest && a.events == b.events;
      ScalePoint pt;
      pt.shards = n;
      pt.res = a;
      pt.events_per_sec = static_cast<double>(a.events) / a.wall_s;
      scale_points.push_back(pt);
      std::printf("shards=%d: %llu events, %.3f s wall, %.3fM events/sec, digest %s, rerun %s\n",
                  n, static_cast<unsigned long long>(a.events), a.wall_s,
                  pt.events_per_sec / 1e6, digest_hex(a.digest).c_str(),
                  stable ? "MATCH" : "MISMATCH");
      ok = ok && stable;
    }
    if (scale_points.size() > 1) {
      const double ratio =
          scale_points.back().events_per_sec / scale_points.front().events_per_sec;
      std::printf("scaling ratio (shards=%d vs shards=%d): %.2fx\n", scale_points.back().shards,
                  scale_points.front().shards, ratio);
      if (scale_min > 0.0) {
        const bool pass = ratio >= scale_min;
        std::printf("scale gate (>= %.2fx): %s\n", scale_min, pass ? "PASS" : "FAIL");
        ok = ok && pass;
      }
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_gate: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"simcore_perf_gate\",\n"
                 "  \"workload\": \"clos %dx2x3x4 + 4 spines, streams + pingmesh + incast\",\n"
                 "  \"sim_ms\": %ld,\n"
                 "  \"shards\": %d,\n"
                 "  \"podsets\": %d,\n"
                 "  \"events\": %llu,\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"cpu_seconds\": %.6f,\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"events_per_cpu_sec\": %.0f,\n"
                 "  \"wall_per_sim_second\": %.3f,\n"
                 "  \"peak_rss_mib\": %.1f,\n"
                 "  \"messages_completed\": %lld,\n"
                 "  \"determinism_digest\": \"%s\"",
                 podsets, ms, shards, podsets, static_cast<unsigned long long>(r.events),
                 r.wall_s, r.cpu_s, events_per_sec, static_cast<double>(r.events) / r.cpu_s,
                 wall_per_sim_s, static_cast<double>(rss) / 1024.0,
                 static_cast<long long>(r.messages_completed), digest_hex(r.digest).c_str());
    if (!scale_points.empty()) {
      std::fprintf(f, ",\n  \"shard_scaling_podsets\": %d,\n  \"shard_scaling_sim_ms\": %ld",
                   sweep_podsets, sweep_ms);
      std::fprintf(f, ",\n  \"shard_scaling\": [");
      for (std::size_t i = 0; i < scale_points.size(); ++i) {
        const ScalePoint& pt = scale_points[i];
        std::fprintf(f,
                     "%s\n    {\"shards\": %d, \"events\": %llu, \"wall_seconds\": %.6f, "
                     "\"events_per_sec\": %.0f, \"digest\": \"%s\"}",
                     i == 0 ? "" : ",", pt.shards,
                     static_cast<unsigned long long>(pt.res.events), pt.res.wall_s,
                     pt.events_per_sec, digest_hex(pt.res.digest).c_str());
      }
      std::fprintf(f, "\n  ]");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
