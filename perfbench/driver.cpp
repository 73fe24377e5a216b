// perfbench driver: builds one seeded rocelab scenario per iteration, runs it
// for a fixed simulated window, checks the simulated outcome, and repeats
// until the wall-clock budget is spent. Prints one JSON line with the
// medians over iterations (run.py turns it into the benchmark's result).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (all single-shard, so host-time figures are one core's work):
//   clos_lossless   3-tier Clos (2 podsets x 2 leaves x 3 ToRs x 4 servers,
//                   4 spines), PFC + DCQCN + go-back-N: saturating
//                   cross-podset streams on a seeded server pairing, an RDMA
//                   pingmesh and a small incast. The simulator-core shape.
//   fig7_mid        Fig. 7 at half the paper's ToR count (2 podsets x 4
//                   leaves x 12 ToRs x 24 servers, 16 spines); 8 servers per
//                   ToR run 8 QPs of 64 KiB messages to a seeded partner in
//                   the other podset: 1536 QPs, ECMP collisions, DCQCN.
//   locktable_lossy the atomics lock table on a lossy fabric (PFC off,
//                   selective repeat, 0.4% loss on the server rack's
//                   uplinks): CAS/FAA request/ACK traffic and the replay guard.
//
// Seeds change placement and random streams, never the amount of offered
// work, so per-iteration host cost is comparable across seeds.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sampler.h"
#include "src/app/lock_table.h"
#include "src/common/rng.h"
#include "src/exp/harness.h"
#include "src/link/impairment.h"
#include "src/monitor/digest.h"
#include "src/monitor/metric_registry.h"
#include "src/rocev2/deployment.h"

using namespace rocelab;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Bytes the allocator has handed out and not had back.
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Fisher-Yates with the simulator's own Rng, so a seed means the same
/// placement on every standard library.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// Fabric-wide counters read through the telemetry registry after a run.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::int64_t link_frames = 0;  // frames transmitted on any link, by any node
  std::int64_t pause_frames = 0;
  std::int64_t drops = 0;
  std::int64_t retransmits = 0;  // data segments and atomic requests sent again
  std::int64_t timeouts = 0;
  std::int64_t cnps = 0;
  std::int64_t bytes_received = 0;
};

Counters read_counters(ClosFabric& clos) {
  const MetricRegistry& m = clos.sim().metrics();
  Counters c;
  c.events = clos.fabric().group().executed_events();
  c.digest = counters_digest(clos.fabric());
  c.link_frames = m.sum("*/port*/prio*/tx_packets");
  c.pause_frames = m.sum("*/port*/prio*/tx_pause");
  for (const char* d : {"ingress_drops", "headroom_overflow_drops", "egress_drops",
                        "arp_incomplete_drops", "mac_mismatch_drops", "link_down_drops",
                        "impairment_drops", "filtered_drops", "fcs_errors"}) {
    c.drops += m.sum(std::string("*/port*/") + d);
  }
  for (const char* d : {"no_route_drops", "arp_miss_drops", "filtered_drops", "l2_mode_drops"}) {
    c.drops += m.sum(std::string("*/") + d);
  }
  c.retransmits = m.sum("*/rdma/data_packets_retx") + m.sum("*/rdma/atomic/reissues");
  c.timeouts = m.sum("*/rdma/timeouts");
  c.cnps = m.sum("*/rdma/cnps_sent");
  c.bytes_received = m.sum("*/rdma/bytes_received");
  return c;
}

struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const char* what) {
    if (!ok) failed.emplace_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual ClosParams fabric_params() const = 0;
  /// Attach the applications (QPs, traffic sources) to a fresh fabric.
  virtual void wire(ClosFabric& clos) = 0;
  /// Advance the simulation through the whole window.
  virtual void run(ClosFabric& clos) = 0;
  [[nodiscard]] virtual Time window() const = 0;
  virtual void check(ClosFabric& clos, const Counters& c, Checks& chk) const = 0;
};

// ---- clos_lossless ------------------------------------------------------------

class ClosLossless final : public Workload {
 public:
  explicit ClosLossless(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] ClosParams fabric_params() const override {
    return make_clos_params(policy_, DeploymentStage::kFull, /*podsets=*/2, /*leaves=*/2,
                            kTors, kServers, /*spines=*/4);
  }

  void wire(ClosFabric& clos) override {
    // Server i under ToR t of podset 0 streams to and from a seeded server
    // under ToR t of podset 1 (Fig. 7's ToR pairing).
    Rng rng(seed_);
    std::vector<Host*> west, east;
    for (int t = 0; t < kTors; ++t) {
      std::vector<Host*> peers;
      for (int s = 0; s < kServers; ++s) {
        west.push_back(&clos.server(0, t, s));
        peers.push_back(&clos.server(1, t, s));
      }
      shuffle(peers, rng);
      east.insert(east.end(), peers.begin(), peers.end());
    }
    const RdmaStreamSource::Options stream{.message_bytes = 32 * kKiB, .max_outstanding = 2};
    for (std::size_t i = 0; i < west.size(); ++i) {
      traffic_.add_streams(*west[i], *east[i], make_qp_config(policy_), stream, 2);
      traffic_.add_streams(*east[i], *west[i], make_qp_config(policy_), stream, 2);
    }

    // Pingmesh and incast from two distinct west servers to one seeded
    // server under every east ToR.
    shuffle(west, rng);
    std::vector<std::uint32_t> probes, queries;
    for (int t = 0; t < kTors; ++t) {
      const auto pick = [&] { return static_cast<int>(rng.uniform_int(0, kServers - 1)); };
      probes.push_back(traffic_.add_probe_target(*west[0], clos.server(1, t, pick()),
                                                 make_qp_config(policy_, /*realtime=*/true), 0));
      queries.push_back(traffic_.add_probe_target(*west[1], clos.server(1, t, pick()),
                                                  make_qp_config(policy_), 4 * kKiB));
    }
    mesh_ = &traffic_.add_pingmesh(*west[0], probes, {.interval = microseconds(100)});
    mesh_->start();
    incast_ = &traffic_.add_incast(*west[1], queries, {.mean_interval = microseconds(100)});
    incast_->start();
  }

  void run(ClosFabric& clos) override { clos.sim().run_until(window()); }
  [[nodiscard]] Time window() const override { return milliseconds(2); }

  void check(ClosFabric&, const Counters& c, Checks& chk) const override {
    chk.expect(c.drops == 0, "lossless fabric dropped a frame");
    chk.expect(c.retransmits == 0 && c.timeouts == 0, "lossless fabric retransmitted");
    bool all_streams = true;
    for (const auto& s : traffic_.sources()) all_streams = all_streams && s->completed_messages() > 0;
    chk.expect(all_streams, "a stream QP completed no message");
    chk.expect(mesh_->probes_sent() > 0 && mesh_->probes_failed() == 0, "pingmesh probe failed");
    chk.expect(incast_->queries_completed() > 0, "incast completed no query");
    // Cross-podset traffic shares 4 leaf-spine links each way (320 Gb/s in
    // all): delivered payload must fill most of them and cannot exceed them.
    const double gbps = static_cast<double>(c.bytes_received) * 8.0 / to_seconds(window()) / 1e9;
    chk.expect(gbps > 192.0 && gbps < 320.0, "aggregate goodput outside the bisection bound");
  }

 private:
  static constexpr int kTors = 3;
  static constexpr int kServers = 4;
  std::uint64_t seed_;
  QosPolicy policy_;
  exp::TrafficSet traffic_;
  RdmaPingmesh* mesh_ = nullptr;
  RdmaIncastClient* incast_ = nullptr;
};

// ---- fig7_mid -------------------------------------------------------------------

class Fig7Mid final : public Workload {
 public:
  explicit Fig7Mid(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] ClosParams fabric_params() const override {
    return make_clos_params(policy_, DeploymentStage::kFull, /*podsets=*/2, kLeaves, kTors,
                            kServersPerTor, kSpines);
  }

  void wire(ClosFabric& clos) override {
    // As in the paper, ToR t of podset 0 pairs with ToR t of podset 1; the
    // seed picks which kActive of each ToR's servers are active and how
    // they pair up.
    Rng rng(seed_);
    const RdmaStreamSource::Options stream{.message_bytes = 64 * kKiB, .max_outstanding = 2};
    for (int t = 0; t < kTors; ++t) {
      std::vector<int> west(kServersPerTor), east(kServersPerTor);
      for (int s = 0; s < kServersPerTor; ++s) {
        west[static_cast<std::size_t>(s)] = east[static_cast<std::size_t>(s)] = s;
      }
      shuffle(west, rng);
      shuffle(east, rng);
      for (std::size_t s = 0; s < kActive; ++s) {
        Host& a = clos.server(0, t, west[s]);
        Host& b = clos.server(1, t, east[s]);
        traffic_.add_streams(a, b, make_qp_config(policy_), stream, kQps);
        traffic_.add_streams(b, a, make_qp_config(policy_), stream, kQps);
      }
    }
  }

  void run(ClosFabric& clos) override {
    clos.sim().run_until(kWarmup);
    rx_at_warmup_ = clos.sim().metrics().sum("*/rdma/bytes_received");
    clos.sim().run_until(window());
  }
  [[nodiscard]] Time window() const override { return kWarmup + kMeasure; }

  void check(ClosFabric&, const Counters& c, Checks& chk) const override {
    // fig_clos_throughput's acceptance: ECMP-collision-limited utilization
    // of the leaf-spine capacity, and not a single frame dropped.
    const double payload_bps =
        static_cast<double>(c.bytes_received - rx_at_warmup_) * 8.0 / to_seconds(kMeasure);
    const double capacity_bps = 2.0 * kSpines * static_cast<double>(gbps(40));
    const double util = payload_bps * 1086.0 / 1024.0 / capacity_bps;
    chk.expect(util > 0.40 && util < 0.95, "leaf-spine utilization outside Fig. 7's band");
    chk.expect(c.drops == 0, "lossless fabric dropped a frame");
  }

 private:
  static constexpr int kLeaves = 4;
  static constexpr int kTors = 12;
  static constexpr int kActive = 8;  // servers per ToR that send
  static constexpr int kServersPerTor = 24;
  static constexpr int kSpines = 16;
  static constexpr int kQps = 8;
  static constexpr Time kWarmup = microseconds(250);
  static constexpr Time kMeasure = microseconds(500);
  std::uint64_t seed_;
  QosPolicy policy_;
  exp::TrafficSet traffic_;
  std::int64_t rx_at_warmup_ = 0;
};

// ---- locktable_lossy -------------------------------------------------------------

class LockTableLossy final : public Workload {
 public:
  explicit LockTableLossy(std::uint64_t seed) : seed_(seed), table_(options(seed)) {
    policy_.max_cable_m = 20.0;
    policy_.retx_timeout = microseconds(100);  // keeps the 8x-RTO atomic re-issue short
    policy_.pfc_enabled = false;
    policy_.recovery = LossRecovery::kSelectiveRepeat;
  }

  [[nodiscard]] ClosParams fabric_params() const override {
    return make_clos_params(policy_, DeploymentStage::kFull, /*podsets=*/2, /*leaves=*/2,
                            /*tors=*/2, /*servers=*/2, /*spines=*/4);
  }

  void wire(ClosFabric& clos) override {
    server_ = &clos.server(0, 0, 0);
    QpConfig qp = make_qp_config(policy_);
    qp.retry_limit = 0;  // retry forever: the fabric, not the transport, is on trial
    int idx = 0;
    for (int ps = 0; ps < 2; ++ps) {
      for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < 2; ++i) {
          Host& h = clos.server(ps, t, i);
          if (&h == server_) continue;
          for (int c = 0; c < kClientsPerHost; ++c) {
            const auto qpns = connect_qp_pair(h, *server_, qp);
            table_.add_client(h, traffic_.demux(h), qpns.first,
                              static_cast<LockTableWorkload::Role>(idx++ % 3));
          }
        }
      }
    }
    table_.start();

    // Loss on both of the server rack's ToR uplink egresses: the path of
    // every atomic ACK to a remote client, so lost ACKs force re-issues the
    // responder's replay table must answer.
    LinkImpairment imp;
    imp.fcs_drop_rate = 0.004;
    imp.seed = seed_ ^ 0x5eedULL;
    Switch& rack_tor = clos.tor(0, 0);
    for (int u = 0; u < 2; ++u) rack_tor.port(clos.tor_uplink_port(u)).set_impairment(imp);
  }

  void run(ClosFabric& clos) override { clos.sim().run_until(window()); }
  [[nodiscard]] Time window() const override { return milliseconds(20); }

  void check(ClosFabric& clos, const Counters& c, Checks& chk) const override {
    const MetricRegistry& m = clos.sim().metrics();
    const std::int64_t clients = 7 * kClientsPerHost;
    const std::int64_t lockers = (clients + 2) / 3, counters = (clients + 1) / 3,
                       readers = clients / 3;
    const std::int64_t acq = table_.acquisitions(), rel = table_.releases();
    const std::int64_t inc = table_.counter_increments(), reads = table_.reads();
    chk.expect(table_.busy_clients() == 0, "lock-table workload did not drain");
    chk.expect(acq == lockers * kCycles && rel == lockers * kCycles &&
                   inc == counters * kCycles && reads == readers * kCycles,
               "a client did not finish its cycles");
    chk.expect(server_->rdma().memory_read(LockTableLayout::kCounterAddr) ==
                   static_cast<std::uint64_t>(inc),
               "counter word != completed increments (lost or duplicated FAA)");
    chk.expect(m.sum("*/rdma/atomic/cas_executed") == acq + rel + table_.cas_failures(),
               "CAS executed != CAS completed (not exactly-once)");
    chk.expect(m.sum("*/rdma/atomic/faa_executed") == inc + 4 * rel + 4 * reads,
               "FAA executed != FAA completed (not exactly-once)");
    bool clean = true;
    for (int l = 0; l < kLocks; ++l) {
      const std::uint64_t ver = server_->rdma().memory_read(LockTableLayout::version_addr(l));
      clean = clean && server_->rdma().memory_read(LockTableLayout::lock_addr(l)) == 0 &&
              (ver & 1) == 0 &&
              server_->rdma().memory_read(LockTableLayout::data_a_addr(l)) ==
                  server_->rdma().memory_read(LockTableLayout::data_b_addr(l));
    }
    chk.expect(clean, "a lock is held or a seqlock is torn at the end");
    chk.expect(m.sum("*/rdma/atomic/reissues") > 0 && m.sum("*/rdma/atomic/dup_requests") > 0,
               "the loss never exercised the replay guard");
    chk.expect(c.pause_frames == 0, "PFC-free fabric sent a pause frame");
  }

 private:
  static constexpr int kLocks = 256;
  static constexpr int kClientsPerHost = 300;
  static constexpr std::int64_t kCycles = 12;

  static LockTableWorkload::Options options(std::uint64_t seed) {
    LockTableWorkload::Options wl;
    wl.locks = kLocks;
    wl.think_mean = microseconds(800);
    wl.backoff_mean = microseconds(20);
    wl.seed = seed;
    wl.cycles = kCycles;
    return wl;
  }

  std::uint64_t seed_;
  QosPolicy policy_;
  exp::TrafficSet traffic_;  // one demux per client host
  LockTableWorkload table_;
  Host* server_ = nullptr;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "clos_lossless") return std::make_unique<ClosLossless>(seed);
  if (name == "fig7_mid") return std::make_unique<Fig7Mid>(seed);
  if (name == "locktable_lossy") return std::make_unique<LockTableLossy>(seed);
  return nullptr;
}

// ---- the measurement loop -------------------------------------------------------

/// What reference_seconds() takes on a quiet 4-vCPU 2.1 GHz Xeon VM.
constexpr double kReferenceS = 0.030;

/// A fixed synthetic discrete-event workload that shares no code with
/// rocelab: a binary-heap event queue over 64 Ki pending events, each event
/// updating a random 64-byte line of a 16 MiB state array. Timed next to
/// every iteration, it measures how fast the host is running right now.
double reference_seconds() {
  struct Ev {
    std::uint64_t t;
    std::uint32_t line;
    bool operator>(const Ev& o) const { return t > o.t; }
  };
  constexpr std::uint32_t kLines = (16u << 20) / 64;
  static std::vector<std::uint64_t> state(kLines * 8);
  std::vector<Ev> heap;
  heap.reserve(1 << 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 16); ++i) {
    heap.push_back({next() % 4096, static_cast<std::uint32_t>(next() % kLines)});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  for (int i = 0; i < 200000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    Ev e = heap.back();
    std::uint64_t* line = &state[static_cast<std::size_t>(e.line) * 8];
    line[0] = line[0] * 31 + e.t;
    line[e.t & 7] ^= line[0];
    e.t += 1 + next() % 4096;
    e.line = static_cast<std::uint32_t>((line[0] ^ next()) % kLines);
    heap.back() = e;
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  const auto t1 = Clock::now();
  if (state[heap.front().line * 8] == 42) std::fputc(' ', stderr);  // keep the work observable
  return seconds_between(t0, t1);
}

struct Iteration {
  double ref_s = 0;       // reference_seconds() just before the iteration
  /// kReferenceS over the mean of the reference times just before and just
  /// after the iteration: multiplied into a host time, it gives that time
  /// at reference speed.
  double scale = 0;
  double build_s = 0;     // ClosFabric construction
  double wire_s = 0;      // QPs and applications
  double setup_s = 0;     // build_s + wire_s
  double run_s = 0;       // the simulated window
  double heap_bytes = 0;  // held by the scenario at the end of its window
  double check_s = 0;     // counter collection, digest and checks
  double teardown_s = 0;  // destroying the applications and the fabric
  Counters counters;
  std::vector<std::string> failed;
};

Iteration iterate(const std::string& name, std::uint64_t seed, perfbench::CpuSampler* sampler) {
  Iteration it;
  it.ref_s = reference_seconds();
  std::unique_ptr<Workload> w = make_workload(name, seed);
  const double heap0 = heap_in_use();
  const auto t0 = Clock::now();
  auto clos = std::make_unique<ClosFabric>(w->fabric_params());
  const auto t1 = Clock::now();
  w->wire(*clos);
  const auto t2 = Clock::now();
  if (sampler != nullptr) sampler->arm();
  w->run(*clos);
  if (sampler != nullptr) sampler->disarm();
  const auto t3 = Clock::now();
  it.heap_bytes = heap_in_use() - heap0;
  it.counters = read_counters(*clos);
  Checks chk;
  w->check(*clos, it.counters, chk);
  const auto t4 = Clock::now();
  w.reset();
  clos.reset();
  const auto t5 = Clock::now();
  it.build_s = seconds_between(t0, t1);
  it.wire_s = seconds_between(t1, t2);
  it.setup_s = seconds_between(t0, t2);
  it.run_s = seconds_between(t2, t3);
  it.check_s = seconds_between(t3, t4);
  it.teardown_s = seconds_between(t4, t5);
  it.failed = std::move(chk.failed);
  return it;
}

template <class F>
double median_of(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload clos_lossless|fig7_mid|locktable_lossy "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_u64(value, seed)) {
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, seconds)) {
    } else if (flag == "--trace" && parse_u64(value, trace)) {
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || seconds == 0 || trace > 1 ||
      make_workload(workload, seed) == nullptr) {
    return usage();
  }

  // Each iteration rebuilds the scenario from the seed, so every iteration
  // simulates identical work and the repeated digests prove the run is
  // deterministic.
  //
  // Host times are reported at reference speed. A shared host drifts
  // between fast and slow phases lasting minutes, and bursts of
  // interference hit single iterations; the reference kernel timed around
  // each iteration slows with the phase, and the median over iterations
  // drops the bursts. On a 4-vCPU 2.1 GHz Xeon VM, raw per-run medians
  // spread 12-31% (quartile distance over median) between runs; scaled
  // ones, over ten seeds of 30 s per workload, 1-8%.
  perfbench::CpuSampler sampler(/*period_us=*/1000);
  std::vector<Iteration> its;
  const auto start = Clock::now();
  const double budget = static_cast<double>(seconds);
  while (its.size() < 3 || seconds_between(start, Clock::now()) < budget) {
    its.push_back(iterate(workload, seed, trace == 1 ? &sampler : nullptr));
  }
  const double ref_after = reference_seconds();
  for (std::size_t i = 0; i < its.size(); ++i) {
    const double next = i + 1 < its.size() ? its[i + 1].ref_s : ref_after;
    its[i].scale = 2.0 * kReferenceS / (its[i].ref_s + next);
  }

  std::vector<std::string> failures;
  std::int64_t failed_runs = 0;
  for (const Iteration& it : its) {
    std::vector<std::string> f = it.failed;
    if (it.counters.digest != its.front().counters.digest ||
        it.counters.events != its.front().counters.events) {
      f.emplace_back("rerun of the same seed diverged (determinism digest)");
    }
    if (!f.empty()) ++failed_runs;
    for (std::string& s : f) {
      if (std::find(failures.begin(), failures.end(), s) == failures.end()) {
        failures.push_back(std::move(s));
      }
    }
  }
  for (const std::string& s : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", s.c_str());
  }

  const Counters& c = its.front().counters;
  const double sim_ms = to_seconds(make_workload(workload, seed)->window()) * 1e3;
  const double frames = static_cast<double>(c.link_frames);
  const auto host_s = [&its](double Iteration::*field) {
    return median_of(its, [field](const Iteration& it) { return it.*field * it.scale; });
  };
  const double run_s = host_s(&Iteration::run_s);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %lld, \"metrics\": {",
              failures.empty() ? "true" : "false", its.size(),
              static_cast<long long>(failed_runs));
  bool first = true;
  const auto metric = [&first](const char* name, double value, const char* unit) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name,
                value, unit);
    first = false;
  };
  if (trace == 0) {
    metric("frames_per_s", frames / run_s, "1/s");
    metric("host_ms_per_sim_ms", run_s * 1e3 / sim_ms, "ms/ms");
    metric("scenario_heap_mib",
           median_of(its, [](const Iteration& it) { return it.heap_bytes; }) / (1 << 20),
           "MiB");
    metric("setup_s", host_s(&Iteration::setup_s), "s");
  } else {
    metric("reference_ms", 1e3 * median_of(its, [](const Iteration& it) { return it.ref_s; }),
           "ms");
    metric("build_fabric_ms", host_s(&Iteration::build_s) * 1e3, "ms");
    metric("wire_apps_ms", host_s(&Iteration::wire_s) * 1e3, "ms");
    metric("check_ms", host_s(&Iteration::check_s) * 1e3, "ms");
    metric("teardown_ms", host_s(&Iteration::teardown_s) * 1e3, "ms");
    metric("run_ns_per_frame", run_s * 1e9 / frames, "ns");
    metric("events_per_frame", static_cast<double>(c.events) / frames, "count");
    metric("link_frames", frames, "count");
    metric("pause_frames", static_cast<double>(c.pause_frames), "count");
    metric("retransmits", static_cast<double>(c.retransmits), "count");
    metric("cnps", static_cast<double>(c.cnps), "count");
  }
  std::printf("}");
  if (trace == 1) {
    // Raw material for run.py's per-layer split of run_ns_per_frame:
    // the sampled program counters, executable-relative, in hex.
    std::printf(", \"profile\": {\"dropped\": %lld, \"samples\": {",
                static_cast<long long>(sampler.dropped()));
    bool first_pc = true;
    for (const auto& [pc, n] : sampler.histogram()) {
      std::printf("%s\"%llx\": %lld", first_pc ? "" : ", ", static_cast<unsigned long long>(pc),
                  static_cast<long long>(n));
      first_pc = false;
    }
    std::printf("}}");
  }
  std::printf("}\n");
  return failures.empty() ? 0 : 1;
}
