// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the wire codecs: event queue, ECMP hashing, MMU admission, DCQCN
// updates, MTT cache, codec encode/decode, CRC32, percentile estimation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "src/exp/harness.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/net/codec.h"
#include "src/nic/dcqcn.h"
#include "src/nic/mtt.h"
#include "src/rocev2/deployment.h"
#include "src/sim/shard_group.h"
#include "src/sim/simulator.h"
#include "src/switch/mmu.h"
#include "src/topo/clos.h"

// Global allocation counter so the event-queue benchmark can report heap
// allocations per event — the perf gate's "zero per-event allocations on the
// fire path" claim, measured rather than asserted.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC flags free() here because it cannot see that the replacement operator
// new above allocates with malloc; the pairing is in fact correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rocelab {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Steady state: one persistent simulator, rounds of 1000 events scheduled
  // and drained. After warm-up the slab and heap are at capacity, so the
  // schedule->fire path should do zero heap allocations per event.
  Simulator sim;
  int sink = 0;
  auto round = [&] {
    const Time base = sim.now();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(base + nanoseconds(i * 13 % 997 + 1), [&sink] { ++sink; });
    }
    sim.run();
  };
  round();  // warm the slab outside the measured region
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    round();
    events += 1000;
    benchmark::DoNotOptimize(sink);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["heap_allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_EventQueueScheduleRun);

// The selective-repeat timer pattern of a lossy fabric: N QPs, each with one
// near-term ACK event and one far-future retransmit timer. Every ACK cancels
// its QP's timer, re-arms it a full RTO out and schedules the QP's next ACK
// 0.5-2.5 us later, so the queue carries N live far-future timers, their
// cancelled predecessors and N near-term events, and pops mostly the latter.
struct TimerRearmModel {
  Simulator sim;
  std::vector<EventId> rto;
  std::uint64_t lcg = 1;

  explicit TimerRearmModel(int qps) : rto(static_cast<std::size_t>(qps), kInvalidEventId) {
    for (int qp = 0; qp < qps; ++qp) ack(qp);
  }
  void ack(int qp) {
    sim.cancel(rto[static_cast<std::size_t>(qp)]);
    rto[static_cast<std::size_t>(qp)] = sim.schedule_in(microseconds(100), [] {});
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    sim.schedule_in(nanoseconds(500 + static_cast<std::int64_t>((lcg >> 33) % 2000)),
                    [this, qp] { ack(qp); });
  }
};

void BM_EventQueueTimerRearm(benchmark::State& state) {
  TimerRearmModel model(static_cast<int>(state.range(0)));
  model.sim.run_until(microseconds(200));  // reach the steady state
  const std::uint64_t before = model.sim.executed_events();
  for (auto _ : state) model.sim.run_until(model.sim.now() + microseconds(10));
  state.SetItemsProcessed(static_cast<std::int64_t>(model.sim.executed_events() - before));
  state.counters["queued_entries"] =
      benchmark::Counter(static_cast<double>(model.sim.queued_entries()));
}
BENCHMARK(BM_EventQueueTimerRearm)->Arg(256)->Arg(2048);

void BM_FiveTupleHash(benchmark::State& state) {
  Packet pkt;
  pkt.ip = Ipv4Header{Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000102}};
  pkt.udp = UdpHeader{51234, kRoceUdpPort, 0};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(five_tuple_hash(pkt, seed++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiveTupleHash);

void BM_FiveTupleHashColdCache(benchmark::State& state) {
  // Worst case for the flow-tuple cache: every hash re-extracts the tuple
  // (this is what each switch paid per packet before caching).
  Packet pkt;
  pkt.ip = Ipv4Header{Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000102}};
  pkt.udp = UdpHeader{51234, kRoceUdpPort, 0};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    pkt.invalidate_flow_cache();
    benchmark::DoNotOptimize(five_tuple_hash(pkt, seed++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiveTupleHashColdCache);

void BM_MmuAdmitRelease(benchmark::State& state) {
  MmuConfig cfg;
  std::array<bool, kNumPriorities> lossless{};
  lossless[3] = true;
  Mmu mmu(cfg, 32, lossless);
  for (auto _ : state) {
    const auto a = mmu.admit(3, 3, 1086);
    mmu.release(3, 3, a.to_shared, a.to_headroom, a.to_reserved);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmuAdmitRelease);

void BM_DcqcnCnpAndBytes(benchmark::State& state) {
  Simulator sim;
  DcqcnConfig cfg;
  DcqcnRp rp(sim, cfg, gbps(40));
  for (auto _ : state) {
    rp.on_cnp();
    rp.on_bytes_sent(1086);
    benchmark::DoNotOptimize(rp.rate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcqcnCnpAndBytes);

void BM_MttAccess(benchmark::State& state) {
  MttConfig cfg;
  cfg.model_enabled = true;
  MttCache cache(cfg);
  std::int64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr = (addr + 4096 * 7919) % cfg.working_set;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MttAccess);

void BM_EncodeRoceFrameDscp(benchmark::State& state) {
  Packet pkt;
  pkt.kind = PacketKind::kRoceData;
  pkt.payload_bytes = 1024;
  pkt.frame_bytes = 1086;
  pkt.priority = 3;
  pkt.ip = Ipv4Header{Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000102}};
  pkt.udp = UdpHeader{51234, kRoceUdpPort, 0};
  pkt.bth = RoceBth{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_roce_frame(pkt, PfcMode::kDscpBased));
  }
  state.SetBytesProcessed(state.iterations() * 1086);
}
BENCHMARK(BM_EncodeRoceFrameDscp);

void BM_DecodeRoceFrame(benchmark::State& state) {
  Packet pkt;
  pkt.kind = PacketKind::kRoceData;
  pkt.payload_bytes = 1024;
  pkt.frame_bytes = 1086;
  pkt.priority = 3;
  pkt.ip = Ipv4Header{Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000102}};
  pkt.udp = UdpHeader{51234, kRoceUdpPort, 0};
  pkt.bth = RoceBth{};
  const Bytes frame = encode_roce_frame(pkt, PfcMode::kDscpBased);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_roce_frame(frame));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeRoceFrame);

void BM_EncodePfcFrame(benchmark::State& state) {
  PfcFrame pfc;
  pfc.set(3, 0xffff);
  const MacAddr src = MacAddr::from_u64(0x020000000001);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_pfc_frame(pfc, src));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodePfcFrame);

void BM_Crc32_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_ieee(data));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Crc32_1KiB);

void BM_ShardWindowSync(benchmark::State& state) {
  // Pure conservative-window overhead: a 2-shard group whose only events
  // are self-rescheduling 1us ticks, with a 500ns lookahead boundary. Every
  // window executes ~one event per shard, so ns/window ~= the cost of one
  // horizon computation + dispatch + barrier + (empty) channel drain round.
  ShardGroup group(2);
  group.note_boundary(0, 1, nanoseconds(500));
  group.note_boundary(1, 0, nanoseconds(500));
  for (int s = 0; s < 2; ++s) {
    Simulator& sim = group.shard(s);
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&sim, tick] { sim.schedule_in(microseconds(1), *tick); };
    sim.schedule_in(microseconds(1), *tick);
  }
  Time horizon = 0;
  const std::int64_t w0 = group.windows();
  for (auto _ : state) {
    horizon += microseconds(100);
    group.run_until(horizon);
  }
  const std::int64_t windows = group.windows() - w0;
  state.SetItemsProcessed(windows);
  if (windows > 0) {
    state.counters["events_per_window"] = benchmark::Counter(
        static_cast<double>(group.executed_events()) / static_cast<double>(windows));
  }
}
BENCHMARK(BM_ShardWindowSync)->MeasureProcessCPUTime()->UseRealTime();

void BM_CrossShardChannelHandoff(benchmark::State& state) {
  // The full cross-shard packet path on a minimal 2-podset Clos split into
  // 2 shards: one RDMA stream per direction crosses the leaf-spine
  // boundary, so every data/ACK frame on those cables takes the channel
  // (enqueue at try_send, merge-sort at the barrier, re-heap at the
  // destination). items = cross-shard messages merged.
  QosPolicy policy;
  ClosParams params = make_clos_params(policy, DeploymentStage::kFull, /*podsets=*/2,
                                       /*leaves=*/1, /*tors=*/1, /*servers=*/1, /*spines=*/1);
  params.shards = 2;
  ClosFabric clos(params);
  rocelab::exp::TrafficSet traffic;
  traffic.add_streams(clos.server(0, 0, 0), clos.server(1, 0, 0), make_qp_config(policy),
                      RdmaStreamSource::Options{.message_bytes = 32 * kKiB, .max_outstanding = 2});
  traffic.add_streams(clos.server(1, 0, 0), clos.server(0, 0, 0), make_qp_config(policy),
                      RdmaStreamSource::Options{.message_bytes = 32 * kKiB, .max_outstanding = 2});
  ShardGroup& group = clos.fabric().group();
  Time horizon = microseconds(200);
  group.run_until(horizon);  // warm up: QPs connected, pools at capacity
  const std::int64_t x0 = group.cross_messages();
  const std::uint64_t e0 = group.executed_events();
  for (auto _ : state) {
    horizon += microseconds(200);
    group.run_until(horizon);
  }
  const std::int64_t crossed = group.cross_messages() - x0;
  const std::uint64_t events = group.executed_events() - e0;
  state.SetItemsProcessed(crossed);
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CrossShardChannelHandoff)->MeasureProcessCPUTime()->UseRealTime();

void BM_PercentileP99(benchmark::State& state) {
  PercentileSampler sampler;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) sampler.add(rng.uniform(0, 1000));
  for (auto _ : state) {
    sampler.add(1.0);  // force re-sort each round: worst case
    benchmark::DoNotOptimize(sampler.percentile(99));
  }
}
BENCHMARK(BM_PercentileP99);

}  // namespace
}  // namespace rocelab

BENCHMARK_MAIN();
