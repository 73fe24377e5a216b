#include "sampler.h"

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr std::size_t kMaxSamples = 1 << 20;
std::array<std::uintptr_t, kMaxSamples> g_pcs;
std::atomic<std::size_t> g_count{0};
std::atomic<std::int64_t> g_dropped{0};

std::uintptr_t interrupted_pc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int, siginfo_t*, void* uctx) {
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_pcs[i] = interrupted_pc(uctx);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

struct ExeRange {
  std::uintptr_t bias = 0;
  std::uintptr_t lo = UINTPTR_MAX;
  std::uintptr_t hi = 0;
};

/// The main executable is the first object dl_iterate_phdr reports.
ExeRange exe_range() {
  ExeRange r;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* data) {
        auto* out = static_cast<ExeRange*>(data);
        out->bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type != PT_LOAD) continue;
          const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
          if (lo < out->lo) out->lo = lo;
          if (lo + ph.p_memsz > out->hi) out->hi = lo + ph.p_memsz;
        }
        return 1;  // stop after the executable
      },
      &r);
  return r;
}

void set_timer(int period_us) {
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    std::perror("perfbench: setitimer");
    std::exit(2);
  }
}

}  // namespace

CpuSampler::~CpuSampler() { disarm(); }

void CpuSampler::arm() {
  if (!installed_) {
    struct sigaction sa{};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      std::perror("perfbench: sigaction");
      std::exit(2);
    }
    installed_ = true;
  }
  set_timer(period_us_);
}

void CpuSampler::disarm() {
  if (installed_) set_timer(0);
}

std::map<std::uintptr_t, std::int64_t> CpuSampler::histogram() const {
  const ExeRange exe = exe_range();
  std::map<std::uintptr_t, std::int64_t> out;
  const std::size_t n = std::min(g_count.load(), kMaxSamples);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    ++out[pc >= exe.lo && pc < exe.hi ? pc - exe.bias : 0];
  }
  return out;
}

std::int64_t CpuSampler::dropped() const { return g_dropped.load(); }

}  // namespace perfbench
