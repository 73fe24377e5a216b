// CPU-time program-counter sampler for the traced benchmark runs.
//
// While armed, ITIMER_PROF delivers SIGPROF every `period_us` of process CPU
// time and the handler records the interrupted program counter, relative to
// the executable's load address, into a fixed buffer (no allocation, no
// locks: it is async-signal-safe). run.py resolves the addresses against the
// executable's symbol table and folds them into per-layer CPU shares. When
// the sampler is never armed it installs nothing, so untraced runs pay zero.
#pragma once

#include <cstdint>
#include <map>

namespace perfbench {

class CpuSampler {
 public:
  explicit CpuSampler(int period_us) : period_us_(period_us) {}
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  void arm();
  void disarm();

  /// Samples taken so far, keyed by executable-relative address. Samples
  /// outside the executable (libc, the allocator, the kernel) count under 0.
  [[nodiscard]] std::map<std::uintptr_t, std::int64_t> histogram() const;
  [[nodiscard]] std::int64_t dropped() const;

 private:
  int period_us_;
  bool installed_ = false;
};

}  // namespace perfbench
