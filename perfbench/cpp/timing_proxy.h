// Forwarding timing proxy for the traced run.
//
// Wraps the hardware target the program is handed and times every call
// the program makes into it, grouped by kind (run, MMIO, save, restore,
// other). With ~500 target calls per fuzz exec, per-call spans would
// dominate memory and the tracing overhead, so the proxy keeps counts and
// summed host time per kind instead of one span per call.
//
// The proxy exposes exactly the optional capabilities of the target it
// wraps (bus::DeltaSnapshotter, bus::SlotSnapshotter, bus::MmioBatcher),
// so programs that discover them by dynamic_cast behave as they would on
// the bare target. This file is the only part of the benchmark that names
// those capability interfaces; it is linked into hsperf_traced only.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bus/target.h"

namespace perfbench {

struct OpTimes {
  uint64_t calls = 0;
  double seconds = 0;

  OpTimes& operator+=(const OpTimes& o) {
    calls += o.calls;
    seconds += o.seconds;
    return *this;
  }
};

// What one proxied target saw over its lifetime.
struct TargetTimes {
  OpTimes run, mmio, save, restore, other;
  uint64_t cycles = 0;          // cycles requested through Run()
  uint64_t delta_restores = 0;  // restores through the delta interface
  double created = 0;           // steady clock at construction
  double destroyed = 0;         // ... and at destruction
  // Client counters of a wrapped remote::RemoteTarget (zero otherwise).
  uint64_t rpcs = 0, ops_shipped = 0, bytes = 0;

  double target_seconds() const {
    return run.seconds + mmio.seconds + save.seconds + restore.seconds +
           other.seconds;
  }
  uint64_t target_calls() const {
    return run.calls + mmio.calls + save.calls + restore.calls + other.calls;
  }
};

// Collects the TargetTimes of destroyed proxies (thread-safe: campaign
// workers destroy their targets on their own threads).
class TimingSink {
 public:
  void Add(const TargetTimes& t);
  // Everything added since the previous call.
  std::vector<TargetTimes> Take();

 private:
  std::mutex mu_;
  std::vector<TargetTimes> done_;  // guarded by mu_
};

std::unique_ptr<hardsnap::bus::HardwareTarget> WrapWithTiming(
    std::unique_ptr<hardsnap::bus::HardwareTarget> target, TimingSink* sink);

}  // namespace perfbench
