#include "timing_proxy.h"

#include <type_traits>

#include "bus/batch_support.h"
#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "remote/remote_target.h"
#include "util.h"

namespace perfbench {

using namespace hardsnap;

void TimingSink::Add(const TargetTimes& t) {
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(t);
}

std::vector<TargetTimes> TimingSink::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TargetTimes> out;
  out.swap(done_);
  return out;
}

namespace {

// The HardwareTarget part of every proxy.
class ProxyBase : public bus::HardwareTarget {
 public:
  ProxyBase(std::unique_ptr<bus::HardwareTarget> inner, TimingSink* sink)
      : inner_(std::move(inner)), sink_(sink) {
    times_.created = Now();
  }
  ~ProxyBase() override {
    times_.destroyed = Now();
    if (auto* r = dynamic_cast<remote::RemoteTarget*>(inner_.get())) {
      times_.rpcs = r->counters().rpcs;
      times_.ops_shipped = r->counters().ops_shipped;
      times_.bytes = r->counters().bytes_sent + r->counters().bytes_received;
    }
    sink_->Add(times_);
  }

  bus::TargetKind kind() const override { return inner_->kind(); }
  const std::string& name() const override { return inner_->name(); }
  Result<uint32_t> Read32(uint32_t addr) override {
    return Time(times_.mmio, [&] { return inner_->Read32(addr); });
  }
  Status Write32(uint32_t addr, uint32_t value) override {
    return Time(times_.mmio, [&] { return inner_->Write32(addr, value); });
  }
  Status Run(uint64_t cycles) override {
    times_.cycles += cycles;
    return Time(times_.run, [&] { return inner_->Run(cycles); });
  }
  uint32_t IrqVector() override {
    return Time(times_.other, [&] { return inner_->IrqVector(); });
  }
  Status ResetHardware() override {
    return Time(times_.other, [&] { return inner_->ResetHardware(); });
  }
  Result<sim::HardwareState> SaveState() override {
    return Time(times_.save, [&] { return inner_->SaveState(); });
  }
  Status RestoreState(const sim::HardwareState& state) override {
    return Time(times_.restore, [&] { return inner_->RestoreState(state); });
  }
  Result<uint64_t> StateHash() override {
    return Time(times_.other, [&] { return inner_->StateHash(); });
  }
  bool responsive() const override { return inner_->responsive(); }
  const VirtualClock& clock() const override { return inner_->clock(); }
  const bus::TargetStats& stats() const override { return inner_->stats(); }

  template <typename F>
  std::invoke_result_t<F> Time(OpTimes& op, F&& f) {
    const double t0 = Now();
    auto r = f();
    op.seconds += Now() - t0;
    ++op.calls;
    return r;
  }

  bus::HardwareTarget* inner() const { return inner_.get(); }
  TargetTimes& times() { return times_; }

 private:
  std::unique_ptr<bus::HardwareTarget> inner_;
  TimingSink* sink_;
  TargetTimes times_;
};

template <int>
struct Absent {};

template <class P>
class DeltaForward : public bus::DeltaSnapshotter {
 public:
  Result<sim::StateDelta> SaveStateDelta() override {
    P& p = static_cast<P&>(*this);
    return p.Time(p.times().save, [&] { return Delta(p)->SaveStateDelta(); });
  }
  Status RestoreStateDelta(const sim::StateDelta& delta) override {
    P& p = static_cast<P&>(*this);
    ++p.times().delta_restores;
    return p.Time(p.times().restore,
                  [&] { return Delta(p)->RestoreStateDelta(delta); });
  }

 private:
  static bus::DeltaSnapshotter* Delta(const P& p) {
    return dynamic_cast<bus::DeltaSnapshotter*>(p.inner());
  }
};

template <class P>
class SlotForward : public bus::SlotSnapshotter {
 public:
  unsigned NumSlots() const override {
    return Slots(static_cast<const P&>(*this))->NumSlots();
  }
  Status SaveLiveToSlot(unsigned slot) override {
    P& p = static_cast<P&>(*this);
    return p.Time(p.times().save,
                  [&] { return Slots(p)->SaveLiveToSlot(slot); });
  }
  Status RestoreLiveFromSlot(unsigned slot) override {
    P& p = static_cast<P&>(*this);
    return p.Time(p.times().restore,
                  [&] { return Slots(p)->RestoreLiveFromSlot(slot); });
  }

 private:
  static bus::SlotSnapshotter* Slots(const P& p) {
    return dynamic_cast<bus::SlotSnapshotter*>(p.inner());
  }
};

template <class P>
class BatchForward : public bus::MmioBatcher {
 public:
  Result<std::vector<uint32_t>> ExecuteMmio(
      const std::vector<bus::MmioOp>& ops) override {
    P& p = static_cast<P&>(*this);
    auto r = p.Time(p.times().mmio, [&] {
      return dynamic_cast<bus::MmioBatcher*>(p.inner())->ExecuteMmio(ops);
    });
    // One call timed; count every op it carried.
    p.times().mmio.calls += ops.empty() ? 0 : ops.size() - 1;
    return r;
  }
};

template <bool kDelta, bool kSlot, bool kBatch>
class TimingProxy final
    : public ProxyBase,
      public std::conditional_t<kDelta,
                                DeltaForward<TimingProxy<kDelta, kSlot, kBatch>>,
                                Absent<0>>,
      public std::conditional_t<kSlot,
                                SlotForward<TimingProxy<kDelta, kSlot, kBatch>>,
                                Absent<1>>,
      public std::conditional_t<kBatch,
                                BatchForward<TimingProxy<kDelta, kSlot, kBatch>>,
                                Absent<2>> {
 public:
  using ProxyBase::ProxyBase;
};

template <bool kDelta, bool kSlot, bool kBatch>
std::unique_ptr<bus::HardwareTarget> Make(
    std::unique_ptr<bus::HardwareTarget> target, TimingSink* sink) {
  return std::make_unique<TimingProxy<kDelta, kSlot, kBatch>>(
      std::move(target), sink);
}

}  // namespace

std::unique_ptr<bus::HardwareTarget> WrapWithTiming(
    std::unique_ptr<bus::HardwareTarget> target, TimingSink* sink) {
  const bool delta = dynamic_cast<bus::DeltaSnapshotter*>(target.get());
  const bool slot = dynamic_cast<bus::SlotSnapshotter*>(target.get());
  const bool batch = dynamic_cast<bus::MmioBatcher*>(target.get());
  switch ((delta ? 1 : 0) | (slot ? 2 : 0) | (batch ? 4 : 0)) {
    case 0: return Make<false, false, false>(std::move(target), sink);
    case 1: return Make<true, false, false>(std::move(target), sink);
    case 2: return Make<false, true, false>(std::move(target), sink);
    case 3: return Make<true, true, false>(std::move(target), sink);
    case 4: return Make<false, false, true>(std::move(target), sink);
    case 5: return Make<true, false, true>(std::move(target), sink);
    case 6: return Make<false, true, true>(std::move(target), sink);
    default: return Make<true, true, true>(std::move(target), sink);
  }
}

}  // namespace perfbench
