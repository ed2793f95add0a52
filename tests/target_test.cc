#include <gtest/gtest.h>

#include "bus/sim_target.h"
#include "common/rng.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"

namespace hardsnap {
namespace {

using namespace periph;

rtl::Design SocDesign() {
  auto d = rtl::CompileVerilog(BuildSoc(DefaultCorpus()), "soc");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

uint32_t TimerAddr(uint32_t reg) { return (0u << 8) | reg; }
uint32_t AesAddr(uint32_t reg) { return (2u << 8) | reg; }

template <typename T>
void ExerciseTimer(T* target) {
  ASSERT_TRUE(target->ResetHardware().ok());
  ASSERT_TRUE(target->Write32(TimerAddr(timer_regs::kLoad), 5).ok());
  ASSERT_TRUE(target->Write32(TimerAddr(timer_regs::kCtrl), 0b011).ok());
  ASSERT_TRUE(target->Run(20).ok());
  auto status = target->Read32(TimerAddr(timer_regs::kStatus));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 1u);
  EXPECT_EQ(target->IrqVector() & 1u, 1u);
}

TEST(SimulatorTargetTest, RunsFirmwareFacingMmio) {
  auto soc = SocDesign();
  auto t = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ExerciseTimer(t.value().get());
}

TEST(FpgaTargetTest, RunsFirmwareFacingMmio) {
  auto soc = SocDesign();
  auto t = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ExerciseTimer(t.value().get());
}

TEST(TargetTest, IoLatencyHierarchy) {
  // shared memory << USB3 << JTAG per transaction (experiment E2's shape).
  EXPECT_LT(bus::SharedMemoryChannel().per_transaction,
            bus::Usb3Channel().per_transaction);
  EXPECT_LT(bus::Usb3Channel().per_transaction,
            bus::JtagChannel().per_transaction);
}

TEST(TargetTest, FpgaExecutesFasterThanSimulator) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  auto ft = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(st.ok() && ft.ok());
  ASSERT_TRUE(st.value()->Run(1000).ok());
  ASSERT_TRUE(ft.value()->Run(1000).ok());
  // Same cycle count, far less virtual time on the FPGA.
  EXPECT_GT(st.value()->clock().now().picos(),
            ft.value()->clock().now().picos() * 10);
}

TEST(SimulatorTargetTest, SnapshotCostIndependentOfDesign) {
  // CRIU checkpoints the process image; a timer-only SoC and the full
  // corpus SoC cost the same.
  auto small = rtl::CompileVerilog(BuildSoc({TimerPeripheral()}), "soc");
  ASSERT_TRUE(small.ok());
  auto t_small = bus::SimulatorTarget::Create(small.value());
  auto t_big = bus::SimulatorTarget::Create(SocDesign());
  ASSERT_TRUE(t_small.ok() && t_big.ok());
  EXPECT_EQ(t_small.value()->CriuCost().picos(),
            t_big.value()->CriuCost().picos());
}

TEST(FpgaTargetTest, ScanCostScalesWithDesign) {
  auto small = rtl::CompileVerilog(BuildSoc({TimerPeripheral()}), "soc");
  ASSERT_TRUE(small.ok());
  auto t_small = fpga::FpgaTarget::Create(small.value());
  auto t_big = fpga::FpgaTarget::Create(SocDesign());
  ASSERT_TRUE(t_small.ok() && t_big.ok());
  EXPECT_LT(t_small.value()->ScanPassCost().picos(),
            t_big.value()->ScanPassCost().picos());
  // And scan of even the big design beats CRIU and readback by orders of
  // magnitude — the paper's headline E1 shape.
  auto sim_t = bus::SimulatorTarget::Create(SocDesign());
  ASSERT_TRUE(sim_t.ok());
  EXPECT_LT(t_big.value()->ScanPassCost().picos() * 100,
            sim_t.value()->CriuCost().picos());
  EXPECT_LT(t_big.value()->ScanPassCost().picos() * 100,
            t_big.value()->ReadbackCost().picos());
}

TEST(FpgaTargetTest, SlotSaveRestoreRoundTrips) {
  auto soc = SocDesign();
  auto tr = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(tr.ok());
  auto& t = *tr.value();
  ASSERT_TRUE(t.ResetHardware().ok());

  // Put the timer mid-flight, snapshot, let it expire, restore: the
  // expiry must replay.
  ASSERT_TRUE(t.Write32(TimerAddr(timer_regs::kLoad), 50).ok());
  ASSERT_TRUE(t.Write32(TimerAddr(timer_regs::kCtrl), 0b011).ok());
  ASSERT_TRUE(t.Run(10).ok());
  ASSERT_TRUE(t.SaveToSlot(3).ok());
  EXPECT_TRUE(t.SlotOccupied(3));

  ASSERT_TRUE(t.Run(100).ok());
  EXPECT_EQ(t.Read32(TimerAddr(timer_regs::kStatus)).value(), 1u);

  ASSERT_TRUE(t.RestoreFromSlot(3).ok());
  EXPECT_EQ(t.Read32(TimerAddr(timer_regs::kStatus)).value(), 0u);
  ASSERT_TRUE(t.Run(100).ok());
  EXPECT_EQ(t.Read32(TimerAddr(timer_regs::kStatus)).value(), 1u);
}

TEST(FpgaTargetTest, SwapExchangesStates) {
  auto soc = SocDesign();
  auto tr = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(tr.ok());
  auto& t = *tr.value();
  ASSERT_TRUE(t.ResetHardware().ok());

  ASSERT_TRUE(t.Write32(TimerAddr(timer_regs::kLoad), 111).ok());
  ASSERT_TRUE(t.SaveToSlot(0).ok());  // state A: LOAD=111
  ASSERT_TRUE(t.Write32(TimerAddr(timer_regs::kLoad), 222).ok());

  ASSERT_TRUE(t.SwapWithSlot(0).ok());  // live becomes A, slot holds B
  EXPECT_EQ(t.Read32(TimerAddr(timer_regs::kLoad)).value(), 111u);
  ASSERT_TRUE(t.SwapWithSlot(0).ok());
  EXPECT_EQ(t.Read32(TimerAddr(timer_regs::kLoad)).value(), 222u);
}

TEST(FpgaTargetTest, EmptySlotRejected) {
  auto soc = SocDesign();
  auto tr = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(tr.ok());
  EXPECT_FALSE(tr.value()->RestoreFromSlot(7).ok());
  EXPECT_FALSE(tr.value()->RestoreFromSlot(1000).ok());
}

TEST(FpgaTargetTest, ReadbackMatchesScan) {
  auto soc = SocDesign();
  auto tr = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(tr.ok());
  auto& t = *tr.value();
  ASSERT_TRUE(t.ResetHardware().ok());
  ASSERT_TRUE(t.Write32(AesAddr(aes_regs::kKey0), 0xcafef00d).ok());
  ASSERT_TRUE(t.Run(13).ok());

  auto via_scan = t.SaveState();
  ASSERT_TRUE(via_scan.ok());
  auto via_readback = t.Readback();
  ASSERT_TRUE(via_readback.ok());
  EXPECT_EQ(via_scan.value().flops, via_readback.value().flops);
  EXPECT_EQ(via_scan.value().memories, via_readback.value().memories);
}

TEST(CrossTargetTest, StateTransfersBetweenTargets) {
  // The multi-target feature (E6): run on the FPGA, move the live state
  // into the simulator, observe identical continued behaviour.
  auto soc = SocDesign();
  auto ftr = fpga::FpgaTarget::Create(soc);
  auto str = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(ftr.ok() && str.ok());
  auto& f = *ftr.value();
  auto& s = *str.value();
  ASSERT_TRUE(f.ResetHardware().ok());
  ASSERT_TRUE(s.ResetHardware().ok());

  ASSERT_TRUE(f.Write32(TimerAddr(timer_regs::kLoad), 40).ok());
  ASSERT_TRUE(f.Write32(TimerAddr(timer_regs::kCtrl), 0b011).ok());
  ASSERT_TRUE(f.Run(15).ok());

  // Save first, then read: a bus read is itself a clock cycle and would
  // advance the running timer past the snapshot point.
  auto state = f.SaveState();
  ASSERT_TRUE(state.ok());
  uint32_t value_f = f.Read32(TimerAddr(timer_regs::kValue)).value();
  ASSERT_TRUE(s.RestoreState(state.value()).ok());

  EXPECT_EQ(s.Read32(TimerAddr(timer_regs::kValue)).value(), value_f);
  // Continue on the simulator: timer still expires on schedule.
  ASSERT_TRUE(s.Run(100).ok());
  EXPECT_EQ(s.Read32(TimerAddr(timer_regs::kStatus)).value(), 1u);
}

TEST(CrossTargetTest, SimulatorToFpgaTransfer) {
  auto soc = SocDesign();
  auto ftr = fpga::FpgaTarget::Create(soc);
  auto str = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(ftr.ok() && str.ok());
  auto& f = *ftr.value();
  auto& s = *str.value();
  ASSERT_TRUE(f.ResetHardware().ok());
  ASSERT_TRUE(s.ResetHardware().ok());

  ASSERT_TRUE(s.Write32(AesAddr(aes_regs::kKey0), 0x11223344).ok());
  ASSERT_TRUE(s.Write32(AesAddr(aes_regs::kIn0), 0x55667788).ok());
  auto state = s.SaveState();
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(f.RestoreState(state.value()).ok());
  EXPECT_EQ(f.Read32(AesAddr(aes_regs::kKey0)).value(), 0x11223344u);
  EXPECT_EQ(f.Read32(AesAddr(aes_regs::kIn0)).value(), 0x55667788u);
}

TEST(CrossTargetTest, OutOfWidthStateLandsTheSameOnBothTargets) {
  // A state from a migration blob or a remote upload may carry bits above
  // a register's or memory word's width. The simulator restore and the
  // scan chain must drop them the same way.
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  auto ft = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(st.ok() && ft.ok());
  auto shape = st.value()->SaveState();
  ASSERT_TRUE(shape.ok());
  sim::HardwareState wide = shape.value();
  Rng rng(2020);
  for (auto& f : wide.flops) f = rng.Next();
  for (auto& mem : wide.memories)
    for (auto& w : mem) w = rng.Next();

  ASSERT_TRUE(st.value()->RestoreState(wide).ok());
  ASSERT_TRUE(ft.value()->RestoreState(wide).ok());
  auto from_sim = st.value()->SaveState();
  auto from_fpga = ft.value()->SaveState();
  ASSERT_TRUE(from_sim.ok() && from_fpga.ok());
  EXPECT_EQ(from_sim.value(), from_fpga.value());
  EXPECT_NE(from_sim.value(), wide);
}

TEST(TargetTest, StatsAccumulate) {
  auto soc = SocDesign();
  auto tr = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(tr.ok());
  auto& t = *tr.value();
  ASSERT_TRUE(t.ResetHardware().ok());
  ASSERT_TRUE(t.Write32(TimerAddr(timer_regs::kLoad), 1).ok());
  (void)t.Read32(TimerAddr(timer_regs::kLoad));
  ASSERT_TRUE(t.Run(10).ok());
  (void)t.SaveState();
  EXPECT_EQ(t.stats().mmio_writes, 1u);
  EXPECT_EQ(t.stats().mmio_reads, 1u);
  EXPECT_EQ(t.stats().cycles_run, 10u);
  EXPECT_EQ(t.stats().snapshots_saved, 1u);
  EXPECT_GT(t.stats().io_time.picos(), 0);
  EXPECT_GT(t.stats().snapshot_time.picos(), 0);
}

}  // namespace
}  // namespace hardsnap
