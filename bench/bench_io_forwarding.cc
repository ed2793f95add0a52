// E2 — I/O forwarding latency and execution speed per target
// (paper RQ1 continuation: "we complete the performance evaluation by
// measuring the I/O forwarding latency and execution speed between the
// FPGA and the simulator target").
//
// Reproduces two tables:
//   (a) per-transaction MMIO forwarding latency over each channel
//       (shared memory / USB3 debugger / JTAG baseline), modeled, plus
//       measured wall-clock per transaction on this host;
//   (b) execution speed: hardware cycles per second of virtual time for
//       each target (FPGA = fabric clock; simulator = HDL-interpretation
//       rate), plus the measured host rate of the cycle-accurate engine.
// Expected shape: shared-memory << USB3 << JTAG; FPGA cycle rate orders
// of magnitude above the simulator.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_json.h"
#include "bus/axi.h"
#include "bus/channel.h"
#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"

using namespace hardsnap;

namespace {

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                                 "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

void PrintChannelTable() {
  std::printf("E2a: MMIO forwarding latency per transport (modeled)\n");
  std::printf("%-16s %16s\n", "channel", "per transaction");
  for (const auto& ch : {bus::SharedMemoryChannel(), bus::Usb3Channel(),
                         bus::JtagChannel()}) {
    std::printf("%-16s %16s\n", ch.name.c_str(),
                ch.per_transaction.ToString().c_str());
    benchjson::Add(ch.name + ".per_transaction_ps",
                   static_cast<uint64_t>(ch.per_transaction.picos()));
  }
  std::printf("\n");
}

void PrintTargetTable() {
  std::printf("E2b: target execution + forwarding profile\n");
  std::printf("%-12s %14s %16s %18s\n", "target", "cycle rate",
              "read32 latency", "1k-read volume");
  // Simulator target.
  {
    auto t = bus::SimulatorTarget::Create(Soc());
    HS_CHECK(t.ok());
    auto& target = *t.value();
    for (int i = 0; i < 1000; ++i) (void)target.Read32(0x0004);
    const Duration per_read =
        Duration::Picos(target.stats().io_time.picos() / 1000);
    std::printf("%-12s %11.2f MHz %16s %18s\n", "simulator",
                t.value()->options().sim_clock_hz / 1e6,
                per_read.ToString().c_str(),
                target.stats().io_time.ToString().c_str());
    benchjson::Add("simulator.read32_ps",
                   static_cast<uint64_t>(per_read.picos()));
  }
  // FPGA target.
  {
    auto t = fpga::FpgaTarget::Create(Soc());
    HS_CHECK(t.ok());
    auto& target = *t.value();
    for (int i = 0; i < 1000; ++i) (void)target.Read32(0x0004);
    const Duration per_read =
        Duration::Picos(target.stats().io_time.picos() / 1000);
    std::printf("%-12s %11.2f MHz %16s %18s\n", "fpga", 100.0,
                per_read.ToString().c_str(),
                target.stats().io_time.ToString().c_str());
    benchjson::Add("fpga.read32_ps",
                   static_cast<uint64_t>(per_read.picos()));
  }
  std::printf(
      "\n(simulator forwards over shared memory; FPGA over the USB3 "
      "debugger — per-read ratio reproduces the paper's latency gap)\n\n");
}

void PrintProtocolTable() {
  // On-chip bus protocol latency (cycles per transaction) for each
  // supported interconnect, measured by real handshakes on the simulated
  // bridges (paper Sec. IV-A: "a simulated memory bus (i.e., AXI,
  // Wishbone)").
  std::printf("E2c: on-chip bus protocol latency (measured handshakes)\n");
  std::printf("%-16s %18s\n", "interconnect", "cycles per write");
  std::printf("%-16s %18s\n", "register bus", "1");
  {
    auto d = rtl::CompileVerilog(
        bus::WrapSocWithWishbone(periph::DefaultCorpus()), "wb_soc");
    HS_CHECK(d.ok());
    auto sr = sim::Simulator::Create(d.value());
    HS_CHECK(sr.ok());
    auto sim = std::move(sr).value();
    HS_CHECK(sim.PokeInput("uart_rx", 1).ok());
    HS_CHECK(sim.Reset().ok());
    bus::WishboneDriver wb(&sim);
    const uint64_t before = sim.cycle_count();
    HS_CHECK(wb.Write32(0x0004, 1).ok());
    std::printf("%-16s %18llu\n", "wishbone",
                static_cast<unsigned long long>(sim.cycle_count() - before));
  }
  {
    auto d = rtl::CompileVerilog(bus::WrapSocWithAxi(periph::DefaultCorpus()),
                                 "axi_soc");
    HS_CHECK(d.ok());
    auto sr = sim::Simulator::Create(d.value());
    HS_CHECK(sr.ok());
    auto sim = std::move(sr).value();
    HS_CHECK(sim.PokeInput("uart_rx", 1).ok());
    HS_CHECK(sim.Reset().ok());
    bus::AxiLiteDriver axi(&sim);
    HS_CHECK(axi.Write32(0x0004, 1).ok());
    std::printf("%-16s %18u\n", "axi4-lite", axi.last_latency_cycles());
  }
  std::printf("\n");
}

// Measured: host wall-clock per MMIO read on each target back-end.
void BM_MmioRead_Simulator(benchmark::State& state) {
  auto t = bus::SimulatorTarget::Create(Soc());
  HS_CHECK(t.ok());
  for (auto _ : state) {
    auto v = t.value()->Read32(0x0004);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_MmioRead_Simulator)->Unit(benchmark::kMicrosecond);

void BM_MmioRead_Fpga(benchmark::State& state) {
  auto t = fpga::FpgaTarget::Create(Soc());
  HS_CHECK(t.ok());
  for (auto _ : state) {
    auto v = t.value()->Read32(0x0004);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_MmioRead_Fpga)->Unit(benchmark::kMicrosecond);

void BM_MmioWrite_Simulator(benchmark::State& state) {
  auto t = bus::SimulatorTarget::Create(Soc());
  HS_CHECK(t.ok());
  uint32_t v = 0;
  for (auto _ : state) {
    HS_CHECK(t.value()->Write32(0x0004, ++v).ok());
  }
}
BENCHMARK(BM_MmioWrite_Simulator)->Unit(benchmark::kMicrosecond);

// Host cycles per second from the last run of each cycle-rate benchmark,
// written to BENCH_io_forwarding.json beside the modeled tables.
std::map<std::string, double>& HostRates() {
  static std::map<std::string, double> rates;
  return rates;
}

// Times `slice` (one call runs 100 SoC cycles) for every iteration and
// records the host cycle rate under `key`.
template <typename Slice>
void TimeCycles(benchmark::State& state, const std::string& key,
                Slice slice) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t cycles = 0;
  for (auto _ : state) {
    slice();
    cycles += 100;
  }
  const std::chrono::duration<double> spent =
      std::chrono::steady_clock::now() - start;
  state.SetItemsProcessed(static_cast<int64_t>(cycles));
  if (cycles > 0) HostRates()[key] = static_cast<double>(cycles) / spent.count();
}

// Measured: host rate of the cycle-accurate engine (cycles/second) on an
// idle SoC. Only the free-running timer changes, so change-driven
// evaluation re-runs almost nothing: the best case.
void BM_EngineCycleRate(benchmark::State& state) {
  auto t = bus::SimulatorTarget::Create(Soc());
  HS_CHECK(t.ok());
  TimeCycles(state, "host.engine_idle_cycles_per_s",
             [&] { HS_CHECK(t.value()->Run(100).ok()); });
}
BENCHMARK(BM_EngineCycleRate)->Unit(benchmark::kMicrosecond);

// The busy twin: the AES and SHA-256 accelerators are started before
// every 100-cycle slice, so their round logic changes on most cycles. The
// two MMIO writes per slice are part of the measured time.
void BM_EngineCycleRateBusy(benchmark::State& state) {
  auto t = bus::SimulatorTarget::Create(Soc());
  HS_CHECK(t.ok());
  auto& target = *t.value();
  TimeCycles(state, "host.engine_busy_cycles_per_s", [&] {
    HS_CHECK(target.Write32(0x0200 + periph::aes_regs::kCtrl, 0x1).ok());
    HS_CHECK(target.Write32(0x0300 + periph::sha_regs::kCtrl, 0x5).ok());
    HS_CHECK(target.Run(100).ok());
  });
}
BENCHMARK(BM_EngineCycleRateBusy)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintChannelTable();
  PrintTargetTable();
  PrintProtocolTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& [key, rate] : HostRates()) benchjson::Add(key, rate);
  benchjson::Emit("io_forwarding");
  return 0;
}
