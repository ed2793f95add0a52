// E1 — hardware snapshot save/restore latency per peripheral and method
// (paper RQ1: "How long does it take to save/restore a hardware state?").
//
// Reproduces the paper's comparison of the three snapshotting mechanisms:
//   * FPGA scan chain: one pass of state_bits + mem_words fabric cycles —
//     grows linearly with design size, microseconds at 100 MHz;
//   * FPGA vendor readback: dumps the whole fabric configuration —
//     large and almost independent of the design;
//   * simulator + CRIU: checkpoints the whole simulator process —
//     large and independent of the design.
// Expected shape: scan is orders of magnitude faster; only scan scales
// with (small) design size; readback/CRIU are flat.
//
// The table reports modeled hardware time; the google-benchmark section
// below it measures the host wall-clock cost of emulating the scan pass
// (word-level and bit-serial; both model the same fabric cycles) and of
// the simulator state dump.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>

#include "bench_json.h"
#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "scanchain/scan_controller.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

using namespace hardsnap;

namespace {

struct Row {
  std::string name;
  rtl::Design design;
};

std::vector<Row> Corpus() {
  std::vector<Row> rows;
  auto add = [&rows](const std::string& name, const std::string& src,
                     const std::string& top) {
    auto d = rtl::CompileVerilog(src, top);
    HS_CHECK_MSG(d.ok(), d.status().ToString());
    rows.push_back(Row{name, std::move(d).value()});
  };
  add("hs_timer", periph::TimerVerilog(), "hs_timer");
  add("hs_uart", periph::UartVerilog(), "hs_uart");
  add("hs_watchdog", periph::WatchdogVerilog(), "hs_watchdog");
  add("hs_aes128", periph::Aes128Verilog(), "hs_aes128");
  add("hs_sha256", periph::Sha256Verilog(), "hs_sha256");
  add("soc (all 4)", periph::BuildSoc(periph::DefaultCorpus()), "soc");
  return rows;
}

// Modeled cost of an incremental (delta) snapshot after a brief burst of
// activity: save once to establish the sync point, run a few cycles, then
// capture only the dirtied chunks. The scan pass itself remains full-length
// (the fabric must always be scanned — E1's linear shape is preserved);
// only the host-link payload and the CRIU image shrink.
Duration DeltaSaveCost(bus::HardwareTarget* t, bus::DeltaSnapshotter* d) {
  HS_CHECK(t->ResetHardware().ok());
  HS_CHECK(t->SaveState().ok());  // sync point
  HS_CHECK(t->Run(20).ok());
  const Duration before = t->clock().now();
  auto delta = d->SaveStateDelta();
  HS_CHECK_MSG(delta.ok(), delta.status().ToString());
  return t->clock().now() - before;
}

void PrintTable() {
  std::printf(
      "E1: hardware snapshot save/restore latency by method\n"
      "%-12s %10s %9s | %14s %14s %14s | %14s %14s\n",
      "design", "FF bits", "mem bits", "scan-chain", "readback", "CRIU",
      "delta-scan", "delta-CRIU");
  for (auto& row : Corpus()) {
    auto stats = row.design.Stats();
    auto fpga = fpga::FpgaTarget::Create(row.design);
    HS_CHECK(fpga.ok());
    auto sim = bus::SimulatorTarget::Create(row.design);
    HS_CHECK(sim.ok());
    const Duration delta_scan =
        DeltaSaveCost(fpga.value().get(), fpga.value().get());
    const Duration delta_criu =
        DeltaSaveCost(sim.value().get(), sim.value().get());
    std::printf("%-12s %10u %9u | %14s %14s %14s | %14s %14s\n",
                row.name.c_str(), stats.num_flop_bits, stats.num_memory_bits,
                fpga.value()->ScanPassCost().ToString().c_str(),
                fpga.value()->ReadbackCost().ToString().c_str(),
                sim.value()->CriuCost().ToString().c_str(),
                delta_scan.ToString().c_str(),
                delta_criu.ToString().c_str());
    benchjson::Add(row.name + ".ff_bits", stats.num_flop_bits);
    benchjson::Add(row.name + ".mem_bits", stats.num_memory_bits);
    benchjson::Add(row.name + ".scan_ps",
                   static_cast<uint64_t>(
                       fpga.value()->ScanPassCost().picos()));
    benchjson::Add(row.name + ".readback_ps",
                   static_cast<uint64_t>(
                       fpga.value()->ReadbackCost().picos()));
    benchjson::Add(row.name + ".criu_ps",
                   static_cast<uint64_t>(sim.value()->CriuCost().picos()));
    benchjson::Add(row.name + ".delta_scan_ps",
                   static_cast<uint64_t>(delta_scan.picos()));
    benchjson::Add(row.name + ".delta_criu_ps",
                   static_cast<uint64_t>(delta_criu.picos()));
  }
  std::printf(
      "\n(scan-chain = state-linear pass at 100 MHz + USB3 command; "
      "readback = full-fabric dump; CRIU = process image freeze+dump; "
      "delta-* = incremental capture of a lightly-dirtied state — the scan "
      "pass stays full-length, only the transferred payload shrinks)\n\n");
}

// The SoC's instrumented netlist on a simulator, driven by its scan
// controller (the object must stay put: the controller points into it).
struct SocScan {
  SocScan() : inst(Instrument()), sim(Simulate(inst)), ctrl(&sim, inst.map) {
    HS_CHECK(sim.PokeInput("uart_rx", 1).ok());
  }
  static scanchain::InstrumentedDesign Instrument() {
    auto d = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                                 "soc");
    HS_CHECK(d.ok());
    auto inst = scanchain::InsertScanChain(d.value());
    HS_CHECK(inst.ok());
    return std::move(inst).value();
  }
  static sim::Simulator Simulate(const scanchain::InstrumentedDesign& inst) {
    auto sim = sim::Simulator::Create(inst.design);
    HS_CHECK(sim.ok());
    return std::move(sim).value();
  }

  scanchain::InstrumentedDesign inst;
  sim::Simulator sim;
  scanchain::ScanController ctrl;
};

// Host microseconds per pass from the last run of each scan benchmark,
// written to BENCH_snapshot_latency.json beside the modeled table.
std::map<std::string, double>& HostMicros() {
  static std::map<std::string, double> micros;
  return micros;
}

template <typename Pass>
void TimePasses(benchmark::State& bm_state, const std::string& key,
                Pass pass) {
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : bm_state) pass();
  const std::chrono::duration<double, std::micro> spent =
      std::chrono::steady_clock::now() - start;
  if (bm_state.iterations() > 0)
    HostMicros()[key] =
        spent.count() / static_cast<double>(bm_state.iterations());
}

// Wall-clock: one full scan save on the emulated fabric. Save/Restore take
// the word-level pass (the SoC chain holds every flop); the *Serial twins
// clock the netlist once per shifted bit and memory word, as the fabric
// does. Both advance the fabric by the same PassCycles().
void BM_ScanChainSave(benchmark::State& bm_state) {
  SocScan scan;
  TimePasses(bm_state, "host.scan_save_us", [&] {
    auto saved = scan.ctrl.Save();
    benchmark::DoNotOptimize(saved);
  });
  bm_state.SetLabel(std::to_string(scan.inst.map.total_bits) +
                    " chain bits, word-level");
}
BENCHMARK(BM_ScanChainSave)->Unit(benchmark::kMicrosecond);

void BM_ScanChainSaveSerial(benchmark::State& bm_state) {
  SocScan scan;
  TimePasses(bm_state, "host.scan_save_serial_us", [&] {
    auto saved = scan.ctrl.SaveSerial();
    benchmark::DoNotOptimize(saved);
  });
  bm_state.SetLabel(std::to_string(scan.inst.map.total_bits) +
                    " chain bits, bit-serial");
}
BENCHMARK(BM_ScanChainSaveSerial)->Unit(benchmark::kMillisecond);

// Wall-clock: simulator-native state dump (the primitive under CRIU).
void BM_SimulatorDumpState(benchmark::State& bm_state) {
  auto d = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                               "soc");
  HS_CHECK(d.ok());
  auto sim = sim::Simulator::Create(d.value());
  HS_CHECK(sim.ok());
  for (auto _ : bm_state) {
    auto state = sim.value().DumpState();
    benchmark::DoNotOptimize(state);
  }
}
BENCHMARK(BM_SimulatorDumpState)->Unit(benchmark::kMicrosecond);

// Wall-clock: restore through the scan chain (emulated fabric).
void BM_ScanChainRestore(benchmark::State& bm_state) {
  SocScan scan;
  auto snapshot = scan.ctrl.Save();
  HS_CHECK(snapshot.ok());
  TimePasses(bm_state, "host.scan_restore_us", [&] {
    HS_CHECK(scan.ctrl.Restore(snapshot.value()).ok());
  });
  bm_state.SetLabel("full save+restore pass, word-level");
}
BENCHMARK(BM_ScanChainRestore)->Unit(benchmark::kMicrosecond);

void BM_ScanChainRestoreSerial(benchmark::State& bm_state) {
  SocScan scan;
  auto snapshot = scan.ctrl.SaveSerial();
  HS_CHECK(snapshot.ok());
  TimePasses(bm_state, "host.scan_restore_serial_us", [&] {
    HS_CHECK(scan.ctrl.SaveRestoreSerial(snapshot.value()).ok());
  });
  bm_state.SetLabel("full save+restore pass, bit-serial");
}
BENCHMARK(BM_ScanChainRestoreSerial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& [key, micros] : HostMicros()) benchjson::Add(key, micros);
  benchjson::Emit("snapshot_latency");
  return 0;
}
