// E9 (extension) — copy-on-write delta snapshots: bytes moved per
// hardware context switch with and without dirty-state change tracking.
//
// The tentpole claim: on the symbolic-execution branchy-driver workload,
// routing context switches through delta capture/restore reduces the
// bytes that cross the host link per switch by >= 5x versus full-state
// copies, with bit-identical analysis results (tests/snapshot_delta_test
// proves equivalence; this bench quantifies the saving).
//
// Tables:
//   (a) symex branch-tree sweep on the simulator target: total and
//       per-switch snapshot bytes, full vs delta, plus the store's
//       structural-sharing (dedup) ratio;
//   (b) the FPGA target at 4 branches: the scan pass still costs the full
//       state-linear time (E1 shape is unchanged BY DESIGN — the fabric
//       must always be scanned), but the USB3 bulk payload shrinks to the
//       dirty chunks;
//   (c) fuzzer snapshot-reset loop: bytes per reset, full vs delta.
// The google-benchmark section measures host wall-clock of the delta
// primitives against their full-copy counterparts (manual timing: only the
// capture or restore itself is timed, not the cycles that dirty state).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_json.h"
#include "bus/sim_target.h"
#include "firmware/corpus.h"
#include "fpga/fpga_target.h"
#include "fuzz/fuzzer.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "sim/delta.h"
#include "symex/executor.h"
#include "vm/assembler.h"

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

symex::Report RunSymex(bus::HardwareTarget* target, unsigned branches,
                       bool use_delta) {
  symex::ExecOptions opts;
  opts.mode = symex::ConsistencyMode::kHardSnap;
  opts.search = symex::SearchStrategy::kBfs;
  opts.use_device_slots = false;  // host-link snapshots: the traffic at stake
  opts.use_delta_snapshots = use_delta;
  opts.max_instructions = 4'000'000;
  symex::Executor ex(target, opts);
  auto img = vm::Assemble(firmware::BranchTreeFirmware(branches, 60));
  HS_CHECK(img.ok());
  HS_CHECK(ex.LoadFirmware(img.value()).ok());
  ex.MakeSymbolicRegister(10, "input");
  auto report = ex.Run();
  HS_CHECK_MSG(report.ok(), report.status().ToString());
  return std::move(report).value();
}

void PrintSymexTable() {
  std::printf(
      "E9a: symex snapshot traffic, full copies vs delta (simulator, BFS)\n"
      "%-7s %9s | %12s %10s | %12s %10s | %9s %7s\n",
      "paths", "switches", "full bytes", "B/switch", "delta bytes",
      "B/switch", "reduction", "dedup");
  for (unsigned branches : {3u, 4u, 5u, 6u}) {
    auto t_full = bus::SimulatorTarget::Create(Soc());
    auto t_delta = bus::SimulatorTarget::Create(Soc());
    HS_CHECK(t_full.ok() && t_delta.ok());
    auto full = RunSymex(t_full.value().get(), branches, false);
    auto delta = RunSymex(t_delta.value().get(), branches, true);
    HS_CHECK_MSG(full.paths_completed == delta.paths_completed &&
                     full.covered_pcs == delta.covered_pcs,
                 "delta run diverged from full run");
    const uint64_t switches =
        full.hw_context_switches ? full.hw_context_switches : 1;
    const uint64_t dswitches =
        delta.hw_context_switches ? delta.hw_context_switches : 1;
    const double reduction =
        static_cast<double>(full.snapshot_bytes_copied) /
        static_cast<double>(delta.snapshot_bytes_copied ? delta.snapshot_bytes_copied : 1);
    std::printf(
        "%-7llu %9llu | %12llu %10llu | %12llu %10llu | %8.1fx %6.0f%%\n",
        static_cast<unsigned long long>(full.paths_completed),
        static_cast<unsigned long long>(full.hw_context_switches),
        static_cast<unsigned long long>(full.snapshot_bytes_copied),
        static_cast<unsigned long long>(full.snapshot_bytes_copied / switches),
        static_cast<unsigned long long>(delta.snapshot_bytes_copied),
        static_cast<unsigned long long>(delta.snapshot_bytes_copied /
                                        dswitches),
        reduction, 100.0 * delta.snapshot_dedup_ratio);
    const std::string p = "symex.b" + std::to_string(branches);
    benchjson::Add(p + ".switches", full.hw_context_switches);
    benchjson::Add(p + ".full_bytes", full.snapshot_bytes_copied);
    benchjson::Add(p + ".delta_bytes", delta.snapshot_bytes_copied);
    benchjson::Add(p + ".reduction", reduction);
    benchjson::Add(p + ".dedup_ratio", delta.snapshot_dedup_ratio);
  }
  std::printf(
      "\n(identical paths/coverage per row — the delta run does the same "
      "analysis with a fraction of the link traffic)\n\n");
}

void PrintFpgaTable() {
  std::printf(
      "E9b: FPGA context-switch cost split at 4 branches "
      "(scan pass is state-linear BY DESIGN; only the bulk payload "
      "shrinks)\n"
      "%-10s | %12s %14s | %14s\n",
      "mode", "link bytes", "snapshot time", "scan pass (fixed)");
  auto scan_cost = [&] {
    auto t = fpga::FpgaTarget::Create(Soc());
    HS_CHECK(t.ok());
    return t.value()->ScanPassCost();
  }();
  for (bool use_delta : {false, true}) {
    auto t = fpga::FpgaTarget::Create(Soc());
    HS_CHECK(t.ok());
    auto r = RunSymex(t.value().get(), 4, use_delta);
    std::printf("%-10s | %12llu %14s | %14s\n",
                use_delta ? "delta" : "full",
                static_cast<unsigned long long>(r.snapshot_bytes_copied),
                t.value()->stats().snapshot_time.ToString().c_str(),
                scan_cost.ToString().c_str());
    benchjson::Add(std::string("fpga.") + (use_delta ? "delta" : "full") +
                       "_bytes",
                   r.snapshot_bytes_copied);
  }
  benchjson::Add("fpga.scan_pass_ps",
                 static_cast<uint64_t>(scan_cost.picos()));
  std::printf("\n");
}

void PrintFuzzTable() {
  constexpr uint64_t kExecs = 300;
  std::printf(
      "E9c: fuzzer snapshot-reset traffic, %llu execs\n"
      "%-10s | %12s %12s %14s\n",
      static_cast<unsigned long long>(kExecs), "mode", "link bytes",
      "B/reset", "delta resets");
  auto img = vm::Assemble(firmware::VulnerableParserFirmware());
  HS_CHECK(img.ok());
  uint64_t bytes[2] = {0, 0};
  for (bool use_delta : {false, true}) {
    auto t = bus::SimulatorTarget::Create(Soc());
    HS_CHECK(t.ok());
    fuzz::FuzzOptions opts;
    opts.reset = fuzz::ResetStrategy::kSnapshotReset;
    opts.input_size = 2;
    opts.seed = 42;
    opts.use_delta_snapshots = use_delta;
    fuzz::Fuzzer fuzzer(t.value().get(), img.value(), opts);
    auto stats = fuzzer.Run(kExecs);
    HS_CHECK_MSG(stats.ok(), stats.status().ToString());
    bytes[use_delta] = stats.value().snapshot_bytes_copied;
    std::printf("%-10s | %12llu %12llu %14llu\n",
                use_delta ? "delta" : "full",
                static_cast<unsigned long long>(
                    stats.value().snapshot_bytes_copied),
                static_cast<unsigned long long>(
                    stats.value().snapshot_bytes_copied /
                    (stats.value().snapshot_restores
                         ? stats.value().snapshot_restores
                         : 1)),
                static_cast<unsigned long long>(
                    stats.value().delta_restores));
    benchjson::Add(std::string("fuzz.") + (use_delta ? "delta" : "full") +
                       "_bytes",
                   stats.value().snapshot_bytes_copied);
  }
  if (bytes[1] > 0) {
    std::printf("\nfuzzer link-traffic reduction: %.1fx\n\n",
                static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]));
    benchjson::Add("fuzz.reduction", static_cast<double>(bytes[0]) /
                                         static_cast<double>(bytes[1]));
  }
}

// Manual timing: every iteration runs `dirty` untimed (a few simulator
// cycles that change state) and times only `op`, the capture or restore
// the benchmark names. The iteration count is fixed because the untimed
// cycles dominate each iteration's wall time.
constexpr int kTimedIterations = 4000;

template <typename Dirty, typename Op>
void TimeOnly(benchmark::State& bm_state, Dirty dirty, Op op) {
  for (auto _ : bm_state) {
    dirty();
    const auto start = std::chrono::steady_clock::now();
    op();
    const std::chrono::duration<double> spent =
        std::chrono::steady_clock::now() - start;
    bm_state.SetIterationTime(spent.count());
  }
}

// A timer load written over the bus and four cycles run: a lightly
// dirtied state, as between two context switches.
struct TimerWrite {
  explicit TimerWrite(sim::Simulator* s)
      : sim(s),
        sel(s->design().FindSignal("sel")),
        wr(s->design().FindSignal("wr")),
        addr(s->design().FindSignal("addr")),
        wdata(s->design().FindSignal("wdata")) {}
  void operator()() const {
    HS_CHECK(sim->PokeInput(sel, 1).ok());
    HS_CHECK(sim->PokeInput(wr, 1).ok());
    HS_CHECK(sim->PokeInput(addr, periph::timer_regs::kLoad).ok());
    HS_CHECK(sim->PokeInput(wdata, 123).ok());
    sim->Tick(4);
  }
  sim::Simulator* sim;
  rtl::SignalId sel, wr, addr, wdata;
};

// Wall-clock: delta capture of a lightly dirtied state vs a full dump.
void BM_CaptureDelta(benchmark::State& bm_state) {
  auto s = sim::Simulator::Create(Soc());
  HS_CHECK(s.ok());
  sim::Simulator sim = std::move(s).value();
  HS_CHECK(sim.Reset().ok());
  sim.MarkSynced();
  TimeOnly(bm_state, TimerWrite(&sim), [&] {
    auto d = sim.CaptureDelta();
    benchmark::DoNotOptimize(d);
  });
}
BENCHMARK(BM_CaptureDelta)
    ->UseManualTime()
    ->Iterations(kTimedIterations)
    ->Unit(benchmark::kMicrosecond);

void BM_FullDumpState(benchmark::State& bm_state) {
  auto s = sim::Simulator::Create(Soc());
  HS_CHECK(s.ok());
  sim::Simulator sim = std::move(s).value();
  HS_CHECK(sim.Reset().ok());
  TimeOnly(bm_state, TimerWrite(&sim), [&] {
    auto st = sim.DumpState();
    benchmark::DoNotOptimize(st);
  });
}
BENCHMARK(BM_FullDumpState)
    ->UseManualTime()
    ->Iterations(kTimedIterations)
    ->Unit(benchmark::kMicrosecond);

// Wall-clock: O(dirty) delta revert vs full state write-back.
void BM_RestoreDelta(benchmark::State& bm_state) {
  auto s = sim::Simulator::Create(Soc());
  HS_CHECK(s.ok());
  sim::Simulator sim = std::move(s).value();
  HS_CHECK(sim.Reset().ok());
  sim.MarkSynced();
  const sim::HardwareState base = sim.DumpState();
  sim::StateDelta revert = sim::EmptyDeltaFor(base);
  revert.base_hash = sim::HashState(base);
  TimeOnly(bm_state, [&] { sim.Tick(8); },
           [&] { HS_CHECK(sim.RestoreDelta(revert).ok()); });
}
BENCHMARK(BM_RestoreDelta)
    ->UseManualTime()
    ->Iterations(kTimedIterations)
    ->Unit(benchmark::kMicrosecond);

void BM_FullRestoreState(benchmark::State& bm_state) {
  auto s = sim::Simulator::Create(Soc());
  HS_CHECK(s.ok());
  sim::Simulator sim = std::move(s).value();
  HS_CHECK(sim.Reset().ok());
  const sim::HardwareState base = sim.DumpState();
  TimeOnly(bm_state, [&] { sim.Tick(8); },
           [&] { HS_CHECK(sim.RestoreState(base).ok()); });
}
BENCHMARK(BM_FullRestoreState)
    ->UseManualTime()
    ->Iterations(kTimedIterations)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSymexTable();
  PrintFpgaTable();
  PrintFuzzTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchjson::Emit("snapshot_delta");
  return 0;
}
