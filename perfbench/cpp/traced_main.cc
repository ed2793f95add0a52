// hsperf_traced: the traced run of one workload (--trace 1).
//
// Alternates untraced and traced units for --seconds, starting with a
// traced one. Traced units hand the program targets wrapped in the timing
// proxy (fuzz: through the campaign's target factory; symex: beneath the
// same core::OrchestratedTarget that Session builds), and the benchmark's
// own calls into each layer are spans. Untraced units run exactly as in
// hsperf; they give the tracing overhead and the counts every traced unit
// must reproduce. Prints the per-layer metrics as the last line; the spans
// go to <work-dir>/trace-<workload>-<seed>.json (Chrome trace-event JSON).
#include <cstdio>
#include <map>
#include <optional>

#include "core/session.h"
#include "fpga/fpga_target.h"
#include "rtl/elaborate.h"
#include "periph/periph.h"
#include "remote/remote_target.h"
#include "snapshot/orchestrator.h"
#include "spans.h"
#include "timing_proxy.h"
#include "util.h"
#include "workloads.h"

using namespace perfbench;
using namespace hardsnap;

namespace {

// Session::Create + LoadFirmware + MakeSymbolicRegister for
// Target::kFpga, with the timing proxy between the orchestrator and the
// FPGA target. Keep in step with src/core/session.cc.
struct SymexWiring {
  std::unique_ptr<bus::HardwareTarget> target;  // proxy over the FpgaTarget
  std::unique_ptr<snapshot::TargetOrchestrator> orchestrator;
  std::unique_ptr<core::OrchestratedTarget> orchestrated;
  std::unique_ptr<symex::Executor> executor;
};

Result<Hooks::SymexRun> MakeTracedSymex(const rtl::Design& soc,
                                        TimingSink* sink,
                                        const core::SessionConfig& config,
                                        const vm::FirmwareImage& image) {
  auto w = std::make_shared<SymexWiring>();
  {
    Span span("target.create");
    auto fpga = fpga::FpgaTarget::Create(soc, config.fpga_options);
    if (!fpga.ok()) return fpga.status();
    w->target = WrapWithTiming(std::move(fpga).value(), sink);
  }
  w->orchestrator = std::make_unique<snapshot::TargetOrchestrator>(
      std::vector<bus::HardwareTarget*>{w->target.get()});
  HS_RETURN_IF_ERROR(w->orchestrator->active().ResetHardware());
  w->orchestrated =
      std::make_unique<core::OrchestratedTarget>(w->orchestrator.get());
  w->executor =
      std::make_unique<symex::Executor>(w->orchestrated.get(), config.exec);
  HS_RETURN_IF_ERROR(w->executor->LoadFirmware(image));
  w->executor->MakeSymbolicRegister(10, "a0");
  return Hooks::SymexRun([w] { return w->executor->Run(); });
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.source_digest.empty() &&
      args.source_digest != CompiledSourceDigest())
    Fatal(std::string("binary was built from sources ") +
          CompiledSourceDigest() + ", the checkout has " + args.source_digest);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (!workload) Fatal("unknown workload '" + args.workload + "'");
  const bool fuzz = args.workload != "symex-fpga";
  const bool remote = args.workload == "fuzz-remote";

  EnableSpans();
  TimingSink sink;
  std::unique_ptr<rtl::Design> symex_soc;
  Hooks hooks;
  if (fuzz) {
    hooks.wrap_target = [&sink](std::unique_ptr<bus::HardwareTarget> t) {
      return WrapWithTiming(std::move(t), &sink);
    };
  } else {
    Span span("rtl.compile");
    auto soc =
        rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
    if (!soc.ok()) Fatal("SoC compile failed: " + soc.status().ToString());
    symex_soc = std::make_unique<rtl::Design>(std::move(soc).value());
    hooks.make_symex = [&](const core::SessionConfig& config,
                           const vm::FirmwareImage& image) {
      return MakeTracedSymex(*symex_soc, &sink, config, image);
    };
  }

  Status setup = workload->Setup(&hooks);
  if (!setup.ok()) Fatal("set-up failed: " + setup.ToString());
  const double setup_end = Now();
  (void)sink.Take();  // the set-up probe target, if any

  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  std::optional<UnitCounts> counts;
  std::vector<double> traced_rates, untraced_rates;
  TargetTimes sum;              // over traced units
  double traced_wall = 0;       // summed traced unit host time
  double worker_busy = 0;       // summed proxy lifetimes
  uint64_t traced_runs = 0, traced_units = 0, workers = 0;
  const double start = Now();
  for (unsigned i = 0; traced_units == 0 || untraced_rates.empty() ||
                       Now() - start < args.seconds;
       ++i) {
    const bool traced = i % 2 == 0;
    UnitOutcome u = workload->RunUnit(traced ? &hooks : nullptr);
    attempted += u.attempted;
    failed += u.failed;
    errors.insert(errors.end(), u.errors.begin(), u.errors.end());
    if (!counts) counts = u.counts;
    else if (!(u.counts == *counts))
      errors.push_back(std::string(traced ? "traced" : "untraced") +
                       " unit counts " + u.counts.ToString() + " differ from " +
                       counts->ToString());
    const double rate = Ratio(static_cast<double>(u.counts.runs), u.seconds);
    std::vector<TargetTimes> targets = sink.Take();
    if (!traced) {
      untraced_rates.push_back(rate);
      continue;
    }
    traced_rates.push_back(rate);
    ++traced_units;
    traced_wall += u.seconds;
    traced_runs += u.counts.runs;
    for (const TargetTimes& t : targets) {
      sum.run += t.run;
      sum.mmio += t.mmio;
      sum.save += t.save;
      sum.restore += t.restore;
      sum.other += t.other;
      sum.cycles += t.cycles;
      sum.delta_restores += t.delta_restores;
      sum.rpcs += t.rpcs;
      sum.ops_shipped += t.ops_shipped;
      sum.bytes += t.bytes;
      worker_busy += t.destroyed - t.created;
    }
    workers = std::max<uint64_t>(workers, targets.size());
  }

  double server_us_per_rpc = 0;
  if (remote) {
    // Server-side serve time per RPC, over the daemon's life so far.
    auto addr = net::Address::Parse(workload->daemon_address());
    auto client = addr.ok() ? remote::RemoteTarget::Connect(addr.value())
                            : Result<std::unique_ptr<remote::RemoteTarget>>(
                                  addr.status());
    auto stats = client.ok() ? client.value()->FetchServerStats()
                             : Result<remote::ServerStats>(client.status());
    if (!stats.ok())
      errors.push_back("server stats: " + stats.status().ToString());
    else
      server_us_per_rpc = Ratio(stats.value().rpc_wall_micros,
                                stats.value().rpcs);
  }
  for (std::string& e : workload->FinalChecks()) errors.push_back(std::move(e));
  double helper_rss_mb = 0;
  Status fin = workload->Finish(&helper_rss_mb);
  if (!fin.ok()) errors.push_back("shutdown: " + fin.ToString());
  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

  // Set-up phases: spans that ended before the first unit.
  const auto spans = CollectSpans();
  double compile_s = 0, create_s = 0, connect_s = 0;
  for (const auto& thread : spans)
    for (const SpanRecord& r : thread) {
      if (r.end > setup_end) continue;
      const std::string name = r.name;
      if (name == "rtl.compile") compile_s += r.end - r.start;
      if (name == "target.create") create_s += r.end - r.start;
      if (name == "remote.connect") connect_s += r.end - r.start;
    }
  const std::string trace_path =
      args.work_dir + "/trace-" + args.workload + "-" +
      std::to_string(args.seed) + ".json";
  if (!WriteSpans(trace_path, spans))
    errors.push_back("cannot write " + trace_path);
  for (const auto& [name, t] : SumSpans(spans))
    std::fprintf(stderr,
                 "perfbench: span %-24s n=%-6llu total %.4f s self %.4f s\n",
                 name.c_str(), (unsigned long long)t.count, t.total, t.self);

  const double runs = static_cast<double>(traced_runs);
  const double target_s = sum.target_seconds();
  const double lanes = fuzz ? static_cast<double>(workers) : 1.0;
  const uint64_t restores = sum.restore.calls;
  std::map<std::string, Metric> m;
  m["rtl.compile_s"] = {compile_s, "s"};
  m["target.create_s"] = {create_s, "s"};
  m["remote.connect_s"] = {connect_s, "s"};
  m["target.run.calls"] = {Ratio(sum.run.calls, runs), "calls/run"};
  m["target.run.ns_per_cycle"] = {Ratio(sum.run.seconds * 1e9, sum.cycles),
                                  "ns/cycle"};
  m["target.mmio.calls"] = {Ratio(sum.mmio.calls, runs), "calls/run"};
  m["target.mmio.us_per_op"] = {Ratio(sum.mmio.seconds * 1e6, sum.mmio.calls),
                                "us"};
  m["target.save.calls"] = {Ratio(sum.save.calls, runs), "calls/run"};
  m["target.save.us_per_op"] = {Ratio(sum.save.seconds * 1e6, sum.save.calls),
                                "us"};
  m["target.restore.calls"] = {Ratio(restores, runs), "calls/run"};
  m["target.restore.us_per_op"] = {
      Ratio(sum.restore.seconds * 1e6, restores), "us"};
  m["target.share"] = {Ratio(target_s, lanes * traced_wall), "fraction"};
  m["fuzz.self_us_per_exec"] = {
      fuzz ? Ratio((worker_busy - target_s) * 1e6, runs) : 0.0, "us"};
  m["symex.self_ms_per_path"] = {
      fuzz ? 0.0 : Ratio((traced_wall - target_s) * 1e3, runs), "ms"};
  m["campaign.parallel_efficiency"] = {
      fuzz ? Ratio(worker_busy, lanes * traced_wall) : 0.0, "fraction"};
  const UnitCounts c = counts.value_or(UnitCounts{});
  const double unit_runs = static_cast<double>(c.runs);
  m["vm.instr_per_run"] = {Ratio(c.instructions, unit_runs), "instr"};
  m["fuzz.edges"] = {static_cast<double>(c.edges), "count"};
  m["symex.ctx_switches_per_path"] = {Ratio(c.ctx_switches, unit_runs),
                                      "count"};
  m["symex.solver_queries_per_path"] = {Ratio(c.solver_queries, unit_runs),
                                        "count"};
  m["snapshot.bytes_per_run"] = {Ratio(c.snapshot_bytes, unit_runs), "B"};
  m["snapshot.delta_restore_share"] = {Ratio(sum.delta_restores, restores),
                                       "fraction"};
  m["remote.ops_per_rpc"] = {Ratio(sum.ops_shipped, sum.rpcs), "ops"};
  m["remote.server_us_per_rpc"] = {server_us_per_rpc, "us"};
  m["remote.client_us_per_op"] = {
      remote ? Ratio(target_s * 1e6, sum.target_calls()) : 0.0, "us"};
  m["remote.bytes_per_run"] = {Ratio(sum.bytes, runs), "B"};
  m["trace.overhead"] = {
      Ratio(Median(untraced_rates), Median(traced_rates)) - 1.0, "fraction"};
  PrintResult(errors.empty(), attempted, failed, m);
  return 0;
}
