// hsperf: the end-to-end run of one workload (--trace 0).
//
// Set-up once, then whole units until --seconds have passed, then the
// checks that need the program again. Prints the five end-to-end metrics
// as the last line of standard output:
//
//   setup_s             process start to the first unit (cold)
//   runs_per_s          median over units of runs / unit host time
//   instr_per_s         median over units of instructions / unit host time
//   modeled_ms_per_run  modeled device time per run (deterministic)
//   peak_rss_mb         peak RSS of this process (+ hardsnapd's)
#include <cstdio>

#include "util.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.trace) Fatal("hsperf measures end to end; --trace 1 is hsperf_traced");
  if (!args.source_digest.empty() &&
      args.source_digest != CompiledSourceDigest())
    Fatal(std::string("binary was built from sources ") +
          CompiledSourceDigest() + ", the checkout has " + args.source_digest);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (!workload) Fatal("unknown workload '" + args.workload + "'");

  hardsnap::Status setup = workload->Setup(nullptr);
  if (!setup.ok()) Fatal("set-up failed: " + setup.ToString());
  const double setup_s = SecondsSinceStart();

  std::vector<double> run_rates, instr_rates;
  std::vector<std::string> errors;
  UnitCounts first;
  uint64_t attempted = 0, failed = 0;
  const double start = Now();
  do {
    UnitOutcome u = workload->RunUnit(nullptr);
    if (attempted == 0) first = u.counts;
    attempted += u.attempted;
    failed += u.failed;
    errors.insert(errors.end(), u.errors.begin(), u.errors.end());
    std::fprintf(stderr, "perfbench: unit %zu: %.4f s\n", run_rates.size(),
                 u.seconds);
    if (u.errors.empty() && u.seconds > 0) {
      run_rates.push_back(static_cast<double>(u.counts.runs) / u.seconds);
      instr_rates.push_back(static_cast<double>(u.counts.instructions) /
                            u.seconds);
    }
  } while (Now() - start < args.seconds);

  for (std::string& e : workload->FinalChecks()) errors.push_back(std::move(e));
  double helper_rss_mb = 0;
  hardsnap::Status fin = workload->Finish(&helper_rss_mb);
  if (!fin.ok()) errors.push_back("shutdown: " + fin.ToString());
  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

  const auto [q1, q3] = Quartiles(run_rates);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu units of %llu %ss, %s/s median "
               "%.2f (q1 %.2f, q3 %.2f); sources %s\n",
               args.workload.c_str(), (unsigned long long)args.seed,
               run_rates.size(), (unsigned long long)first.runs,
               workload->run_noun(), workload->run_noun(), Median(run_rates),
               q1, q3, CompiledSourceDigest());
  std::fprintf(stderr, "perfbench: unit counts %s\n", first.ToString().c_str());

  const double runs = first.runs ? static_cast<double>(first.runs) : 1.0;
  PrintResult(errors.empty(), attempted, failed,
              {{"setup_s", {setup_s, "s"}},
               {"runs_per_s", {Median(run_rates), "runs/s"}},
               {"instr_per_s", {Median(instr_rates), "instr/s"}},
               {"modeled_ms_per_run",
                {static_cast<double>(first.modeled_ps) / 1e9 / runs, "ms"}},
               {"peak_rss_mb", {PeakRssMb("self") + helper_rss_mb, "MB"}}});
  return 0;
}
