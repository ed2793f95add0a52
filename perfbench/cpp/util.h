// Benchmark plumbing shared by both binaries: command line, clocks,
// summary statistics, resident memory and the one-line JSON result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string firmware_dir;   // perfbench/firmware
  std::string hardsnapd;      // daemon binary built from the checkout
  std::string work_dir;       // private scratch space inside the checkout
  std::string source_digest;  // digest run.py computed over the sources
};

// Parses --key=value / --key value pairs. Exits with usage on error.
Args ParseArgs(int argc, char** argv);

// Seconds on the steady clock since the process started (measured from a
// static initializer, i.e. before main).
double SecondsSinceStart();
double Now();  // steady clock, seconds

// Digest the binary was compiled with (see run.py).
const char* CompiledSourceDigest();

// Peak resident set (VmHWM) in MiB of process `pid` ("self" for this one).
double PeakRssMb(const std::string& pid);

double Median(std::vector<double> v);
// First and third quartile, as Python's statistics.quantiles(v, n=4).
std::pair<double, double> Quartiles(std::vector<double> v);

struct Metric {
  double value = 0;
  std::string unit;
};

// Prints the result object as the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics);

// Failure that ends a run without a result line (exit code 1).
[[noreturn]] void Fatal(const std::string& what);

}  // namespace perfbench
