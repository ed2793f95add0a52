#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#if __has_include("source_digest.h")
#include "source_digest.h"
#else
#define HSPERF_SOURCE_DIGEST "unknown"
#endif

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: hsperf --workload=NAME --seed=N "
               "--seconds=S --firmware-dir=DIR --work-dir=DIR "
               "[--hardsnapd=PATH] [--source-digest=HEX]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument " + arg);
    std::string key = arg.substr(2), value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else {
      if (i + 1 >= argc) Usage("missing value for --" + key);
      value = argv[++i];
    }
    try {
      if (key == "workload") a.workload = value;
      else if (key == "seed") a.seed = std::stoull(value, nullptr, 0);
      else if (key == "seconds") a.seconds = std::stod(value);
      else if (key == "trace") a.trace = std::stoi(value) != 0;
      else if (key == "firmware-dir") a.firmware_dir = value;
      else if (key == "hardsnapd") a.hardsnapd = value;
      else if (key == "work-dir") a.work_dir = value;
      else if (key == "source-digest") a.source_digest = value;
      else Usage("unknown option --" + key);
    } catch (const std::exception&) {
      Usage("bad value for --" + key + ": " + value);
    }
  }
  if (a.workload.empty() || a.firmware_dir.empty() || a.work_dir.empty())
    Usage("--workload, --firmware-dir and --work-dir are required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

const char* CompiledSourceDigest() { return HSPERF_SOURCE_DIGEST; }

double PeakRssMb(const std::string& pid) {
  // VmHWM belongs to the current program image; getrusage's ru_maxrss
  // would also carry the peak of the launcher that exec'd into us.
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double m = Median(v);
    return {m, m};
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles' default 'exclusive' method, step for step.
  const long n = static_cast<long>(v.size());
  auto at = [&](long i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * (n + 1) - j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  return {at(1), at(3)};
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "" : ", ") + std::string("\"") + name +
           "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(1);
}

}  // namespace perfbench
