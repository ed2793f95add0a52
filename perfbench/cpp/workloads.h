// The three benchmark workloads. Each repeats one identical, seeded unit
// of work (one fuzz campaign, or one symbolic exploration) through the
// program's public entry points and checks every unit's outputs against
// values the benchmark computes itself.
//
//   fuzz-sim     2-worker snapshot-reset FuzzCampaign, in-process
//                SimulatorTargets
//   fuzz-remote  the same campaign, each worker on a RemoteTarget session
//                of a hardsnapd built from the checkout (Unix socket)
//   symex-fpga   core::Session::Run on the emulated FPGA, one thread
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bus/target.h"
#include "campaign/campaign.h"
#include "common/status.h"
#include "core/session.h"
#include "rtl/ir.h"
#include "symex/executor.h"
#include "util.h"
#include "vm/assembler.h"

namespace perfbench {

// What the traced binary plugs into a workload; hsperf passes none.
struct Hooks {
  // Wraps each target a fuzz campaign is handed, inside its target
  // factory (called on the worker's thread).
  std::function<std::unique_ptr<hardsnap::bus::HardwareTarget>(
      std::unique_ptr<hardsnap::bus::HardwareTarget>)>
      wrap_target;
  // Builds one symbolic exploration (a0 symbolic) with the same wiring
  // Session uses; the returned callable runs it. Replaces Session.
  using SymexRun = std::function<hardsnap::Result<hardsnap::symex::Report>()>;
  std::function<hardsnap::Result<SymexRun>(
      const hardsnap::core::SessionConfig&, const hardsnap::vm::FirmwareImage&)>
      make_symex;
};

// The deterministic outcome of one unit. Equal for every unit of a run,
// traced or not; host-speed changes must leave it identical.
struct UnitCounts {
  uint64_t runs = 0;            // fuzz execs or explored paths
  uint64_t instructions = 0;    // firmware instructions executed
  uint64_t ctx_switches = 0;    // hardware context switches (symex)
  uint64_t solver_queries = 0;  // (symex)
  uint64_t edges = 0;           // global edge coverage (fuzz)
  uint64_t snapshot_restores = 0;  // harness resets (fuzz)
  uint64_t delta_restores = 0;     // resets served by deltas (fuzz)
  uint64_t snapshot_bytes = 0;  // snapshot payload bytes on the host link
  int64_t modeled_ps = 0;       // modeled device time over all runs

  bool operator==(const UnitCounts&) const = default;
  std::string ToString() const;
};

struct UnitOutcome {
  double seconds = 0;      // host time of the unit
  UnitCounts counts;
  uint64_t attempted = 0;  // operations: the unit's runs plus any probe
  uint64_t failed = 0;     // operations that hit a hardware error or
                           // failed their check
  std::vector<std::string> errors;  // failed checks: the run is not correct
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Everything before the first unit: SoC compile, target creation,
  // firmware assembly, harness snapshot, daemon start-up.
  virtual hardsnap::Status Setup(const Hooks* hooks) = 0;

  // One timed unit plus its per-unit checks.
  virtual UnitOutcome RunUnit(const Hooks* hooks) = 0;

  // Checks that run the program again (replays, reference campaign,
  // concrete re-execution); after the timed loop. Returns failures.
  virtual std::vector<std::string> FinalChecks() = 0;

  // Stops helper processes; adds their peak RSS (MiB) to *helper_rss_mb.
  virtual hardsnap::Status Finish(double* helper_rss_mb) = 0;

  virtual const char* run_noun() const = 0;  // "exec" or "path"
  // "unix:..." of the hardsnapd serving the workload, or empty.
  virtual std::string daemon_address() const { return {}; }
};

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Args& args);

}  // namespace perfbench
