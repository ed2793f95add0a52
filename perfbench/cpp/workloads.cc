#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "bus/sim_target.h"
#include "common/rng.h"
#include "daemon.h"
#include "net/address.h"
#include "periph/periph.h"
#include "remote/remote_target.h"
#include "rtl/elaborate.h"
#include "spans.h"
#include "vm/cpu.h"

namespace perfbench {

using namespace hardsnap;

namespace {

// --- workload shapes ------------------------------------------------------
// Fuzz campaigns: 2 workers, each with half of kFuzzExecsPerUnit execs of
// 8-byte inputs. The budget makes one campaign ~0.5 s of host time.
constexpr unsigned kFuzzWorkers = 2;
constexpr uint64_t kFuzzExecsPerUnit = 160;
constexpr unsigned kFuzzInputSize = 8;
constexpr uint64_t kFuzzMaxInstructions = 5000;

// fuzz-remote's per-unit probe: one exec of a fixed seed, on a daemon
// session and on an in-process target.
constexpr uint64_t kProbeSeed = 0x70726f6265;

// Symbolic exploration: b = 4 symbolic branches, 16 paths.
constexpr unsigned kSymexBranches = 4;
constexpr uint32_t kSymexPaths = 1u << kSymexBranches;
constexpr uint64_t kSymexWarmupMax = 64;
constexpr uint64_t kConcreteMaxInstructions = 100000;

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Assembles `main_file` followed by the shared known-answer routines.
Result<vm::FirmwareImage> AssembleFirmware(const std::string& dir,
                                           const std::string& main_file) {
  HS_ASSIGN_OR_RETURN(std::string main_src, ReadFile(dir + "/" + main_file));
  HS_ASSIGN_OR_RETURN(std::string kat_src, ReadFile(dir + "/kat.s"));
  return vm::Assemble(main_src + "\n" + kat_src);
}

Result<uint32_t> Symbol(const vm::FirmwareImage& image,
                        const std::string& name) {
  auto it = image.symbols.find(name);
  if (it == image.symbols.end())
    return NotFound("firmware has no label '" + name + "'");
  return it->second;
}

Status PatchWord(vm::FirmwareImage* image, uint32_t addr, uint32_t value) {
  const uint64_t off = static_cast<uint64_t>(addr) - image->base;
  if (addr < image->base || off + 4 > image->bytes.size())
    return OutOfRange("patch outside the firmware image");
  for (int i = 0; i < 4; ++i)
    image->bytes[off + i] = static_cast<uint8_t>(value >> (8 * i));
  return Status::Ok();
}

Result<std::unique_ptr<rtl::Design>> CompileSoc() {
  Span span("rtl.compile");
  auto design =
      rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
  if (!design.ok()) return design.status();
  return std::make_unique<rtl::Design>(std::move(design).value());
}

// ===========================================================================
// fuzz-sim / fuzz-remote

// Everything a worker's campaign result must reproduce exactly.
struct WorkerSignature {
  uint64_t execs, instructions, corpus, edges, crashes, restores,
      delta_restores, snapshot_bytes;
  int64_t reset_ps, hw_ps, modeled_ps;
  bool operator==(const WorkerSignature&) const = default;

  // The same firmware work, leaving aside the modeled-cost and byte
  // accounting (which the fuzz-remote probe checks on its own).
  bool SameWork(const WorkerSignature& o) const {
    return execs == o.execs && instructions == o.instructions &&
           corpus == o.corpus && edges == o.edges && crashes == o.crashes &&
           restores == o.restores && delta_restores == o.delta_restores;
  }
};

bool SameWork(const std::vector<WorkerSignature>& a,
              const std::vector<WorkerSignature>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!a[i].SameWork(b[i])) return false;
  return true;
}

WorkerSignature SignatureOf(const campaign::WorkerResult& w) {
  return {w.stats.execs,
          w.stats.total_instructions,
          w.stats.corpus_size,
          w.stats.edges_covered,
          w.stats.crashes,
          w.stats.snapshot_restores,
          w.stats.delta_restores,
          w.stats.snapshot_bytes_copied,
          w.stats.reset_overhead.picos(),
          w.stats.hw_time.picos(),
          w.modeled_time.picos()};
}

std::string Describe(const std::vector<WorkerSignature>& sigs) {
  std::string out;
  for (size_t i = 0; i < sigs.size(); ++i) {
    const WorkerSignature& s = sigs[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "[w%zu execs=%llu instr=%llu corpus=%llu edges=%llu "
                  "crashes=%llu restores=%llu delta=%llu bytes=%llu "
                  "reset=%lldps hw=%lldps modeled=%lldps]",
                  i, (unsigned long long)s.execs,
                  (unsigned long long)s.instructions,
                  (unsigned long long)s.corpus, (unsigned long long)s.edges,
                  (unsigned long long)s.crashes,
                  (unsigned long long)s.restores,
                  (unsigned long long)s.delta_restores,
                  (unsigned long long)s.snapshot_bytes, (long long)s.reset_ps,
                  (long long)s.hw_ps, (long long)s.modeled_ps);
    out += buf;
  }
  return out;
}

class FuzzWorkload : public Workload {
 public:
  FuzzWorkload(const Args& args, bool remote) : args_(args), remote_(remote) {}

  Status Setup(const Hooks* hooks) override {
    {
      Span span("firmware.assemble");
      HS_ASSIGN_OR_RETURN(image_,
                          AssembleFirmware(args_.firmware_dir, "fuzz_parser.s"));
    }
    HS_ASSIGN_OR_RETURN(overflow_pc_, Symbol(image_, "overflow_store"));
    HS_ASSIGN_OR_RETURN(kat_fail_pc_, Symbol(image_, "kat_fail"));
    HS_ASSIGN_OR_RETURN(soc_, CompileSoc());

    options_.workers = kFuzzWorkers;
    options_.total_execs = kFuzzExecsPerUnit;
    options_.seed = args_.seed;
    options_.fuzz.input_size = kFuzzInputSize;
    options_.fuzz.max_instructions_per_exec = kFuzzMaxInstructions;
    HS_RETURN_IF_ERROR(campaign::ValidateFuzzCampaignOptions(options_));

    if (remote_) {
      Span span("daemon.start");
      HS_RETURN_IF_ERROR(daemon_.Start(args_.hardsnapd, args_.work_dir));
      HS_ASSIGN_OR_RETURN(address_, net::Address::Parse(daemon_.address()));
    }

    // Harness snapshot on one target made the way the workers make theirs:
    // proves the firmware boots and the accelerators answer before the
    // first unit.
    HS_ASSIGN_OR_RETURN(auto target, MakeTarget(hooks));
    fuzz::FuzzOptions fopts = options_.fuzz;
    fopts.seed = DeriveWorkerSeed(options_.seed, 0);
    fuzz::Fuzzer probe(target.get(), image_, fopts);
    Span span("fuzz.harness_snapshot");
    return probe.EnsureSnapshotReady();
  }

  UnitOutcome RunUnit(const Hooks* hooks) override {
    UnitOutcome out;
    campaign::FuzzCampaignOptions opts = options_;
    if (remote_ || (hooks && hooks->wrap_target))
      opts.target_factory = [this, hooks](unsigned, uint64_t) {
        return MakeTarget(hooks);
      };
    campaign::FuzzCampaign campaign(*soc_, image_, opts);
    const double t0 = Now();
    Result<campaign::CampaignReport> report = Internal("not run");
    {
      Span span("campaign.run");
      report = campaign.Run();
    }
    out.seconds = Now() - t0;
    out.attempted = kFuzzExecsPerUnit;
    if (!report.ok()) {
      out.failed = kFuzzExecsPerUnit;
      out.errors.push_back("campaign failed: " + report.status().ToString());
      return out;
    }
    const campaign::CampaignReport& r = report.value();

    std::vector<WorkerSignature> sigs;
    uint64_t execs = 0;
    for (const campaign::WorkerResult& w : r.per_worker) {
      sigs.push_back(SignatureOf(w));
      execs += w.stats.execs;
      out.counts.instructions += w.stats.total_instructions;
      out.counts.snapshot_restores += w.stats.snapshot_restores;
      out.counts.delta_restores += w.stats.delta_restores;
      out.counts.snapshot_bytes += w.stats.snapshot_bytes_copied;
      out.counts.modeled_ps += w.modeled_time.picos();
    }
    out.counts.runs = execs;
    out.counts.edges = r.edges_covered;

    // Per-unit checks.
    if (execs != kFuzzExecsPerUnit || r.execs != kFuzzExecsPerUnit)
      out.errors.push_back("per-worker execs sum to " + std::to_string(execs) +
                           ", requested " + std::to_string(kFuzzExecsPerUnit));
    if (r.reprovisions != 0)
      out.errors.push_back("campaign re-provisioned " +
                           std::to_string(r.reprovisions) + " worker slices");
    // Whether 160 execs reach the overflow depends on the seed (seed 206
    // does not), so a unit without findings is not an error.
    for (const campaign::CampaignFinding& f : r.findings) {
      const std::vector<uint8_t>& in = f.crash.input;
      const bool overflow = in.size() >= 2 && (in[0] & 1) && in[1] > 16;
      if (f.crash.pc == kat_fail_pc_)
        out.errors.push_back("an exec reached the known-answer trap");
      else if (f.crash.pc != overflow_pc_ || !overflow)
        out.errors.push_back("finding at pc " + std::to_string(f.crash.pc) +
                             " is not the planted overflow");
      findings_.emplace(
          std::make_tuple(f.worker_seed, f.execs_at_find, f.crash.pc,
                          f.crash.reason),
          f);
    }
    if (!first_sigs_) first_sigs_ = sigs;
    else if (sigs != *first_sigs_)
      out.errors.push_back("per-worker results differ between units: " +
                           Describe(sigs) + " vs " + Describe(*first_sigs_));
    if (!out.errors.empty()) out.failed = kFuzzExecsPerUnit;
    if (remote_) {
      ++out.attempted;
      if (!ProbeWireAccounting()) ++out.failed;
    }
    return out;
  }

  std::vector<std::string> FinalChecks() override {
    std::vector<std::string> errors;
    // Every distinct finding replays single-threaded to the same crash.
    for (const auto& [key, finding] : findings_) {
      const auto& [seed, execs, pc, reason] = key;
      Span span("campaign.replay_finding");
      auto crash = campaign::ReplayFinding(*soc_, image_, options_, finding);
      if (!crash.ok())
        errors.push_back("finding at pc " + std::to_string(pc) +
                         " does not replay: " + crash.status().ToString());
      else if (crash.value().pc != pc || crash.value().reason != reason)
        errors.push_back("finding at pc " + std::to_string(pc) +
                         " replays to pc " + std::to_string(crash.value().pc) +
                         " (" + crash.value().reason + ")");
    }
    if (remote_ && first_sigs_) {
      // The remote campaign must do the same work as an in-process one
      // with the same seed, worker by worker; its modeled time and bytes
      // are the probe's to check. Which worker is credited with a finding
      // is still schedule-dependent, so findings are compared by pc only.
      Span span("campaign.reference_run");
      campaign::FuzzCampaign local(*soc_, image_, options_);
      auto report = local.Run();
      if (!report.ok()) {
        errors.push_back("in-process reference campaign failed: " +
                         report.status().ToString());
      } else {
        std::vector<WorkerSignature> sigs;
        for (const auto& w : report.value().per_worker)
          sigs.push_back(SignatureOf(w));
        if (!SameWork(sigs, *first_sigs_))
          errors.push_back("remote campaign differs from in-process: " +
                           Describe(*first_sigs_) + " vs " + Describe(sigs));
        std::set<uint32_t> local_pcs, remote_pcs;
        for (const auto& f : report.value().findings)
          local_pcs.insert(f.crash.pc);
        for (const auto& [key, f] : findings_) remote_pcs.insert(f.crash.pc);
        if (local_pcs != remote_pcs)
          errors.push_back("remote findings differ from in-process ones");
      }
    }
    return errors;
  }

  Status Finish(double* helper_rss_mb) override {
    if (!remote_) return Status::Ok();
    Status s = daemon_.Stop();
    *helper_rss_mb += daemon_.peak_rss_mb();
    return s;
  }

  const char* run_noun() const override { return "exec"; }
  std::string daemon_address() const override { return daemon_.address(); }

 private:
  // One exec with a fixed seed on a fresh daemon session and on a fresh
  // in-process target: true when the modeled time, reset overhead and
  // snapshot bytes agree, i.e. the wire changes no accounting. Fails on
  // every unit while the program's remote accounting differs (see the
  // FOUND line in CHANGES.md); the result counts as one operation.
  bool ProbeWireAccounting() {
    fuzz::FuzzOptions fopts = options_.fuzz;
    fopts.seed = kProbeSeed;
    fuzz::FuzzStats stats[2];
    for (int remote = 0; remote < 2; ++remote) {
      std::unique_ptr<bus::HardwareTarget> target;
      if (remote) {
        auto t = remote::RemoteTarget::Connect(address_);
        if (!t.ok()) return false;
        target = std::move(t).value();
      } else {
        auto t = bus::SimulatorTarget::Create(*soc_, options_.simulator_options);
        if (!t.ok()) return false;
        target = std::move(t).value();
      }
      fuzz::Fuzzer fuzzer(target.get(), image_, fopts);
      auto r = fuzzer.Run(1);
      if (!r.ok()) return false;
      stats[remote] = r.value();
    }
    const fuzz::FuzzStats& l = stats[0];
    const fuzz::FuzzStats& r = stats[1];
    const bool same = l.total_instructions == r.total_instructions &&
                      l.hw_time == r.hw_time &&
                      l.reset_overhead == r.reset_overhead &&
                      l.snapshot_bytes_copied == r.snapshot_bytes_copied;
    if (!same && !probe_reported_) {
      probe_reported_ = true;
      std::fprintf(stderr,
                   "perfbench: probe: one exec costs %lld ps modeled "
                   "(reset %lld ps, %llu snapshot bytes) in-process but "
                   "%lld ps (reset %lld ps, %llu bytes) over hardsnapd\n",
                   (long long)l.hw_time.picos(),
                   (long long)l.reset_overhead.picos(),
                   (unsigned long long)l.snapshot_bytes_copied,
                   (long long)r.hw_time.picos(),
                   (long long)r.reset_overhead.picos(),
                   (unsigned long long)r.snapshot_bytes_copied);
    }
    return same;
  }

  // One worker target: an in-process SimulatorTarget, or a session on the
  // daemon; wrapped by the traced run's proxy when it asks to.
  Result<std::unique_ptr<bus::HardwareTarget>> MakeTarget(const Hooks* hooks) {
    std::unique_ptr<bus::HardwareTarget> target;
    if (remote_) {
      Span span("remote.connect");
      auto t = remote::RemoteTarget::Connect(address_);
      if (!t.ok()) return t.status();
      target = std::move(t).value();
    } else {
      Span span("target.create");
      auto t = bus::SimulatorTarget::Create(*soc_, options_.simulator_options);
      if (!t.ok()) return t.status();
      target = std::move(t).value();
    }
    if (hooks && hooks->wrap_target)
      target = hooks->wrap_target(std::move(target));
    return target;
  }

  Args args_;
  bool remote_;
  vm::FirmwareImage image_;
  uint32_t overflow_pc_ = 0;
  uint32_t kat_fail_pc_ = 0;
  std::unique_ptr<rtl::Design> soc_;
  campaign::FuzzCampaignOptions options_;
  Daemon daemon_;
  net::Address address_;
  bool probe_reported_ = false;
  std::optional<std::vector<WorkerSignature>> first_sigs_;
  // Distinct findings across units, for the replay check.
  std::map<std::tuple<uint64_t, uint64_t, uint32_t, std::string>,
           campaign::CampaignFinding>
      findings_;
};

// ===========================================================================
// symex-fpga

class SymexWorkload : public Workload {
 public:
  explicit SymexWorkload(const Args& args) : args_(args) {}

  Status Setup(const Hooks* hooks) override {
    {
      Span span("firmware.assemble");
      HS_ASSIGN_OR_RETURN(image_,
                          AssembleFirmware(args_.firmware_dir, "symex_tree.s"));
    }
    HS_ASSIGN_OR_RETURN(planted_pc_, Symbol(image_, "planted_bug"));
    HS_ASSIGN_OR_RETURN(kat_fail_pc_, Symbol(image_, "kat_fail"));
    HS_ASSIGN_OR_RETURN(const uint32_t cfg, Symbol(image_, "cfg"));
    uint64_t x = args_.seed;
    const uint64_t r = SplitMix(&x);
    bug_pattern_ = static_cast<uint32_t>(r % (1u << kSymexBranches));
    const uint32_t warmup = static_cast<uint32_t>((r >> 16) % kSymexWarmupMax);
    HS_RETURN_IF_ERROR(PatchWord(&image_, cfg, kSymexBranches));
    HS_RETURN_IF_ERROR(PatchWord(&image_, cfg + 4, bug_pattern_));
    HS_RETURN_IF_ERROR(PatchWord(&image_, cfg + 8, warmup));

    config_.target = core::SessionConfig::Target::kFpga;
    // Depth-first: one context switch per fork and per finished path, so
    // a unit is ~4 * 2^b scan passes.
    config_.exec.search = symex::SearchStrategy::kDfs;
    return PrepareUnit(hooks);
  }

  UnitOutcome RunUnit(const Hooks* hooks) override {
    UnitOutcome out;
    out.attempted = kSymexPaths;
    Status prepared = PrepareUnit(hooks);  // untimed: fresh session
    if (!prepared.ok()) {
      out.failed = kSymexPaths;
      out.errors.push_back("session set-up failed: " + prepared.ToString());
      return out;
    }
    const double t0 = Now();
    Result<symex::Report> report = Internal("not run");
    {
      Span span("symex.run");
      report = next_();
    }
    out.seconds = Now() - t0;
    next_ = nullptr;
    session_.reset();
    if (!report.ok()) {
      out.failed = kSymexPaths;
      out.errors.push_back("exploration failed: " +
                           report.status().ToString());
      return out;
    }
    const symex::Report& rep = report.value();
    out.counts.runs = rep.paths_completed;
    out.counts.instructions = rep.instructions;
    out.counts.ctx_switches = rep.hw_context_switches;
    out.counts.solver_queries = rep.solver_queries;
    out.counts.snapshot_bytes = rep.snapshot_bytes_copied;
    out.counts.modeled_ps = rep.analysis_hw_time.picos();

    out.errors = CheckReport(rep);
    if (!first_report_) {
      first_report_ = rep;
      first_counts_ = out.counts;
    } else if (out.counts != first_counts_ ||
               rep.exit_codes != first_report_->exit_codes ||
               rep.test_cases.size() != first_report_->test_cases.size()) {
      out.errors.push_back("exploration differs between units: " +
                           out.counts.ToString() + " vs " +
                           first_counts_.ToString());
    }
    if (!out.errors.empty()) out.failed = kSymexPaths;
    return out;
  }

  std::vector<std::string> FinalChecks() override {
    std::vector<std::string> errors;
    if (!first_report_) return errors;
    // Re-run every test case concretely with vm::Cpu on a fresh simulator
    // target: it must end the way its path recorded.
    auto soc = CompileSoc();
    if (!soc.ok()) return {"SoC compile failed: " + soc.status().ToString()};
    const uint32_t mask = (1u << kSymexBranches) - 1;
    for (const symex::TestCase& tc : first_report_->test_cases) {
      Span span("check.concrete_rerun");
      auto it = tc.inputs.find("a0");
      if (it == tc.inputs.end()) {
        errors.push_back("test case without a0 (" + tc.origin + ")");
        continue;
      }
      const uint32_t a0 = static_cast<uint32_t>(it->second);
      auto target = bus::SimulatorTarget::Create(*soc.value());
      if (!target.ok() || !target.value()->ResetHardware().ok()) {
        errors.push_back("simulator target creation failed");
        continue;
      }
      vm::Cpu cpu(target.value().get());
      if (!cpu.LoadFirmware(image_).ok()) {
        errors.push_back("concrete firmware load failed");
        continue;
      }
      cpu.set_reg(10, a0);
      const vm::RunOutcome o = cpu.Run(kConcreteMaxInstructions);
      const uint32_t bits = a0 & mask;
      const std::string want_exit = "exit(" + std::to_string(bits) + ")";
      bool ok;
      if (bits == bug_pattern_)
        ok = o.status == vm::RunStatus::kBug && o.fault_pc == planted_pc_ &&
             tc.origin.rfind("out-of-bounds store", 0) == 0;
      else
        ok = o.status == vm::RunStatus::kExited && o.exit_code == bits &&
             tc.origin == want_exit;
      if (!ok)
        errors.push_back("test case a0=" + std::to_string(a0) + " recorded '" +
                         tc.origin + "' but re-runs to status " +
                         std::to_string(static_cast<int>(o.status)) +
                         " exit " + std::to_string(o.exit_code) + " pc " +
                         std::to_string(o.fault_pc));
    }
    return errors;
  }

  Status Finish(double*) override { return Status::Ok(); }

  const char* run_noun() const override { return "path"; }

 private:
  // Builds the next exploration outside the timed region: a fresh Session
  // (Session::Run is one-shot), or the traced run's equivalent wiring.
  Status PrepareUnit(const Hooks* hooks) {
    if (next_) return Status::Ok();
    if (hooks && hooks->make_symex) {
      HS_ASSIGN_OR_RETURN(next_, hooks->make_symex(config_, image_));
      return Status::Ok();
    }
    {
      Span span("session.create");
      HS_ASSIGN_OR_RETURN(session_, core::Session::Create(config_));
    }
    HS_RETURN_IF_ERROR(session_->LoadFirmware(image_));
    session_->MakeSymbolicRegister(10, "a0");
    next_ = [this] { return session_->Run(); };
    return Status::Ok();
  }

  std::vector<std::string> CheckReport(const symex::Report& rep) const {
    std::vector<std::string> errors;
    const uint32_t paths = kSymexPaths;
    if (rep.paths_completed != paths)
      errors.push_back("explored " + std::to_string(rep.paths_completed) +
                       " paths, expected " + std::to_string(paths));
    std::vector<uint32_t> want;
    for (uint32_t v = 0; v < paths; ++v)
      if (v != bug_pattern_) want.push_back(v);
    std::vector<uint32_t> got = rep.exit_codes;
    std::sort(got.begin(), got.end());
    if (got != want)
      errors.push_back("exit codes are not {0..2^b-1} minus the bug pattern");
    if (rep.bugs.size() != 1 || rep.bugs[0].pc != planted_pc_)
      errors.push_back("expected exactly the planted bug, got " +
                       std::to_string(rep.bugs.size()) + " bugs");
    for (const symex::Bug& b : rep.bugs) {
      if (b.pc == kat_fail_pc_)
        errors.push_back("a path reached the known-answer trap");
      auto it = b.test_case.inputs.find("a0");
      if (b.pc == planted_pc_ &&
          (it == b.test_case.inputs.end() ||
           (it->second & (paths - 1)) != bug_pattern_))
        errors.push_back("planted bug reached with the wrong branch pattern");
    }
    if (rep.test_cases.size() != paths)
      errors.push_back("expected one test case per path");
    return errors;
  }

  Args args_;
  vm::FirmwareImage image_;
  uint32_t planted_pc_ = 0;
  uint32_t kat_fail_pc_ = 0;
  uint32_t bug_pattern_ = 0;
  core::SessionConfig config_;
  std::unique_ptr<core::Session> session_;
  std::function<Result<symex::Report>()> next_;
  std::optional<symex::Report> first_report_;
  UnitCounts first_counts_;
};

}  // namespace

std::string UnitCounts::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "runs=%llu instr=%llu switches=%llu queries=%llu edges=%llu "
                "restores=%llu delta=%llu bytes=%llu modeled=%lldps",
                (unsigned long long)runs, (unsigned long long)instructions,
                (unsigned long long)ctx_switches,
                (unsigned long long)solver_queries, (unsigned long long)edges,
                (unsigned long long)snapshot_restores,
                (unsigned long long)delta_restores,
                (unsigned long long)snapshot_bytes, (long long)modeled_ps);
  return buf;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "fuzz-sim")
    return std::make_unique<FuzzWorkload>(args, false);
  if (args.workload == "fuzz-remote")
    return std::make_unique<FuzzWorkload>(args, true);
  if (args.workload == "symex-fpga")
    return std::make_unique<SymexWorkload>(args);
  return nullptr;
}

}  // namespace perfbench
