// Scan-chain controller: drives the serial chain inserted by
// InsertScanChain to save/restore hardware state.
//
// This is the software model of the paper's on-fabric snapshot "IP"
// (Sec. III-C): it owns the scan_enable/scan_in/scan_out pins and the
// per-memory test ports of an *instrumented* design and implements:
//
//   SaveRestore(new) -> old   one full pass: while the new state shifts in
//                             through scan_in, the old state drains out of
//                             scan_out. Cost: total_bits shift cycles +
//                             total_mem_words port cycles.
//   Save() -> state           non-destructive: scan_out is looped back into
//                             scan_in, so after exactly total_bits cycles
//                             the registers hold their original values.
//   Restore(state)            one pass, discarding the outgoing state.
//
// The controller operates on a Simulator executing the instrumented
// netlist. The emulated-FPGA target wraps this controller and charges the
// fabric-clock virtual time; the cycle counts here are therefore exactly
// the paper's scan-chain latency model (linear in state bits).
//
// Host emulation of a pass comes in two forms with identical results:
//
//   bit-serial   (SaveSerial/SaveRestoreSerial) clocks the netlist once
//                per shifted bit and per memory word, exactly as the
//                fabric does.
//   word-level   (Save/Restore/SaveRestore when the chain holds every
//                flip-flop) reads and writes simulator storage directly
//                and advances the cycle counter by PassCycles(). With
//                every flop chained, nothing but the chain and the test
//                ports can change state during a pass (shift mode and
//                scan_hold gate every functional flop update and memory
//                write), so the pass reduces to "swap chained flops and
//                ported memories": same flop and memory values (truncated
//                to width as the serial pins truncate), same dirty chunks,
//                same cycle count and the same final pin values.
//
// Scoped instrumentation caveat: flip-flops outside the instrumented scope
// keep running functionally during the shift pass (their inputs see
// shifting garbage), just like on a real part. Only chained state is
// captured/restored, and only the bit-serial pass reproduces what the
// unchained flops do meanwhile, so scoped chains always take it.
//
// Pin contract: between passes scan_hold and every scan_<m>_en/_wen rest
// at 0, which is how every pass leaves them. A caller that leaves them
// otherwise gets the bit-serial pass, which reproduces whatever those
// pins then do.
#pragma once

#include <vector>

#include "common/status.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

namespace hardsnap::scanchain {

class ScanController {
 public:
  // `sim` must execute the instrumented design the map was produced for.
  // Compiles the pass plan (pin ids, chain coverage) in O(slots + ports);
  // no pass runs here.
  ScanController(sim::Simulator* sim, const ScanChainMap& map);

  // Cycle cost of one full save/restore pass (registers + memories).
  uint64_t PassCycles() const {
    return map_->total_bits + map_->total_mem_words;
  }

  // True when the chain holds every flip-flop of the design, so that
  // Save/Restore/SaveRestore emulate the pass word-level.
  bool word_level() const { return word_level_; }

  // Shift `new_state` in while capturing the outgoing state.
  // `new_state` must have the shape of the instrumented design's state.
  Result<sim::HardwareState> SaveRestore(const sim::HardwareState& new_state);

  // Capture the current state without disturbing it (loopback shifting).
  Result<sim::HardwareState> Save();

  // Load `state`, discarding whatever the hardware held.
  Status Restore(const sim::HardwareState& state);

  // The bit-serial pass: one netlist clock per shifted bit and per memory
  // word. Exact for every chain; the test oracle for the word-level pass.
  Result<sim::HardwareState> SaveRestoreSerial(
      const sim::HardwareState& new_state);
  Result<sim::HardwareState> SaveSerial();

 private:
  // Pin ids of one memory test port, parallel to map_->mem_ports.
  struct PortPins {
    rtl::SignalId en, wen, addr, wdata, rdata;
  };

  Status CheckShape(const sim::HardwareState& st) const;
  // Whether this pass runs word-level: the chain holds every flop and the
  // pins rest as the pin contract says (see above).
  bool UseWordLevel() const;
  // Word-level pass: captures the outgoing state into `capture` unless it
  // is null, loads `load` (null: a loopback save, which reloads what it
  // captured) and leaves the pins where the bit-serial pass leaves them.
  Status WordLevelPass(const sim::HardwareState* load,
                       sim::HardwareState* capture);

  sim::Simulator* sim_;
  const ScanChainMap* map_;
  rtl::SignalId scan_enable_;
  rtl::SignalId scan_in_;
  rtl::SignalId scan_out_;
  rtl::SignalId scan_hold_;
  std::vector<PortPins> ports_;
  std::vector<rtl::MemoryId> ported_;    // memories with a test port
  std::vector<rtl::MemoryId> unported_;  // read back as zeros
  bool word_level_ = false;
};

}  // namespace hardsnap::scanchain
