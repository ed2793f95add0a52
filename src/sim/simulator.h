// Cycle-accurate netlist simulator (the repo's Verilator stand-in).
//
// A Simulator owns the full state of one elaborated Design:
//   * one 64-bit lane per signal (inputs, wires, regs),
//   * one word vector per memory.
//
// Execution model (two-phase, single clock domain):
//   Eval()  — settle combinational logic: evaluate comb assignments in
//             topological order. Idempotent; called automatically by the
//             public API whenever inputs changed.
//   Tick(n) — run n clock cycles: for each cycle, Eval(), then compute all
//             flip-flop next-values and memory writes against the settled
//             pre-edge state, then commit them atomically (non-blocking
//             assignment semantics), then Eval() again so outputs reflect
//             the post-edge state.
//
// Evaluation is compiled and change-driven. Create() compiles the netlist
// once into a flat tape of operations over one value-slot array (signals,
// then constants, then temporaries; shared subtrees compiled once). Each
// comb assign, flop `next` and memory write port owns a contiguous *cone*
// of that tape, and every signal and memory lists the cones that read it.
// Whenever a signal or memory word actually changes (a poke, a clock
// commit, a restore, a comb target settling to a new value) its readers
// are marked, and Eval()/Tick() run only the marked cones; flops and write
// ports keep their cached next values otherwise. The result is bit-for-bit
// the full evaluation (sim_test's differential tests hold it to that) and
// the modeled cost is unchanged: cycle_count() and every target's virtual
// clock count cycles, not host work. Host cost per cycle follows activity:
// an idle SoC re-runs almost nothing, busy accelerators re-run their cones
// (EXPERIMENTS.md E2 has the rates).
//
// Full visibility/controllability (the property the paper's simulator
// target provides): any signal or memory word can be peeked or poked by
// name at any time, and DumpState()/RestoreState() capture exactly the
// architectural state (flip-flops + memories) — the same bits the scan
// chain extracts on the FPGA target.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rtl/ir.h"
#include "sim/delta.h"

namespace hardsnap::sim {

// Architectural state of a design: flip-flop values (indexed by flop order
// in the Design) and memory contents (indexed by memory id). This is the
// canonical "hardware snapshot" payload; the scan chain and the simulator
// both produce/consume it, which is what makes cross-target state transfer
// possible (paper Sec. III-B "multi-target orchestration").
struct HardwareState {
  std::vector<uint64_t> flops;                // one entry per FlipFlop
  std::vector<std::vector<uint64_t>> memories;  // [memory id][word]

  bool operator==(const HardwareState&) const = default;

  // Total architectural bits (matches DesignStats::state_bits()).
  size_t CountBits(const rtl::Design& d) const;
};

class Simulator {
 public:
  // Compiles the design: levelizes combinational assignments and builds
  // the evaluation tape and its cones. Fails on combinational cycles. The
  // simulator keeps its own copy of the design, so the argument may be a
  // temporary.
  static Result<Simulator> Create(const rtl::Design& design);

  const rtl::Design& design() const { return design_; }

  // --- stimulus ------------------------------------------------------------
  Status PokeInput(const std::string& name, uint64_t value);
  Status PokeInput(rtl::SignalId id, uint64_t value);

  // Advance one or more clock cycles. Reset is just an input: drive it
  // with PokeInput and Tick.
  void Tick(unsigned cycles = 1);

  // Settle combinational logic without a clock edge (e.g. to observe a
  // combinational output after changing an input mid-cycle). Evaluation is
  // lazy: pokes only mark the netlist dirty and the next observation or
  // clock edge settles it, so bursts of pokes cost one evaluation.
  void Eval() const;

  // Convenience: assert the design's reset input for `cycles` cycles.
  Status Reset(unsigned cycles = 2);

  // --- full visibility -----------------------------------------------------
  Result<uint64_t> Peek(const std::string& name) const;
  uint64_t PeekId(rtl::SignalId id) const {
    Eval();
    return values_[id];
  }
  Result<uint64_t> PeekMemory(const std::string& name, unsigned index) const;

  // Full controllability: overwrite a register or memory word. Poking a
  // wire is rejected (it would be overwritten by Eval and indicates a
  // test bug).
  Status PokeRegister(const std::string& name, uint64_t value);
  Status PokeMemory(const std::string& name, unsigned index, uint64_t value);

  // --- snapshotting --------------------------------------------------------
  HardwareState DumpState() const;
  // Overwrites the architectural state. Values are truncated to register
  // and memory width. Only words that actually differ from the live state
  // are written (restoring a sibling of the current state touches O(diff)
  // words), and the call establishes a new dirty-tracking sync point (see
  // below).
  Status RestoreState(const HardwareState& state);

  // Emulates `cycles` clock edges whose only architectural effect is to
  // load every flip-flop from state.flops and each memory listed in
  // `memories` from state.memories, as a scan pass over a chain that holds
  // every flip-flop does. Values are truncated to register and memory
  // width; a chunk is marked dirty only when one of its words changes (as
  // clock commits and pokes mark it) and no sync point is established.
  // `state` must have the design's shape.
  void LoadClocked(const HardwareState& state,
                   const std::vector<rtl::MemoryId>& memories,
                   uint64_t cycles);

  // --- delta snapshotting --------------------------------------------------
  // The simulator tracks which kChunkWords-sized chunks of architectural
  // state changed since the last *sync point*. Sync points are:
  // construction, CaptureDelta(), RestoreDelta(), RestoreState(), and
  // MarkSynced(). Flop commits, memory writes, and register/memory pokes
  // mark chunks dirty only when a value actually changes.
  //
  // Captures the chunks dirtied since the last sync point as a delta
  // against that point's state, then starts a new sync point. Cost is
  // O(dirty chunks), not O(design). At construction everything is dirty,
  // so the first capture is a full baseline.
  StateDelta CaptureDelta();
  // Restores the state `delta` away from the last sync point: applies the
  // delta's chunks and reverts any other chunks dirtied since the sync
  // point. When delta.base_hash is set it is checked against the sync
  // point's state. Starts a new sync point at the restored state.
  Status RestoreDelta(const StateDelta& delta);
  // Declares the current live state a sync point without capturing.
  void MarkSynced();
  const DeltaStats& delta_stats() const { return delta_stats_; }

  // Cycles executed since construction (not part of architectural state).
  uint64_t cycle_count() const { return cycle_count_; }

 private:
  // One tape operation: values_[dst] = op(values_[a], values_[b],
  // values_[c]) at result width `width`; `aw`/`bw` are the widths of the
  // first two arguments. A memory read takes the memory id in `b`, a slice
  // its low bit in `c`.
  struct TapeOp {
    uint8_t code;  // rtl::Op, or kConcat2
    uint8_t width, aw, bw;
    uint32_t dst, a, b, c;
  };
  // A cone: the ops [begin, end) computing one root. Comb cones write
  // values_[root] to signal `target`; flop cones cache it as the next value
  // of `target`; a write port's cone computes its enable (root) and the
  // address and data slots in its Port.
  struct Cone {
    uint32_t begin = 0, end = 0;
    uint32_t root = 0;
    uint32_t target = 0;
    uint64_t mask = 0;  // width mask of the target
  };
  struct Port {
    rtl::MemoryId memory = 0;
    uint32_t addr = 0, data = 0;  // slots
    uint64_t mask = 0;            // memory word width mask
    // Cached at the last evaluation of the port's cone.
    bool enabled = false;
    uint64_t addr_value = 0, data_value = 0;
  };

  explicit Simulator(const rtl::Design& design);

  Status Compile();
  uint32_t CompileExpr(rtl::ExprId e, std::vector<int32_t>* slot_of);
  uint32_t Emit(uint8_t code, unsigned width, unsigned aw, unsigned bw,
                uint32_t a, uint32_t b, uint32_t c);
  void RunCone(uint32_t cone) const;
  // Marks every cone that reads signal `node` (or memory node -
  // num_signals()) for re-evaluation.
  void MarkReaders(uint32_t node) const;
  void MarkMemoryReaders(rtl::MemoryId m) const {
    MarkReaders(static_cast<uint32_t>(design_.signals().size() + m));
  }
  template <typename Fn>
  void DrainDirty(uint32_t lo, uint32_t hi, Fn fn) const;
  void CommitEdge();

  rtl::Design design_;
  // Value slots: one per signal, then constants, then tape temporaries.
  // Eval() is conceptually const (it completes the observable state).
  mutable std::vector<uint64_t> values_;
  mutable bool dirty_ = true;  // some comb cone may be marked
  std::vector<std::vector<uint64_t>> memories_;  // per memory
  std::vector<TapeOp> tape_;
  // Comb cones in topological order, then one per flop, then one per
  // write port.
  std::vector<Cone> cones_;
  std::vector<Port> ports_;
  uint32_t num_comb_ = 0;
  std::vector<uint64_t> flop_next_;  // cached next value per flop
  // Readers per signal, then per memory: cones_ indices in
  // fanout_[fanout_begin_[n], fanout_begin_[n + 1]).
  std::vector<uint32_t> fanout_begin_;
  std::vector<uint32_t> fanout_;
  mutable std::vector<uint64_t> cone_dirty_;  // bit per cone
  uint64_t cycle_count_ = 0;

  // --- dirty-state change tracking --------------------------------------
  // Shadow copy of the architectural state at the last sync point, plus
  // per-chunk dirty bitmaps (flop space + one per memory).
  std::vector<int32_t> flop_of_signal_;  // SignalId -> flop index, -1 none
  HardwareState shadow_;
  ChunkBitmap flop_dirty_;
  std::vector<ChunkBitmap> mem_dirty_;
  DeltaStats delta_stats_;
};

}  // namespace hardsnap::sim
