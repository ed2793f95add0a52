#include <gtest/gtest.h>

#include "common/rng.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "scanchain/scan_controller.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

namespace hardsnap::scanchain {
namespace {

rtl::Design Compile(const std::string& src) {
  auto r = rtl::CompileVerilog(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

sim::Simulator MustSim(const rtl::Design& d) {
  auto r = sim::Simulator::Create(d);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

constexpr const char* kMixedDesign = R"(
  module mixed(input clk, input rst, input [7:0] in, input we,
               input [3:0] waddr, output [15:0] out);
    reg [15:0] lfsr;
    reg [7:0] acc;
    reg flag;
    reg [7:0] mem [0:15];
    always @(posedge clk) begin
      if (rst) begin
        lfsr <= 16'hace1;
        acc <= 8'h00;
        flag <= 1'b0;
      end else begin
        lfsr <= {lfsr[14:0], lfsr[15] ^ lfsr[13] ^ lfsr[12] ^ lfsr[10]};
        acc <= acc + in;
        flag <= ~flag;
      end
      if (we) mem[waddr] <= in;
    end
    assign out = lfsr ^ {acc, 7'h00, flag};
  endmodule
)";

InstrumentedDesign MustInstrument(const rtl::Design& d,
                                  const ScanOptions& opts = {}) {
  auto r = InsertScanChain(d, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ScanPassTest, AddsScanPins) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_NE(inst.design.FindSignal("scan_enable"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_in"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_out"), rtl::kInvalidId);
}

TEST(ScanPassTest, ChainCoversAllRegisterBits) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_EQ(inst.map.total_bits, 16u + 8u + 1u);
  EXPECT_EQ(inst.map.slots.size(), 3u);
  EXPECT_EQ(inst.map.total_mem_words, 16u);
  ASSERT_EQ(inst.map.mem_ports.size(), 1u);
  EXPECT_EQ(inst.map.mem_ports[0].memory_name, "mem");
}

TEST(ScanPassTest, MemoryPortsAdded) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_NE(inst.design.FindSignal("scan_mem_en"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_addr"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_wdata"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_rdata"), rtl::kInvalidId);
}

TEST(ScanPassTest, OverheadReported) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  // Same number of flops, more expression nodes and signals.
  EXPECT_EQ(inst.map.instrumented_stats.num_flops,
            inst.map.original_stats.num_flops);
  EXPECT_GT(inst.map.instrumented_stats.num_expr_nodes,
            inst.map.original_stats.num_expr_nodes);
  EXPECT_GT(inst.map.instrumented_stats.num_signals,
            inst.map.original_stats.num_signals);
}

TEST(ScanPassTest, ReservedNameCollisionRejected) {
  auto d = Compile(R"(
    module m(input clk, input scan_enable, output y);
      assign y = scan_enable;
    endmodule
  )");
  EXPECT_FALSE(InsertScanChain(d).ok());
}

TEST(ScanPassTest, InstrumentedDesignValidates) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_TRUE(inst.design.Validate().ok());
}

// Property: with scan_enable=0 the instrumented design is cycle-for-cycle
// equivalent to the original (the paper's non-interference requirement).
class ScanEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanEquivalenceTest, FunctionalBehaviourUnchanged) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);

  auto ref = MustSim(d);
  auto dut = MustSim(inst.design);
  ASSERT_TRUE(ref.Reset().ok());
  ASSERT_TRUE(dut.Reset().ok());
  ASSERT_TRUE(dut.PokeInput("scan_enable", 0).ok());

  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int cycle = 0; cycle < 200; ++cycle) {
    uint64_t in = rng.Bits(8), we = rng.Bits(1), waddr = rng.Bits(4);
    for (auto* s : {&ref, &dut}) {
      ASSERT_TRUE(s->PokeInput("in", in).ok());
      ASSERT_TRUE(s->PokeInput("we", we).ok());
      ASSERT_TRUE(s->PokeInput("waddr", waddr).ok());
      s->Tick(1);
    }
    ASSERT_EQ(dut.Peek("out").value(), ref.Peek("out").value())
        << "diverged at cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanEquivalenceTest, ::testing::Range(0, 8));

TEST(ScanControllerTest, SaveMatchesSimulatorDump) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x5a).ok());
  ASSERT_TRUE(sim.PokeInput("we", 1).ok());
  ASSERT_TRUE(sim.PokeInput("waddr", 3).ok());
  sim.Tick(17);

  // Ground truth via the simulator's privileged access.
  auto truth = sim.DumpState();

  ScanController ctrl(&sim, inst.map);
  auto saved = ctrl.Save();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value().flops, truth.flops);
  EXPECT_EQ(saved.value().memories, truth.memories);
}

TEST(ScanControllerTest, SaveIsNonDestructive) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x11).ok());
  sim.Tick(9);
  auto before = sim.DumpState();

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Save().ok());
  auto after = sim.DumpState();
  EXPECT_EQ(before.flops, after.flops);
  EXPECT_EQ(before.memories, after.memories);
}

TEST(ScanControllerTest, RestoreLoadsState) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x77).ok());
  ASSERT_TRUE(sim.PokeInput("we", 1).ok());
  ASSERT_TRUE(sim.PokeInput("waddr", 9).ok());
  sim.Tick(31);
  auto golden = sim.DumpState();

  sim.Tick(50);  // drift away
  ASSERT_NE(sim.DumpState().flops, golden.flops);

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(golden).ok());
  auto now = sim.DumpState();
  EXPECT_EQ(now.flops, golden.flops);
  EXPECT_EQ(now.memories, golden.memories);
}

TEST(ScanControllerTest, SaveRestoreSwapsStates) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  sim.Tick(5);
  auto state_a = sim.DumpState();
  sim.Tick(23);
  auto state_b = sim.DumpState();

  // Hardware currently holds B; swap in A, should get B back out.
  ScanController ctrl(&sim, inst.map);
  auto out = ctrl.SaveRestore(state_a);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().flops, state_b.flops);
  EXPECT_EQ(sim.DumpState().flops, state_a.flops);
}

TEST(ScanControllerTest, RestoredStateResumesIdentically) {
  // After a scan-chain restore, execution must continue exactly as it
  // would have from the original state (the consistency property the
  // whole paper rests on).
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x2d).ok());
  sim.Tick(11);
  auto snap = sim.DumpState();

  std::vector<uint64_t> expected;
  for (int i = 0; i < 30; ++i) {
    sim.Tick(1);
    expected.push_back(sim.Peek("out").value());
  }

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(snap).ok());
  std::vector<uint64_t> replay;
  for (int i = 0; i < 30; ++i) {
    sim.Tick(1);
    replay.push_back(sim.Peek("out").value());
  }
  EXPECT_EQ(replay, expected);
}

TEST(ScanControllerTest, PassCyclesLinearInStateBits) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ScanController ctrl(&sim, inst.map);
  EXPECT_EQ(ctrl.PassCycles(), 25u + 16u);  // 25 FF bits + 16 memory words
}

TEST(ScanControllerTest, ScanShiftCostMeasuredInCycles) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  uint64_t before = sim.cycle_count();
  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Save().ok());
  EXPECT_EQ(sim.cycle_count() - before, ctrl.PassCycles());
}

TEST(ScanScopeTest, ScopedInstrumentationOnlyChainsPrefix) {
  auto d = Compile(R"(
    module leaf(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] state;
      always @(posedge clk) state <= d;
      assign q = state;
    endmodule
    module top(input clk, input [7:0] in, output [7:0] out);
      wire [7:0] mid;
      leaf u_a (.clk(clk), .d(in), .q(mid));
      leaf u_b (.clk(clk), .d(mid), .q(out));
    endmodule
  )");
  ScanOptions opts;
  opts.scope_prefix = "u_a.";
  auto inst = MustInstrument(d, opts);
  EXPECT_EQ(inst.map.total_bits, 8u);
  ASSERT_EQ(inst.map.slots.size(), 1u);
  EXPECT_EQ(inst.map.slots[0].signal_name, "u_a.state");
}

// Property test: random states shift in and out intact.
class ScanRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanRoundTripTest, RandomStateRoundTrips) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);

  sim::HardwareState target;
  target.flops.resize(inst.design.flops().size());
  for (size_t i = 0; i < target.flops.size(); ++i) {
    unsigned w = inst.design.signal(inst.design.flops()[i].q).width;
    target.flops[i] = rng.Bits(w);
  }
  target.memories.resize(inst.design.memories().size());
  for (size_t m = 0; m < target.memories.size(); ++m) {
    const auto& mem = inst.design.memories()[m];
    target.memories[m].resize(mem.depth);
    for (auto& word : target.memories[m]) word = rng.Bits(mem.width);
  }

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(target).ok());
  auto back = ctrl.Save();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().flops, target.flops);
  EXPECT_EQ(back.value().memories, target.memories);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanRoundTripTest, ::testing::Range(0, 8));

// --- word-level pass vs the bit-serial oracle --------------------------------

// Several memories (one of non-power-of-two depth, one of 64-bit words) and
// a 64-bit register: the shapes where width truncation and address-pin
// widths are easiest to get wrong.
constexpr const char* kMultiMemDesign = R"(
  module multi(input clk, input rst, input [63:0] in, input we,
               input [3:0] waddr, output [63:0] out);
    reg [63:0] wide;
    reg [2:0] small;
    reg flag;
    reg [12:0] a [0:9];
    reg [31:0] b [0:4];
    reg [63:0] c [0:2];
    always @(posedge clk) begin
      if (rst) begin
        wide <= 64'h0;
        small <= 3'h0;
        flag <= 1'b0;
      end else begin
        wide <= wide + in;
        small <= small + 3'h1;
        flag <= ~flag;
      end
      if (we) a[waddr] <= in[12:0];
      if (we) b[waddr[2:0]] <= in[31:0];
      if (we & flag) c[waddr[1:0]] <= wide;
    end
    wire [63:0] cword;
    assign cword = c[waddr[1:0]];
    assign out = wide ^ {a[waddr], b[waddr[2:0]], cword[15:0], small};
  endmodule
)";

rtl::Design SocDesign() {
  auto r = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                               "soc");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// A random state of the design's shape. Out-of-width states put full
// 64-bit values in every flop and memory word, which both passes must
// truncate the same way.
sim::HardwareState RandomState(const rtl::Design& d, Rng* rng,
                               bool out_of_width) {
  sim::HardwareState st;
  for (const auto& ff : d.flops())
    st.flops.push_back(rng->Bits(out_of_width ? 64 : d.signal(ff.q).width));
  for (const auto& mem : d.memories()) {
    st.memories.emplace_back(mem.depth);
    for (auto& w : st.memories.back())
      w = rng->Bits(out_of_width ? 64 : mem.width);
  }
  return st;
}

// Drives every functional input with seeded noise for a few cycles, so the
// live state has drifted from its last sync point before a pass.
void Scramble(sim::Simulator* s, uint64_t seed) {
  Rng rng(seed);
  const auto& d = s->design();
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (rtl::SignalId id = 0;
         id < static_cast<rtl::SignalId>(d.signals().size()); ++id) {
      const auto& sig = d.signal(id);
      if (sig.kind != rtl::SignalKind::kInput || sig.name.rfind("scan_", 0) == 0)
        continue;
      ASSERT_TRUE(s->PokeInput(id, rng.Bits(sig.width)).ok());
    }
    s->Tick(1);
  }
}

// Everything a later observer can see: every signal, every memory word,
// the cycle counter and the next delta capture (which reads the dirty
// marks against the sync point).
void ExpectSameSimulators(sim::Simulator* fast, sim::Simulator* serial) {
  const auto& d = fast->design();
  for (rtl::SignalId id = 0; id < static_cast<rtl::SignalId>(d.signals().size());
       ++id)
    EXPECT_EQ(fast->PeekId(id), serial->PeekId(id)) << d.signal(id).name;
  for (const auto& mem : d.memories()) {
    for (unsigned w = 0; w < mem.depth; ++w)
      EXPECT_EQ(fast->PeekMemory(mem.name, w).value(),
                serial->PeekMemory(mem.name, w).value())
          << mem.name << "[" << w << "]";
  }
  EXPECT_EQ(fast->cycle_count(), serial->cycle_count());
  EXPECT_EQ(fast->CaptureDelta(), serial->CaptureDelta());
}

enum class PassKind { kSave, kRestore, kSaveRestore };

void ExpectWordLevelMatchesSerial(const rtl::Design& original, int trials,
                                  uint64_t seed,
                                  const ScanOptions& opts = {}) {
  auto inst = MustInstrument(original, opts);
  for (int trial = 0; trial < trials; ++trial) {
    for (PassKind kind :
         {PassKind::kSave, PassKind::kRestore, PassKind::kSaveRestore}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " pass " +
                   std::to_string(static_cast<int>(kind)));
      auto fast_sim = MustSim(inst.design);
      auto serial_sim = MustSim(inst.design);
      ScanController fast(&fast_sim, inst.map);
      ScanController serial(&serial_sim, inst.map);
      ASSERT_TRUE(fast.word_level());

      Rng rng(seed * 1000003 + static_cast<uint64_t>(trial) * 3 +
              static_cast<uint64_t>(kind));
      const bool out_of_width = trial % 2 == 1;
      const auto pre = RandomState(inst.design, &rng, out_of_width);
      ASSERT_TRUE(fast_sim.RestoreState(pre).ok());
      ASSERT_TRUE(serial_sim.RestoreState(pre).ok());
      const uint64_t stimulus = rng.Next();
      Scramble(&fast_sim, stimulus);
      Scramble(&serial_sim, stimulus);
      const auto next = RandomState(inst.design, &rng, out_of_width);
      if (trial % 4 >= 2) {
        // scan_enable is not part of the pin contract: a pass entered with
        // it high must still leave it low.
        ASSERT_TRUE(fast_sim.PokeInput("scan_enable", 1).ok());
        ASSERT_TRUE(serial_sim.PokeInput("scan_enable", 1).ok());
      }

      switch (kind) {
        case PassKind::kSave: {
          auto a = fast.Save();
          auto b = serial.SaveSerial();
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(a.value(), b.value());
          break;
        }
        case PassKind::kRestore:
          ASSERT_TRUE(fast.Restore(next).ok());
          ASSERT_TRUE(serial.SaveRestoreSerial(next).ok());
          break;
        case PassKind::kSaveRestore: {
          auto a = fast.SaveRestore(next);
          auto b = serial.SaveRestoreSerial(next);
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(a.value(), b.value());
          break;
        }
      }
      ExpectSameSimulators(&fast_sim, &serial_sim);

      // And both resume identically from the pass.
      const uint64_t after = rng.Next();
      Scramble(&fast_sim, after);
      Scramble(&serial_sim, after);
      ExpectSameSimulators(&fast_sim, &serial_sim);
    }
  }
}

TEST(ScanWordLevelTest, MatchesSerialOnMixedDesign) {
  ExpectWordLevelMatchesSerial(Compile(kMixedDesign), 8, 1);
}

TEST(ScanWordLevelTest, MatchesSerialOnMultiMemoryDesign) {
  ExpectWordLevelMatchesSerial(Compile(kMultiMemDesign), 8, 2);
}

TEST(ScanWordLevelTest, MatchesSerialOnDefaultSoc) {
  ExpectWordLevelMatchesSerial(SocDesign(), 4, 3);
}

TEST(ScanWordLevelTest, MatchesSerialWithUnportedMemory) {
  // Every flop is in scope but the memory is not: the chain still holds
  // every flip-flop, the memory stays frozen and reads back as zeros.
  auto d = Compile(R"(
    module core(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] state;
      reg [3:0] count;
      always @(posedge clk) begin
        state <= d ^ {count, count};
        count <= count + 4'h1;
      end
      assign q = state;
    endmodule
    module top(input clk, input [7:0] in, input we, input [2:0] waddr,
               output [7:0] out);
      reg [7:0] mem [0:5];
      wire [7:0] q;
      core u_core (.clk(clk), .d(in), .q(q));
      always @(posedge clk) if (we) mem[waddr] <= q;
      assign out = mem[waddr];
    endmodule
  )");
  ScanOptions opts;
  opts.scope_prefix = "u_core.";
  ExpectWordLevelMatchesSerial(d, 8, 4, opts);
}

TEST(ScanWordLevelTest, PinsOffRestTakeTheSerialPass) {
  // A test port left writing clobbers memory during a loopback save, and a
  // raised scan_hold freezes the shift; the word-level pass must not paper
  // over what those pins then do.
  auto inst = MustInstrument(Compile(kMixedDesign));
  for (const char* pin : {"scan_mem_wen", "scan_hold"}) {
    SCOPED_TRACE(pin);
    auto fast_sim = MustSim(inst.design);
    auto serial_sim = MustSim(inst.design);
    ScanController fast(&fast_sim, inst.map);
    ScanController serial(&serial_sim, inst.map);
    for (auto* s : {&fast_sim, &serial_sim}) {
      ASSERT_TRUE(s->Reset().ok());
      ASSERT_TRUE(s->PokeMemory("mem", 4, 0x42).ok());
      ASSERT_TRUE(s->PokeInput("scan_mem_wdata", 0x99).ok());
      ASSERT_TRUE(s->PokeInput(pin, 1).ok());
    }
    auto a = fast.Save();
    auto b = serial.SaveSerial();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
    ExpectSameSimulators(&fast_sim, &serial_sim);
  }
}

TEST(ScanWordLevelTest, ScopedChainTakesSerialPathAndRoundTrips) {
  auto d = Compile(R"(
    module leaf(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] state;
      always @(posedge clk) state <= d;
      assign q = state;
    endmodule
    module top(input clk, input [7:0] in, output [7:0] out);
      wire [7:0] mid;
      leaf u_a (.clk(clk), .d(in), .q(mid));
      leaf u_b (.clk(clk), .d(mid), .q(out));
    endmodule
  )");
  ScanOptions opts;
  opts.scope_prefix = "u_a.";
  auto inst = MustInstrument(d, opts);
  auto sim = MustSim(inst.design);
  ScanController ctrl(&sim, inst.map);
  EXPECT_FALSE(ctrl.word_level());

  const size_t chained = inst.map.slots[0].flop_index;
  const size_t unchained = 1 - chained;
  sim::HardwareState target = sim.DumpState();
  target.flops[chained] = 0xa5;
  ASSERT_TRUE(ctrl.Restore(target).ok());
  auto back = ctrl.Save();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().flops[chained], 0xa5u);
  // The unchained register kept clocking through both passes, latching
  // u_a's shifting contents; a word-level pass would have left it at 0.
  EXPECT_EQ(sim.cycle_count(), 2 * ctrl.PassCycles());
  EXPECT_NE(sim.DumpState().flops[unchained], 0u);
}

TEST(ScanWordLevelTest, FullChainIsWordLevel) {
  auto inst = MustInstrument(SocDesign());
  auto sim = MustSim(inst.design);
  EXPECT_TRUE(ScanController(&sim, inst.map).word_level());
}

TEST(ScanControllerTest, MismatchedMemoryDepthRejected) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  auto sim = MustSim(inst.design);
  ScanController ctrl(&sim, inst.map);
  auto st = sim.DumpState();
  st.memories[0].resize(3);
  EXPECT_FALSE(ctrl.Restore(st).ok());
  EXPECT_FALSE(ctrl.SaveRestoreSerial(st).ok());
}

}  // namespace
}  // namespace hardsnap::scanchain
