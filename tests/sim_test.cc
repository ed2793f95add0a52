#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtl/elaborate.h"
#include "sim/simulator.h"
#include "sim/vcd.h"

namespace hardsnap::sim {
namespace {

rtl::Design Compile(const std::string& src) {
  auto r = rtl::CompileVerilog(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

Simulator MustCreate(const rtl::Design& d) {
  auto r = Simulator::Create(d);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

constexpr const char* kCounter = R"(
  module counter(input clk, input rst, input en, output [7:0] value);
    reg [7:0] count;
    always @(posedge clk) begin
      if (rst) count <= 8'h00;
      else if (en) count <= count + 8'h01;
    end
    assign value = count;
  endmodule
)";

TEST(SimulatorTest, CounterCounts) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  sim.Tick(5);
  EXPECT_EQ(sim.Peek("value").value(), 5u);
  sim.Tick(250);
  EXPECT_EQ(sim.Peek("value").value(), 255u % 256);
  sim.Tick(1);
  EXPECT_EQ(sim.Peek("value").value(), 0u);  // 8-bit wraparound
}

TEST(SimulatorTest, EnableGatesCounting) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  sim.Tick(10);
  EXPECT_EQ(sim.Peek("value").value(), 0u);  // en=0, holds
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  sim.Tick(3);
  ASSERT_TRUE(sim.PokeInput("en", 0).ok());
  sim.Tick(10);
  EXPECT_EQ(sim.Peek("value").value(), 3u);
}

TEST(SimulatorTest, CombinationalOutputsSettleWithoutClock) {
  auto d = Compile(R"(
    module m(input clk, input [7:0] a, input [7:0] b, output [7:0] sum);
      assign sum = a + b;
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("a", 3).ok());
  ASSERT_TRUE(sim.PokeInput("b", 4).ok());
  EXPECT_EQ(sim.Peek("sum").value(), 7u);  // no Tick needed
}

TEST(SimulatorTest, ChainedCombinationalLevelizes) {
  auto d = Compile(R"(
    module m(input clk, input [7:0] a, output [7:0] y);
      wire [7:0] t1, t2, t3;
      assign t3 = t2 + 8'h01;  // declared out of dependency order
      assign t1 = a + 8'h01;
      assign t2 = t1 + 8'h01;
      assign y = t3;
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("a", 10).ok());
  EXPECT_EQ(sim.Peek("y").value(), 13u);
}

TEST(SimulatorTest, CombinationalCycleRejected) {
  auto d = Compile(R"(
    module m(input clk, input a, output y);
      wire p, q;
      assign p = q ^ a;
      assign q = p;
      assign y = q;
    endmodule
  )");
  auto r = Simulator::Create(d);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cycle"), std::string::npos);
}

TEST(SimulatorTest, NonBlockingSwapSemantics) {
  // Classic register swap only works with NBA semantics.
  auto d = Compile(R"(
    module m(input clk, input rst, input load,
             input [7:0] a0, input [7:0] b0,
             output [7:0] a_out, output [7:0] b_out);
      reg [7:0] a, b;
      always @(posedge clk) begin
        if (load) begin
          a <= a0;
          b <= b0;
        end else begin
          a <= b;
          b <= a;
        end
      end
      assign a_out = a;
      assign b_out = b;
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("load", 1).ok());
  ASSERT_TRUE(sim.PokeInput("a0", 0x11).ok());
  ASSERT_TRUE(sim.PokeInput("b0", 0x22).ok());
  sim.Tick(1);
  ASSERT_TRUE(sim.PokeInput("load", 0).ok());
  sim.Tick(1);
  EXPECT_EQ(sim.Peek("a_out").value(), 0x22u);
  EXPECT_EQ(sim.Peek("b_out").value(), 0x11u);
  sim.Tick(1);
  EXPECT_EQ(sim.Peek("a_out").value(), 0x11u);
}

TEST(SimulatorTest, MemoryReadWrite) {
  auto d = Compile(R"(
    module m(input clk, input we, input [3:0] addr, input [7:0] wdata,
             output [7:0] rdata);
      reg [7:0] mem [0:15];
      always @(posedge clk) begin
        if (we) mem[addr] <= wdata;
      end
      assign rdata = mem[addr];
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("we", 1).ok());
  ASSERT_TRUE(sim.PokeInput("addr", 5).ok());
  ASSERT_TRUE(sim.PokeInput("wdata", 0xab).ok());
  sim.Tick(1);
  ASSERT_TRUE(sim.PokeInput("we", 0).ok());
  EXPECT_EQ(sim.Peek("rdata").value(), 0xabu);
  EXPECT_EQ(sim.PeekMemory("mem", 5).value(), 0xabu);
  EXPECT_EQ(sim.PeekMemory("mem", 4).value(), 0u);
}

TEST(SimulatorTest, MemoryWriteReadsPreEdgeData) {
  // mem[addr] <= mem[addr] + 1 must read the pre-edge value.
  auto d = Compile(R"(
    module m(input clk, input bump, input [3:0] addr, output [7:0] v);
      reg [7:0] mem [0:15];
      always @(posedge clk) begin
        if (bump) mem[addr] <= mem[addr] + 8'h01;
      end
      assign v = mem[addr];
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("bump", 1).ok());
  ASSERT_TRUE(sim.PokeInput("addr", 2).ok());
  sim.Tick(3);
  EXPECT_EQ(sim.Peek("v").value(), 3u);
}

TEST(SimulatorTest, PokeRegisterOverridesState) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeRegister("count", 0x40).ok());
  EXPECT_EQ(sim.Peek("value").value(), 0x40u);
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  sim.Tick(1);
  EXPECT_EQ(sim.Peek("value").value(), 0x41u);
}

TEST(SimulatorTest, PokeWireRejected) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  EXPECT_FALSE(sim.PokeRegister("value", 1).ok());
  EXPECT_FALSE(sim.PokeInput("value", 1).ok());
}

TEST(SimulatorTest, PeekUnknownSignalFails) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  EXPECT_EQ(sim.Peek("bogus").status().code(), StatusCode::kNotFound);
}

TEST(SimulatorTest, DumpRestoreRoundTrip) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  sim.Tick(42);
  HardwareState snap = sim.DumpState();
  sim.Tick(10);
  EXPECT_EQ(sim.Peek("value").value(), 52u);
  ASSERT_TRUE(sim.RestoreState(snap).ok());
  EXPECT_EQ(sim.Peek("value").value(), 42u);
  sim.Tick(1);
  EXPECT_EQ(sim.Peek("value").value(), 43u);
}

TEST(SimulatorTest, RestoreAcrossSimulatorInstances) {
  // A snapshot from one simulator instance restores into a fresh one built
  // from the same design — the basis for simulator-target snapshotting.
  auto d = Compile(kCounter);
  auto sim1 = MustCreate(d);
  ASSERT_TRUE(sim1.Reset().ok());
  ASSERT_TRUE(sim1.PokeInput("en", 1).ok());
  sim1.Tick(7);
  auto snap = sim1.DumpState();

  auto sim2 = MustCreate(d);
  ASSERT_TRUE(sim2.RestoreState(snap).ok());
  EXPECT_EQ(sim2.Peek("value").value(), 7u);
}

TEST(SimulatorTest, RestoresTruncateMemoryWordsToWidth) {
  // Out-of-width words (e.g. from a migration blob) land as a memory write
  // would land them: truncated, in the live state and in the delta shadow.
  auto d = Compile(R"(
    module m(input clk, input [3:0] addr, output [7:0] rdata);
      reg [7:0] mem [0:15];
      assign rdata = mem[addr];
    endmodule
  )");
  auto sim = MustCreate(d);
  HardwareState wide = sim.DumpState();
  wide.memories[0][5] = 0x1ab;
  ASSERT_TRUE(sim.RestoreState(wide).ok());
  EXPECT_EQ(sim.PeekMemory("mem", 5).value(), 0xabu);
  EXPECT_TRUE(sim.CaptureDelta().chunks.empty());

  StateDelta delta = EmptyDeltaFor(sim.DumpState());
  delta.chunks.push_back({1, 0, {0x301, 0x302, 0x303, 0x304}});
  ASSERT_TRUE(sim.RestoreDelta(delta).ok());
  EXPECT_EQ(sim.PeekMemory("mem", 0).value(), 0x01u);
  EXPECT_EQ(sim.PeekMemory("mem", 3).value(), 0x04u);
  EXPECT_TRUE(sim.CaptureDelta().chunks.empty());
}

TEST(SimulatorTest, RestoreRejectsMismatchedShape) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  HardwareState bad;
  bad.flops = {1, 2, 3};  // wrong count
  EXPECT_FALSE(sim.RestoreState(bad).ok());
}

TEST(SimulatorTest, SnapshotDeterminism) {
  // Restoring a snapshot and re-running the same stimulus must produce an
  // identical trace (paper: snapshots enable exact replay/diagnosis).
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  sim.Tick(13);
  auto snap = sim.DumpState();

  std::vector<uint64_t> trace1, trace2;
  for (int i = 0; i < 20; ++i) {
    sim.Tick(1);
    trace1.push_back(sim.Peek("value").value());
  }
  ASSERT_TRUE(sim.RestoreState(snap).ok());
  for (int i = 0; i < 20; ++i) {
    sim.Tick(1);
    trace2.push_back(sim.Peek("value").value());
  }
  EXPECT_EQ(trace1, trace2);
}

TEST(SimulatorTest, HierarchicalDesignSimulates) {
  auto d = Compile(R"(
    module stage(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] r;
      always @(posedge clk) r <= d;
      assign q = r;
    endmodule
    module pipeline(input clk, input [7:0] in, output [7:0] out);
      wire [7:0] s1, s2;
      stage u_1 (.clk(clk), .d(in), .q(s1));
      stage u_2 (.clk(clk), .d(s1), .q(s2));
      stage u_3 (.clk(clk), .d(s2), .q(out));
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("in", 0x5a).ok());
  sim.Tick(1);
  ASSERT_TRUE(sim.PokeInput("in", 0).ok());
  EXPECT_EQ(sim.Peek("out").value(), 0u);
  sim.Tick(2);
  EXPECT_EQ(sim.Peek("out").value(), 0x5au);  // 3-stage latency
}

TEST(SimulatorTest, CaseStatementPriority) {
  auto d = Compile(R"(
    module m(input clk, input [1:0] sel, output reg [7:0] y);
      always @(*) begin
        case (sel)
          2'd0: y = 8'h10;
          2'd1: y = 8'h20;
          2'd2: y = 8'h30;
          default: y = 8'hff;
        endcase
      end
    endmodule
  )");
  auto sim = MustCreate(d);
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(sim.PokeInput("sel", s).ok());
    uint64_t expect = s == 0 ? 0x10 : s == 1 ? 0x20 : s == 2 ? 0x30 : 0xff;
    EXPECT_EQ(sim.Peek("y").value(), expect) << "sel=" << s;
  }
}

TEST(SimulatorTest, DynamicBitSelect) {
  auto d = Compile(R"(
    module m(input clk, input [7:0] data, input [2:0] idx, output bit_out);
      assign bit_out = data[idx];
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("data", 0b10100101).ok());
  uint64_t expected[] = {1, 0, 1, 0, 0, 1, 0, 1};
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(sim.PokeInput("idx", i).ok());
    EXPECT_EQ(sim.Peek("bit_out").value(), expected[i]) << "idx=" << i;
  }
}

TEST(SimulatorTest, SignedComparison) {
  auto d = Compile(R"(
    module m(input clk, input [7:0] a, input [7:0] b, output lt_s, output lt_u);
      assign lt_s = $signed(a) < $signed(b);
      assign lt_u = a < b;
    endmodule
  )");
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.PokeInput("a", 0xff).ok());  // -1 signed, 255 unsigned
  ASSERT_TRUE(sim.PokeInput("b", 0x01).ok());
  EXPECT_EQ(sim.Peek("lt_s").value(), 1u);
  EXPECT_EQ(sim.Peek("lt_u").value(), 0u);
}

TEST(SimulatorTest, VcdTraceRenders) {
  auto d = Compile(kCounter);
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("en", 1).ok());
  VcdWriter vcd(sim);
  for (int i = 0; i < 5; ++i) {
    sim.Tick(1);
    vcd.Sample(sim.cycle_count());
  }
  std::string text = vcd.Render();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("count"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_EQ(vcd.num_samples(), 5u);
}

// Property: for random stimulus, dump/restore at a random point then
// replaying gives the same final state as never snapshotting at all.
class SnapshotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotPropertyTest, RestoreReplayMatchesStraightRun) {
  auto d = Compile(R"(
    module lfsr_mix(input clk, input rst, input [7:0] in, output [15:0] out);
      reg [15:0] lfsr;
      reg [15:0] acc;
      always @(posedge clk) begin
        if (rst) begin
          lfsr <= 16'hace1;
          acc <= 16'h0000;
        end else begin
          lfsr <= {lfsr[14:0], lfsr[15] ^ lfsr[13] ^ lfsr[12] ^ lfsr[10]};
          acc <= acc + {8'h00, in};
        end
      end
      assign out = lfsr ^ acc;
    endmodule
  )");
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto sim = MustCreate(d);
  ASSERT_TRUE(sim.Reset().ok());

  std::vector<uint64_t> stimulus;
  for (int i = 0; i < 50; ++i) stimulus.push_back(rng.Bits(8));

  // Straight run.
  for (uint64_t s : stimulus) {
    ASSERT_TRUE(sim.PokeInput("in", s).ok());
    sim.Tick(1);
  }
  uint64_t straight = sim.Peek("out").value();

  // Run with a snapshot/restore cut at a random point.
  auto sim2 = MustCreate(d);
  ASSERT_TRUE(sim2.Reset().ok());
  size_t cut = rng.Below(stimulus.size());
  sim::HardwareState snap;
  for (size_t i = 0; i < stimulus.size(); ++i) {
    if (i == cut) {
      snap = sim2.DumpState();
      ASSERT_TRUE(sim2.RestoreState(snap).ok());  // restore immediately
    }
    ASSERT_TRUE(sim2.PokeInput("in", stimulus[i]).ok());
    sim2.Tick(1);
  }
  EXPECT_EQ(sim2.Peek("out").value(), straight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace hardsnap::sim
