#include <gtest/gtest.h>

#include <map>

#include "common/bitops.h"
#include "common/rng.h"
#include "periph/periph.h"
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

// --- differential tests for the compiled, change-driven evaluator ----------

// A random netlist over every rtl::Op: inputs of assorted widths, a few
// constants, registers, comb wires that later nodes read (so cones share
// subtrees and levelize across each other), a depth-5 memory read at
// arbitrary addresses and written through one port, and comb outputs on
// a sample of the nodes.
struct RandomNetlist {
  rtl::Design design{"random_netlist"};
  std::vector<rtl::SignalId> inputs, regs;
  std::map<rtl::SignalId, rtl::ExprId> wire_value;  // comb-driven signals
  std::map<rtl::SignalId, rtl::ExprId> reg_next;
  rtl::MemWrite port;
  rtl::MemoryId mem = 0;
};

RandomNetlist BuildRandomNetlist(Rng& rng, int nodes) {
  using rtl::Op;
  RandomNetlist n;
  rtl::Design& d = n.design;
  std::vector<rtl::ExprId> pool;
  constexpr unsigned kWidths[] = {1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 63, 64};
  auto any_width = [&] { return kWidths[rng.Below(std::size(kWidths))]; };
  auto pick = [&] { return pool[rng.Below(pool.size())]; };
  auto width_of = [&](rtl::ExprId e) { return d.expr(e).width; };

  for (int i = 0; i < 6; ++i) {
    n.inputs.push_back(d.AddSignal("in" + std::to_string(i), any_width(),
                                   rtl::SignalKind::kInput));
    pool.push_back(d.Sig(n.inputs.back()));
  }
  for (int i = 0; i < 4; ++i) {
    n.regs.push_back(d.AddSignal("r" + std::to_string(i), any_width(),
                                 rtl::SignalKind::kReg));
    pool.push_back(d.Sig(n.regs.back()));
  }
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64},
                     uint64_t{70}, rng.Next()})
    pool.push_back(d.Const(k, k > 64 ? 64 : 7));
  n.mem = d.AddMemory("mem", any_width(), 5);

  constexpr Op kOps[] = {
      Op::kMemRead, Op::kNot,  Op::kNeg,  Op::kRedAnd, Op::kRedOr,
      Op::kRedXor,  Op::kLogicNot, Op::kAnd, Op::kOr,  Op::kXor,
      Op::kAdd,     Op::kSub,  Op::kMul,  Op::kDiv,    Op::kMod,
      Op::kEq,      Op::kNe,   Op::kLtU,  Op::kLeU,    Op::kGtU,
      Op::kGeU,     Op::kLtS,  Op::kLeS,  Op::kGtS,    Op::kGeS,
      Op::kShl,     Op::kShrL, Op::kShrA, Op::kLogicAnd, Op::kLogicOr,
      Op::kMux,     Op::kConcat, Op::kSlice, Op::kZext, Op::kSext};
  for (int i = 0; i < nodes; ++i) {
    const Op op = kOps[rng.Below(std::size(kOps))];
    rtl::ExprId e;
    if (op == Op::kMemRead) {
      e = d.MemRead(n.mem, pick());
    } else if (rtl::IsUnary(op)) {
      e = d.Unary(op, pick());
    } else if (rtl::IsBinary(op)) {
      e = d.Binary(op, pick(), pick());
    } else if (op == Op::kMux) {
      e = d.Mux(pick(), pick(), pick());
    } else if (op == Op::kConcat) {
      std::vector<rtl::ExprId> parts{pick()};
      unsigned total = width_of(parts[0]);
      for (int k = 0; k < 3; ++k) {
        const rtl::ExprId p = pick();
        if (total + width_of(p) > 64) break;
        total += width_of(p);
        parts.push_back(p);
      }
      e = d.Concat(parts);
    } else if (op == Op::kSlice) {
      const rtl::ExprId a = pick();
      const unsigned hi = static_cast<unsigned>(rng.Below(width_of(a)));
      e = d.Slice(a, hi, static_cast<unsigned>(rng.Below(hi + 1)));
    } else {  // kZext / kSext
      const rtl::ExprId a = pick();
      e = d.Extend(op, a, width_of(a) + static_cast<unsigned>(rng.Below(
                                            65 - width_of(a))));
    }
    pool.push_back(e);
    if (rng.Chance(0.2)) {  // a wire later nodes read
      const rtl::SignalId w = d.AddSignal("w" + std::to_string(i),
                                          width_of(e), rtl::SignalKind::kWire);
      d.AddComb(w, e);
      n.wire_value[w] = e;
      pool.push_back(d.Sig(w));
    } else if (rng.Chance(0.3)) {
      const rtl::SignalId o = d.AddSignal("o" + std::to_string(i),
                                          width_of(e), rtl::SignalKind::kOutput);
      d.AddComb(o, e);
      n.wire_value[o] = e;
    }
  }
  for (rtl::SignalId r : n.regs) {
    rtl::ExprId next = pick();
    while (width_of(next) > d.signal(r).width) next = pick();
    n.reg_next[r] = next;
    d.AddFlop(rtl::FlipFlop{r, next, false, 0});
  }
  n.port = rtl::MemWrite{n.mem, pick(), pick(), pick()};
  d.AddMemWrite(n.port);
  return n;
}

// Copies expression `e` of `n` into `out` with every input, register and
// memory read replaced by the constant the simulator holds for it, and
// every wire by its driving expression, so rtl::EvalConstExpr can fold it.
rtl::ExprId Substitute(const RandomNetlist& n, const Simulator& sim,
                       rtl::ExprId e, rtl::Design* out,
                       std::map<rtl::ExprId, rtl::ExprId>* memo) {
  using rtl::Op;
  if (auto it = memo->find(e); it != memo->end()) return it->second;
  const rtl::Expr& x = n.design.expr(e);
  auto sub = [&](size_t i) { return Substitute(n, sim, x.args[i], out, memo); };
  rtl::ExprId r;
  if (x.op == Op::kConst) {
    r = out->Const(x.imm, x.width);
  } else if (x.op == Op::kSignal) {
    auto wire = n.wire_value.find(x.signal);
    r = wire != n.wire_value.end()
            ? Substitute(n, sim, wire->second, out, memo)
            : out->Const(sim.PeekId(x.signal), x.width);
  } else if (x.op == Op::kMemRead) {
    const uint64_t addr = rtl::EvalConstExpr(*out, sub(0)).value();
    const std::string& name = n.design.memory(x.memory).name;
    r = out->Const(addr < 5 ? sim.PeekMemory(name, addr).value() : 0,
                   x.width);
  } else if (rtl::IsUnary(x.op)) {
    r = out->Unary(x.op, sub(0));
  } else if (rtl::IsBinary(x.op)) {
    const rtl::ExprId a = sub(0);
    r = out->Binary(x.op, a, sub(1));
  } else if (x.op == Op::kMux) {
    const rtl::ExprId sel = sub(0), then_e = sub(1);
    r = out->Mux(sel, then_e, sub(2));
  } else if (x.op == Op::kConcat) {
    std::vector<rtl::ExprId> parts;
    for (size_t i = 0; i < x.args.size(); ++i) parts.push_back(sub(i));
    r = out->Concat(parts);
  } else if (x.op == Op::kSlice) {
    r = out->Slice(sub(0), x.hi, x.lo);
  } else {
    r = out->Extend(x.op, sub(0), x.width);
  }
  (*memo)[e] = r;
  return r;
}

uint64_t Fold(const RandomNetlist& n, const Simulator& sim, rtl::ExprId e) {
  rtl::Design out("folded");
  std::map<rtl::ExprId, rtl::ExprId> memo;
  const rtl::ExprId folded = Substitute(n, sim, e, &out, &memo);
  return rtl::EvalConstExpr(out, folded).value();
}

// Input values that hit the edge cases: zero (div/mod by zero), all-ones,
// shift amounts around and past the width, sign bits, random bits.
uint64_t EdgyValue(Rng& rng, unsigned width) {
  switch (rng.Below(5)) {
    case 0: return 0;
    case 1: return LowMask(width);
    case 2: return TruncBits(rng.Below(70), width);
    case 3: return TruncBits(uint64_t{1} << (width - 1), width);
    default: return rng.Bits(width);
  }
}

// Per-op semantics: the settled comb outputs, each flop's next value and
// the write port's effect equal constant folding of the same trees.
TEST(EvalDifferentialTest, OpsMatchConstantFolding) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const RandomNetlist n = BuildRandomNetlist(rng, 120);
    auto sim = MustCreate(n.design);
    const unsigned mem_width = n.design.memory(n.mem).width;
    for (int trial = 0; trial < 12; ++trial) {
      for (rtl::SignalId in : n.inputs)
        ASSERT_TRUE(sim.PokeInput(in, EdgyValue(rng, n.design.signal(in).width))
                        .ok());
      for (rtl::SignalId r : n.regs)
        ASSERT_TRUE(sim.PokeRegister(n.design.signal(r).name,
                                     EdgyValue(rng, n.design.signal(r).width))
                        .ok());
      for (unsigned w = 0; w < 5; ++w)
        ASSERT_TRUE(
            sim.PokeMemory("mem", w, EdgyValue(rng, mem_width)).ok());

      for (const auto& [signal, value] : n.wire_value)
        ASSERT_EQ(sim.PeekId(signal), Fold(n, sim, value))
            << "seed " << seed << " trial " << trial << " signal "
            << n.design.signal(signal).name;

      std::map<rtl::SignalId, uint64_t> next;
      for (const auto& [reg, value] : n.reg_next)
        next[reg] = TruncBits(Fold(n, sim, value), n.design.signal(reg).width);
      std::vector<uint64_t> words;
      for (unsigned w = 0; w < 5; ++w)
        words.push_back(sim.PeekMemory("mem", w).value());
      const uint64_t addr = Fold(n, sim, n.port.addr);
      if (Fold(n, sim, n.port.enable) != 0 && addr < 5)
        words[addr] = TruncBits(Fold(n, sim, n.port.data), mem_width);

      sim.Tick();
      for (const auto& [reg, value] : next)
        ASSERT_EQ(sim.PeekId(reg), value) << "seed " << seed << " reg "
                                          << n.design.signal(reg).name;
      for (unsigned w = 0; w < 5; ++w)
        ASSERT_EQ(sim.PeekMemory("mem", w).value(), words[w])
            << "seed " << seed << " word " << w;
    }
  }
}

HardwareState RandomState(Rng& rng, const rtl::Design& d) {
  HardwareState st;
  for (size_t i = 0; i < d.flops().size(); ++i)
    st.flops.push_back(rng.Chance(0.5) ? rng.Next() : rng.Bits(2));
  for (const rtl::Memory& m : d.memories()) {
    st.memories.emplace_back();
    for (unsigned w = 0; w < m.depth; ++w)
      st.memories.back().push_back(rng.Chance(0.5) ? rng.Next() : 0);
  }
  return st;
}

// Drives `live` — a long-lived simulator whose evaluation skips unchanged
// cones — through random pokes, restores, clocked loads and cycles, and
// checks it every cycle against a fresh simulator put into the same
// state and inputs: every signal before and after a clock edge, every
// memory word, and the delta the next capture emits. `drive_inputs`
// applies this cycle's stimulus to `live`.
template <typename DriveInputs>
void RunLockstep(const rtl::Design& d, Rng& rng, int cycles,
                 DriveInputs drive_inputs) {
  auto live = MustCreate(d);
  std::vector<rtl::SignalId> inputs;
  for (size_t s = 0; s < d.signals().size(); ++s)
    if (d.signal(static_cast<rtl::SignalId>(s)).kind == rtl::SignalKind::kInput)
      inputs.push_back(static_cast<rtl::SignalId>(s));
  HardwareState sync_state = live.DumpState();  // the last sync point
  HardwareState saved = sync_state;
  std::vector<rtl::MemoryId> all_memories;
  for (size_t m = 0; m < d.memories().size(); ++m)
    all_memories.push_back(static_cast<rtl::MemoryId>(m));

  auto expect_same = [&](const Simulator& a, const Simulator& b, int cycle,
                         const char* when) {
    for (size_t s = 0; s < d.signals().size(); ++s) {
      const auto id = static_cast<rtl::SignalId>(s);
      ASSERT_EQ(a.PeekId(id), b.PeekId(id))
          << "cycle " << cycle << " " << when << ": " << d.signal(id).name;
    }
    ASSERT_EQ(a.DumpState(), b.DumpState()) << "cycle " << cycle << " " << when;
  };

  for (int cycle = 0; cycle < cycles; ++cycle) {
    drive_inputs(&live);
    switch (rng.Below(12)) {
      case 0:
        if (!d.flops().empty()) {
          const auto& ff = d.flops()[rng.Below(d.flops().size())];
          ASSERT_TRUE(live.PokeRegister(d.signal(ff.q).name, rng.Next()).ok());
        }
        break;
      case 1:
        if (!d.memories().empty()) {
          const rtl::Memory& m = d.memories()[rng.Below(d.memories().size())];
          ASSERT_TRUE(live.PokeMemory(m.name,
                                      static_cast<unsigned>(rng.Below(m.depth)),
                                      rng.Next())
                          .ok());
        }
        break;
      case 2:
        ASSERT_TRUE(live.RestoreState(saved).ok());
        sync_state = live.DumpState();
        break;
      case 3:
        saved = live.DumpState();
        break;
      case 4: {  // revert everything since the sync point
        StateDelta revert = EmptyDeltaFor(sync_state);
        revert.base_hash = HashState(sync_state);
        ASSERT_TRUE(live.RestoreDelta(revert).ok());
        break;
      }
      case 5: {  // move to a random neighbour of the sync point
        auto helper = MustCreate(d);
        ASSERT_TRUE(helper.RestoreState(sync_state).ok());
        ASSERT_TRUE(helper.RestoreState(RandomState(rng, d)).ok());
        HardwareState target = helper.DumpState();
        for (size_t i = 0; i < target.flops.size(); ++i)
          if (rng.Chance(0.7)) target.flops[i] = sync_state.flops[i];
        auto delta = DiffStates(sync_state, target);
        ASSERT_TRUE(delta.ok());
        ASSERT_TRUE(live.RestoreDelta(delta.value()).ok());
        sync_state = live.DumpState();
        ASSERT_EQ(sync_state, target);
        break;
      }
      case 6:
        live.LoadClocked(RandomState(rng, d), all_memories, 3);
        break;
      default:
        break;
    }

    auto fresh = MustCreate(d);
    ASSERT_TRUE(fresh.RestoreState(live.DumpState()).ok());
    for (rtl::SignalId in : inputs)
      ASSERT_TRUE(fresh.PokeInput(in, live.PeekId(in)).ok());
    expect_same(live, fresh, cycle, "settled");
    if (testing::Test::HasFatalFailure()) return;
    live.Tick();
    fresh.Tick();
    expect_same(live, fresh, cycle, "after edge");
    if (testing::Test::HasFatalFailure()) return;

    if (rng.Chance(0.3)) {
      const HardwareState now = live.DumpState();
      auto expected = DiffStates(sync_state, now);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(live.CaptureDelta(), expected.value()) << "cycle " << cycle;
      sync_state = now;
    }
  }
}

TEST(EvalDifferentialTest, RandomDesignsMatchFreshSimulator) {
  for (uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    const RandomNetlist n = BuildRandomNetlist(rng, 80);
    RunLockstep(n.design, rng, 60, [&](Simulator* sim) {
      if (!rng.Chance(0.5)) return;
      const rtl::SignalId in = n.inputs[rng.Below(n.inputs.size())];
      ASSERT_TRUE(
          sim->PokeInput(in, EdgyValue(rng, n.design.signal(in).width)).ok());
    });
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
}

// The SoC under MMIO traffic that keeps its accelerators busy: AES and
// SHA-256 starts, key/message/timer/UART register writes and reads
// (including UART FIFO pops), among idle cycles.
TEST(EvalDifferentialTest, SocUnderMmioMatchesFreshSimulator) {
  const rtl::Design soc =
      Compile(periph::BuildSoc(periph::DefaultCorpus()));
  Rng rng(2026);
  bool reset_done = false;
  RunLockstep(soc, rng, 250, [&](Simulator* sim) {
    if (!reset_done) {
      ASSERT_TRUE(sim->PokeInput("uart_rx", 1).ok());
      ASSERT_TRUE(sim->Reset().ok());
      reset_done = true;
    }
    constexpr uint32_t kRegs[] = {
        0x200, 0x204, 0x210, 0x220, 0x230,          // AES
        0x300, 0x304, 0x340, 0x37c, 0x380,          // SHA-256
        0x000, 0x004, 0x008, 0x00c, 0x010,          // timer
        0x100, 0x104, 0x108, 0x10c};                // UART
    const uint64_t roll = rng.Below(10);
    uint32_t addr = kRegs[rng.Below(std::size(kRegs))];
    uint64_t wdata = rng.Bits(32);
    if (roll == 0) {  // restart an accelerator
      addr = rng.Chance(0.5) ? 0x200 : 0x300;
      wdata = addr == 0x300 ? 0x5 : 0x1;
    }
    const bool write = roll < 4, read = roll >= 4 && roll < 6;
    ASSERT_TRUE(sim->PokeInput("sel", write || read).ok());
    ASSERT_TRUE(sim->PokeInput("wr", write).ok());
    ASSERT_TRUE(sim->PokeInput("rd", read).ok());
    ASSERT_TRUE(sim->PokeInput("addr", addr).ok());
    ASSERT_TRUE(sim->PokeInput("wdata", wdata).ok());
  });
}

}  // namespace
}  // namespace hardsnap::sim
