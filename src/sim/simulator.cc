#include "sim/simulator.h"

#include <algorithm>

#include "common/bitops.h"

namespace hardsnap::sim {

using rtl::Design;
using rtl::Expr;
using rtl::ExprId;
using rtl::Op;
using rtl::SignalId;
using rtl::SignalKind;

size_t HardwareState::CountBits(const rtl::Design& d) const {
  size_t bits = 0;
  for (size_t i = 0; i < flops.size(); ++i)
    bits += d.signal(d.flops()[i].q).width;
  for (size_t m = 0; m < memories.size(); ++m)
    bits += memories[m].size() * d.memory(static_cast<rtl::MemoryId>(m)).width;
  return bits;
}

Simulator::Simulator(const Design& design) : design_(design) {
  values_.assign(design.signals().size(), 0);
  memories_.resize(design.memories().size());
  for (size_t m = 0; m < memories_.size(); ++m)
    memories_[m].assign(design.memories()[m].depth, 0);
  flop_next_.assign(design.flops().size(), 0);

  flop_of_signal_.assign(design.signals().size(), -1);
  for (size_t i = 0; i < design.flops().size(); ++i)
    flop_of_signal_[design.flops()[i].q] = static_cast<int32_t>(i);
  shadow_.flops.assign(design.flops().size(), 0);
  shadow_.memories = memories_;
  flop_dirty_.Resize(design.flops().size());
  mem_dirty_.resize(memories_.size());
  for (size_t m = 0; m < memories_.size(); ++m)
    mem_dirty_[m].Resize(memories_[m].size());
  // The shadow (all zeros) matches the initial live state, but mark
  // everything dirty so the first capture is a full, base-free baseline.
  flop_dirty_.MarkAll();
  for (auto& bm : mem_dirty_) bm.MarkAll();
}

Result<Simulator> Simulator::Create(const Design& design) {
  HS_RETURN_IF_ERROR(design.Validate());
  Simulator sim(design);
  HS_RETURN_IF_ERROR(sim.Compile());
  sim.Eval();
  return sim;
}

namespace {

// Tape opcodes: rtl::Op values, plus a two-part concatenation
// ((a << bw) | b) that a wider concat compiles into.
constexpr uint8_t Code(Op op) { return static_cast<uint8_t>(op); }
constexpr uint8_t kConcat2 = Code(Op::kSext) + 1;

}  // namespace

Status Simulator::Compile() {
  const Design& d = design_;
  const auto& comb = d.comb();
  const auto& flops = d.flops();
  const auto& writes = d.mem_writes();
  const uint32_t nsig = static_cast<uint32_t>(d.signals().size());
  const uint32_t nnodes = nsig + static_cast<uint32_t>(d.memories().size());
  const uint32_t ncomb = static_cast<uint32_t>(comb.size());
  const uint32_t nflops = static_cast<uint32_t>(flops.size());
  const uint32_t nroots = ncomb + nflops + static_cast<uint32_t>(writes.size());

  // Pass 1: what each root (comb assign, flop, write port, in design
  // order) reads — signal ids, and memories as nsig + id — over its whole
  // expression DAG, once per root. This is the levelization fan-in and the
  // source of the fan-out lists: a root whose subtree is shared with an
  // earlier cone reuses that cone's ops, so its own ops alone would miss
  // inputs. Constants get their value slots here.
  std::vector<int32_t> slot_of(d.exprs().size(), -1);
  std::vector<uint32_t> expr_seen(d.exprs().size(), 0);  // root + 1
  std::vector<uint32_t> node_seen(nnodes, 0);
  std::vector<uint32_t> reads_begin(nroots + 1, 0);
  std::vector<uint32_t> reads;
  std::vector<ExprId> stack;
  auto walk = [&](ExprId root, uint32_t stamp) {
    stack.push_back(root);
    while (!stack.empty()) {
      const ExprId id = stack.back();
      stack.pop_back();
      if (expr_seen[id] == stamp) continue;
      expr_seen[id] = stamp;
      const Expr& e = d.expr(id);
      if (e.op == Op::kSignal || e.op == Op::kMemRead) {
        const uint32_t node =
            e.op == Op::kSignal ? static_cast<uint32_t>(e.signal)
                                : nsig + static_cast<uint32_t>(e.memory);
        if (node_seen[node] != stamp) {
          node_seen[node] = stamp;
          reads.push_back(node);
        }
      } else if (e.op == Op::kConst && slot_of[id] < 0) {
        slot_of[id] = static_cast<int32_t>(values_.size());
        values_.push_back(e.imm);
      }
      for (ExprId a : e.args) stack.push_back(a);
    }
  };
  for (uint32_t r = 0; r < nroots; ++r) {
    if (r < ncomb) {
      walk(comb[r].value, r + 1);
    } else if (r < ncomb + nflops) {
      walk(flops[r - ncomb].next, r + 1);
    } else {
      const rtl::MemWrite& mw = writes[r - ncomb - nflops];
      walk(mw.enable, r + 1);
      walk(mw.addr, r + 1);
      walk(mw.data, r + 1);
    }
    reads_begin[r + 1] = static_cast<uint32_t>(reads.size());
  }

  // Levelize: assignment j runs before i if i reads j's target.
  std::vector<int32_t> driver(nsig, -1);
  for (uint32_t i = 0; i < ncomb; ++i)
    driver[comb[i].target] = static_cast<int32_t>(i);
  std::vector<uint32_t> succ_begin(ncomb + 1, 0);
  std::vector<uint32_t> indegree(ncomb, 0);
  for (uint32_t i = 0; i < ncomb; ++i) {
    for (uint32_t k = reads_begin[i]; k < reads_begin[i + 1]; ++k) {
      if (reads[k] >= nsig || driver[reads[k]] < 0) continue;
      const uint32_t j = static_cast<uint32_t>(driver[reads[k]]);
      if (j == i)
        return Internal("combinational cycle: '" +
                        d.signal(comb[i].target).name +
                        "' depends on itself");
      ++succ_begin[j + 1];
      ++indegree[i];
    }
  }
  for (uint32_t i = 0; i < ncomb; ++i) succ_begin[i + 1] += succ_begin[i];
  std::vector<uint32_t> succs(succ_begin[ncomb]);
  {
    std::vector<uint32_t> fill(succ_begin.begin(), succ_begin.end() - 1);
    for (uint32_t i = 0; i < ncomb; ++i)
      for (uint32_t k = reads_begin[i]; k < reads_begin[i + 1]; ++k)
        if (reads[k] < nsig && driver[reads[k]] >= 0)
          succs[fill[static_cast<uint32_t>(driver[reads[k]])]++] = i;
  }
  std::vector<uint32_t> order;
  order.reserve(ncomb);
  std::vector<uint32_t> ready;
  for (uint32_t i = 0; i < ncomb; ++i)
    if (indegree[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const uint32_t i = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (uint32_t k = succ_begin[i]; k < succ_begin[i + 1]; ++k)
      if (--indegree[succs[k]] == 0) ready.push_back(succs[k]);
  }
  if (order.size() != ncomb) {
    // Name one signal on the cycle for the diagnostic.
    for (uint32_t i = 0; i < ncomb; ++i) {
      if (indegree[i] != 0)
        return Internal("combinational cycle through '" +
                        d.signal(comb[i].target).name + "'");
    }
    return Internal("combinational cycle detected");
  }

  // Pass 2: compile the cones — comb assigns in topological order, then
  // flop next trees, then write ports — memoizing every subtree.
  std::vector<uint32_t> cone_of_root(nroots);
  cones_.clear();
  cones_.reserve(nroots);
  tape_.clear();
  auto open_cone = [&](uint32_t root) {
    cone_of_root[root] = static_cast<uint32_t>(cones_.size());
    cones_.push_back(Cone{});
    cones_.back().begin = static_cast<uint32_t>(tape_.size());
  };
  for (uint32_t i : order) {
    open_cone(i);
    const uint32_t value = CompileExpr(comb[i].value, &slot_of);
    Cone& c = cones_.back();
    c.root = value;
    c.target = static_cast<uint32_t>(comb[i].target);
    c.mask = LowMask(d.signal(comb[i].target).width);
  }
  num_comb_ = ncomb;
  for (uint32_t i = 0; i < nflops; ++i) {
    open_cone(ncomb + i);
    const uint32_t next = CompileExpr(flops[i].next, &slot_of);
    Cone& c = cones_.back();
    c.root = next;
    c.target = static_cast<uint32_t>(flops[i].q);
    c.mask = LowMask(d.signal(flops[i].q).width);
  }
  ports_.assign(writes.size(), Port{});
  for (size_t p = 0; p < writes.size(); ++p) {
    open_cone(ncomb + nflops + static_cast<uint32_t>(p));
    const uint32_t enable = CompileExpr(writes[p].enable, &slot_of);
    ports_[p].addr = CompileExpr(writes[p].addr, &slot_of);
    ports_[p].data = CompileExpr(writes[p].data, &slot_of);
    ports_[p].memory = writes[p].memory;
    ports_[p].mask = LowMask(d.memory(writes[p].memory).width);
    cones_.back().root = enable;
  }
  for (size_t k = 0; k < cones_.size(); ++k)
    cones_[k].end = k + 1 < cones_.size()
                        ? cones_[k + 1].begin
                        : static_cast<uint32_t>(tape_.size());

  // Fan-out lists: every cone that reads a node, from the pass-1 reads.
  fanout_begin_.assign(nnodes + 1, 0);
  for (uint32_t k : reads) ++fanout_begin_[k + 1];
  for (uint32_t n = 0; n < nnodes; ++n) fanout_begin_[n + 1] += fanout_begin_[n];
  fanout_.resize(reads.size());
  std::vector<uint32_t> fill(fanout_begin_.begin(), fanout_begin_.end() - 1);
  for (uint32_t r = 0; r < nroots; ++r)
    for (uint32_t k = reads_begin[r]; k < reads_begin[r + 1]; ++k)
      fanout_[fill[reads[k]]++] = cone_of_root[r];

  // Nothing has been evaluated yet: every cone is pending.
  cone_dirty_.assign((cones_.size() + 63) / 64, 0);
  for (uint32_t k = 0; k < cones_.size(); ++k)
    cone_dirty_[k >> 6] |= uint64_t{1} << (k & 63);
  dirty_ = true;
  return Status::Ok();
}

uint32_t Simulator::Emit(uint8_t code, unsigned width, unsigned aw,
                         unsigned bw, uint32_t a, uint32_t b, uint32_t c) {
  const uint32_t dst = static_cast<uint32_t>(values_.size());
  values_.push_back(0);
  tape_.push_back(TapeOp{code, static_cast<uint8_t>(width),
                         static_cast<uint8_t>(aw), static_cast<uint8_t>(bw),
                         dst, a, b, c});
  return dst;
}

uint32_t Simulator::CompileExpr(ExprId id, std::vector<int32_t>* slot_of) {
  if ((*slot_of)[id] >= 0) return static_cast<uint32_t>((*slot_of)[id]);
  const Expr& e = design_.expr(id);
  auto arg = [&](size_t i) { return CompileExpr(e.args[i], slot_of); };
  auto aw = [&](size_t i) { return design_.expr(e.args[i]).width; };
  uint32_t slot = 0;
  switch (e.op) {
    case Op::kSignal:
      slot = static_cast<uint32_t>(e.signal);
      break;
    case Op::kZext:  // the value does not change
      slot = arg(0);
      break;
    case Op::kMemRead:
      slot = Emit(Code(Op::kMemRead), e.width, aw(0), 0, arg(0),
                  static_cast<uint32_t>(e.memory), 0);
      break;
    case Op::kSlice:
      slot = Emit(Code(Op::kSlice), e.width, aw(0), 0, arg(0), 0, e.lo);
      break;
    case Op::kConcat: {
      // {p0, p1, ..., pn} = ((p0 << w1 | p1) << w2 | p2) ...; every part
      // is truncated to its width, a lone part included.
      unsigned acc_width = aw(0);
      slot = arg(0);
      if (e.args.size() == 1)
        slot = Emit(Code(Op::kSlice), acc_width, acc_width, 0, slot, 0, 0);
      for (size_t i = 1; i < e.args.size(); ++i) {
        const uint32_t part = arg(i);
        slot = Emit(kConcat2, acc_width + aw(i), acc_width, aw(i), slot,
                    part, 0);
        acc_width += aw(i);
      }
      break;
    }
    case Op::kMux: {
      const uint32_t sel = arg(0), then_slot = arg(1), else_slot = arg(2);
      slot = Emit(Code(Op::kMux), e.width, aw(0), aw(1), sel, then_slot,
                  else_slot);
      break;
    }
    case Op::kConst:  // every reachable constant got its slot in pass 1
      HS_CHECK_MSG(false, "constant without a value slot");
      break;
    default:
      if (IsUnary(e.op) || e.op == Op::kSext) {
        slot = Emit(Code(e.op), e.width, aw(0), 0, arg(0), 0, 0);
      } else {
        HS_CHECK_MSG(IsBinary(e.op), "unhandled op in Simulator::Compile");
        const uint32_t a = arg(0), b = arg(1);
        slot = Emit(Code(e.op), e.width, aw(0), aw(1), a, b, 0);
      }
      break;
  }
  (*slot_of)[id] = static_cast<int32_t>(slot);
  return slot;
}

void Simulator::RunCone(uint32_t cone) const {
  uint64_t* v = values_.data();
  const TapeOp* op = tape_.data() + cones_[cone].begin;
  const TapeOp* const end = tape_.data() + cones_[cone].end;
  for (; op != end; ++op) {
    const uint64_t a = v[op->a];
    const unsigned w = op->width;
    uint64_t r = 0;
    switch (op->code) {
      case Code(Op::kMemRead): {
        const auto& mem = memories_[op->b];
        r = a < mem.size() ? mem[a] : 0;  // OOB reads return 0
        break;
      }
      case Code(Op::kNot): r = TruncBits(~a, w); break;
      case Code(Op::kNeg): r = TruncBits(~a + 1, w); break;
      case Code(Op::kRedAnd): r = a == LowMask(op->aw) ? 1u : 0u; break;
      case Code(Op::kRedOr): r = a != 0 ? 1u : 0u; break;
      case Code(Op::kRedXor): r = XorReduce(a, op->aw); break;
      case Code(Op::kLogicNot): r = a == 0 ? 1u : 0u; break;
      case Code(Op::kAnd): r = a & v[op->b]; break;
      case Code(Op::kOr): r = a | v[op->b]; break;
      case Code(Op::kXor): r = a ^ v[op->b]; break;
      case Code(Op::kAdd): r = TruncBits(a + v[op->b], w); break;
      case Code(Op::kSub): r = TruncBits(a - v[op->b], w); break;
      case Code(Op::kMul): r = TruncBits(a * v[op->b], w); break;
      case Code(Op::kDiv): {
        const uint64_t b = v[op->b];
        r = b == 0 ? LowMask(w) : TruncBits(a / b, w);
        break;
      }
      case Code(Op::kMod): {
        const uint64_t b = v[op->b];
        r = b == 0 ? TruncBits(a, w) : TruncBits(a % b, w);
        break;
      }
      case Code(Op::kEq): r = a == v[op->b] ? 1u : 0u; break;
      case Code(Op::kNe): r = a != v[op->b] ? 1u : 0u; break;
      case Code(Op::kLtU): r = a < v[op->b] ? 1u : 0u; break;
      case Code(Op::kLeU): r = a <= v[op->b] ? 1u : 0u; break;
      case Code(Op::kGtU): r = a > v[op->b] ? 1u : 0u; break;
      case Code(Op::kGeU): r = a >= v[op->b] ? 1u : 0u; break;
      case Code(Op::kLtS):
        r = SignExtend(a, op->aw) < SignExtend(v[op->b], op->bw) ? 1u : 0u;
        break;
      case Code(Op::kLeS):
        r = SignExtend(a, op->aw) <= SignExtend(v[op->b], op->bw) ? 1u : 0u;
        break;
      case Code(Op::kGtS):
        r = SignExtend(a, op->aw) > SignExtend(v[op->b], op->bw) ? 1u : 0u;
        break;
      case Code(Op::kGeS):
        r = SignExtend(a, op->aw) >= SignExtend(v[op->b], op->bw) ? 1u : 0u;
        break;
      case Code(Op::kShl): {
        const uint64_t sh = v[op->b];
        r = sh >= w ? 0 : TruncBits(a << sh, w);
        break;
      }
      case Code(Op::kShrL): {
        const uint64_t sh = v[op->b];
        r = sh >= 64 ? 0 : a >> sh;
        break;
      }
      case Code(Op::kShrA): {
        const uint64_t sh = v[op->b];
        r = TruncBits(static_cast<uint64_t>(SignExtend(a, op->aw) >>
                                            (sh > 63 ? 63 : sh)),
                      w);
        break;
      }
      case Code(Op::kLogicAnd):
        r = (a != 0 && v[op->b] != 0) ? 1u : 0u;
        break;
      case Code(Op::kLogicOr):
        r = (a != 0 || v[op->b] != 0) ? 1u : 0u;
        break;
      case Code(Op::kMux):
        r = TruncBits(a != 0 ? v[op->b] : v[op->c], w);
        break;
      case kConcat2:
        r = (TruncBits(a, op->aw) << op->bw) | TruncBits(v[op->b], op->bw);
        break;
      case Code(Op::kSlice): r = TruncBits(a >> op->c, w); break;
      case Code(Op::kSext):
        r = TruncBits(static_cast<uint64_t>(SignExtend(a, op->aw)), w);
        break;
      default:
        HS_CHECK_MSG(false, "unhandled tape op");
    }
    v[op->dst] = r;
  }
}

void Simulator::MarkReaders(uint32_t node) const {
  for (uint32_t i = fanout_begin_[node], e = fanout_begin_[node + 1]; i < e;
       ++i) {
    const uint32_t k = fanout_[i];
    cone_dirty_[k >> 6] |= uint64_t{1} << (k & 63);
  }
  dirty_ = true;
}

// Runs fn(k) for every marked cone k in [lo, hi), ascending, clearing its
// mark first. Marks fn sets on later cones in the range are picked up.
template <typename Fn>
void Simulator::DrainDirty(uint32_t lo, uint32_t hi, Fn fn) const {
  for (uint32_t w = lo >> 6; (w << 6) < hi; ++w) {
    uint64_t range = ~uint64_t{0};
    if ((w << 6) < lo) range &= ~uint64_t{0} << (lo & 63);
    if (hi - (w << 6) < 64) range &= LowMask(hi - (w << 6));
    while (const uint64_t bits = cone_dirty_[w] & range) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      cone_dirty_[w] &= ~(uint64_t{1} << b);
      fn((w << 6) + b);
    }
  }
}

void Simulator::Eval() const {
  if (!dirty_) return;
  // Cones are in topological order, so a settling target only marks
  // cones after the one being drained.
  DrainDirty(0, num_comb_, [this](uint32_t k) {
    RunCone(k);
    const Cone& c = cones_[k];
    const uint64_t v = values_[c.root] & c.mask;
    if (values_[c.target] != v) {
      values_[c.target] = v;
      MarkReaders(c.target);
    }
  });
  dirty_ = false;
}

void Simulator::CommitEdge() {
  // Re-evaluate the flop and write-port cones whose inputs changed; every
  // other cached next value and write still holds. All of them read the
  // settled pre-edge state.
  const uint32_t first_port =
      num_comb_ + static_cast<uint32_t>(flop_next_.size());
  DrainDirty(num_comb_, static_cast<uint32_t>(cones_.size()),
             [this, first_port](uint32_t k) {
               RunCone(k);
               const Cone& c = cones_[k];
               if (k < first_port) {
                 flop_next_[k - num_comb_] = values_[c.root] & c.mask;
                 return;
               }
               Port& p = ports_[k - first_port];
               p.enabled = values_[c.root] != 0;
               p.addr_value = values_[p.addr];
               p.data_value = values_[p.data] & p.mask;
             });

  // Commit every flop against its next value (a poke may have moved a flop
  // whose cone did not change), then the enabled writes in declaration
  // order (last write wins).
  for (size_t i = 0; i < flop_next_.size(); ++i) {
    const uint32_t q = cones_[num_comb_ + i].target;
    if (values_[q] != flop_next_[i]) {
      values_[q] = flop_next_[i];
      flop_dirty_.MarkWord(i);
      MarkReaders(q);
    }
  }
  for (const Port& p : ports_) {
    if (!p.enabled) continue;
    auto& mem = memories_[p.memory];
    if (p.addr_value < mem.size() && mem[p.addr_value] != p.data_value) {
      mem[p.addr_value] = p.data_value;  // OOB writes are dropped
      mem_dirty_[p.memory].MarkWord(p.addr_value);
      MarkMemoryReaders(p.memory);
    }
  }
}

void Simulator::Tick(unsigned cycles) {
  for (unsigned c = 0; c < cycles; ++c) {
    Eval();
    CommitEdge();
    ++cycle_count_;
  }
  Eval();
}

Status Simulator::Reset(unsigned cycles) {
  const SignalId rst = design_.reset();
  if (rst == rtl::kInvalidId)
    return FailedPrecondition("design has no reset input");
  HS_RETURN_IF_ERROR(PokeInput(rst, 1));
  Tick(cycles);
  HS_RETURN_IF_ERROR(PokeInput(rst, 0));
  Eval();
  return Status::Ok();
}

Status Simulator::PokeInput(const std::string& name, uint64_t value) {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  return PokeInput(id, value);
}

Status Simulator::PokeInput(SignalId id, uint64_t value) {
  const auto& s = design_.signal(id);
  if (s.kind != SignalKind::kInput)
    return InvalidArgument("'" + s.name + "' is not an input");
  const uint64_t v = TruncBits(value, s.width);
  if (values_[id] != v) {
    values_[id] = v;
    MarkReaders(static_cast<uint32_t>(id));
  }
  return Status::Ok();
}

Result<uint64_t> Simulator::Peek(const std::string& name) const {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  Eval();
  return values_[id];
}

Result<uint64_t> Simulator::PeekMemory(const std::string& name,
                                       unsigned index) const {
  rtl::MemoryId id = design_.FindMemory(name);
  if (id == rtl::kInvalidId) return NotFound("no memory '" + name + "'");
  if (index >= memories_[id].size())
    return OutOfRange("memory index out of range");
  return memories_[id][index];
}

Status Simulator::PokeRegister(const std::string& name, uint64_t value) {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  const auto& s = design_.signal(id);
  const int32_t flop_index = flop_of_signal_[id];
  if (flop_index < 0)
    return InvalidArgument("'" + s.name + "' is not a register");
  const uint64_t v = TruncBits(value, s.width);
  if (values_[id] != v) {
    values_[id] = v;
    flop_dirty_.MarkWord(static_cast<size_t>(flop_index));
    MarkReaders(static_cast<uint32_t>(id));
  }
  return Status::Ok();
}

Status Simulator::PokeMemory(const std::string& name, unsigned index,
                             uint64_t value) {
  rtl::MemoryId id = design_.FindMemory(name);
  if (id == rtl::kInvalidId) return NotFound("no memory '" + name + "'");
  if (index >= memories_[id].size())
    return OutOfRange("memory index out of range");
  const uint64_t v = TruncBits(value, design_.memory(id).width);
  if (memories_[id][index] != v) {
    memories_[id][index] = v;
    mem_dirty_[id].MarkWord(index);
    MarkMemoryReaders(id);
  }
  return Status::Ok();
}

HardwareState Simulator::DumpState() const {
  // Flip-flops and memories change only at clock edges and pokes, never
  // in Eval(), so the dump needs no settled netlist.
  HardwareState st;
  st.flops.reserve(design_.flops().size());
  for (const auto& ff : design_.flops()) st.flops.push_back(values_[ff.q]);
  st.memories = memories_;
  return st;
}

Status Simulator::RestoreState(const HardwareState& st) {
  if (st.flops.size() != design_.flops().size())
    return InvalidArgument("snapshot flop count mismatch");
  if (st.memories.size() != memories_.size())
    return InvalidArgument("snapshot memory count mismatch");
  for (size_t m = 0; m < memories_.size(); ++m) {
    if (st.memories[m].size() != memories_[m].size())
      return InvalidArgument("snapshot memory depth mismatch");
  }
  const auto& flops = design_.flops();
  uint64_t written = 0;
  for (size_t i = 0; i < flops.size(); ++i) {
    const uint64_t v = TruncBits(st.flops[i], design_.signal(flops[i].q).width);
    if (values_[flops[i].q] != v) {
      values_[flops[i].q] = v;
      MarkReaders(static_cast<uint32_t>(flops[i].q));
      ++written;
    }
    shadow_.flops[i] = v;
  }
  for (size_t m = 0; m < memories_.size(); ++m) {
    auto& mem = memories_[m];
    const auto& src = st.memories[m];
    const unsigned width = design_.memory(static_cast<rtl::MemoryId>(m)).width;
    const uint64_t written_before = written;
    for (size_t w = 0; w < mem.size(); ++w) {
      const uint64_t v = TruncBits(src[w], width);
      if (mem[w] != v) {
        mem[w] = v;
        ++written;
      }
      shadow_.memories[m][w] = v;
    }
    if (written != written_before)
      MarkMemoryReaders(static_cast<rtl::MemoryId>(m));
  }
  flop_dirty_.ClearAll();
  for (auto& bm : mem_dirty_) bm.ClearAll();
  ++delta_stats_.restores;
  delta_stats_.words_restored += written;
  delta_stats_.full_words += StateWords(st);
  return Status::Ok();
}

void Simulator::LoadClocked(const HardwareState& st,
                            const std::vector<rtl::MemoryId>& memories,
                            uint64_t cycles) {
  const auto& flops = design_.flops();
  HS_CHECK(st.flops.size() == flops.size() &&
           st.memories.size() == memories_.size());
  for (size_t i = 0; i < flops.size(); ++i) {
    const uint64_t v = TruncBits(st.flops[i], design_.signal(flops[i].q).width);
    if (values_[flops[i].q] != v) {
      values_[flops[i].q] = v;
      flop_dirty_.MarkWord(i);
      MarkReaders(static_cast<uint32_t>(flops[i].q));
    }
  }
  for (rtl::MemoryId m : memories) {
    auto& mem = memories_[m];
    const auto& src = st.memories[m];
    HS_CHECK(src.size() == mem.size());
    const unsigned width = design_.memory(m).width;
    bool changed = false;
    for (size_t w = 0; w < mem.size(); ++w) {
      const uint64_t v = TruncBits(src[w], width);
      if (mem[w] != v) {
        mem[w] = v;
        mem_dirty_[m].MarkWord(w);
        changed = true;
      }
    }
    if (changed) MarkMemoryReaders(m);
  }
  cycle_count_ += cycles;
}

StateDelta Simulator::CaptureDelta() {
  Eval();
  const auto& flops = design_.flops();
  StateDelta d = EmptyDeltaFor(shadow_);
  d.base_hash = HashState(shadow_);

  // Flop space: walk dirty chunks, compare against the shadow, emit the
  // chunks that really changed and fold them into the shadow.
  const uint32_t nfc = flop_dirty_.num_chunks();
  for (uint32_t c = 0; c < nfc; ++c) {
    if (!flop_dirty_.Test(c)) continue;
    const size_t start = size_t{c} * kChunkWords;
    const size_t len = std::min<size_t>(kChunkWords, flops.size() - start);
    bool changed = false;
    for (size_t i = start; i < start + len; ++i)
      if (values_[flops[i].q] != shadow_.flops[i]) { changed = true; break; }
    if (!changed) continue;
    DeltaChunk chunk{0, c, {}};
    chunk.words.reserve(len);
    for (size_t i = start; i < start + len; ++i) {
      shadow_.flops[i] = values_[flops[i].q];
      chunk.words.push_back(shadow_.flops[i]);
    }
    d.chunks.push_back(std::move(chunk));
  }
  flop_dirty_.ClearAll();

  for (size_t m = 0; m < memories_.size(); ++m) {
    const auto& mem = memories_[m];
    auto& shadow_mem = shadow_.memories[m];
    const uint32_t nc = mem_dirty_[m].num_chunks();
    for (uint32_t c = 0; c < nc; ++c) {
      if (!mem_dirty_[m].Test(c)) continue;
      const size_t start = size_t{c} * kChunkWords;
      const size_t len = std::min<size_t>(kChunkWords, mem.size() - start);
      if (std::equal(mem.begin() + start, mem.begin() + start + len,
                     shadow_mem.begin() + start))
        continue;
      std::copy(mem.begin() + start, mem.begin() + start + len,
                shadow_mem.begin() + start);
      d.chunks.push_back({static_cast<uint32_t>(1 + m), c,
                          {mem.begin() + start, mem.begin() + start + len}});
    }
    mem_dirty_[m].ClearAll();
  }

  ++delta_stats_.captures;
  delta_stats_.words_captured += d.PayloadWords();
  delta_stats_.full_words += StateWords(shadow_);
  return d;
}

Status Simulator::RestoreDelta(const StateDelta& delta) {
  if (!delta.ShapeMatches(shadow_))
    return InvalidArgument("delta does not match simulator state shape");
  if (delta.base_hash != 0 && HashState(shadow_) != delta.base_hash)
    return InvalidArgument("delta base is not the simulator's sync point");

  const auto& flops = design_.flops();
  uint64_t written = 0;

  // Pass 1: revert any chunk dirtied since the sync point back to the
  // shadow — the delta is expressed against the sync point, not against
  // whatever the live state drifted to.
  const uint32_t nfc = flop_dirty_.num_chunks();
  for (uint32_t c = 0; c < nfc; ++c) {
    if (!flop_dirty_.Test(c)) continue;
    const size_t start = size_t{c} * kChunkWords;
    const size_t len = std::min<size_t>(kChunkWords, flops.size() - start);
    for (size_t i = start; i < start + len; ++i) {
      if (values_[flops[i].q] != shadow_.flops[i]) {
        values_[flops[i].q] = shadow_.flops[i];
        MarkReaders(static_cast<uint32_t>(flops[i].q));
        ++written;
      }
    }
  }
  flop_dirty_.ClearAll();
  for (size_t m = 0; m < memories_.size(); ++m) {
    auto& mem = memories_[m];
    const auto& shadow_mem = shadow_.memories[m];
    const uint32_t nc = mem_dirty_[m].num_chunks();
    const uint64_t written_before = written;
    for (uint32_t c = 0; c < nc; ++c) {
      if (!mem_dirty_[m].Test(c)) continue;
      const size_t start = size_t{c} * kChunkWords;
      const size_t len = std::min<size_t>(kChunkWords, mem.size() - start);
      for (size_t w = start; w < start + len; ++w) {
        if (mem[w] != shadow_mem[w]) {
          mem[w] = shadow_mem[w];
          ++written;
        }
      }
    }
    mem_dirty_[m].ClearAll();
    if (written != written_before)
      MarkMemoryReaders(static_cast<rtl::MemoryId>(m));
  }

  // Pass 2: apply the delta's chunks to both live and shadow state.
  for (const auto& c : delta.chunks) {
    const size_t start = size_t{c.index} * kChunkWords;
    if (c.space == 0) {
      if (start >= flops.size())
        return InvalidArgument("delta chunk index out of range");
      if (c.words.size() !=
          std::min<size_t>(kChunkWords, flops.size() - start))
        return InvalidArgument("delta chunk payload size mismatch");
      for (size_t i = 0; i < c.words.size(); ++i) {
        const uint64_t v = TruncBits(
            c.words[i], design_.signal(flops[start + i].q).width);
        if (values_[flops[start + i].q] != v) {
          values_[flops[start + i].q] = v;
          MarkReaders(static_cast<uint32_t>(flops[start + i].q));
          ++written;
        }
        shadow_.flops[start + i] = v;
      }
    } else {
      if (c.space > memories_.size())
        return InvalidArgument("delta chunk space out of range");
      auto& mem = memories_[c.space - 1];
      if (start >= mem.size())
        return InvalidArgument("delta chunk index out of range");
      if (c.words.size() != std::min<size_t>(kChunkWords, mem.size() - start))
        return InvalidArgument("delta chunk payload size mismatch");
      const unsigned width =
          design_.memory(static_cast<rtl::MemoryId>(c.space - 1)).width;
      bool changed = false;
      for (size_t i = 0; i < c.words.size(); ++i) {
        const uint64_t v = TruncBits(c.words[i], width);
        if (mem[start + i] != v) {
          mem[start + i] = v;
          changed = true;
          ++written;
        }
        shadow_.memories[c.space - 1][start + i] = v;
      }
      if (changed) MarkMemoryReaders(static_cast<rtl::MemoryId>(c.space - 1));
    }
  }

  ++delta_stats_.restores;
  delta_stats_.words_restored += written;
  delta_stats_.full_words += StateWords(shadow_);
  return Status::Ok();
}

void Simulator::MarkSynced() {
  Eval();
  const auto& flops = design_.flops();
  for (size_t i = 0; i < flops.size(); ++i)
    shadow_.flops[i] = values_[flops[i].q];
  shadow_.memories = memories_;
  flop_dirty_.ClearAll();
  for (auto& bm : mem_dirty_) bm.ClearAll();
}

}  // namespace hardsnap::sim
