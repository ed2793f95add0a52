#include "sim/simulator.h"

#include <algorithm>
#include <set>

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
  HS_RETURN_IF_ERROR(sim.Levelize());
  sim.Eval();
  return sim;
}

namespace {

// Collect the signals an expression reads (for levelization).
void CollectReads(const Design& d, ExprId id, std::set<SignalId>* out) {
  const Expr& e = d.expr(id);
  if (e.op == Op::kSignal) out->insert(e.signal);
  for (ExprId a : e.args) CollectReads(d, a, out);
}

}  // namespace

Status Simulator::Levelize() {
  const auto& comb = design_.comb();
  const size_t n = comb.size();

  // driver-of-signal -> comb index
  std::vector<int32_t> driver(design_.signals().size(), -1);
  for (size_t i = 0; i < n; ++i) driver[comb[i].target] = static_cast<int32_t>(i);

  // edges: assignment j must run before i if i reads j's target
  std::vector<std::vector<uint32_t>> succs(n);
  std::vector<uint32_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    std::set<SignalId> reads;
    CollectReads(design_, comb[i].value, &reads);
    for (SignalId r : reads) {
      int32_t j = driver[r];
      if (j >= 0 && static_cast<size_t>(j) != i) {
        succs[static_cast<size_t>(j)].push_back(static_cast<uint32_t>(i));
        ++indegree[i];
      } else if (j >= 0 && static_cast<size_t>(j) == i) {
        return Internal("combinational cycle: '" +
                        design_.signal(comb[i].target).name +
                        "' depends on itself");
      }
    }
  }

  comb_order_.clear();
  comb_order_.reserve(n);
  std::vector<uint32_t> ready;
  for (size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(static_cast<uint32_t>(i));
  while (!ready.empty()) {
    uint32_t i = ready.back();
    ready.pop_back();
    comb_order_.push_back(i);
    for (uint32_t s : succs[i])
      if (--indegree[s] == 0) ready.push_back(s);
  }
  if (comb_order_.size() != n) {
    // Name one signal on the cycle for the diagnostic.
    for (size_t i = 0; i < n; ++i) {
      if (indegree[i] != 0)
        return Internal("combinational cycle through '" +
                        design_.signal(comb[i].target).name + "'");
    }
    return Internal("combinational cycle detected");
  }
  return Status::Ok();
}

uint64_t Simulator::EvalExpr(ExprId id) const {
  const Expr& e = design_.expr(id);
  switch (e.op) {
    case Op::kConst: return e.imm;
    case Op::kSignal: return values_[e.signal];
    case Op::kMemRead: {
      uint64_t addr = EvalExpr(e.args[0]);
      const auto& mem = memories_[e.memory];
      return addr < mem.size() ? mem[addr] : 0;  // OOB reads return 0
    }
    default: break;
  }
  const unsigned w = e.width;
  auto aw = [&](int i) { return design_.expr(e.args[i]).width; };
  switch (e.op) {
    case Op::kNot: return TruncBits(~EvalExpr(e.args[0]), w);
    case Op::kNeg: return TruncBits(~EvalExpr(e.args[0]) + 1, w);
    case Op::kRedAnd: return EvalExpr(e.args[0]) == LowMask(aw(0)) ? 1u : 0u;
    case Op::kRedOr: return EvalExpr(e.args[0]) != 0 ? 1u : 0u;
    case Op::kRedXor: return XorReduce(EvalExpr(e.args[0]), aw(0));
    case Op::kLogicNot: return EvalExpr(e.args[0]) == 0 ? 1u : 0u;
    case Op::kAnd: return EvalExpr(e.args[0]) & EvalExpr(e.args[1]);
    case Op::kOr: return EvalExpr(e.args[0]) | EvalExpr(e.args[1]);
    case Op::kXor: return EvalExpr(e.args[0]) ^ EvalExpr(e.args[1]);
    case Op::kAdd: return TruncBits(EvalExpr(e.args[0]) + EvalExpr(e.args[1]), w);
    case Op::kSub: return TruncBits(EvalExpr(e.args[0]) - EvalExpr(e.args[1]), w);
    case Op::kMul: return TruncBits(EvalExpr(e.args[0]) * EvalExpr(e.args[1]), w);
    case Op::kDiv: {
      uint64_t b = EvalExpr(e.args[1]);
      return b == 0 ? LowMask(w) : TruncBits(EvalExpr(e.args[0]) / b, w);
    }
    case Op::kMod: {
      uint64_t b = EvalExpr(e.args[1]);
      uint64_t a = EvalExpr(e.args[0]);
      return b == 0 ? TruncBits(a, w) : TruncBits(a % b, w);
    }
    case Op::kEq: return EvalExpr(e.args[0]) == EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kNe: return EvalExpr(e.args[0]) != EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLtU: return EvalExpr(e.args[0]) < EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLeU: return EvalExpr(e.args[0]) <= EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kGtU: return EvalExpr(e.args[0]) > EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kGeU: return EvalExpr(e.args[0]) >= EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLtS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) <
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kLeS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) <=
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kGtS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) >
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kGeS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) >=
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kShl: {
      uint64_t sh = EvalExpr(e.args[1]);
      return sh >= w ? 0 : TruncBits(EvalExpr(e.args[0]) << sh, w);
    }
    case Op::kShrL: {
      uint64_t sh = EvalExpr(e.args[1]);
      return sh >= 64 ? 0 : EvalExpr(e.args[0]) >> sh;
    }
    case Op::kShrA: {
      int64_t s = SignExtend(EvalExpr(e.args[0]), aw(0));
      uint64_t sh = EvalExpr(e.args[1]);
      if (sh > 63) sh = 63;
      return TruncBits(static_cast<uint64_t>(s >> sh), w);
    }
    case Op::kLogicAnd:
      return (EvalExpr(e.args[0]) != 0 && EvalExpr(e.args[1]) != 0) ? 1u : 0u;
    case Op::kLogicOr:
      return (EvalExpr(e.args[0]) != 0 || EvalExpr(e.args[1]) != 0) ? 1u : 0u;
    case Op::kMux:
      return EvalExpr(e.args[0]) != 0 ? TruncBits(EvalExpr(e.args[1]), w)
                                      : TruncBits(EvalExpr(e.args[2]), w);
    case Op::kConcat: {
      uint64_t acc = 0;
      for (size_t i = 0; i < e.args.size(); ++i) {
        unsigned pw = design_.expr(e.args[i]).width;
        acc = (acc << pw) | TruncBits(EvalExpr(e.args[i]), pw);
      }
      return acc;
    }
    case Op::kSlice: return ExtractBits(EvalExpr(e.args[0]), e.hi, e.lo);
    case Op::kZext: return EvalExpr(e.args[0]);
    case Op::kSext:
      return TruncBits(
          static_cast<uint64_t>(SignExtend(EvalExpr(e.args[0]), aw(0))), w);
    case Op::kConst:
    case Op::kSignal:
    case Op::kMemRead:
      break;
  }
  HS_CHECK_MSG(false, "unhandled op in Simulator::EvalExpr");
  return 0;
}

void Simulator::Eval() const {
  if (!dirty_) return;
  const auto& comb = design_.comb();
  for (uint32_t i : comb_order_) {
    const auto& ca = comb[i];
    values_[ca.target] =
        TruncBits(EvalExpr(ca.value), design_.signal(ca.target).width);
  }
  dirty_ = false;
}

void Simulator::CommitEdge() {
  const auto& flops = design_.flops();
  for (size_t i = 0; i < flops.size(); ++i)
    flop_next_[i] = EvalExpr(flops[i].next);

  // Memory writes read pre-edge values too; evaluate before committing
  // flops. Writes commit in declaration order (last write wins).
  struct PendingWrite { rtl::MemoryId mem; uint64_t addr, data; };
  std::vector<PendingWrite> pending;
  for (const auto& mw : design_.mem_writes()) {
    if (EvalExpr(mw.enable) != 0) {
      pending.push_back({mw.memory, EvalExpr(mw.addr),
                         TruncBits(EvalExpr(mw.data),
                                   design_.memory(mw.memory).width)});
    }
  }

  for (size_t i = 0; i < flops.size(); ++i) {
    const uint64_t next =
        TruncBits(flop_next_[i], design_.signal(flops[i].q).width);
    if (values_[flops[i].q] != next) {
      values_[flops[i].q] = next;
      flop_dirty_.MarkWord(i);
    }
  }
  for (const auto& pw : pending) {
    auto& mem = memories_[pw.mem];
    if (pw.addr < mem.size() && mem[pw.addr] != pw.data) {  // OOB dropped
      mem[pw.addr] = pw.data;
      mem_dirty_[pw.mem].MarkWord(pw.addr);
    }
  }
}

void Simulator::Tick(unsigned cycles) {
  for (unsigned c = 0; c < cycles; ++c) {
    Eval();
    CommitEdge();
    dirty_ = true;
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
  values_[id] = TruncBits(value, s.width);
  dirty_ = true;
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
  }
  dirty_ = true;
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
  }
  dirty_ = true;
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
      ++written;
    }
    shadow_.flops[i] = v;
  }
  for (size_t m = 0; m < memories_.size(); ++m) {
    auto& mem = memories_[m];
    const auto& src = st.memories[m];
    const unsigned width = design_.memory(static_cast<rtl::MemoryId>(m)).width;
    for (size_t w = 0; w < mem.size(); ++w) {
      const uint64_t v = TruncBits(src[w], width);
      if (mem[w] != v) {
        mem[w] = v;
        ++written;
      }
      shadow_.memories[m][w] = v;
    }
  }
  flop_dirty_.ClearAll();
  for (auto& bm : mem_dirty_) bm.ClearAll();
  ++delta_stats_.restores;
  delta_stats_.words_restored += written;
  delta_stats_.full_words += StateWords(st);
  dirty_ = true;
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
    }
  }
  for (rtl::MemoryId m : memories) {
    auto& mem = memories_[m];
    const auto& src = st.memories[m];
    HS_CHECK(src.size() == mem.size());
    const unsigned width = design_.memory(m).width;
    for (size_t w = 0; w < mem.size(); ++w) {
      const uint64_t v = TruncBits(src[w], width);
      if (mem[w] != v) {
        mem[w] = v;
        mem_dirty_[m].MarkWord(w);
      }
    }
  }
  cycle_count_ += cycles;
  dirty_ = true;
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
        ++written;
      }
    }
  }
  flop_dirty_.ClearAll();
  for (size_t m = 0; m < memories_.size(); ++m) {
    auto& mem = memories_[m];
    const auto& shadow_mem = shadow_.memories[m];
    const uint32_t nc = mem_dirty_[m].num_chunks();
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
      for (size_t i = 0; i < c.words.size(); ++i) {
        const uint64_t v = TruncBits(c.words[i], width);
        if (mem[start + i] != v) {
          mem[start + i] = v;
          ++written;
        }
        shadow_.memories[c.space - 1][start + i] = v;
      }
    }
  }

  ++delta_stats_.restores;
  delta_stats_.words_restored += written;
  delta_stats_.full_words += StateWords(shadow_);
  dirty_ = true;
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
