#include "scanchain/scan_controller.h"

#include <algorithm>
#include <vector>

#include "common/bitops.h"

namespace hardsnap::scanchain {

using sim::HardwareState;

ScanController::ScanController(sim::Simulator* sim, const ScanChainMap& map)
    : sim_(sim), map_(&map) {
  const auto& d = sim->design();
  scan_enable_ = d.FindSignal("scan_enable");
  scan_in_ = d.FindSignal("scan_in");
  scan_out_ = d.FindSignal("scan_out");
  scan_hold_ = d.FindSignal("scan_hold");
  HS_CHECK_MSG(scan_enable_ != rtl::kInvalidId &&
                   scan_in_ != rtl::kInvalidId &&
                   scan_out_ != rtl::kInvalidId &&
                   scan_hold_ != rtl::kInvalidId,
               "simulator is not running an instrumented design");

  std::vector<bool> has_port(d.memories().size(), false);
  for (const auto& mp : map.mem_ports) {
    PortPins pins{d.FindSignal(mp.port_prefix + "_en"),
                  d.FindSignal(mp.port_prefix + "_wen"),
                  d.FindSignal(mp.port_prefix + "_addr"),
                  d.FindSignal(mp.port_prefix + "_wdata"),
                  d.FindSignal(mp.port_prefix + "_rdata")};
    HS_CHECK_MSG(pins.en != rtl::kInvalidId && pins.wen != rtl::kInvalidId &&
                     pins.addr != rtl::kInvalidId &&
                     pins.wdata != rtl::kInvalidId &&
                     pins.rdata != rtl::kInvalidId && mp.memory >= 0 &&
                     static_cast<size_t>(mp.memory) < has_port.size(),
                 "memory test port '" + mp.port_prefix + "' is missing");
    ports_.push_back(pins);
    ported_.push_back(mp.memory);
    has_port[mp.memory] = true;
  }
  for (size_t m = 0; m < has_port.size(); ++m)
    if (!has_port[m]) unported_.push_back(static_cast<rtl::MemoryId>(m));

  // The word-level pass is exact only when no flip-flop runs functionally
  // during the pass, i.e. when the chain holds every one of them.
  std::vector<bool> chained(d.flops().size(), false);
  size_t covered = 0;
  for (const auto& slot : map.slots) {
    if (slot.flop_index < chained.size() && !chained[slot.flop_index]) {
      chained[slot.flop_index] = true;
      ++covered;
    }
  }
  word_level_ = covered == chained.size();
}

Status ScanController::CheckShape(const HardwareState& st) const {
  const auto& d = sim_->design();
  if (st.flops.size() != d.flops().size())
    return InvalidArgument("state flop count does not match design");
  if (st.memories.size() != d.memories().size())
    return InvalidArgument("state memory count does not match design");
  for (size_t m = 0; m < st.memories.size(); ++m) {
    if (st.memories[m].size() != d.memories()[m].depth)
      return InvalidArgument("state memory depth does not match design");
  }
  return Status::Ok();
}

bool ScanController::UseWordLevel() const {
  if (!word_level_ || sim_->PeekId(scan_hold_) != 0) return false;
  return std::all_of(ports_.begin(), ports_.end(), [&](const PortPins& p) {
    return sim_->PeekId(p.en) == 0 && sim_->PeekId(p.wen) == 0;
  });
}

Status ScanController::WordLevelPass(const HardwareState* load,
                                     HardwareState* capture) {
  if (capture != nullptr) {
    // Every flop is chained, so the chain drains exactly the live flops;
    // memories without a test port read back as zeros.
    *capture = sim_->DumpState();
    for (rtl::MemoryId m : unported_)
      std::fill(capture->memories[m].begin(), capture->memories[m].end(), 0);
  }
  const HardwareState& loaded = load != nullptr ? *load : *capture;
  sim_->LoadClocked(loaded, ported_, PassCycles());

  // Leave every pin where the bit-serial pass leaves it: scan_enable low,
  // scan_in on the last bit fed (bit 0 of slot 0), each port on its last
  // address and, on a writing pass, its last write word. scan_hold and the
  // port enables end low, where UseWordLevel() found them.
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 0));
  if (!map_->slots.empty()) {
    HS_RETURN_IF_ERROR(sim_->PokeInput(
        scan_in_, loaded.flops[map_->slots.front().flop_index] & 1));
  }
  for (size_t i = 0; i < ports_.size(); ++i) {
    const MemPort& mp = map_->mem_ports[i];
    if (mp.depth == 0) continue;
    HS_RETURN_IF_ERROR(sim_->PokeInput(ports_[i].addr, mp.depth - 1));
    if (load != nullptr) {
      HS_RETURN_IF_ERROR(sim_->PokeInput(
          ports_[i].wdata, load->memories[mp.memory][mp.depth - 1]));
    }
  }
  return Status::Ok();
}

Result<HardwareState> ScanController::SaveRestore(
    const HardwareState& new_state) {
  if (!UseWordLevel()) return SaveRestoreSerial(new_state);
  HS_RETURN_IF_ERROR(CheckShape(new_state));
  HardwareState old;
  HS_RETURN_IF_ERROR(WordLevelPass(&new_state, &old));
  return old;
}

Result<HardwareState> ScanController::Save() {
  if (!UseWordLevel()) return SaveSerial();
  HardwareState st;
  HS_RETURN_IF_ERROR(WordLevelPass(nullptr, &st));
  return st;
}

Status ScanController::Restore(const HardwareState& state) {
  if (!UseWordLevel()) return SaveRestoreSerial(state).status();
  HS_RETURN_IF_ERROR(CheckShape(state));
  return WordLevelPass(&state, nullptr);
}

Result<HardwareState> ScanController::SaveRestoreSerial(
    const HardwareState& new_state) {
  HS_RETURN_IF_ERROR(CheckShape(new_state));
  const unsigned n = map_->total_bits;

  // Chain position p holds: slot s bit j, where p = offset(s) + j.
  // To land desired bit v_p at position p we must feed v_{n-1-t} at shift
  // cycle t; symmetrically scan_out at cycle t emits old bit n-1-t.
  std::vector<uint8_t> feed(n), captured(n);
  {
    unsigned p = 0;
    for (const auto& slot : map_->slots) {
      uint64_t v = new_state.flops[slot.flop_index];
      for (unsigned j = 0; j < slot.width; ++j, ++p)
        feed[n - 1 - p] = static_cast<uint8_t>((v >> j) & 1);
    }
  }

  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 1));
  for (unsigned t = 0; t < n; ++t) {
    captured[t] = static_cast<uint8_t>(sim_->PeekId(scan_out_));
    HS_RETURN_IF_ERROR(sim_->PokeInput(scan_in_, feed[t]));
    sim_->Tick(1);
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 0));

  // Decode the captured old register state.
  HardwareState old = new_state;  // correct shape; values overwritten below
  for (auto& f : old.flops) f = 0;
  {
    unsigned p = 0;
    for (const auto& slot : map_->slots) {
      uint64_t v = 0;
      for (unsigned j = 0; j < slot.width; ++j, ++p)
        if (captured[n - 1 - p]) v |= uint64_t{1} << j;
      old.flops[slot.flop_index] = v;
    }
  }

  // Memories: word-at-a-time through the test port (save + swap in the new
  // contents in the same pass). scan_hold freezes the registers we just
  // loaded while the clock ticks for the word-serial phase.
  for (size_t m = 0; m < old.memories.size(); ++m)
    for (auto& w : old.memories[m]) w = 0;
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 1));
  for (size_t i = 0; i < ports_.size(); ++i) {
    const MemPort& mp = map_->mem_ports[i];
    const PortPins& pins = ports_[i];
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.en, 1));
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.wen, 1));
    for (unsigned w = 0; w < mp.depth; ++w) {
      HS_RETURN_IF_ERROR(sim_->PokeInput(pins.addr, w));
      old.memories[mp.memory][w] = sim_->PeekId(pins.rdata);
      HS_RETURN_IF_ERROR(
          sim_->PokeInput(pins.wdata, new_state.memories[mp.memory][w]));
      sim_->Tick(1);
    }
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.wen, 0));
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.en, 0));
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 0));
  return old;
}

Result<HardwareState> ScanController::SaveSerial() {
  const unsigned n = map_->total_bits;
  std::vector<uint8_t> captured(n);

  // Loop scan_out back into scan_in: after exactly n cycles every bit has
  // made a full round trip and the register file is unchanged.
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 1));
  for (unsigned t = 0; t < n; ++t) {
    uint64_t bit = sim_->PeekId(scan_out_);
    captured[t] = static_cast<uint8_t>(bit);
    HS_RETURN_IF_ERROR(sim_->PokeInput(scan_in_, bit));
    sim_->Tick(1);
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 0));

  HardwareState st;
  st.flops.assign(sim_->design().flops().size(), 0);
  st.memories.resize(sim_->design().memories().size());
  for (size_t m = 0; m < st.memories.size(); ++m)
    st.memories[m].assign(sim_->design().memories()[m].depth, 0);

  unsigned p = 0;
  for (const auto& slot : map_->slots) {
    uint64_t v = 0;
    for (unsigned j = 0; j < slot.width; ++j, ++p)
      if (captured[n - 1 - p]) v |= uint64_t{1} << j;
    st.flops[slot.flop_index] = v;
  }

  // Memories: non-destructive reads through the test port (one cycle per
  // word of fabric time; the port write strobe stays low). Registers are
  // frozen via scan_hold while the clock ticks.
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 1));
  for (size_t i = 0; i < ports_.size(); ++i) {
    const MemPort& mp = map_->mem_ports[i];
    const PortPins& pins = ports_[i];
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.en, 1));
    for (unsigned w = 0; w < mp.depth; ++w) {
      HS_RETURN_IF_ERROR(sim_->PokeInput(pins.addr, w));
      st.memories[mp.memory][w] = sim_->PeekId(pins.rdata);
      sim_->Tick(1);
    }
    HS_RETURN_IF_ERROR(sim_->PokeInput(pins.en, 0));
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 0));
  return st;
}

}  // namespace hardsnap::scanchain
