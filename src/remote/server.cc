#include "remote/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "common/logging.h"
#include "snapshot/snapshot.h"

namespace hardsnap::remote {

namespace {

void SetStatus(Reply* reply, const Status& status) {
  reply->code = status.code();
  reply->message = status.message();
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TargetServer::TargetServer(net::Listener listener, TargetFactory factory,
                           TargetServerOptions options)
    : listener_(std::move(listener)),
      bound_(listener_.bound()),
      factory_(std::move(factory)),
      options_(std::move(options)) {}

Result<std::unique_ptr<TargetServer>> TargetServer::Start(
    const net::Address& listen, TargetFactory factory,
    TargetServerOptions options) {
  if (!factory) return InvalidArgument("target server needs a factory");
  auto listener = net::Listener::Bind(listen);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<TargetServer> server(new TargetServer(
      std::move(listener).value(), std::move(factory), std::move(options)));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  LogInfo(server->options_.name + ": serving on " +
          server->bound_.ToString());
  return server;
}

TargetServer::~TargetServer() { Stop(); }

void TargetServer::Drain() {
  if (!draining_.exchange(true))
    LogInfo(options_.name + ": draining — refusing new sessions");
}

void TargetServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  Drain();
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::pair<uint64_t, std::thread>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    finished_.clear();
  }
  for (auto& [id, t] : sessions)
    if (t.joinable()) t.join();
  LogInfo(options_.name + ": stopped");
}

size_t TargetServer::session_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void TargetServer::ReapFinishedSessions() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = std::find_if(sessions_.begin(), sessions_.end(),
                             [id](const auto& s) { return s.first == id; });
      if (it == sessions_.end()) continue;
      done.push_back(std::move(it->second));
      sessions_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void TargetServer::EndSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sessions_closed;
  finished_.push_back(session_id);
  active_sessions_.fetch_sub(1);
}

ServerStats TargetServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TargetServer::Refuse(net::Socket socket, const std::string& why) {
  Reply reply;
  SetStatus(&reply, Unavailable(why));
  net::FrameStream stream(std::move(socket));
  // Best-effort: the client maps either this reply or a bare close to
  // kUnavailable and takes the fail-over path.
  (void)stream.Send(bus::Frame::kReplyErr, 0,
                    static_cast<uint32_t>(Op::kHello), EncodeReply(reply));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sessions_refused;
}

void TargetServer::AcceptLoop() {
  while (!stopping_.load()) {
    ReapFinishedSessions();
    auto socket = listener_.Accept(options_.accept_poll_ms);
    if (!socket.ok()) {
      if (socket.status().code() == StatusCode::kDeadlineExceeded) continue;
      if (stopping_.load()) break;
      LogWarn(options_.name + ": accept failed: " +
              socket.status().ToString());
      if (socket.status().code() == StatusCode::kUnavailable) break;
      continue;
    }
    if (draining_.load()) {
      Refuse(std::move(socket).value(), "server draining");
      continue;
    }
    if (active_sessions_.load() >= options_.max_sessions) {
      Refuse(std::move(socket).value(),
             "server full (" + std::to_string(options_.max_sessions) +
                 " sessions)");
      continue;
    }
    active_sessions_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = next_session_id_++;
    ++stats_.sessions_accepted;
    sessions_.emplace_back(
        id, std::thread([this, id, sock = std::make_shared<net::Socket>(
                                       std::move(socket).value())]() mutable {
          RunSession(std::move(*sock), id);
        }));
  }
}

void TargetServer::RunSession(net::Socket socket, uint64_t session_id) {
  const std::string tag =
      options_.name + " session " + std::to_string(session_id);
  net::FrameStream stream(std::move(socket));

  auto target_or = factory_();
  if (!target_or.ok()) {
    LogError(tag + ": target creation failed: " +
             target_or.status().ToString());
    Reply reply;
    SetStatus(&reply, target_or.status());
    (void)stream.Send(bus::Frame::kReplyErr, 0,
                      static_cast<uint32_t>(Op::kHello), EncodeReply(reply));
    EndSession(session_id);
    return;
  }
  std::unique_ptr<bus::HardwareTarget> target = std::move(target_or).value();
  LogInfo(tag + ": open (target " + target->name() + ")");

  std::string close_reason = "drained";
  uint64_t prev_sent = 0, prev_received = 0;
  while (!draining_.load()) {
    auto msg = stream.Recv(options_.idle_poll_ms, options_.io_timeout_ms);
    if (!msg.ok()) {
      const StatusCode code = msg.status().code();
      if (code == StatusCode::kDeadlineExceeded) continue;  // idle poll
      if (code == StatusCode::kUnavailable) {
        close_reason = "peer closed";
      } else {
        // Malformed traffic (bad CRC, forged length, stalled stream):
        // log it and end THIS session only.
        close_reason = "protocol error: " + msg.status().ToString();
        LogError(tag + ": " + close_reason);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      break;
    }
    if (msg.value().kind != bus::Frame::kCommand) {
      close_reason = "protocol error: unexpected frame kind " +
                     std::to_string(msg.value().kind);
      LogError(tag + ": " + close_reason);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
      break;
    }

    const uint64_t serve_start = WallMicros();
    const Op op = static_cast<Op>(msg.value().op);
    Reply reply;
    uint64_t batched = 0;
    auto request = DecodeRequest(op, msg.value().payload);
    if (!request.ok()) {
      close_reason = "malformed " + std::string(OpName(op)) +
                     " request: " + request.status().ToString();
      LogError(tag + ": " + close_reason);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
      break;
    }
    batched = request.value().ops.size();
    Serve(target.get(), request.value(), &reply);

    const uint8_t kind = reply.code == StatusCode::kOk
                             ? bus::Frame::kReplyOk
                             : bus::Frame::kReplyErr;
    const Status sent =
        stream.Send(kind, msg.value().seq, msg.value().op,
                    EncodeReply(reply));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rpcs;
      stats_.batched_ops += batched;
      stats_.rpc_wall_micros += WallMicros() - serve_start;
      stats_.bytes_received += stream.bytes_received() - prev_received;
      stats_.bytes_sent += stream.bytes_sent() - prev_sent;
      prev_received = stream.bytes_received();
      prev_sent = stream.bytes_sent();
    }
    if (!sent.ok()) {
      close_reason = "send failed: " + sent.ToString();
      break;
    }
  }

  LogInfo(tag + ": closed (" + close_reason + ")");
  EndSession(session_id);
}

void TargetServer::Serve(bus::HardwareTarget* target, const Request& request,
                         Reply* reply) {
  const Duration clock_before = target->clock().now();
  const Duration run_before = target->stats().run_time;

  switch (request.op) {
    case Op::kHello: {
      if (request.version != kProtocolVersion) {
        SetStatus(reply,
                  FailedPrecondition(
                      "protocol version mismatch: client " +
                      std::to_string(request.version) + ", server " +
                      std::to_string(kProtocolVersion)));
        break;
      }
      HelloInfo info;
      info.target_name = target->name();
      info.target_kind = static_cast<uint8_t>(target->kind());
      if (dynamic_cast<bus::DeltaSnapshotter*>(target))
        info.capabilities |= kCapDeltaSnapshots;
      if (auto* slots = dynamic_cast<bus::SlotSnapshotter*>(target)) {
        info.capabilities |= kCapSlots;
        info.num_slots = slots->NumSlots();
      }
      info.state_format_version = snapshot::kStateFormatVersion;
      info.shape_digest = options_.shape_digest;
      reply->blob = EncodeHelloInfo(info);
      break;
    }
    case Op::kBatch: {
      auto reads = bus::ExecuteMmioOps(target, request.ops);
      if (!reads.ok())
        SetStatus(reply, reads.status());
      else
        reply->read_values = std::move(reads).value();
      break;
    }
    case Op::kReset:
      SetStatus(reply, target->ResetHardware());
      break;
    case Op::kSaveState: {
      auto state = target->SaveState();
      if (!state.ok())
        SetStatus(reply, state.status());
      else
        reply->blob = snapshot::SerializeState(state.value());
      break;
    }
    case Op::kRestoreState: {
      auto state = snapshot::DeserializeState(request.blob);
      if (!state.ok())
        SetStatus(reply, state.status());
      else
        SetStatus(reply, target->RestoreState(state.value()));
      break;
    }
    case Op::kStateHash: {
      auto hash = target->StateHash();
      if (!hash.ok())
        SetStatus(reply, hash.status());
      else
        reply->value64 = hash.value();
      break;
    }
    case Op::kSaveDelta: {
      auto* delta = dynamic_cast<bus::DeltaSnapshotter*>(target);
      if (!delta) {
        SetStatus(reply, Unimplemented("target has no delta snapshots"));
        break;
      }
      auto d = delta->SaveStateDelta();
      if (!d.ok())
        SetStatus(reply, d.status());
      else
        reply->blob = snapshot::SerializeStateDelta(d.value());
      break;
    }
    case Op::kRestoreDelta: {
      auto* delta = dynamic_cast<bus::DeltaSnapshotter*>(target);
      if (!delta) {
        SetStatus(reply, Unimplemented("target has no delta snapshots"));
        break;
      }
      auto d = snapshot::DeserializeStateDelta(request.blob);
      if (!d.ok())
        SetStatus(reply, d.status());
      else
        SetStatus(reply, delta->RestoreStateDelta(d.value()));
      break;
    }
    case Op::kSlotSave:
    case Op::kSlotRestore: {
      auto* slots = dynamic_cast<bus::SlotSnapshotter*>(target);
      if (!slots) {
        SetStatus(reply, Unimplemented("target has no snapshot slots"));
        break;
      }
      SetStatus(reply, request.op == Op::kSlotSave
                           ? slots->SaveLiveToSlot(request.slot)
                           : slots->RestoreLiveFromSlot(request.slot));
      break;
    }
    case Op::kStats:
      reply->blob = EncodeServerStats(stats());
      break;
    default:
      SetStatus(reply, Unimplemented("unknown opcode"));
      break;
  }

  reply->elapsed_ps =
      static_cast<uint64_t>((target->clock().now() - clock_before).picos());
  reply->run_ps = static_cast<uint64_t>(
      (target->stats().run_time - run_before).picos());
  reply->irq_vector = target->IrqVector();
}

}  // namespace hardsnap::remote
