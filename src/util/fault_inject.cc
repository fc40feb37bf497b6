#include "util/fault_inject.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "util/env_flags.h"

namespace agsc::util {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::set_config(const Config& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  write_count_ = 0;
  loss_count_ = 0;
  task_count_ = 0;
  frame_in_count_ = 0;
  frame_out_count_ = 0;
  frame_read_count_ = 0;
}

FaultInjector::Config FaultInjector::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

void FaultInjector::ReloadFromEnv() {
  Config config;
  config.fail_write = GetEnvOr("AGSC_FAULT_FAIL_WRITE", 0);
  config.fail_write_count = GetEnvOr("AGSC_FAULT_FAIL_WRITE_COUNT", 1);
  config.mutate_write = GetEnvOr("AGSC_FAULT_MUTATE_WRITE", 0);
  config.truncate_at =
      static_cast<long>(GetEnvOr("AGSC_FAULT_TRUNCATE_AT", -1));
  config.flip_byte = static_cast<long>(GetEnvOr("AGSC_FAULT_FLIP_BYTE", -1));
  config.signal_write = GetEnvOr("AGSC_FAULT_SIGNAL_WRITE", 0);
  config.nan_loss = GetEnvOr("AGSC_FAULT_NAN_LOSS", 0);
  config.nan_loss_every = GetEnvOr("AGSC_FAULT_NAN_LOSS_EVERY", 0);
  config.stall_task = GetEnvOr("AGSC_FAULT_STALL_TASK", 0);
  config.stall_every = GetEnvOr("AGSC_FAULT_STALL_EVERY", 0);
  config.stall_ms = static_cast<long>(GetEnvOr("AGSC_FAULT_STALL_MS", 0));
  config.flood_clients = GetEnvOr("AGSC_FAULT_FLOOD_CLIENTS", 0);
  config.flood_depth = GetEnvOr("AGSC_FAULT_FLOOD_DEPTH", 64);
  config.stall_drain_ms =
      static_cast<long>(GetEnvOr("AGSC_FAULT_STALL_DRAIN_MS", 0));
  config.kill_worker_nth = GetEnvOr("AGSC_FAULT_KILL_WORKER_NTH", 0);
  config.corrupt_frame = GetEnvOr("AGSC_FAULT_CORRUPT_FRAME", 0);
  config.stall_pipe = GetEnvOr("AGSC_FAULT_STALL_PIPE", 0);
  config.stall_reads = GetEnvOr("AGSC_FAULT_STALL_READS", 0);
  config.drop_conn = GetEnvOr("AGSC_FAULT_DROP_CONN", 0);
  config.fault_worker_id = GetEnvOr("AGSC_FAULT_WORKER_ID", -1);
  set_config(config);
}

void FaultInjector::Reset() { set_config(Config{}); }

bool FaultInjector::OnWrite(const std::string& bytes,
                            std::optional<std::string>& corrupted) {
  bool raise_signal = false;
  bool ok = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++write_count_;
    if (config_.signal_write > 0 && write_count_ == config_.signal_write) {
      raise_signal = true;
    }
    if (config_.fail_write > 0 && write_count_ >= config_.fail_write &&
        write_count_ < config_.fail_write + std::max(1,
                                                     config_.fail_write_count)) {
      ok = false;
    }
    if (ok && config_.mutate_write > 0 &&
        write_count_ == config_.mutate_write) {
      size_t keep = bytes.size();
      if (config_.truncate_at >= 0 &&
          static_cast<size_t>(config_.truncate_at) < keep) {
        keep = static_cast<size_t>(config_.truncate_at);
      }
      const bool flip = config_.flip_byte >= 0 &&
                        static_cast<size_t>(config_.flip_byte) < keep;
      if (keep < bytes.size() || flip) {
        corrupted.emplace(bytes, 0, keep);
        if (flip) {
          (*corrupted)[static_cast<size_t>(config_.flip_byte)] ^=
              static_cast<char>(0xFF);
        }
      }
    }
  }
  // Raise outside the lock: the handler must never observe the injector
  // mid-update, and a longjmp-free handler returning here re-enters I/O.
  if (raise_signal) ::raise(SIGINT);
  return ok;
}

bool FaultInjector::OnWrite(std::string& bytes) {
  std::optional<std::string> corrupted;
  const bool ok = OnWrite(bytes, corrupted);
  if (corrupted) bytes = std::move(*corrupted);
  return ok;
}

bool FaultInjector::PoisonLossNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.nan_loss <= 0 && config_.nan_loss_every <= 0) return false;
  ++loss_count_;
  if (config_.nan_loss > 0 && loss_count_ == config_.nan_loss) return true;
  return config_.nan_loss_every > 0 &&
         loss_count_ % config_.nan_loss_every == 0;
}

long FaultInjector::NextStallMs() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.stall_ms <= 0 ||
      (config_.stall_task <= 0 && config_.stall_every <= 0)) {
    return 0;
  }
  ++task_count_;
  if (config_.stall_task > 0 && task_count_ == config_.stall_task) {
    return config_.stall_ms;
  }
  if (config_.stall_every > 0 && task_count_ % config_.stall_every == 0) {
    return config_.stall_ms;
  }
  return 0;
}

int FaultInjector::FloodClients() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.flood_clients;
}

int FaultInjector::FloodDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.flood_depth < 1 ? 1 : config_.flood_depth;
}

long FaultInjector::StallDrainMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.stall_drain_ms;
}

bool FaultInjector::KillWorkerNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.kill_worker_nth <= 0) return false;
  return ++frame_in_count_ == config_.kill_worker_nth;
}

FaultInjector::FrameFault FaultInjector::NextFrameFault() {
  std::lock_guard<std::mutex> lock(mutex_);
  FrameFault fault;
  if (config_.corrupt_frame <= 0 && config_.stall_pipe <= 0) return fault;
  ++frame_out_count_;
  if (config_.corrupt_frame > 0 && frame_out_count_ == config_.corrupt_frame) {
    // Flip a payload byte past the header; offset 0 keeps the fault
    // deterministic and independent of payload size.
    fault.corrupt_byte = 0;
  }
  if (config_.stall_pipe > 0 && frame_out_count_ == config_.stall_pipe) {
    fault.stall_ms = config_.stall_ms;
  }
  return fault;
}

FaultInjector::ReadFault FaultInjector::NextReadFault() {
  std::lock_guard<std::mutex> lock(mutex_);
  ReadFault fault;
  if (config_.stall_reads <= 0 && config_.drop_conn <= 0) return fault;
  ++frame_read_count_;
  if (config_.stall_reads > 0 && frame_read_count_ == config_.stall_reads) {
    fault.stall_ms = config_.stall_ms;
  }
  if (config_.drop_conn > 0 && frame_read_count_ == config_.drop_conn) {
    fault.drop = true;
  }
  return fault;
}

void FaultInjector::DisarmWorkerFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  config_.kill_worker_nth = 0;
  config_.corrupt_frame = 0;
  config_.stall_pipe = 0;
  config_.drop_conn = 0;
}

void FaultInjector::DisarmReadStallFault() {
  std::lock_guard<std::mutex> lock(mutex_);
  config_.stall_reads = 0;
}

int FaultInjector::write_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_count_;
}

bool AtomicWriteFile(const std::string& path, const std::string& bytes) {
  std::optional<std::string> corrupted;
  if (!FaultInjector::Instance().OnWrite(bytes, corrupted)) return false;
  const std::string& payload = corrupted ? *corrupted : bytes;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  size_t written = 0;
  bool ok = true;
  while (written < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + written,
                              payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    written += static_cast<size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

}  // namespace agsc::util
