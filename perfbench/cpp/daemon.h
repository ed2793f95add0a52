// hardsnapd process management for the fuzz-remote workload.
//
// Start() launches the daemon built from the checkout on a Unix socket in
// a private directory under the benchmark's work directory and returns
// once the daemon has announced its listening address (it prints the
// banner only after listen() succeeded, so connects from then on are
// accepted). Stop() sends SIGTERM, waits for the drain to finish, reaps
// the process and removes the socket directory.
//
// Every exit path stops the daemon: Stop() on success, the destructor on
// errors, an atexit hook for Fatal(), and signal handlers for SIGINT,
// SIGTERM, SIGHUP, SIGQUIT and SIGABRT delivered to the benchmark. The
// child also asks the kernel to SIGTERM it should the benchmark die
// without running any of those (PR_SET_PDEATHSIG).
#pragma once

#include <sys/types.h>

#include <string>

#include "common/status.h"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // `binary` must be the hardsnapd inside the checkout; `work_dir` is a
  // directory inside the checkout (the socket path is kept relative to
  // the working directory so it fits sockaddr_un).
  hardsnap::Status Start(const std::string& binary,
                         const std::string& work_dir);

  // SIGTERM, reap, clean up. Returns the daemon's exit status as text
  // when it did not exit 0. Idempotent.
  hardsnap::Status Stop();

  // "unix:<relative path>" the daemon listens on.
  const std::string& address() const { return address_; }
  // Peak resident set of the daemon in MiB (valid after Stop()).
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  std::string dir_;
  std::string address_;
  double peak_rss_mb_ = 0;
};

}  // namespace perfbench
