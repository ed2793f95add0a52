#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util.h"

namespace perfbench {

using hardsnap::Status;

namespace {

// State the asynchronous cleanup paths (signal handlers, atexit) need,
// kept in plain storage so the handlers stay async-signal-safe.
std::atomic<pid_t> g_pid{-1};
char g_socket_path[512];
char g_log_path[512];
char g_dir[512];

// Terminates and reaps the daemon registered in g_pid, if any; false when
// there was none. Async-signal-safe; runs at most once per daemon.
bool KillAndReap(int* wait_status) {
  const pid_t pid = g_pid.exchange(-1);
  if (pid <= 0) return false;
  kill(pid, SIGTERM);
  int status = 0;
  // The daemon drains within a few poll intervals (100 ms); give it 10 s
  // before forcing it.
  for (int i = 0; i < 1000; ++i) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) break;
    if (i == 999) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    const timespec ts{0, 10'000'000};
    nanosleep(&ts, nullptr);
  }
  if (wait_status) *wait_status = status;
  return true;
}

// Removes the socket, the log and the daemon's directory.
void RemoveFiles() {
  unlink(g_socket_path);
  unlink(g_log_path);
  rmdir(g_dir);
}

extern "C" void OnFatalSignal(int sig) {
  if (KillAndReap(nullptr)) RemoveFiles();
  signal(sig, SIG_DFL);
  raise(sig);
}

void AtExit() {
  if (KillAndReap(nullptr)) RemoveFiles();
}

void InstallCleanupHooks() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::atexit(AtExit);
  struct sigaction sa {};
  sa.sa_handler = OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT, SIGABRT})
    sigaction(sig, &sa, nullptr);
}

bool CopyPath(char* dst, const std::string& src) {
  if (src.size() + 1 > sizeof g_dir) return false;
  std::memcpy(dst, src.c_str(), src.size() + 1);
  return true;
}

std::string ReadSmallFile(const std::string& path) {
  std::string out;
  if (FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[512];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0 && out.size() < 4096)
      out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace

Daemon::~Daemon() { (void)Stop(); }

Status Daemon::Start(const std::string& binary, const std::string& work_dir) {
  if (pid_ > 0) return hardsnap::FailedPrecondition("daemon already running");
  if (access(binary.c_str(), X_OK) != 0)
    return hardsnap::NotFound("hardsnapd binary not found: " + binary);
  mkdir(work_dir.c_str(), 0700);
  std::string templ = work_dir + "/hsd-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr)
    return hardsnap::Internal("mkdtemp in " + work_dir + ": " +
                              std::strerror(errno));
  dir_ = templ;
  const std::string socket_path = dir_ + "/d.sock";
  const std::string log_path = dir_ + "/hardsnapd.log";
  if (!CopyPath(g_dir, dir_) || !CopyPath(g_socket_path, socket_path) ||
      !CopyPath(g_log_path, log_path))
    return hardsnap::InvalidArgument("work directory path too long");
  address_ = "unix:" + socket_path;
  InstallCleanupHooks();

  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0)
    return hardsnap::Internal(std::string("pipe: ") + std::strerror(errno));
  const std::string serve_arg = "--serve=" + address_;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return hardsnap::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (log >= 0) dup2(log, STDERR_FILENO);
    // Two campaign workers and the probe connect at most 3 sessions at a
    // time; the cap leaves room for sessions of the previous unit that
    // the daemon has not yet seen close, so no connect is ever refused.
    execl(binary.c_str(), binary.c_str(), serve_arg.c_str(), "--targets=8",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  pid_ = pid;
  g_pid.store(pid);
  close(out_pipe[1]);

  // Wait for the banner "hardsnapd: ... on unix:...".
  std::string banner;
  const double deadline = Now() + 30.0;
  Status result = hardsnap::DeadlineExceeded("hardsnapd did not start");
  while (Now() < deadline) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int r = poll(&pfd, 1, 100);
    if (r < 0 && errno != EINTR) break;
    if (r > 0) {
      char buf[256];
      const ssize_t n = read(out_pipe[0], buf, sizeof buf);
      if (n <= 0) {
        result = hardsnap::Unavailable("hardsnapd exited during start-up: " +
                                       ReadSmallFile(log_path));
        break;
      }
      banner.append(buf, static_cast<size_t>(n));
      if (banner.find('\n') != std::string::npos) {
        if (banner.find(" on " + address_) != std::string::npos)
          result = Status::Ok();
        else
          result = hardsnap::Internal("unexpected hardsnapd banner: " + banner);
        break;
      }
    }
  }
  close(out_pipe[0]);
  if (!result.ok()) (void)Stop();
  return result;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Ok();
  peak_rss_mb_ = PeakRssMb(std::to_string(pid_));
  pid_ = -1;
  int status = 0;
  if (!KillAndReap(&status)) return Status::Ok();  // already reaped
  const std::string log = ReadSmallFile(g_log_path);
  RemoveFiles();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return hardsnap::Internal("hardsnapd ended with status " +
                              std::to_string(status) + ": " + log);
  if (log.find("protocol errors 0") == std::string::npos)
    return hardsnap::Internal("hardsnapd reported protocol errors: " + log);
  return Status::Ok();
}

}  // namespace perfbench
