#include "fleet/supervise.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exec/executor.hpp"
#include "fleet/proto.hpp"

namespace mt4g::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// One worker process, owned by one participant slot of the job loop.
struct Worker {
  pid_t pid = -1;      ///< -1 = not running; the next attempt spawns one
  int stdin_fd = -1;   ///< coordinator -> worker commands
  int stdout_fd = -1;  ///< worker -> coordinator records
  std::string buffer;  ///< partial line carried between reads
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Human-readable death verdict from a waitpid status.
std::string describe_exit(int status) {
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  return "ended with status " + std::to_string(status);
}

/// Forks + execs one worker with its stdio wired to fresh pipes. All
/// coordinator-side descriptors are close-on-exec, so workers never inherit
/// each other's pipe ends (a crashed sibling must produce a clean EOF).
bool spawn_worker(const std::vector<std::string>& argv, Worker& worker,
                  std::string& error) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe2(to_child, O_CLOEXEC) != 0 ||
      ::pipe2(from_child, O_CLOEXEC) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    close_fd(to_child[0]);
    close_fd(to_child[1]);
    close_fd(from_child[0]);
    close_fd(from_child[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    close_fd(to_child[0]);
    close_fd(to_child[1]);
    close_fd(from_child[0]);
    close_fd(from_child[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stdio onto the pipes (dup2 clears CLOEXEC), exec the worker.
    if (::dup2(to_child[0], STDIN_FILENO) < 0 ||
        ::dup2(from_child[1], STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      c_argv.push_back(const_cast<char*>(arg.c_str()));
    }
    c_argv.push_back(nullptr);
    ::execvp(c_argv[0], c_argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  worker.pid = pid;
  worker.stdin_fd = to_child[1];
  worker.stdout_fd = from_child[0];
  worker.buffer.clear();
  return true;
}

/// Full line write to a worker's stdin; false on any failure (EPIPE after a
/// death — SIGPIPE is ignored for the duration of the run).
bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// SIGKILL + reap; returns the waitpid verdict. Safe on already-dead pids.
std::string kill_and_reap(Worker& worker) {
  if (worker.pid < 0) return "already reaped";
  ::kill(worker.pid, SIGKILL);
  int status = 0;
  while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
  }
  worker.pid = -1;
  close_fd(worker.stdin_fd);
  close_fd(worker.stdout_fd);
  return describe_exit(status);
}

/// Scoped SIGPIPE suppression: a worker dying between poll() and our write
/// must surface as EPIPE, not kill the coordinator.
class IgnoreSigpipe {
 public:
  IgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

/// Next non-empty line from @p worker, waiting at most @p timeout_ms
/// (-1 = forever) for each read. False with @p why on EOF, a read error or
/// silence; any output, heartbeats included, proves the worker alive.
bool read_line(Worker& worker, int timeout_ms, std::string& line,
               std::string& why) {
  for (;;) {
    const std::size_t newline = worker.buffer.find('\n');
    if (newline != std::string::npos) {
      line = worker.buffer.substr(0, newline);
      worker.buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      return true;
    }
    struct pollfd pfd = {worker.stdout_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      why = "missed its heartbeat";
      return false;
    }
    char chunk[4096];
    const ssize_t n =
        ready < 0 ? -1 : ::read(worker.stdout_fd, chunk, sizeof(chunk));
    if (n > 0) {
      worker.buffer.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
      why = n == 0 ? "stdout closed mid-run" : "stdout read failed";
      return false;
    }
  }
}

/// The process transport: one worker per participant slot, spawned on the
/// slot's first attempt and respawned after a crash. Destruction tears the
/// pool down, so every worker is reaped however the sweep ends.
class WorkerPool {
 public:
  WorkerPool(const std::vector<DiscoveryJob>& jobs,
             const SupervisorOptions& options, std::uint32_t slots)
      : jobs_(jobs),
        options_(options),
        workers_(slots),
        // Idle deaths signal a broken worker command, not a broken job;
        // after this many the pool is declared unusable instead of
        // fork-looping forever.
        max_idle_deaths_(3 * std::max<std::uint32_t>(options.procs, 1)),
        silence_ms_(options.heartbeat_timeout_seconds > 0
                        ? std::max(1, static_cast<int>(
                                          options.heartbeat_timeout_seconds *
                                          1000.0))
                        : -1) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Orderly teardown: ask nicely (shutdown line + stdin EOF), give the pool
  // a moment, then make it final.
  ~WorkerPool() {
    for (Worker& worker : workers_) {
      if (worker.stdin_fd >= 0) {
        write_all(worker.stdin_fd, encode_shutdown());
        close_fd(worker.stdin_fd);
      }
    }
    const Clock::time_point patience =
        Clock::now() + std::chrono::milliseconds(2000);
    for (Worker& worker : workers_) {
      if (worker.pid < 0) continue;
      bool reaped = false;
      while (Clock::now() < patience) {
        int status = 0;
        const pid_t rc = ::waitpid(worker.pid, &status, WNOHANG);
        if (rc == worker.pid || (rc < 0 && errno == ECHILD)) {
          reaped = true;
          break;
        }
        ::poll(nullptr, 0, 10);
      }
      if (!reaped) {
        kill_and_reap(worker);
      } else {
        worker.pid = -1;
        close_fd(worker.stdin_fd);
        close_fd(worker.stdout_fd);
      }
    }
  }

  /// One attempt: assign the job to the slot's worker, then block on its
  /// pipe until the done or failed line. EOF, garbage or silence past the
  /// heartbeat timeout is a crash of this attempt.
  TransportAttempt attempt(std::size_t index, std::uint32_t attempt,
                           std::uint32_t slot) {
    Worker& worker = workers_[slot];
    TransportAttempt tried;
    if (!ensure_worker(worker)) {
      tried.refused = true;
      tried.outcome.error =
          "worker pool unusable: workers died or failed to spawn " +
          std::to_string(idle_deaths_.load()) + " times before taking a job";
      return tried;
    }
    const DiscoveryJob& job = jobs_[index];
    if (!write_all(worker.stdin_fd,
                   encode_job_assignment(job, index, attempt,
                                         options_.retry.timeout_seconds))) {
      return crash(worker, "pipe closed before the assignment arrived");
    }
    const std::string key = job.key();
    std::string line;
    std::string why;
    while (read_line(worker, silence_ms_, line, why)) {
      auto message = parse_worker_message(line, &why);
      if (!message || ((message->type == WorkerMessage::Type::kDone ||
                        message->type == WorkerMessage::Type::kFailed) &&
                       (message->index != index || message->key != key))) {
        // Garbage, or a result for a job this worker does not hold.
        return crash(worker, "sent an unreadable record");
      }
      if (message->type == WorkerMessage::Type::kDone) {
        tried.outcome.ok = true;
        tried.outcome.report = std::move(message->report);
        return tried;
      }
      if (message->type == WorkerMessage::Type::kFailed) {
        tried.outcome.error = std::move(message->error);
        tried.outcome.timed_out = message->timed_out;
        tried.outcome.permanent = message->permanent;
        return tried;
      }
    }
    return crash(worker, why);
  }

 private:
  /// Gives @p worker a live process that has said ready. A worker that
  /// dies, babbles or stays silent before its ready line is an idle death:
  /// never charged to a job. False once the idle deaths reach the cap.
  bool ensure_worker(Worker& worker) {
    while (worker.pid < 0) {
      if (idle_deaths_.load() >= max_idle_deaths_) return false;
      std::string error;
      if (spawn_worker(options_.worker_argv, worker, error) &&
          await_ready(worker)) {
        return true;
      }
      kill_and_reap(worker);
      ++idle_deaths_;
    }
    return true;
  }

  bool await_ready(Worker& worker) {
    std::string line;
    std::string why;
    while (read_line(worker, silence_ms_, line, why)) {
      const auto message = parse_worker_message(line, &why);
      if (!message) return false;
      if (message->type == WorkerMessage::Type::kReady) return true;
      if (message->type != WorkerMessage::Type::kHeartbeat) return false;
    }
    return false;
  }

  static TransportAttempt crash(Worker& worker, const std::string& how) {
    TransportAttempt tried;
    tried.crashed = true;
    tried.outcome.error = "worker crashed (" + how + "; " +
                          kill_and_reap(worker) + ") while running the job";
    return tried;
  }

  const std::vector<DiscoveryJob>& jobs_;
  const SupervisorOptions& options_;
  std::vector<Worker> workers_;  ///< one per slot
  std::atomic<std::uint32_t> idle_deaths_{0};
  const std::uint32_t max_idle_deaths_;
  const int silence_ms_;  ///< liveness bound per read; -1 = none
};

}  // namespace

std::vector<JobResult> run_supervised(const std::vector<DiscoveryJob>& jobs,
                                      const SupervisorOptions& options,
                                      std::vector<JobResult> prefilled) {
  if (options.worker_argv.empty()) {
    throw std::invalid_argument("run_supervised: worker_argv is empty");
  }
  // Journal replays need no worker: size the pool by the jobs left to run,
  // so a fully journaled rerun starts neither processes nor threads.
  std::size_t to_run = jobs.size();
  for (std::size_t i = 0; i < std::min(jobs.size(), prefilled.size()); ++i) {
    if (prefilled[i].from_journal) --to_run;
  }
  const std::size_t procs = std::max<std::uint32_t>(options.procs, 1);
  const auto slots =
      static_cast<std::uint32_t>(std::clamp<std::size_t>(to_run, 1, procs));

  IgnoreSigpipe sigpipe_guard;
  WorkerPool pool(jobs, options, slots);
  // Slots block on their pipes, so they get their own threads rather than
  // the shared pool's: `procs` workers run even when procs > nproc.
  exec::Executor participants(slots - 1);
  return run_jobs(jobs, options, std::move(prefilled), participants, slots,
                  [&pool](std::size_t index, std::uint32_t attempt,
                          std::uint32_t slot) {
                    return pool.attempt(index, attempt, slot);
                  });
}

}  // namespace mt4g::fleet
