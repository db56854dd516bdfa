#include "fleet/supervise.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "fleet/proto.hpp"

namespace mt4g::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// One supervised worker process and the coordinator's view of it.
struct Worker {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< coordinator -> worker commands
  int stdout_fd = -1;  ///< worker -> coordinator records
  std::string buffer;  ///< partial line carried between reads
  bool ready = false;  ///< handshake line seen
  bool busy = false;
  bool shutting_down = false;  ///< shutdown sent; EOF is the expected end
  std::size_t job_index = 0;   ///< valid while busy
  Clock::time_point last_activity;  ///< any complete line bumps this
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
  worker.ready = false;
  worker.busy = false;
  worker.shutting_down = false;
  worker.last_activity = Clock::now();
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

struct QueueItem {
  std::size_t index = 0;
  Clock::time_point not_before;  ///< retry backoff gate
};

}  // namespace

std::vector<JobResult> run_supervised(const std::vector<DiscoveryJob>& jobs,
                                      const SupervisorOptions& options,
                                      std::vector<JobResult> prefilled) {
  if (options.worker_argv.empty()) {
    throw std::invalid_argument("run_supervised: worker_argv is empty");
  }
  std::vector<JobResult> results = std::move(prefilled);
  results.resize(jobs.size());
  if (jobs.empty()) return results;

  const std::uint32_t procs = std::max<std::uint32_t>(options.procs, 1);
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(options.retry.max_attempts, 1);
  // Idle deaths (a worker that dies before ever being assigned work) signal
  // a broken worker command, not a broken job; after this many the pool is
  // declared unusable instead of fork-looping forever.
  const std::uint32_t max_idle_deaths = 3 * procs;

  if (options.progress) {
    options.progress->total.store(jobs.size(), std::memory_order_relaxed);
  }

  IgnoreSigpipe sigpipe_guard;

  std::size_t finished = 0;   // results that reached their final state
  std::size_t reported = 0;   // on_result sequence number
  std::vector<std::uint32_t> attempts_used(jobs.size(), 0);
  std::vector<std::uint32_t> crashes(jobs.size(), 0);

  const auto finish = [&](std::size_t index) {
    JobResult& result = results[index];
    ++finished;
    record_finished(result, options.progress);
    if (result.ok && !result.from_cache && !result.from_journal &&
        options.cache) {
      try {
        options.cache->put(result.job, result.report);
      } catch (...) {
        // Cache write problems never demote a successful discovery.
      }
    }
    // Journal before reporting: once the callback (or a later assignment)
    // observes this outcome it must already be durable. Skipped jobs are
    // deliberately not journaled — a resumed run should attempt them.
    if (options.journal && !result.from_journal && !result.skipped) {
      options.journal->append(result);
    }
    if (options.on_result) {
      options.on_result(result, ++reported, jobs.size());
    }
  };

  // Seed the queue: journaled results replay, cache hits answer immediately,
  // the rest queue for the workers in job order.
  std::deque<QueueItem> queue;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results[i].job = jobs[i];
    if (results[i].from_journal) {
      finish(i);
      continue;
    }
    try {
      if (options.cache) {
        if (auto cached = options.cache->get(jobs[i])) {
          results[i].report = std::move(*cached);
          results[i].ok = true;
          results[i].from_cache = true;
          finish(i);
          continue;
        }
      }
    } catch (...) {
      // A broken cache degrades to a recompute, never fails the job.
    }
    queue.push_back({i, Clock::now()});
  }

  std::vector<Worker> workers;
  bool spawn_allowed = true;
  std::uint32_t idle_deaths = 0;
  bool cancelled = false;

  const auto busy_count = [&] {
    return static_cast<std::size_t>(
        std::count_if(workers.begin(), workers.end(),
                      [](const Worker& w) { return w.busy; }));
  };

  // A worker died or was executed. Contains the orphaned job (if any) under
  // the retry budget and drops the worker from the pool.
  const auto contain_death = [&](std::size_t worker_pos,
                                 const std::string& how) {
    Worker worker = std::move(workers[worker_pos]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(worker_pos));
    const std::string verdict = kill_and_reap(worker);
    if (worker.shutting_down) return;
    if (!worker.busy) {
      ++idle_deaths;
      if (idle_deaths >= max_idle_deaths) spawn_allowed = false;
      return;
    }
    const std::size_t index = worker.job_index;
    ++crashes[index];
    results[index].worker_crashes = crashes[index];
    count_event(options.progress, &FleetProgress::worker_crashes,
                "fleet.worker_crashes");
    if (attempts_used[index] < max_attempts) {
      const std::uint32_t wait =
          options.retry.backoff_ms(attempts_used[index] + 1);
      queue.push_back({index, Clock::now() + std::chrono::milliseconds(wait)});
      return;
    }
    JobResult& result = results[index];
    result.ok = false;
    result.crashed = true;
    result.attempts = attempts_used[index];
    result.retried = attempts_used[index] > 1;
    result.error = "worker crashed (" + how + "; " + verdict +
                   ") while running the job";
    finish(index);
  };

  // One worker -> coordinator record. False = protocol violation (the caller
  // kills the worker and contains the death).
  const auto handle_message = [&](Worker& worker,
                                  const std::string& line) -> bool {
    std::string reason;
    auto message = parse_worker_message(line, &reason);
    if (!message) return false;
    worker.last_activity = Clock::now();
    switch (message->type) {
      case WorkerMessage::Type::kReady:
        worker.ready = true;
        return true;
      case WorkerMessage::Type::kHeartbeat:
        return true;
      case WorkerMessage::Type::kDone:
      case WorkerMessage::Type::kFailed:
        break;
    }
    if (!worker.busy || message->index != worker.job_index ||
        message->key != jobs[worker.job_index].key()) {
      return false;  // a result for a job this worker does not hold
    }
    const std::size_t index = worker.job_index;
    worker.busy = false;
    JobResult& result = results[index];
    result.attempts = attempts_used[index];
    result.retried = attempts_used[index] > 1;
    result.wall_seconds += message->wall_seconds;
    if (message->type == WorkerMessage::Type::kDone) {
      result.ok = true;
      result.error.clear();
      result.timed_out = false;
      result.report = std::move(message->report);
      finish(index);
      return true;
    }
    result.ok = false;
    result.error = message->error;
    result.timed_out = message->timed_out;
    if (message->timed_out) {
      count_event(options.progress, &FleetProgress::timeouts,
                  "fleet.timeouts");
    }
    if (!message->permanent && attempts_used[index] < max_attempts) {
      const std::uint32_t wait =
          options.retry.backoff_ms(attempts_used[index] + 1);
      queue.push_back({index, Clock::now() + std::chrono::milliseconds(wait)});
      return true;
    }
    finish(index);
    return true;
  };

  const auto drain_buffer = [&](std::size_t worker_pos) -> bool {
    Worker& worker = workers[worker_pos];
    std::size_t newline = worker.buffer.find('\n');
    while (newline != std::string::npos) {
      const std::string line = worker.buffer.substr(0, newline);
      worker.buffer.erase(0, newline + 1);
      if (!line.empty() && !handle_message(worker, line)) {
        contain_death(worker_pos, "sent an unreadable record");
        return false;
      }
      newline = worker.buffer.find('\n');
    }
    return true;
  };

  while (finished < jobs.size()) {
    // Graceful stop: drop the queue as skipped; in-flight jobs run out.
    if (!cancelled && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      cancelled = true;
      for (const QueueItem& item : queue) {
        JobResult& result = results[item.index];
        result.skipped = true;
        result.attempts = attempts_used[item.index];
        result.error = "skipped: sweep cancelled";
        finish(item.index);
      }
      queue.clear();
    }

    // Keep the pool at strength while there is queued work.
    while (spawn_allowed && !queue.empty() && workers.size() < procs) {
      Worker worker;
      std::string error;
      if (!spawn_worker(options.worker_argv, worker, error)) {
        ++idle_deaths;
        if (idle_deaths >= max_idle_deaths) spawn_allowed = false;
        break;
      }
      workers.push_back(std::move(worker));
    }

    // No pool and no way to build one: fail what remains, loudly.
    if (!queue.empty() && workers.empty() && !spawn_allowed) {
      for (const QueueItem& item : queue) {
        JobResult& result = results[item.index];
        result.ok = false;
        result.attempts = attempts_used[item.index];
        result.error =
            "worker pool unusable: workers died or failed to spawn " +
            std::to_string(idle_deaths) + " times before taking a job";
        finish(item.index);
      }
      queue.clear();
      continue;
    }

    // Assign ready queue items to idle ready workers.
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers.size() && !queue.empty(); ++w) {
      Worker& worker = workers[w];
      if (!worker.ready || worker.busy || worker.shutting_down) continue;
      const auto item = std::find_if(
          queue.begin(), queue.end(),
          [&](const QueueItem& q) { return q.not_before <= now; });
      if (item == queue.end()) break;
      const std::size_t index = item->index;
      queue.erase(item);
      ++attempts_used[index];
      if (attempts_used[index] > 1) {
        count_event(options.progress, &FleetProgress::retries,
                    "fleet.retries");
      }
      worker.busy = true;
      worker.job_index = index;
      const std::string assignment =
          encode_job_assignment(jobs[index], index, attempts_used[index],
                                options.retry.timeout_seconds);
      if (!write_all(worker.stdin_fd, assignment)) {
        // Died between poll and write: EOF handling would find it anyway,
        // but the failed write already proves it.
        contain_death(w, "pipe closed before the assignment arrived");
        --w;  // the vector shifted; re-examine this slot
      }
    }

    if (finished >= jobs.size()) break;
    if (workers.empty()) continue;  // spawn failed; retry the outer loop

    // Wait for worker records; cap the wait so backoff gates, liveness
    // checks and cancellation stay responsive.
    std::vector<struct pollfd> fds;
    fds.reserve(workers.size());
    for (const Worker& worker : workers) {
      fds.push_back({worker.stdout_fd, POLLIN, 0});
    }
    int timeout_ms = 100;
    for (const QueueItem& item : queue) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                            item.not_before - now)
                            .count();
      timeout_ms = std::min<int>(
          timeout_ms, static_cast<int>(std::max<long long>(wait, 0)) + 1);
    }
    const int poll_rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (poll_rc < 0 && errno != EINTR) break;  // poll itself broke; bail out

    // Read every worker with data or EOF. Iterate by pid (positions shift
    // when contain_death erases) — match fds back to current workers.
    for (const struct pollfd& pfd : fds) {
      if (pfd.revents == 0) continue;
      const auto pos = std::find_if(
          workers.begin(), workers.end(),
          [&](const Worker& w) { return w.stdout_fd == pfd.fd; });
      if (pos == workers.end()) continue;  // already contained this round
      const std::size_t worker_pos =
          static_cast<std::size_t>(pos - workers.begin());
      char chunk[4096];
      const ssize_t n = ::read(pfd.fd, chunk, sizeof(chunk));
      if (n > 0) {
        workers[worker_pos].buffer.append(chunk,
                                          static_cast<std::size_t>(n));
        drain_buffer(worker_pos);
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        contain_death(worker_pos, n == 0 ? "stdout closed mid-run"
                                         : "stdout read failed");
      }
    }

    // Liveness: a worker silent past the timeout is dead to us, whatever
    // state its process is in.
    if (options.heartbeat_timeout_seconds > 0) {
      const Clock::time_point deadline =
          Clock::now() - std::chrono::milliseconds(static_cast<long long>(
                             options.heartbeat_timeout_seconds * 1000.0));
      for (std::size_t w = 0; w < workers.size();) {
        if (workers[w].last_activity < deadline) {
          contain_death(w, "missed its heartbeat");
        } else {
          ++w;
        }
      }
    }
  }

  // Orderly teardown: ask nicely (shutdown line + stdin EOF), give the pool
  // a moment, then make it final.
  for (Worker& worker : workers) {
    worker.shutting_down = true;
    if (worker.stdin_fd >= 0) {
      write_all(worker.stdin_fd, encode_shutdown());
      close_fd(worker.stdin_fd);
    }
  }
  const Clock::time_point patience =
      Clock::now() + std::chrono::milliseconds(2000);
  for (Worker& worker : workers) {
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
  return results;
}

}  // namespace mt4g::fleet
