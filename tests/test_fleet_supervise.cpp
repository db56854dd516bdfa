// Process-isolated supervisor (fleet/supervise.hpp), driven against the real
// worker binary (`mt4g_cli fleet-worker`): byte-identical results across the
// procs x sweep_threads grid, crash containment folded into the retry
// budget, crash-exhaustion reporting, garbage-worker containment, the
// supervised journal's no-duplicate-append discipline, and job-by-job parity
// of the worker-process and in-process transports of the one job loop.
//
// The worker binary is resolved as ./mt4g_cli relative to the ctest working
// directory (the build tree, where examples/ binaries land). When it is not
// there — e.g. a bare library build — the process-spawning tests skip.
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/output/json_output.hpp"
#include "fleet/fleet.hpp"

namespace mt4g::fleet {
namespace {

const char kWorkerBinary[] = "./mt4g_cli";

bool worker_binary_available() {
  std::error_code ec;
  return std::filesystem::exists(kWorkerBinary, ec);
}

std::vector<DiscoveryJob> test_jobs(std::uint32_t sweep_threads = 1) {
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  plan.seed_count = 2;
  if (sweep_threads > 1) {
    core::DiscoverOptions options;
    options.sweep_threads = sweep_threads;
    plan.option_variants.push_back(options);
  }
  return expand_jobs(plan);
}

SupervisorOptions supervised(std::uint32_t procs) {
  SupervisorOptions options;
  options.procs = procs;
  options.worker_argv = {kWorkerBinary, "fleet-worker", "--heartbeat-ms",
                         "100"};
  return options;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + "mt4g_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes a fault plan that crashes the worker on the given attempt window
/// of every job whose key contains @p match.
std::string write_crash_plan(TempFile& file, const std::string& match,
                             std::uint32_t count) {
  std::ofstream out(file.path());
  out << R"({"version": 1, "seed": 0, "rules": [{"site": "fleet.worker.job",)"
      << R"( "kind": "crash", "match": ")" << match << R"(", "skip": 0,)"
      << R"( "count": )" << count << "}]}";
  return file.path();
}

/// Writes a fault plan whose @p site throws on the first @p count visits
/// (0 = every visit) of every job whose key contains @p match.
std::string write_throw_plan(TempFile& file, const std::string& site,
                             const std::string& match, std::uint32_t count) {
  std::ofstream out(file.path());
  out << R"({"version": 1, "seed": 0, "rules": [{"site": ")" << site
      << R"(", "kind": "throw", "match": ")" << match << R"(", "count": )"
      << count << "}]}";
  return file.path();
}

TEST(FleetSupervise, EmptyWorkerArgvIsAConfigurationError) {
  SupervisorOptions options;
  EXPECT_THROW(run_supervised(test_jobs(), options), std::invalid_argument);
}

TEST(FleetSupervise, MatchesInProcessResultsAcrossTheProcsGrid) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  for (const std::uint32_t sweep : {1u, 4u}) {
    const auto jobs = test_jobs(sweep);
    const auto clean = run_sweep(jobs);
    for (const auto& result : clean) {
      ASSERT_TRUE(result.ok) << result.job.key() << ": " << result.error;
    }
    for (const std::uint32_t procs : {1u, 3u}) {
      FleetProgress progress;
      SupervisorOptions options = supervised(procs);
      options.progress = &progress;
      const auto results = run_supervised(jobs, options);
      ASSERT_EQ(results.size(), clean.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok)
            << results[i].job.key() << ": " << results[i].error;
        // The tentpole contract: process isolation is invisible in the
        // report bytes for every procs x sweep_threads combination.
        EXPECT_EQ(core::to_json_string(results[i].report),
                  core::to_json_string(clean[i].report))
            << results[i].job.key() << " procs=" << procs
            << " sweep=" << sweep;
      }
      EXPECT_EQ(progress.done.load(), jobs.size());
      EXPECT_EQ(progress.worker_crashes.load(), 0u);
    }
  }
}

TEST(FleetSupervise, WorkerCrashHealsIntoTheRetryBudgetByteIdentical) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  const auto jobs = test_jobs();
  const auto clean = run_sweep(jobs);

  TempFile plan_file("crash_plan.json");
  // The first attempt of every TestGPU-NV job kills its worker mid-job.
  write_crash_plan(plan_file, "model=TestGPU-NV", 1);

  for (const std::uint32_t procs : {1u, 2u}) {
    FleetProgress progress;
    SupervisorOptions options = supervised(procs);
    options.worker_argv.push_back("--fault-plan");
    options.worker_argv.push_back(plan_file.path());
    options.retry.max_attempts = 3;
    options.progress = &progress;
    const auto results = run_supervised(jobs, options);
    ASSERT_EQ(results.size(), clean.size());
    std::size_t crashes = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const JobResult& result = results[i];
      EXPECT_TRUE(result.ok) << result.job.key() << ": " << result.error;
      EXPECT_FALSE(result.crashed);
      EXPECT_EQ(core::to_json_string(result.report),
                core::to_json_string(clean[i].report))
          << result.job.key() << " procs=" << procs;
      if (result.worker_crashes > 0) {
        ++crashes;
        EXPECT_TRUE(result.retried) << result.job.key();
        EXPECT_GE(result.attempts, 2u) << result.job.key();
        EXPECT_NE(result.job.key().find("TestGPU-NV"), std::string::npos);
      }
    }
    EXPECT_EQ(crashes, 2u) << "both NV jobs crash their first attempt";
    EXPECT_GE(progress.worker_crashes.load(), 2u);
  }
}

TEST(FleetSupervise, CrashLoopExhaustsTheBudgetAndIsReportedAsCrashed) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  const auto jobs = expand_jobs(plan);

  TempFile plan_file("crash_loop_plan.json");
  write_crash_plan(plan_file, "model=TestGPU-AMD", 0);  // every attempt

  FleetProgress progress;
  SupervisorOptions options = supervised(2);
  options.worker_argv.push_back("--fault-plan");
  options.worker_argv.push_back(plan_file.path());
  options.retry.max_attempts = 2;
  options.progress = &progress;
  const auto results = run_supervised(jobs, options);
  ASSERT_EQ(results.size(), 2u);

  const JobResult* healthy = nullptr;
  const JobResult* doomed = nullptr;
  for (const auto& result : results) {
    (result.job.model == "TestGPU-AMD" ? doomed : healthy) = &result;
  }
  ASSERT_NE(healthy, nullptr);
  ASSERT_NE(doomed, nullptr);
  // The sweep carried on: the healthy model is unharmed by its neighbour
  // killing two workers.
  EXPECT_TRUE(healthy->ok) << healthy->error;
  EXPECT_FALSE(doomed->ok);
  EXPECT_TRUE(doomed->crashed);
  EXPECT_EQ(doomed->worker_crashes, 2u);
  EXPECT_EQ(doomed->attempts, 2u);
  EXPECT_NE(doomed->error.find("worker crashed"), std::string::npos)
      << doomed->error;

  const FleetReport fleet = aggregate(results);
  EXPECT_EQ(fleet.summary.failed, 1u);
  EXPECT_EQ(fleet.summary.worker_crashes, 2u);
  ASSERT_EQ(fleet.degraded.size(), 1u);
  EXPECT_EQ(fleet.degraded[0].reason, "crashed");
  EXPECT_EQ(fleet.degraded[0].model, "TestGPU-AMD");
}

TEST(FleetSupervise, GarbageSpewingWorkersAreContainedNotFatal) {
  // /bin/echo is a worst-case worker: one line of protocol garbage, then
  // EOF. The coordinator must classify it as a broken pool and fail the
  // jobs — never hang, never crash.
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto jobs = expand_jobs(plan);
  SupervisorOptions options;
  options.procs = 2;
  options.worker_argv = {"/bin/echo", "not-a-protocol-line"};
  options.retry.max_attempts = 2;
  std::vector<JobResult> results;
  ASSERT_NO_THROW(results = run_supervised(jobs, options));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].error.empty());
}

TEST(FleetSupervise, ExitingWorkersAreContainedNotFatal) {
  // /bin/false never speaks at all — pure spawn-die loops must hit the
  // idle-death cap instead of forking forever.
  SweepPlan plan;
  plan.models = {"TestGPU-NV"};
  const auto jobs = expand_jobs(plan);
  SupervisorOptions options;
  options.procs = 1;
  options.worker_argv = {"/bin/false"};
  std::vector<JobResult> results;
  ASSERT_NO_THROW(results = run_supervised(jobs, options));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
}

TEST(FleetSupervise, JournalRecordsEveryOutcomeExactlyOnce) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  TempFile journal_file("supervised_journal.jsonl");
  const auto jobs = test_jobs();

  const auto count_lines = [&journal_file] {
    std::ifstream in(journal_file.path());
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) ++lines;
    return lines;
  };

  {
    RunJournal journal = RunJournal::open(journal_file.path());
    SupervisorOptions options = supervised(2);
    options.journal = &journal;
    const auto results = run_supervised(jobs, options);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_FALSE(result.from_journal);
    }
  }
  EXPECT_EQ(count_lines(), jobs.size());
  const auto journaled = load_journal(journal_file.path());
  EXPECT_EQ(journaled.size(), jobs.size());

  // Resume with everything already journaled: the outcomes replay without a
  // single new attempt or journal append.
  std::vector<JobResult> prefilled;
  const auto pending = apply_journal(jobs, journaled, prefilled);
  EXPECT_TRUE(pending.empty());
  {
    RunJournal journal = RunJournal::open(journal_file.path());
    FleetProgress progress;
    SupervisorOptions options = supervised(2);
    options.journal = &journal;
    options.progress = &progress;
    const auto results =
        run_supervised(jobs, options, std::move(prefilled));
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok);
      EXPECT_TRUE(result.from_journal);
    }
    EXPECT_EQ(progress.cache_hits.load(), 0u)
        << "journal replays must not masquerade as cache hits";
  }
  EXPECT_EQ(count_lines(), jobs.size())
      << "replayed results must not be re-journaled";
}

TEST(FleetSupervise, FailFastSkipsUnclaimedJobs) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  const auto jobs = test_jobs();  // TestGPU-NV x 2 seeds, then TestGPU-AMD
  ASSERT_EQ(jobs[0].model, "TestGPU-NV");
  TempFile plan_file("fail_fast_plan.json");
  write_throw_plan(plan_file, "fleet.worker.job", "model=TestGPU-NV", 0);

  FleetProgress progress;
  SupervisorOptions options = supervised(1);
  options.worker_argv.push_back("--fault-plan");
  options.worker_argv.push_back(plan_file.path());
  options.retry.max_attempts = 1;
  options.fail_fast = true;
  options.progress = &progress;
  const auto results = run_supervised(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].skipped);
  EXPECT_EQ(results[0].attempts, 1u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].skipped) << results[i].job.key();
    EXPECT_FALSE(results[i].ok);
    EXPECT_EQ(results[i].attempts, 0u);
    EXPECT_NE(results[i].error.find("fail-fast"), std::string::npos)
        << results[i].error;
  }
  EXPECT_EQ(progress.skipped.load(), jobs.size() - 1);
}

TEST(FleetSupervise, DeadJournalFinishesTheSweepAndReapsEveryWorker) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  TempFile journal_file("closed_journal.jsonl");
  const auto jobs = test_jobs();
  RunJournal journal = RunJournal::open(journal_file.path());
  journal.close();  // every append now throws

  const auto expect_complete = [&](const std::vector<JobResult>& results,
                                   const char* transport) {
    ASSERT_EQ(results.size(), jobs.size()) << transport;
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok)
          << transport << " " << result.job.key() << ": " << result.error;
    }
  };

  std::vector<JobResult> results;
  SchedulerOptions threads;
  threads.workers = 2;
  threads.journal = &journal;
  ASSERT_NO_THROW(results = run_sweep(jobs, threads));
  expect_complete(results, "threads");

  SupervisorOptions procs = supervised(2);
  procs.journal = &journal;
  ASSERT_NO_THROW(results = run_supervised(jobs, procs));
  expect_complete(results, "procs");

  EXPECT_NE(journal.error().find("closed journal"), std::string::npos)
      << journal.error();
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a worker outlived the run";
  EXPECT_EQ(errno, ECHILD);
}

TEST(FleetSupervise, BothTransportsAgreeJobByJob) {
  if (!worker_binary_available()) GTEST_SKIP() << "no ./mt4g_cli in cwd";
  SweepPlan plan;
  plan.models = {"TestGPU-NV", "TestGPU-AMD"};
  plan.seed_count = 2;
  const auto clean_jobs = expand_jobs(plan);
  const auto clean = run_sweep(clean_jobs);
  for (const auto& result : clean) ASSERT_TRUE(result.ok) << result.error;

  // 0: replayed from the journal, 1: served by the cache, 2: healed after
  // one injected failure, 3: a malformed job that fails permanently.
  const std::vector<DiscoveryJob> jobs = {clean_jobs[0], clean_jobs[2],
                                          clean_jobs[1], [&] {
                                            DiscoveryJob bad = clean_jobs[3];
                                            bad.mig_profile = "no-such";
                                            return bad;
                                          }()};
  ASSERT_EQ(jobs[2].model, "TestGPU-NV");
  std::map<std::string, JournalEntry> journaled;
  journaled[jobs[0].key()] = JournalEntry{true, clean[0].report, ""};
  TempFile plan_file("parity_plan.json");
  write_throw_plan(plan_file, "fleet.job.attempt", "model=TestGPU-NV", 1);

  using Calls = std::vector<std::pair<std::size_t, std::size_t>>;
  const auto run = [&](bool in_process, Calls& calls) {
    ResultCache cache;
    cache.put(jobs[1], clean[2].report);
    std::vector<JobResult> prefilled;
    apply_journal(jobs, journaled, prefilled);
    FleetOptions common;
    common.cache = &cache;
    common.retry.max_attempts = 3;
    common.on_result = [&calls](const JobResult&, std::size_t done,
                                std::size_t total) {
      calls.emplace_back(done, total);
    };
    if (in_process) {
      ScopedFaultPlan armed(load_fault_plan_file(plan_file.path()));
      SchedulerOptions options;
      static_cast<FleetOptions&>(options) = common;
      options.workers = 2;
      return run_sweep(jobs, options, std::move(prefilled));
    }
    SupervisorOptions options = supervised(2);
    static_cast<FleetOptions&>(options) = common;
    options.worker_argv.push_back("--fault-plan");
    options.worker_argv.push_back(plan_file.path());
    return run_supervised(jobs, options, std::move(prefilled));
  };
  Calls thread_calls;
  Calls proc_calls;
  const auto threads = run(true, thread_calls);
  const auto procs = run(false, proc_calls);

  ASSERT_EQ(threads.size(), jobs.size());
  ASSERT_EQ(procs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& t = threads[i];
    const JobResult& p = procs[i];
    SCOPED_TRACE(jobs[i].key());
    EXPECT_EQ(t.ok, p.ok);
    EXPECT_EQ(t.attempts, p.attempts);
    EXPECT_EQ(t.retried, p.retried);
    EXPECT_EQ(t.timed_out, p.timed_out);
    EXPECT_EQ(t.skipped, p.skipped);
    EXPECT_EQ(t.from_cache, p.from_cache);
    EXPECT_EQ(t.from_journal, p.from_journal);
    EXPECT_EQ(t.error, p.error);
    if (t.ok && p.ok) {
      EXPECT_EQ(core::to_json_string(t.report),
                core::to_json_string(p.report));
    }
  }
  // Each row means what the setup says it does.
  EXPECT_TRUE(threads[0].from_journal);
  EXPECT_TRUE(threads[1].from_cache);
  EXPECT_TRUE(threads[2].ok);
  EXPECT_EQ(threads[2].attempts, 2u);
  EXPECT_FALSE(threads[3].ok);
  EXPECT_EQ(threads[3].attempts, 1u);

  const Calls expected = {{1, 4}, {2, 4}, {3, 4}, {4, 4}};
  EXPECT_EQ(thread_calls, expected);
  EXPECT_EQ(proc_calls, expected);
}

TEST(FleetSupervise, FullyJournaledRunStartsNoWorkerAndNoThread) {
  const auto jobs = test_jobs();
  std::map<std::string, JournalEntry> journaled;
  for (const auto& job : jobs) journaled[job.key()] = JournalEntry{};
  std::vector<JobResult> prefilled;
  ASSERT_TRUE(apply_journal(jobs, journaled, prefilled).empty());

  const auto thread_count = [] {
    std::error_code ec;
    std::size_t threads = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      (void)entry;
      ++threads;
    }
    return threads;
  };
  // A worker that ever started would leave this marker behind.
  TempFile marker("spawned_marker");
  SupervisorOptions options;
  options.procs = 4;
  options.worker_argv = {"/bin/sh", "-c", "touch " + marker.path()};
  const std::size_t threads_before = thread_count();
  std::size_t threads_during = 0;
  options.on_result = [&](const JobResult&, std::size_t, std::size_t) {
    threads_during = std::max(threads_during, thread_count());
  };
  const auto results = run_supervised(jobs, options, std::move(prefilled));
  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& result : results) EXPECT_TRUE(result.from_journal);
  EXPECT_EQ(threads_during, threads_before);
  EXPECT_FALSE(std::filesystem::exists(marker.path()));
}

}  // namespace
}  // namespace mt4g::fleet
