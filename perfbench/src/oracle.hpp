// Correctness oracle of the benchmark.
//
// Every discovery the benchmark runs is judged against a committed
// reference report (perfbench/reference/<model>[@<mig>].json, one per model
// and MIG variant, written by `mt4g_bench --write-references`). A job
// execution is wrong when any of these holds:
//  * it failed, or a rerun did not come from the persisted state;
//  * core::diff_reports() against the reference is non-empty (discrete
//    attributes exact, continuous ones within 5%), so the check holds for
//    any noise seed, not only the one the references were made with;
//  * its sL1d CU-peer map differs from the reference (diff_reports does not
//    compare that map);
//  * its bytes differ from another execution of the same job that must be
//    byte-identical (threaded vs serial, rerun vs cold, pass vs pass).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"

namespace mt4g::perfbench {

/// Reference file stem of a job: "<model>" or "<model>@<mig profile>".
std::string job_label(const fleet::DiscoveryJob& job);

/// Report bytes used for identity checks: the canonical JSON without the
/// host-time `meta.wall` block (present only while metrics are collected).
std::string canonical_bytes(const core::TopologyReport& report);

class Oracle {
 public:
  /// Loads every *.json reference report in @p dir.
  /// @throws std::runtime_error when the directory is missing, empty or
  ///         holds an unreadable report.
  static Oracle load(const std::string& dir);

  /// Why @p result is wrong for its job, or "" when it is right.
  /// @p expected_bytes, when given, are the canonical bytes the report must
  /// reproduce exactly; @p what names their origin for the diagnostic.
  std::string judge(const fleet::JobResult& result,
                    const std::string* expected_bytes = nullptr,
                    const char* what = "") const;

  /// Runs the oracle on the references themselves and on tampered copies
  /// (one cache-line size doubled, one CU peer dropped, one byte-only
  /// change). Returns the number of tampered reports and how many of them
  /// were flagged; @p clean_flagged counts untampered references the oracle
  /// wrongly rejected.
  struct SelfTest {
    std::size_t tampered = 0;
    std::size_t flagged = 0;
    std::size_t clean = 0;
    std::size_t clean_flagged = 0;
    bool passed() const {
      return tampered > 0 && flagged == tampered && clean_flagged == 0;
    }
  };
  SelfTest self_test() const;

 private:
  std::map<std::string, core::TopologyReport> references_;
};

}  // namespace mt4g::perfbench
