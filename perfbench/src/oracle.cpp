#include "oracle.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"

namespace mt4g::perfbench {

std::string job_label(const fleet::DiscoveryJob& job) {
  return job.mig_profile.empty() ? job.model
                                 : job.model + "@" + job.mig_profile;
}

std::string canonical_bytes(const core::TopologyReport& report) {
  if (!report.wall.enabled) return core::to_json_string(report);
  core::TopologyReport stripped = report;
  stripped.wall = core::WallMetricsReport{};
  return core::to_json_string(stripped);
}

Oracle Oracle::load(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("reference directory '" + dir + "' not found");
  }
  Oracle oracle;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    try {
      oracle.references_[entry.path().stem().string()] =
          core::from_json_string(text.str());
    } catch (const std::exception& e) {
      throw std::runtime_error("reference " + entry.path().string() + ": " +
                               e.what());
    }
  }
  if (oracle.references_.empty()) {
    throw std::runtime_error("reference directory '" + dir +
                             "' holds no reports");
  }
  return oracle;
}

std::string Oracle::judge(const fleet::JobResult& result,
                          const std::string* expected_bytes,
                          const char* what) const {
  const std::string label = job_label(result.job);
  if (!result.ok) return label + ": failed: " + result.error;
  const auto reference = references_.find(label);
  if (reference == references_.end()) {
    return label + ": no reference report";
  }
  const auto differences = core::diff_reports(reference->second, result.report);
  if (!differences.empty()) {
    const auto& first = differences.front();
    return label + ": " + std::to_string(differences.size()) +
           " attribute(s) differ from the reference, first " + first.element +
           "." + first.attribute + " " + first.lhs + " vs " + first.rhs;
  }
  const auto& want = reference->second.cu_sharing;
  const auto& got = result.report.cu_sharing;
  if (want.available != got.available || want.peers != got.peers) {
    return label + ": sL1d CU-peer map differs from the reference";
  }
  if (expected_bytes && canonical_bytes(result.report) != *expected_bytes) {
    return label + ": report is not byte-identical to the " + what + " report";
  }
  return {};
}

Oracle::SelfTest Oracle::self_test() const {
  SelfTest test;
  for (const auto& [label, reference] : references_) {
    const std::string bytes = canonical_bytes(reference);
    const auto at = label.find('@');
    const auto judge_copy = [&](core::TopologyReport report, bool tampered) {
      fleet::JobResult result;
      result.job.model = label.substr(0, at);
      if (at != std::string::npos) {
        result.job.mig_profile = label.substr(at + 1);
      }
      result.ok = true;
      result.report = std::move(report);
      const bool flagged = !judge(result, &bytes, "reference").empty();
      ++(tampered ? test.tampered : test.clean);
      if (flagged) ++(tampered ? test.flagged : test.clean_flagged);
    };
    judge_copy(reference, false);

    for (std::size_t row = 0; row < reference.memory.size(); ++row) {
      if (!reference.memory[row].cache_line.available()) continue;
      core::TopologyReport line = reference;
      line.memory[row].cache_line.value *= 2;
      judge_copy(std::move(line), true);
      break;
    }

    for (const auto& [cu, peers] : reference.cu_sharing.peers) {
      if (peers.size() < 2) continue;
      core::TopologyReport dropped = reference;
      dropped.cu_sharing.peers.at(cu).pop_back();
      judge_copy(std::move(dropped), true);
      break;
    }

    // Attributes unchanged, bytes changed: only the identity check sees it.
    core::TopologyReport nudged = reference;
    nudged.simulated_seconds *= 1.5;
    judge_copy(std::move(nudged), true);
  }
  return test;
}

}  // namespace mt4g::perfbench
