#include "runner/committer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/log.h"

namespace nvsram::runner {

namespace {

// Commas and newlines would break the one-line-per-failure manifest.
std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return text;
}

// The per-attempt backoff delays as a ';'-joined manifest field.
std::string join_backoff(const std::vector<double>& delays_ms) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < delays_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6g", delays_ms[i]);
    if (i) out += ';';
    out += buf;
  }
  return out;
}

}  // namespace

Committer::Committer(std::string name, const RunnerOptions& options,
                     RunSummary& summary, std::map<std::size_t, Rows> done)
    : name_(std::move(name)),
      options_(options),
      summary_(summary),
      done_(std::move(done)),
      csv_(options.csv_path, options.csv_columns) {}

bool Committer::commit(std::size_t index, PointResult res) {
  // Harness-level contract violation, not a point failure: a malformed
  // row would corrupt the CSV and the checkpoint, so abort the sweep.
  if (res.succeeded) {
    for (const auto& row : res.rows) {
      if (row.size() != options_.csv_columns.size()) {
        harness_error_ = "SweepRunner " + name_ +
                         ": row width mismatch at point " +
                         std::to_string(index);
        return false;
      }
    }
  }
  summary_.outcomes[index] = std::move(res.outcome);
  const PointOutcome& outcome = summary_.outcomes[index];
  if (res.succeeded) {
    summary_.rows[index] = std::move(res.rows);
    for (const auto& row : summary_.rows[index]) csv_.row(row);
    ++summary_.completed;
    if (options_.checkpoint) {
      if (!checkpoint_) {
        // First fresh point of this run: write the header and the resumed
        // prefix once (dropping any torn tail the load rewound past), then
        // append from here on.
        checkpoint::store(options_.checkpoint_path, name_,
                          options_.csv_columns, done_);
        checkpoint_.emplace(options_.checkpoint_path);
      }
      checkpoint_->append(index, summary_.rows[index]);
    }
  } else {
    ++summary_.failed;
    if (outcome.status == PointStatus::kTimeout) ++summary_.timeouts;
    if (outcome.status == PointStatus::kPoisoned) ++summary_.poisoned;
    util::log_warn() << "sweep " << name_ << ": point " << index << " "
                     << to_string(outcome.status) << " after "
                     << outcome.attempts << " attempt(s): " << outcome.error;
  }

  // Crash drill: die hard right after the checkpoint hit disk, skipping
  // every destructor (so the CSV is left truncated like a real crash).
  if (static_cast<int>(index) == options_.kill_after_point) {
    std::_Exit(3);
  }
  if (static_cast<int>(index) == options_.stop_after_point) {
    summary_.interrupted = true;
    return false;
  }
  return true;
}

void Committer::commit_resumed(std::size_t index) {
  const auto it = done_.find(index);
  if (it == done_.end()) {
    harness_error_ = "SweepRunner " + name_ + ": point " +
                     std::to_string(index) + " is not in the resume set";
    return;
  }
  PointOutcome& outcome = summary_.outcomes[index];
  outcome.index = index;
  outcome.status = PointStatus::kResumed;
  outcome.attempts = 0;
  summary_.rows[index] = it->second;
  for (const auto& row : it->second) csv_.row(row);
  ++summary_.resumed;
  ++summary_.completed;
}

void Committer::finalize() {
  // Failure manifest: written on every completed run, even when empty, so
  // downstream tooling can rely on its existence.
  std::ofstream manifest(summary_.manifest_path, std::ios::trunc);
  if (!manifest) {
    throw RunnerError("SweepRunner: cannot write " + summary_.manifest_path);
  }
  manifest << "point,status,attempts,backoff_ms,error\n";
  for (const auto& outcome : summary_.outcomes) {
    if (outcome.ok()) continue;
    manifest << outcome.index << ',' << to_string(outcome.status) << ','
             << outcome.attempts << ',' << join_backoff(outcome.backoff_ms)
             << ',' << sanitize(outcome.error) << '\n';
  }
  manifest.close();

  csv_.flush();
  checkpoint_.reset();
  if (options_.checkpoint && summary_.failed == 0 &&
      !summary_.outcomes.empty()) {
    checkpoint::remove(options_.checkpoint_path);
  }
}

}  // namespace nvsram::runner
