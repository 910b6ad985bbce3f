// Process-isolation crash drills for the supervised sweep runner
// (runner/supervisor.h): byte-identity of CSV/checkpoint/manifest against
// in-process runs, segv/oom/hang containment with poison quarantine,
// crash-once recovery, kill-the-supervisor + resume, and the one-point
// REQUEST frame codec (runner/ipc.h).
//
// The suite name deliberately avoids the TSan CI filter
// (SweepRunner|SweepParallel|...): fork() inside a TSan-instrumented
// process is unreliable, and the supervisor is single-threaded anyway.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/ipc.h"
#include "runner/supervisor.h"
#include "runner/sweep_runner.h"

#if defined(__SANITIZE_ADDRESS__)
#define NVSRAM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NVSRAM_ASAN 1
#endif
#endif

namespace nvsram::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_csv(const std::string& tag) {
  return ::testing::TempDir() + "iso_" + tag + ".csv";
}

RunnerOptions base_options(const std::string& tag) {
  RunnerOptions opts;
  opts.csv_path = tmp_csv(tag);
  opts.csv_columns = {"x", "y"};
  // Keep the drills fast: real respawn backoff defaults are tuned for
  // crash-looping production environments, not unit tests.
  opts.respawn_backoff_ms = 2.0;
  opts.retry_backoff_ms = 1.0;
  return opts;
}

RunnerOptions process_options(const std::string& tag, int workers) {
  auto opts = base_options(tag);
  opts.isolation = Isolation::kProcess;
  opts.threads = workers;
  return opts;
}

// y = x^2, one row per point.
Rows square_point(const PointContext& pc) {
  const double x = static_cast<double>(pc.index);
  return {{x, x * x}};
}

TEST(SweepIsolation, SupervisorIsAvailableHere) {
  // The drills below all assume fork(); this fails loudly if the platform
  // ever silently falls back, instead of every drill passing vacuously.
  EXPECT_TRUE(supervisor::available());
}

TEST(SweepIsolation, CleanRunMatchesInProcessByteForByte) {
  SweepRunner ref("iso", base_options("clean_ref"));
  const auto s_ref = ref.run(6, square_point);
  ASSERT_TRUE(s_ref.all_ok());

  SweepRunner proc("iso", process_options("clean_proc", 3));
  const auto s = proc.run(6, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_TRUE(s.process_isolated);
  EXPECT_EQ(s.threads, 3);
  EXPECT_EQ(s.respawns, 0);
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
  EXPECT_EQ(slurp(s.manifest_path), slurp(s_ref.manifest_path));
  // Results travelled over the pipe as raw IEEE-754 bits.
  ASSERT_EQ(s.rows.size(), 6u);
  EXPECT_EQ(s.rows[5].front()[1], 25.0);
}

TEST(SweepIsolation, ThrowFaultMatchesInProcessEverywhere) {
  // A plain throwing point exercises retries + backoff recording through
  // the RESULT frame; every artifact must match the in-process run,
  // including the deterministic backoff_ms column and the kept checkpoint.
  auto make = [](const std::string& tag, Isolation iso) {
    auto opts = base_options(tag);
    if (iso == Isolation::kProcess) {
      opts.isolation = iso;
      opts.threads = 2;
    }
    opts.fault_point = 2;  // FaultKind::kThrow
    return opts;
  };
  SweepRunner ref("iso", make("throw_ref", Isolation::kNone));
  const auto s_ref = ref.run(5, square_point);
  ASSERT_EQ(s_ref.failed, 1u);

  SweepRunner proc("iso", make("throw_proc", Isolation::kProcess));
  const auto s = proc.run(5, square_point);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.outcomes[2].status, PointStatus::kFailed);
  EXPECT_EQ(s.respawns, 0);  // a caught throw never kills its worker
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
  EXPECT_EQ(slurp(s.manifest_path), slurp(s_ref.manifest_path));
  EXPECT_EQ(slurp(proc.options().checkpoint_path),
            slurp(ref.options().checkpoint_path));
}

TEST(SweepIsolation, SegvPointIsPoisonedWithBreadcrumb) {
  auto opts = process_options("segv", 2);
  opts.fault_point = 2;
  opts.fault_kind = FaultKind::kSegv;
  SweepRunner run("iso", opts);
  const auto s = run.run(6, square_point);

  // The sweep survives the crashes: every other point completes.
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.poisoned, 1u);
  EXPECT_EQ(s.outcomes[2].status, PointStatus::kPoisoned);
  EXPECT_GE(s.respawns, 2);  // the point killed two workers

  // The manifest quarantines the point and carries the worker's last
  // breadcrumb, so the postmortem names the point, attempt, and phase.
  const std::string manifest = slurp(s.manifest_path);
  EXPECT_NE(manifest.find("2,poison,"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("quarantined after killing 2 workers"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("point=2"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("phase=injected-segv"), std::string::npos)
      << manifest;

  // Acceptance: all other rows byte-identical to an in-process run that
  // merely failed the same point (CSV skips it either way), and the kept
  // checkpoints agree on the surviving points.
  auto ref_opts = base_options("segv_ref");
  ref_opts.fault_point = 2;  // FaultKind::kThrow — containable in-process
  SweepRunner ref("iso", ref_opts);
  const auto s_ref = ref.run(6, square_point);
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
  EXPECT_EQ(slurp(run.options().checkpoint_path),
            slurp(ref.options().checkpoint_path));
}

TEST(SweepIsolation, HangPointMissesHeartbeatsAndIsPoisoned) {
  auto opts = process_options("hang", 2);
  opts.fault_point = 1;
  opts.fault_kind = FaultKind::kHang;
  opts.heartbeat_timeout_sec = 0.3;  // wedged worker is SIGKILLed fast
  SweepRunner run("iso", opts);
  const auto s = run.run(4, square_point);

  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.poisoned, 1u);
  EXPECT_EQ(s.outcomes[1].status, PointStatus::kPoisoned);
  const std::string manifest = slurp(s.manifest_path);
  EXPECT_NE(manifest.find("1,poison,"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("hang: missed heartbeats past deadline"),
            std::string::npos)
      << manifest;
  // SIGKILL cannot run the crash handler: the breadcrumb must have come
  // through the eagerly-rewritten crumb file.
  EXPECT_NE(manifest.find("phase=injected-hang"), std::string::npos)
      << manifest;
}

TEST(SweepIsolation, OomPointIsContainedByRlimit) {
#ifdef NVSRAM_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
  auto opts = process_options("oom", 2);
  opts.fault_point = 1;
  opts.fault_kind = FaultKind::kOom;
  opts.worker_rlimit_mb = 256.0;  // the rlimit, not the host, bounds the hog
  SweepRunner run("iso", opts);
  const auto s = run.run(4, square_point);

  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.poisoned, 1u);
  const std::string manifest = slurp(s.manifest_path);
  EXPECT_NE(manifest.find("1,poison,"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("phase=injected-oom"), std::string::npos)
      << manifest;
#endif
}

TEST(SweepIsolation, CrashOnceThenRecover) {
  // A point that kills its first worker but succeeds on the respawned one
  // is kRecovered, not poisoned: quarantine needs two deaths.  The crash
  // marker lives on the filesystem because worker memory dies with it.
  const std::string marker = ::testing::TempDir() + "iso_recover.marker";
  std::remove(marker.c_str());
  auto opts = process_options("recover", 2);
  SweepRunner run("iso", opts);
  const auto s = run.run(5, [&](const PointContext& pc) -> Rows {
    if (pc.index == 3 && !std::ifstream(marker).good()) {
      std::ofstream(marker) << "crashed once\n";
      std::raise(SIGSEGV);
    }
    return square_point(pc);
  });
  std::remove(marker.c_str());

  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.outcomes[3].status, PointStatus::kRecovered);
  EXPECT_GE(s.respawns, 1);
  // Recovered points are successes: nothing in the manifest, and the CSV
  // matches a run that never crashed at all.
  SweepRunner ref("iso", base_options("recover_ref"));
  const auto s_ref = ref.run(5, square_point);
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
  EXPECT_EQ(slurp(s.manifest_path), slurp(s_ref.manifest_path));
}

TEST(SweepIsolation, BackpressureNeverStallsARequeuedPoint) {
  // Regression: a point whose worker dies *slowly* (here: sleeps, then
  // segfaults) lets the other workers park results up to the reorder-buffer
  // cap first.  Its requeue is then the only thing that can drain the
  // buffer, so the cap must not block assigning it — this used to deadlock
  // the supervisor with every worker idle.
  const std::string marker = ::testing::TempDir() + "iso_backpressure.marker";
  std::remove(marker.c_str());
  auto opts = process_options("backpressure", 2);
  SweepRunner run("iso", opts);
  const auto s = run.run(45, [&](const PointContext& pc) -> Rows {
    if (pc.index == 20 && !std::ifstream(marker).good()) {
      std::ofstream(marker) << "crashed once\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      std::raise(SIGSEGV);
    }
    return square_point(pc);
  });
  std::remove(marker.c_str());

  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.completed, 45u);
  EXPECT_EQ(s.outcomes[20].status, PointStatus::kRecovered);
}

TEST(SweepIsolation, KillSupervisorThenResumeByteIdentical) {
  SweepRunner ref("iso", base_options("kill_ref"));
  const auto s_ref = ref.run(6, square_point);

  // The supervisor itself dies hard right after committing point 2 (the
  // orphaned workers see EOF on their request pipes and exit on their own).
  auto opts = process_options("kill", 2);
  opts.kill_after_point = 2;
  EXPECT_EXIT((void)SweepRunner("iso", opts).run(6, square_point),
              ::testing::ExitedWithCode(3), "");

  // A process-isolated rerun resumes from the checkpoint and reproduces
  // the reference artifacts byte-for-byte.
  auto resume_opts = process_options("kill", 2);
  SweepRunner resume("iso", resume_opts);
  const auto s = resume.run(6, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_GE(s.resumed, 1u);
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
  EXPECT_EQ(slurp(s.manifest_path), slurp(s_ref.manifest_path));
}

TEST(SweepIsolation, RequestFrameCarriesExactlyOnePoint) {
  const auto payload = ipc::encode_request(42);
  ASSERT_EQ(payload.size(), 8u);
  std::uint64_t index = 0;
  ASSERT_TRUE(ipc::decode_request(payload, index));
  EXPECT_EQ(index, 42u);

  // The retired (begin, count) form is two u64s: 16 bytes, rejected.
  auto two_words = ipc::encode_request(3);
  const auto count = ipc::encode_request(4);
  two_words.insert(two_words.end(), count.begin(), count.end());
  EXPECT_FALSE(ipc::decode_request(two_words, index));

  // A truncated frame (and an empty one) is rejected too.
  const std::vector<std::uint8_t> truncated(payload.begin(),
                                            payload.end() - 1);
  EXPECT_FALSE(ipc::decode_request(truncated, index));
  EXPECT_FALSE(ipc::decode_request({}, index));
}

TEST(SweepIsolation, SerialProcessModeStillIsolates) {
  // threads = 1 under process isolation means one worker subprocess, not
  // an in-process fallback: a segv still cannot take the sweep down.
  auto opts = process_options("serial", 1);
  opts.fault_point = 0;
  opts.fault_kind = FaultKind::kSegv;
  SweepRunner run("iso", opts);
  const auto s = run.run(3, square_point);
  EXPECT_TRUE(s.process_isolated);
  EXPECT_EQ(s.poisoned, 1u);
  EXPECT_EQ(s.completed, 2u);
}

}  // namespace
}  // namespace nvsram::runner
