// Fuzz coverage for the irregular workload suite: every workload in the
// fuzzer's pool runs under FuzzedSchedule for a pinned seed set with the
// invariant-oracle set attached (work accounting, phase clock, bin array,
// clobber cap) plus the end-to-end oracles (produced-trace consistency and
// the workload's self-declared final-memory verdict).  These are the
// tier-1 pins of the kWorkload protocol; the nightly 2000-trial soak
// explores fresh seeds through the same code path.
#include <gtest/gtest.h>

#include <string>

#include "check/fuzz.h"
#include "pram/workloads.h"

namespace apex::check {
namespace {

class WorkloadFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadFuzz, PinnedSeedsHoldEveryOracle) {
  FuzzConfig cfg;
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    TrialSpec ts;
    ts.protocol = FuzzProtocol::kWorkload;
    ts.workload = GetParam();
    ts.n = std::string(GetParam()) == "bfs" ? 6 : 8;
    ts.seed = seed;
    ts.fuzzed = true;
    ts.budget = 0;  // default budget for the workload's program
    const TrialOutcome out = run_trial(ts, cfg, false);
    EXPECT_FALSE(out.failed)
        << GetParam() << " seed=" << seed << ": " << out.oracle << ": "
        << out.message << "\n  schedule: " << out.schedule_desc.substr(0, 160);
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, WorkloadFuzz,
                         ::testing::ValuesIn(fuzz_workload_pool()),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(WorkloadFuzzGrid, PoolCoversTheIrregularSuite) {
  // Every irregular registry entry must be in the fuzz pool.
  for (const auto& spec : pram::workload_registry()) {
    if (!spec.irregular) continue;
    bool found = false;
    for (const char* name : fuzz_workload_pool())
      found |= spec.name == std::string(name);
    EXPECT_TRUE(found) << spec.name << " missing from fuzz_workload_pool()";
  }
}

TEST(WorkloadFuzzGrid, TrialGridDrawsWorkloadTrials) {
  // The deterministic trial grid must actually schedule kWorkload trials
  // (every 4th index) with pool workloads and legal sizes.
  FuzzConfig cfg;
  cfg.seed = 5;
  std::size_t workload_trials = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const TrialSpec ts = make_trial_spec(cfg, i);
    if (ts.protocol != FuzzProtocol::kWorkload) continue;
    ++workload_trials;
    const auto* spec = pram::find_workload(ts.workload);
    ASSERT_NE(spec, nullptr) << ts.workload;
    EXPECT_TRUE(pram::workload_supports_n(*spec, ts.n))
        << ts.workload << " n=" << ts.n;
    EXPECT_GT(ts.budget, 0u);
  }
  EXPECT_EQ(workload_trials, 8u);
}

TEST(WorkloadFuzzRepro, WorkloadReproFilesRoundTrip) {
  Repro r;
  r.protocol = FuzzProtocol::kWorkload;
  r.workload = "spmv";
  r.n = 8;
  r.seed = 77;
  r.budget = 123456;
  r.oracle = "workload_invariant";
  r.schedule = ReproSchedule::kScripted;
  r.script = {0, 3, 3, 1};
  const std::string path = ::testing::TempDir() + "/workload_repro.txt";
  write_repro(path, r);
  const Repro back = load_repro(path);
  EXPECT_EQ(back.protocol, FuzzProtocol::kWorkload);
  EXPECT_EQ(back.workload, "spmv");
  EXPECT_EQ(back.n, 8u);
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.budget, 123456u);
  EXPECT_EQ(back.oracle, "workload_invariant");
  EXPECT_EQ(back.schedule, ReproSchedule::kScripted);
  EXPECT_EQ(back.script, (std::vector<std::size_t>{0, 3, 3, 1}));
}

TEST(WorkloadFuzzReplay, ScriptedReplayIsDeterministic) {
  // A scripted-prefix replay of a clean workload trial must stay clean and
  // be bit-stable across invocations (the shrinker depends on this).
  FuzzConfig cfg;
  std::vector<std::size_t> script;
  for (std::size_t g = 0; g < 256; ++g) script.push_back(g % 8);
  TrialSpec ts;
  ts.protocol = FuzzProtocol::kWorkload;
  ts.workload = "merge";
  ts.n = 8;
  ts.seed = 21;
  ts.budget = 0;
  ts.script = &script;
  const TrialOutcome a = run_trial(ts, cfg, false);
  const TrialOutcome b = run_trial(ts, cfg, false);
  EXPECT_FALSE(a.failed) << a.oracle << ": " << a.message;
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.message, b.message);
}

}  // namespace
}  // namespace apex::check
