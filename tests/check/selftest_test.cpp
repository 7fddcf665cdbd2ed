// The fuzz driver and the oracle self-test, exercised end to end.  These
// are the non-vacuousness guarantees of the whole src/check subsystem: the
// mutations prove the oracles can fire, the clean corpus proves they don't
// fire on the real protocol, and the shrink/repro path proves a failure
// survives the trip to a replayable file.
#include "check/selftest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "check/fuzz.h"

namespace apex::check {
namespace {

TEST(SelfTest, EveryMutationCaughtByItsOracle) {
  const auto cases = run_selftest();
  ASSERT_GE(cases.size(), 4u);  // one per oracle, at least
  for (const auto& c : cases) {
    EXPECT_TRUE(c.caught) << mutation_name(c.mutation) << " escaped oracle "
                          << c.expected_oracle << ": " << c.detail;
    EXPECT_TRUE(c.clean_baseline)
        << mutation_name(c.mutation)
        << " baseline was not clean: " << c.detail;
  }
  EXPECT_TRUE(selftest_ok(cases));
}

TEST(SelfTest, MutationsCoverEveryOracle) {
  const auto cases = run_selftest();
  std::set<std::string> oracles;
  for (const auto& c : cases) oracles.insert(c.expected_oracle);
  EXPECT_EQ(oracles, (std::set<std::string>{"bin_array", "clobber_bound",
                                            "consensus", "phase_clock",
                                            "work_accounting"}));
}

TEST(Fuzz, SmallCorpusCleanOnHead) {
  FuzzConfig cfg;
  cfg.trials = 60;
  cfg.jobs = 1;
  const auto rep = run_fuzz(cfg);
  EXPECT_EQ(rep.trials, 60u);
  EXPECT_TRUE(rep.ok()) << rep.failures.front().oracle << ": "
                        << rep.failures.front().message;
}

TEST(Fuzz, ReportIdenticalAcrossJobs) {
  FuzzConfig a;
  a.trials = 40;
  a.jobs = 1;
  a.seed = 9;
  FuzzConfig b = a;
  b.jobs = 4;
  const auto ra = run_fuzz(a);
  const auto rb = run_fuzz(b);
  ASSERT_EQ(ra.failures.size(), rb.failures.size());
  for (std::size_t i = 0; i < ra.failures.size(); ++i) {
    EXPECT_EQ(ra.failures[i].trial, rb.failures[i].trial);
    EXPECT_EQ(ra.failures[i].message, rb.failures[i].message);
    EXPECT_EQ(ra.failures[i].repro_script, rb.failures[i].repro_script);
  }
}

TEST(Fuzz, TrialGridIsDeterministicAndMixed) {
  FuzzConfig cfg;
  std::size_t agreement = 0, consensus = 0, workload = 0, grammar = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const TrialSpec a = make_trial_spec(cfg, i);
    const TrialSpec b = make_trial_spec(cfg, i);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.n, b.n);
    switch (a.protocol) {
      case FuzzProtocol::kAgreement: ++agreement; break;
      case FuzzProtocol::kConsensus: ++consensus; break;
      case FuzzProtocol::kWorkload: ++workload; break;
      case FuzzProtocol::kGrammar: ++grammar; break;
    }
  }
  // i%4==1 -> consensus, i%4==3 -> workload, i%8==6 -> grammar (carved out
  // of the agreement slots), rest agreement.
  EXPECT_EQ(agreement, 24u);
  EXPECT_EQ(consensus, 16u);
  EXPECT_EQ(workload, 16u);
  EXPECT_EQ(grammar, 8u);
}

// A failure injected via a harsh tolerance exercises the full pipeline:
// detect -> shrink -> dump -> load -> replay.  clobber_bound=1 makes the
// first legitimate clobber a "failure" — which does NOT depend on the
// schedule, so the binary search correctly shrinks the prefix all the way
// to EMPTY (the repro replays round-robin alone and still reproduces).
TEST(Fuzz, ShrinkAndReproRoundTrip) {
  FuzzConfig cfg;
  cfg.trials = 8;
  cfg.jobs = 1;
  cfg.clobber_bound = 1;
  cfg.repro_dir = ::testing::TempDir();
  const auto rep = run_fuzz(cfg);
  ASSERT_FALSE(rep.ok());
  const FuzzFailure& f = rep.failures.front();
  EXPECT_EQ(f.oracle, "clobber_bound");
  // Schedule-independent failure => minimal prefix is empty.
  EXPECT_TRUE(f.repro_script.empty());
  ASSERT_FALSE(f.repro_path.empty());

  const Repro r = load_repro(f.repro_path);
  EXPECT_EQ(r.oracle, f.oracle);
  EXPECT_EQ(r.clobber_bound, 1u);
  const TrialOutcome out = replay_repro(r, FuzzConfig{});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.oracle, f.oracle);
  std::remove(f.repro_path.c_str());
}

// A prefix shrunk to nothing is still a scripted adversary: the repro
// file says so, and its replay runs round-robin without the fuzzed
// schedule (which would fill schedule_desc).
TEST(Fuzz, EmptyShrunkScriptReplaysWithoutFuzzedSchedule) {
  FuzzConfig cfg;
  cfg.trials = 8;
  cfg.jobs = 1;
  cfg.clobber_bound = 1;
  cfg.repro_dir = ::testing::TempDir();
  const auto rep = run_fuzz(cfg);
  ASSERT_FALSE(rep.ok());
  const FuzzFailure& f = rep.failures.front();
  ASSERT_TRUE(f.shrunk);
  ASSERT_TRUE(f.repro_script.empty());
  EXPECT_FALSE(f.schedule.empty());  // the trial itself ran fuzzed

  const Repro r = load_repro(f.repro_path);
  EXPECT_EQ(r.schedule, ReproSchedule::kScripted);
  EXPECT_TRUE(r.script.empty());
  const TrialOutcome out = replay_repro(r, FuzzConfig{});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.oracle, f.oracle);
  EXPECT_TRUE(out.schedule_desc.empty()) << out.schedule_desc;

  // The same failure left unshrunk replays the fuzzed seed.
  cfg.shrink = false;
  const auto unshrunk = run_fuzz(cfg);
  ASSERT_FALSE(unshrunk.ok());
  EXPECT_FALSE(unshrunk.failures.front().shrunk);
  const Repro seeded = load_repro(unshrunk.failures.front().repro_path);
  EXPECT_EQ(seeded.schedule, ReproSchedule::kFuzzed);
  EXPECT_FALSE(replay_repro(seeded, FuzzConfig{}).schedule_desc.empty());
  for (const auto& g : rep.failures) std::remove(g.repro_path.c_str());
}

// Version 1 files named no schedule kind: an empty script meant the
// fuzzed seed, any other script a scripted replay.
TEST(Fuzz, LoadsVersion1ReproFiles) {
  const std::string path = ::testing::TempDir() + "/apex_repro_v1.txt";
  const char* body =
      "protocol agreement\nn 8\nbeta 8\nseed 5\nbudget 40000\n"
      "skew 2\nclobber_bound 1\noracle clobber_bound\n";
  for (const char* script : {"script\n", "script 3 1 4\n"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("apex-fuzz-repro v1\n", f);
    std::fputs(body, f);
    std::fputs(script, f);
    std::fclose(f);
    const Repro r = load_repro(path);
    if (r.script.empty()) {
      EXPECT_EQ(r.schedule, ReproSchedule::kFuzzed);
    } else {
      EXPECT_EQ(r.schedule, ReproSchedule::kScripted);
      EXPECT_EQ(r.script, (std::vector<std::size_t>{3, 1, 4}));
    }
  }
  std::remove(path.c_str());
}

// The scripted-prefix replay path, driven directly: record a trace, replay
// it through a repro whose failure criterion needs the stored tolerance.
TEST(Fuzz, ScriptedReproReplaysRecordedTrace) {
  FuzzConfig cfg;
  cfg.clobber_bound = 1;
  TrialSpec ts = make_trial_spec(cfg, 0);  // agreement trial
  const TrialOutcome recorded = run_trial(ts, cfg, /*record=*/true);
  ASSERT_TRUE(recorded.failed);
  EXPECT_EQ(recorded.oracle, "clobber_bound");
  ASSERT_FALSE(recorded.trace.empty());

  Repro r;
  r.protocol = ts.protocol;
  r.n = ts.n;
  r.beta = ts.beta;
  r.seed = ts.seed;
  r.budget = ts.budget;
  r.clobber_bound = 1;
  r.oracle = recorded.oracle;
  r.schedule = ReproSchedule::kScripted;
  r.script = recorded.trace;
  const std::string path = ::testing::TempDir() + "/apex_repro_script.txt";
  write_repro(path, r);
  const Repro back = load_repro(path);
  ASSERT_EQ(back.schedule, ReproSchedule::kScripted);
  ASSERT_EQ(back.script, recorded.trace);

  // Same failure, and (replay determinism) the same message.
  const TrialOutcome out = replay_repro(back, FuzzConfig{});
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.oracle, recorded.oracle);
  EXPECT_EQ(out.message, recorded.message);
  std::remove(path.c_str());
}

TEST(Fuzz, ReproFileRoundTripsFuzzedSeedForm) {
  Repro r;
  r.protocol = FuzzProtocol::kConsensus;
  r.n = 6;
  r.seed = 0xDEADBEEF;
  r.budget = 12345;
  r.skew_ticks = 3;
  r.oracle = "consensus";
  const std::string path = ::testing::TempDir() + "/apex_repro_rt.txt";
  write_repro(path, r);
  const Repro back = load_repro(path);
  EXPECT_EQ(back.protocol, r.protocol);
  EXPECT_EQ(back.n, r.n);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.budget, r.budget);
  EXPECT_EQ(back.skew_ticks, r.skew_ticks);
  EXPECT_EQ(back.oracle, r.oracle);
  EXPECT_EQ(back.schedule, ReproSchedule::kFuzzed);
  EXPECT_TRUE(back.script.empty());
  std::remove(path.c_str());
}

TEST(Fuzz, LoadReproRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/apex_repro_bad.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a repro\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_repro(path), std::runtime_error);
  EXPECT_THROW(load_repro(path + ".missing"), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apex::check
