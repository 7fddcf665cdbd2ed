#include <gtest/gtest.h>

#include "host/host_executor.h"
#include "host/host_memory.h"
#include "pram/program.h"
#include "pram/workloads.h"

namespace apex::host {
namespace {

TEST(Pack, RoundTrips) {
  const std::uint64_t w = Pack::pack(0x12345678AULL, 0xABCDEF);
  EXPECT_EQ(Pack::value_of(w), 0x12345678AULL);
  EXPECT_EQ(Pack::stamp_of(w), 0xABCDEFu);
}

TEST(Pack, ZeroIsEmptyCell) {
  EXPECT_EQ(Pack::value_of(0), 0u);
  EXPECT_EQ(Pack::stamp_of(0), 0u);
}

TEST(Pack, RejectsOverwideValues) {
  EXPECT_NO_THROW(Pack::pack(Pack::kValueLimit - 1, 0));
  EXPECT_THROW(Pack::pack(Pack::kValueLimit, 0), std::out_of_range);
}

TEST(Pack, StampMasked) {
  const std::uint64_t w = Pack::pack(1, 0xFFFFFFFF);
  EXPECT_EQ(Pack::stamp_of(w), Pack::kStampMask);
  EXPECT_EQ(Pack::value_of(w), 1u);
}

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem(4);
  EXPECT_EQ(mem.size(), 4u);
  mem.write(2, 99, 7);
  const HostCell c = mem.read(2);
  EXPECT_EQ(c.value, 99u);
  EXPECT_EQ(c.stamp, 7u);
  EXPECT_EQ(mem.read(0).stamp, 0u);
}

TEST(HostMemory, OutOfRangeThrows) {
  HostMemory mem(2);
  EXPECT_THROW(mem.read(2), std::out_of_range);
  EXPECT_THROW(mem.write(5, 1, 1), std::out_of_range);
}

// --- single-shot agreement on real threads ----------------------------------
//
// Bin-array agreement (Fig. 2, Theorem 1) is the Compute subphase of one
// PRAM step, so single-shot agreement is a one-step program on the host
// executor: processor i's instruction is bin i's task, and variable i
// receives bin i's agreed value.  An audit-clean run (lost_commits == 0)
// certifies every variable.

/// One step: processor i draws rand_below(support) into variable i.
pram::Program draw_program(std::size_t procs, pram::Word support) {
  pram::ProgramBuilder b(procs, procs);
  b.step().all([support](std::size_t i) {
    return pram::Instr::rand_below(static_cast<std::uint32_t>(i), support);
  });
  return b.build();
}

HostExecConfig agree_cfg(std::uint64_t seed, std::size_t threads = 4) {
  HostExecConfig cfg;
  cfg.seed = seed;
  cfg.os_threads = threads;
  cfg.timeout_seconds = 30.0;
  return cfg;
}

TEST(HostSingleShotAgreement, ReachesAgreementOnRealThreads) {
  const CleanRun run = run_until_clean(draw_program(4, 1000), agree_cfg(1), 3);
  const HostExecResult& res = run.result;
  ASSERT_TRUE(res.completed) << res.error;
  ASSERT_EQ(res.lost_commits, 0u);
  ASSERT_EQ(res.memory.size(), 4u);
  for (auto v : res.memory) EXPECT_LT(v, 1000u);
  EXPECT_GT(res.total_work, 0u);
}

TEST(HostSingleShotAgreement, UniquenessHoldsInUpperHalf) {
  // After run() the threads are joined: every upper-half cell of bin i that
  // carries step 0's stamp must hold the value committed to variable i.
  const pram::Program p = draw_program(4, 1ULL << 30);
  HostExecutor ex(p, agree_cfg(2));
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  ASSERT_EQ(res.lost_commits, 0u);
  const auto stamp = static_cast<std::uint32_t>(pram::stamp_of_step(0));
  const std::size_t cells = ex.cells_per_bin();
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t stamped = 0;
    for (std::size_t j = cells / 2; j < cells; ++j) {
      const HostCell c = ex.memory().read(ex.bin_addr(i, j));
      if (c.stamp != stamp) continue;
      ++stamped;
      EXPECT_EQ(c.value, res.memory[i]) << "bin " << i << " cell " << j;
    }
    EXPECT_GT(stamped, 0u) << "bin " << i << " has no agreed upper cell";
  }
}

TEST(HostSingleShotAgreement, DeterministicTaskAgreesOnOnlyValidValue) {
  pram::ProgramBuilder b(4, 4);
  b.step().all([](std::size_t i) {
    return pram::Instr::constant(static_cast<std::uint32_t>(i), 100 + i);
  });
  const CleanRun run = run_until_clean(b.build(), agree_cfg(3), 3);
  ASSERT_TRUE(run.result.completed) << run.result.error;
  ASSERT_EQ(run.result.lost_commits, 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(run.result.memory[i], 100 + i);
}

TEST(HostSingleShotAgreement, WorksWithMoreThreadsThanCores) {
  // P = T = 8: oversubscription produces exactly the preemption asynchrony
  // the paper targets; the protocol must still converge.
  const pram::Program p = draw_program(8, 64);
  HostExecutor probe(p, agree_cfg(4, 8));
  EXPECT_EQ(probe.os_threads(), 8u);
  const CleanRun run = run_until_clean(p, agree_cfg(4, 8), 3);
  ASSERT_TRUE(run.result.completed) << "work=" << run.result.total_work;
  ASSERT_EQ(run.result.lost_commits, 0u);
  for (auto v : run.result.memory) EXPECT_LT(v, 64u);
}

TEST(HostSingleShotAgreement, DistributionRoughlyPreservedAcrossRuns) {
  // Claim 8 smoke test on real threads: fair coins should not be heavily
  // biased by OS scheduling (loose 3:1 bound over 48 samples).
  const pram::Program p = pram::make_coin_matrix(4, 1, 0.5);
  int ones = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const CleanRun run = run_until_clean(p, agree_cfg(100 + seed), 3);
    ASSERT_TRUE(run.result.completed) << run.result.error;
    ASSERT_EQ(run.result.lost_commits, 0u);
    for (auto v : run.result.memory) {
      ones += static_cast<int>(v);
      ++total;
    }
  }
  EXPECT_EQ(total, 48);
  EXPECT_GT(ones, total / 4);
  EXPECT_LT(ones, 3 * total / 4);
}

}  // namespace
}  // namespace apex::host
