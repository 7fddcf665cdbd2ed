// The virtualized host executor: P logical processors multiplexed onto T
// OS threads.  Pins the contracts the virtualization added on top of the
// original one-thread-per-processor port:
//   * T = 1 is a fully deterministic sequential interleaving (same seed =>
//     identical memory image, run to run), and deterministic kernels are
//     bit-for-bit the synchronous reference;
//   * oversubscription in both directions (T > cores, os_threads > P) is
//     legal — os_threads clamps to P, a worker needs a processor to drive;
//   * every interleave policy and the seq_cst fidelity fallback produce
//     audit-clean, invariant-satisfying runs;
//   * the post-join repair pass re-commits an audited-stale slot from its
//     writer's bin (and honestly reports an unrepairable one);
//   * run_until_clean re-seeds +1000 after each damaged run and gives up
//     after `attempts` runs.
#include "host/host_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::host {
namespace {

using pram::Word;

HostExecConfig virt_cfg(std::uint64_t seed, std::size_t threads,
                        double alpha = 48.0) {
  HostExecConfig cfg;
  cfg.seed = seed;
  cfg.os_threads = threads;
  cfg.clock_alpha = alpha;
  cfg.timeout_seconds = 120.0;
  return cfg;
}

void expect_matches_reference(const char* workload, std::size_t n,
                              const HostExecResult& res) {
  ASSERT_TRUE(res.completed) << workload << " error=" << res.error;
  ASSERT_EQ(res.lost_commits, 0u) << workload;
  const auto* spec = pram::find_workload(workload);
  ASSERT_NE(spec, nullptr) << workload;
  std::vector<Word> mem(res.memory.begin(), res.memory.end());
  EXPECT_EQ(spec->check(n, mem), "") << workload;
  const auto ref = pram::Interpreter(spec->make(n)).run_deterministic({});
  for (std::size_t v = 0; v < ref.memory.size(); ++v)
    ASSERT_EQ(mem[v], ref.memory[v]) << workload << " v" << v;
}

TEST(HostVirtual, SequentialRunIsDeterministicAndBitForBit) {
  // T = 1: one OS thread round-robins over all P processors — no OS timing
  // enters the execution at all, so the full interleaving is a function of
  // the seed.  Deterministic kernels must equal the synchronous reference
  // AND the whole memory image must reproduce run to run.
  for (const char* workload : {"prefix", "spmv"}) {
    const auto* spec = pram::find_workload(workload);
    const pram::Program p = spec->make(8);
    HostExecutor a(p, virt_cfg(91, 1));
    const auto ra = a.run();
    expect_matches_reference(workload, 8, ra);
    HostExecutor b(p, virt_cfg(91, 1));
    const auto rb = b.run();
    ASSERT_TRUE(rb.completed);
    EXPECT_EQ(ra.memory, rb.memory) << workload << ": T=1 not reproducible";
    EXPECT_EQ(ra.total_work, rb.total_work) << workload;
  }
}

TEST(HostVirtual, SequentialRunReproducesNondeterministicKernelsToo) {
  // Even a NONDETERMINISTIC kernel is reproducible at T = 1: the protocol
  // coins come from per-processor seeded streams and the interleaving is
  // fixed, so which draw wins agreement is fixed.
  const auto* spec = pram::find_workload("dag");
  const pram::Program p = spec->make(8);
  HostExecutor a(p, virt_cfg(92, 1));
  HostExecutor b(p, virt_cfg(92, 1));
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.completed && rb.completed);
  ASSERT_EQ(ra.lost_commits, 0u);
  EXPECT_EQ(ra.memory, rb.memory);
  std::vector<Word> mem(ra.memory.begin(), ra.memory.end());
  EXPECT_EQ(spec->check(8, mem), "");
}

TEST(HostVirtual, MoreWorkerThreadsThanCores) {
  // T chosen far above any runner's core count: genuine oversubscription
  // preemption on top of virtualization.  Must still complete audit-clean
  // (or detectably damaged — retried on a fresh seed).
  const pram::Program p = pram::find_workload("prefix")->make(16);
  const HostExecConfig cfg = virt_cfg(93, 16, 512.0);
  EXPECT_EQ(HostExecutor(p, cfg).os_threads(), 16u);
  expect_matches_reference("prefix", 16, run_until_clean(p, cfg, 4).result);
}

TEST(HostVirtual, OsThreadsClampedToProcessorCount) {
  // T > P would leave workers with nothing to drive: os_threads clamps.
  const auto* spec = pram::find_workload("prefix");
  const pram::Program p = spec->make(4);
  HostExecutor ex(p, virt_cfg(94, 64, 512.0));
  EXPECT_EQ(ex.os_threads(), 4u);
  const auto res = ex.run();
  expect_matches_reference("prefix", 4, res);
}

TEST(HostVirtual, DefaultThreadCountIsHardwareClampedToP) {
  // os_threads = 0 means one worker per hardware thread, clamped to P.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(resolve_os_threads(0, 1024), std::min<std::size_t>(hw, 1024));
  EXPECT_EQ(resolve_os_threads(0, 1), 1u);
  EXPECT_EQ(resolve_os_threads(3, 2), 2u);
  EXPECT_EQ(resolve_os_threads(3, 8), 3u);
  const pram::Program p = pram::find_workload("prefix")->make(4);
  EXPECT_EQ(HostExecutor(p, virt_cfg(94, 0)).os_threads(),
            std::min<std::size_t>(hw, 4));
}

TEST(HostVirtual, InterleavePoliciesAllProduceValidRuns) {
  const auto* spec = pram::find_workload("spmv");
  const pram::Program p = spec->make(16);
  for (const Interleave policy :
       {Interleave::kRoundRobin, Interleave::kRandom, Interleave::kBlock}) {
    SCOPED_TRACE(interleave_name(policy));
    HostExecConfig cfg = virt_cfg(95, 2);
    cfg.interleave = policy;
    HostExecutor ex(p, cfg);
    const auto res = ex.run();
    expect_matches_reference("spmv", 16, res);
  }
}

TEST(HostVirtual, SeqCstFidelityFallback) {
  // --seq-cst restores the pre-virtualization memory discipline; results
  // must be just as clean (it is strictly stronger ordering).
  const auto* spec = pram::find_workload("spmv");
  const pram::Program p = spec->make(16);
  HostExecConfig cfg = virt_cfg(96, 2);
  cfg.seq_cst = true;
  HostExecutor ex(p, cfg);
  expect_matches_reference("spmv", 16, ex.run());
}

TEST(HostVirtual, ZeroStepProgramCompletesImmediately) {
  // A legal Program may have no steps; every processor is already past the
  // final tick, so run() must return completed with all-zero memory — the
  // per-step plan tables are empty and must never be indexed.
  const pram::Program p = pram::ProgramBuilder(8, 4).build();
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    HostExecutor ex(p, virt_cfg(90, threads));
    const auto res = ex.run();
    EXPECT_TRUE(res.completed) << res.error;
    EXPECT_EQ(res.lost_commits, 0u);
    EXPECT_EQ(res.memory, std::vector<std::uint64_t>(4, 0));
  }
}

TEST(HostVirtual, ParseInterleave) {
  Interleave out;
  EXPECT_TRUE(parse_interleave("rr", out));
  EXPECT_EQ(out, Interleave::kRoundRobin);
  EXPECT_TRUE(parse_interleave("round_robin", out));
  EXPECT_EQ(out, Interleave::kRoundRobin);
  EXPECT_TRUE(parse_interleave("random", out));
  EXPECT_EQ(out, Interleave::kRandom);
  EXPECT_TRUE(parse_interleave("block", out));
  EXPECT_EQ(out, Interleave::kBlock);
  EXPECT_FALSE(parse_interleave("zigzag", out));
}

// --- the lost-commit repair pass --------------------------------------------

// Inject ultra-preemption damage deterministically: after the threads join
// (quiescent), overwrite the LAST writer's generation slot of one output
// variable with a stale-stamp value — exactly what a worker parked across
// >= G phases inside its commit window does, per the write-order probe that
// motivated the audit (host_executor.h).

TEST(HostVirtual, RepairRecommitsStaleSlotFromAgreedBinValue) {
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  const std::uint32_t victim = pram::prefix_sum_var(n, n - 1);
  // prefix_sum_var(n, n-1) is written in the program's final step, so its
  // bin still carries the wanted stamp at quiescence: repairable.
  HostExecConfig cfg = virt_cfg(97, 1);
  HostExecutor* exp = nullptr;
  const std::uint32_t want =
      static_cast<std::uint32_t>(pram::stamp_of_step(
          static_cast<std::uint32_t>(p.nsteps() - 1)));
  cfg.preaudit_fault = [&](HostMemory& mem) {
    // Stale stamp (want - G aliases the same slot mod G), garbage value.
    mem.write(exp->var_slot_addr(victim, want), 424242, want - 4);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 1u);
  EXPECT_EQ(res.lost_commits, 0u);
  // The repaired value is the agreed one: full reference equality holds.
  expect_matches_reference("prefix", n, res);
}

TEST(HostVirtual, RepairDisabledLeavesAuditFinding) {
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  const std::uint32_t victim = pram::prefix_sum_var(n, n - 1);
  HostExecConfig cfg = virt_cfg(98, 1);
  cfg.repair = false;
  HostExecutor* exp = nullptr;
  const std::uint32_t want =
      static_cast<std::uint32_t>(pram::stamp_of_step(
          static_cast<std::uint32_t>(p.nsteps() - 1)));
  cfg.preaudit_fault = [&](HostMemory& mem) {
    mem.write(exp->var_slot_addr(victim, want), 424242, want - 4);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 0u);
  EXPECT_EQ(res.lost_commits, 1u);  // detected, reported, NOT silently fixed
}

TEST(HostVirtual, UnrepairableSlotStaysLost) {
  // Damage a variable whose last writer ran early in the program: by
  // quiescence its bin has been recycled by later phases, so the agreed
  // value is gone and repair must honestly report the loss.
  const auto* spec = pram::find_workload("prefix");
  const std::size_t n = 8;
  const pram::Program p = spec->make(n);
  // Var 0 (the input constant) is written only by step 0 of the baked
  // prologue; by quiescence its writer's bin has been refilled with every
  // later step's stamp, so the agreed value is unrecoverable.  Clearing
  // the slot models the stale-stamp clobber (any stamp != want triggers
  // the audit identically).
  HostExecConfig cfg = virt_cfg(99, 1);
  HostExecutor* exp = nullptr;
  cfg.preaudit_fault = [&](HostMemory& mem) {
    mem.write(exp->var_slot_addr(0, 1), 0, 0);
  };
  HostExecutor ex(p, cfg);
  exp = &ex;
  const auto res = ex.run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.repaired_commits, 0u);
  EXPECT_EQ(res.lost_commits, 1u);
}

// --- the retry policy (run_until_clean) -------------------------------------

// With repair off, damages the last writer's slot of prefix_sum_var(n, n-1)
// on every run for which `damage(run_index)` is true, so each such run
// reports exactly one lost commit.  Counts the runs in `runs`.
HostExecConfig damaging_cfg(const pram::Program& p, std::size_t n,
                            std::uint64_t seed, int& runs,
                            std::function<bool(int)> damage) {
  HostExecConfig cfg = virt_cfg(seed, 1);
  cfg.repair = false;
  const std::uint32_t want = static_cast<std::uint32_t>(
      pram::stamp_of_step(static_cast<std::uint32_t>(p.nsteps() - 1)));
  const std::size_t slot =
      HostExecutor(p, cfg).var_slot_addr(pram::prefix_sum_var(n, n - 1), want);
  cfg.preaudit_fault = [&runs, damage, slot, want](HostMemory& mem) {
    if (damage(runs++)) mem.write(slot, 424242, want - 4);
  };
  return cfg;
}

TEST(HostVirtual, RetryReseedsAfterOneDamagedRun) {
  const std::size_t n = 8;
  const pram::Program p = pram::find_workload("prefix")->make(n);
  int runs = 0;
  const HostExecConfig cfg =
      damaging_cfg(p, n, 110, runs, [](int run) { return run == 0; });
  const CleanRun run = run_until_clean(p, cfg, 3);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(run.damaged_runs, 1u);
  EXPECT_EQ(run.lost_commits, 1u);
  EXPECT_EQ(run.repaired_commits, 0u);
  expect_matches_reference("prefix", n, run.result);
  // T = 1 makes a run a function of its seed: the clean second run is
  // exactly the run at seed + 1000.
  const auto direct = HostExecutor(p, virt_cfg(110 + 1000, 1)).run();
  EXPECT_EQ(run.result.memory, direct.memory);
  EXPECT_EQ(run.result.total_work, direct.total_work);
}

TEST(HostVirtual, RetryGivesUpAfterAttemptsDamagedRuns) {
  const std::size_t n = 8;
  const pram::Program p = pram::find_workload("prefix")->make(n);
  int runs = 0;
  const HostExecConfig cfg =
      damaging_cfg(p, n, 111, runs, [](int) { return true; });
  const CleanRun run = run_until_clean(p, cfg, 3);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(run.damaged_runs, 3u);
  EXPECT_EQ(run.lost_commits, 3u);
  ASSERT_TRUE(run.result.completed) << run.result.error;
  EXPECT_NE(run.result.lost_commits, 0u);
}

// --- P >> T at scale --------------------------------------------------------

TEST(HostVirtual, LargeInstanceOnTwoThreads) {
  // P = 64 logical processors on T = 2 OS threads: the configuration the
  // one-thread-per-processor design could never run sensibly.  spmv's
  // computed-index gathers exercise the run-time-resolved operand path.
  const pram::Program p = pram::find_workload("spmv")->make(64);
  expect_matches_reference("spmv", 64,
                           run_until_clean(p, virt_cfg(100, 2), 4).result);
}

}  // namespace
}  // namespace apex::host
