// The executor down the simulator's three grant paths.  Its commit monitor
// rides the simulator's write watch, so an executor without observers runs
// the batched engine's fast path; attaching a no-op observer moves it to
// the instrumented path, and kSingleStep is the reference engine.  For
// every registry workload at n = 8 and n = 16, under both schemes, the
// three runs must agree on everything the executor reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.h"
#include "pram/workloads.h"

namespace apex::exec {
namespace {

/// Observer that ignores every event: attaching it only moves the batched
/// engine from its fast path to the instrumented one.
struct NoOpObserver final : sim::StepObserver {
  void on_step(const sim::StepEvent&) override {}
};

ExecResult run(const pram::Program& p, Scheme scheme, sim::GrantEngine engine,
               bool observed) {
  ExecConfig cfg;
  cfg.seed = 17;
  cfg.engine = engine;
  Executor ex(p, scheme, cfg);
  NoOpObserver noop;
  if (observed) ex.simulator().add_observer(&noop);
  return ex.run(Executor::default_budget(p));
}

struct Case {
  const pram::WorkloadSpec* spec;
  std::size_t n;
};

std::vector<Case> registry_cases() {
  std::vector<Case> out;
  for (const pram::WorkloadSpec& wl : pram::workload_registry())
    for (std::size_t n : {8, 16})
      if (pram::workload_supports_n(wl, n)) out.push_back({&wl, n});
  return out;
}

class EnginePaths : public testing::TestWithParam<Case> {};

TEST_P(EnginePaths, FastInstrumentedAndSingleStepAgree) {
  const Case c = GetParam();
  const pram::Program p = c.spec->make(c.n);
  for (Scheme scheme : {Scheme::kNondeterministic, Scheme::kDeterministic}) {
    SCOPED_TRACE(scheme_name(scheme));
    const ExecResult fast = run(p, scheme, sim::GrantEngine::kBatched, false);
    ASSERT_TRUE(fast.completed);
    for (const ExecResult& other :
         {run(p, scheme, sim::GrantEngine::kBatched, true),
          run(p, scheme, sim::GrantEngine::kSingleStep, false)}) {
      EXPECT_EQ(other.completed, fast.completed);
      EXPECT_EQ(other.total_work, fast.total_work);
      EXPECT_EQ(other.memory, fast.memory);
      EXPECT_EQ(other.produced, fast.produced);
      EXPECT_EQ(other.incomplete_tasks, fast.incomplete_tasks);
      EXPECT_EQ(other.stamp_misses, fast.stamp_misses);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EnginePaths, testing::ValuesIn(registry_cases()),
    [](const testing::TestParamInfo<Case>& info) {
      return std::string(info.param.spec->name) + "_n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace apex::exec
