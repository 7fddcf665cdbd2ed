// Batched-vs-single-step equivalence: the two grant engines must produce
// grant-for-grant and byte-for-byte identical runs for every schedule kind,
// including mid-batch stop-predicate hits, crash/starvation edges, repeated
// run() calls (prefetch-buffer persistence), and script exhaustion.  This
// suite is the determinism contract of docs/ARCHITECTURE.md made
// executable.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "check/fuzz_schedule.h"
#include "check/mutation.h"
#include "sim/simulator.h"

namespace apex::sim {
namespace {

// --- Schedule-level: fill() must replay next() exactly ----------------------

std::vector<std::size_t> draw_next(Schedule& s, std::size_t count) {
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) out.push_back(s.next(t));
  return out;
}

// Drains via fill() in adversarial chunk sizes (1, 7, 64, 1024, ...).
std::vector<std::size_t> draw_fill(Schedule& s, std::size_t count) {
  static constexpr std::size_t kChunks[] = {1, 7, 64, 1024, 3, 128};
  std::vector<std::uint32_t> buf(1024);
  std::vector<std::size_t> out;
  out.reserve(count);
  std::size_t chunk_i = 0;
  std::uint64_t t = 0;
  while (out.size() < count) {
    const std::size_t want =
        std::min(kChunks[chunk_i++ % 6], count - out.size());
    const std::size_t got =
        s.fill(std::span<std::uint32_t>(buf.data(), want), t);
    EXPECT_GE(got, 1u) << "fill produced nothing";
    EXPECT_LE(got, want);
    if (got == 0 || got > want) return out;
    for (std::size_t i = 0; i < got; ++i) out.push_back(buf[i]);
    t += got;
  }
  return out;
}

TEST(ScheduleFill, MatchesNextForEveryCanonicalKind) {
  constexpr std::size_t kN = 8;
  constexpr std::size_t kSteps = 6000;
  for (auto kind : all_schedule_kinds()) {
    auto a = make_schedule(kind, kN, Rng(42));
    auto b = make_schedule(kind, kN, Rng(42));
    EXPECT_EQ(draw_next(*a, kSteps), draw_fill(*b, kSteps))
        << "kind=" << schedule_kind_name(kind);
  }
}

TEST(ScheduleFill, MatchesNextForFuzzedSchedule) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    check::FuzzedSchedule a(6, seed);
    check::FuzzedSchedule b(6, seed);
    EXPECT_EQ(draw_next(a, 20000), draw_fill(b, 20000)) << "seed=" << seed;
    // Segment composition must not depend on the draw API.
    EXPECT_EQ(a.segments_generated(), b.segments_generated());
    EXPECT_EQ(a.describe(), b.describe());
  }
}

TEST(ScheduleFill, ScriptedRoundRobinExhaustMatchesNext) {
  const std::vector<std::size_t> script = {3, 1, 1, 0, 2, 3, 3};
  ScriptedSchedule a(4, script, ScriptExhaust::kRoundRobin);
  ScriptedSchedule b(4, script, ScriptExhaust::kRoundRobin);
  EXPECT_EQ(draw_next(a, 500), draw_fill(b, 500));
}

TEST(ScheduleFill, ScriptedThrowExhaustThrowsAtSameGrant) {
  const std::vector<std::size_t> script = {0, 1, 2, 0, 1};
  ScriptedSchedule a(3, script, ScriptExhaust::kThrow);
  ScriptedSchedule b(3, script, ScriptExhaust::kThrow);
  EXPECT_EQ(draw_next(a, script.size()), draw_fill(b, script.size()));
  EXPECT_THROW(a.next(script.size()), std::out_of_range);
  std::uint32_t one;
  EXPECT_THROW(b.fill(std::span<std::uint32_t>(&one, 1), script.size()),
               std::out_of_range);
}

TEST(ScheduleFill, RecordingScheduleTracesFilledGrants) {
  check::RecordingSchedule rec(std::make_unique<RoundRobinSchedule>(3));
  std::vector<std::uint32_t> buf(10);
  const std::size_t got =
      rec.fill(std::span<std::uint32_t>(buf.data(), 10), 0);
  ASSERT_EQ(got, 10u);
  ASSERT_EQ(rec.trace().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(rec.trace()[i], i % 3);
}

// A schedule that relies on the BASE fill() (loops next) and throws at a
// fixed time: the default implementation must hand back the grants drawn
// before the error and rethrow on the following call.
class ThrowAtSchedule final : public Schedule {
 public:
  ThrowAtSchedule(std::size_t nprocs, std::uint64_t throw_at)
      : Schedule(nprocs), throw_at_(throw_at) {}
  std::size_t next(std::uint64_t t) override {
    if (t == throw_at_) throw std::runtime_error("boom");
    return static_cast<std::size_t>(t % nprocs_);
  }

 private:
  std::uint64_t throw_at_;
};

TEST(ScheduleFill, DefaultFillDefersMidBatchException) {
  ThrowAtSchedule s(2, 5);
  std::vector<std::uint32_t> buf(8);
  // Grants 0..4 come back; the t=5 error is deferred to the next call.
  EXPECT_EQ(s.fill(std::span<std::uint32_t>(buf.data(), 8), 0), 5u);
  EXPECT_THROW(s.fill(std::span<std::uint32_t>(buf.data(), 8), 5),
               std::runtime_error);
}

// --- Simulator-level: identical runs under both engines ---------------------

// Mixed workload: writers hammer a shared cell (read-modify-write, loses
// updates — interleaving-sensitive), one proc finishes early, one pads with
// ctx.steps() (exercises step accounting), one draws from its private rng.
ProcTask incrementer(Ctx& ctx, std::size_t addr, int count) {
  for (int i = 0; i < count; ++i) {
    const Cell c = co_await ctx.read(addr);
    co_await ctx.write(addr, c.value + 1, c.stamp + 1);
  }
}

ProcTask early_finisher(Ctx& ctx, std::size_t addr) {
  co_await ctx.write(addr, 7, 1);
}

ProcTask padder(Ctx& ctx, std::size_t addr) {
  for (;;) {
    const std::uint64_t start = ctx.steps();
    while (ctx.steps() - start < 8) co_await ctx.local();
    const Cell c = co_await ctx.read(addr);
    co_await ctx.write(addr, c.value + ctx.rng().below(100), 0);
  }
}

ProcTask rng_writer(Ctx& ctx, std::size_t base, std::size_t span) {
  for (;;) {
    const auto a = base + static_cast<std::size_t>(ctx.rng().below(span));
    const Cell c = co_await ctx.read(a);
    co_await ctx.write(a, c.value ^ ctx.rng().next(), c.stamp + 1);
  }
}

struct Outcome {
  std::vector<std::size_t> trace;
  std::vector<Cell> memory;
  std::uint64_t work = 0;
  std::uint64_t ticks = 0;
  std::vector<std::uint64_t> steps;
  std::vector<Simulator::RunResult> results;
  bool threw = false;
  std::string what;
};

using ScheduleFactory = std::function<std::unique_ptr<Schedule>()>;

Outcome run_workload(GrantEngine engine, const ScheduleFactory& make_sched,
                     const std::vector<std::uint64_t>& budgets,
                     std::uint64_t check_interval = 7,
                     bool with_stop = false) {
  constexpr std::size_t kProcs = 4;
  constexpr std::size_t kWords = 8;
  auto rec =
      std::make_unique<check::RecordingSchedule>(make_sched());
  check::RecordingSchedule* recp = rec.get();

  SimConfig cfg;
  cfg.nprocs = kProcs;
  cfg.memory_words = kWords;
  cfg.seed = 11;
  cfg.engine = engine;
  Simulator sim(cfg, std::move(rec));
  sim.spawn([](Ctx& c) { return incrementer(c, 0, 40); });
  sim.spawn([](Ctx& c) { return early_finisher(c, 1); });
  sim.spawn([](Ctx& c) { return padder(c, 2); });
  sim.spawn([](Ctx& c) { return rng_writer(c, 3, 5); });

  Outcome out;
  try {
    for (auto budget : budgets) {
      if (with_stop) {
        out.results.push_back(sim.run(
            budget, [&] { return sim.memory().at(0).value >= 20; },
            check_interval));
      } else {
        out.results.push_back(sim.run(budget, nullptr, check_interval));
      }
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.what = e.what();
  }
  out.trace = recp->trace();
  out.trace.resize(
      std::min<std::size_t>(out.trace.size(),
                            static_cast<std::size_t>(sim.ticks())));
  for (std::size_t a = 0; a < kWords; ++a)
    out.memory.push_back(sim.memory().at(a));
  out.work = sim.total_work();
  out.ticks = sim.ticks();
  for (std::size_t p = 0; p < kProcs; ++p)
    out.steps.push_back(sim.proc_steps(p));
  return out;
}

void expect_equal(const Outcome& a, const Outcome& b, const char* label) {
  EXPECT_EQ(a.trace, b.trace) << label;
  EXPECT_EQ(a.memory, b.memory) << label;
  EXPECT_EQ(a.work, b.work) << label;
  EXPECT_EQ(a.ticks, b.ticks) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.threw, b.threw) << label;
  EXPECT_EQ(a.what, b.what) << label;
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].work, b.results[i].work) << label;
    EXPECT_EQ(a.results[i].stop_requested, b.results[i].stop_requested)
        << label;
    EXPECT_EQ(a.results[i].all_finished, b.results[i].all_finished) << label;
    EXPECT_EQ(a.results[i].predicate_hit, b.results[i].predicate_hit)
        << label;
  }
}

TEST(BatchEquivalence, EveryCanonicalScheduleKind) {
  for (auto kind : all_schedule_kinds()) {
    const ScheduleFactory f = [kind] {
      return make_schedule(kind, 4, Rng(99));
    };
    const auto a = run_workload(GrantEngine::kBatched, f, {5000});
    const auto b = run_workload(GrantEngine::kSingleStep, f, {5000});
    expect_equal(a, b, schedule_kind_name(kind));
  }
}

TEST(BatchEquivalence, FuzzedSchedules) {
  for (std::uint64_t seed : {1ull, 5ull, 23ull}) {
    const ScheduleFactory f = [seed] {
      return std::make_unique<check::FuzzedSchedule>(4, seed);
    };
    const auto a = run_workload(GrantEngine::kBatched, f, {4000});
    const auto b = run_workload(GrantEngine::kSingleStep, f, {4000});
    expect_equal(a, b, "fuzzed");
  }
}

TEST(BatchEquivalence, RepeatedRunsWithBufferCarryover) {
  // Odd budget slices force the batched engine to park prefetched grants
  // across run() calls; cumulative state must still match at every slice.
  const ScheduleFactory f = [] {
    return std::make_unique<UniformRandomSchedule>(4, Rng(3));
  };
  const std::vector<std::uint64_t> slices = {13, 1, 7, 250, 64, 1000};
  const auto a = run_workload(GrantEngine::kBatched, f, slices);
  const auto b = run_workload(GrantEngine::kSingleStep, f, slices);
  expect_equal(a, b, "sliced");
}

TEST(BatchEquivalence, MidBatchStopPredicate) {
  const ScheduleFactory f = [] {
    return std::make_unique<RoundRobinSchedule>(4);
  };
  for (std::uint64_t interval : {1ull, 7ull, 64ull, 256ull}) {
    const auto a =
        run_workload(GrantEngine::kBatched, f, {100000}, interval, true);
    const auto b =
        run_workload(GrantEngine::kSingleStep, f, {100000}, interval, true);
    expect_equal(a, b, "stop-predicate");
    EXPECT_TRUE(a.results[0].predicate_hit);
  }
}

TEST(BatchEquivalence, ScriptedThrowExhaustFaultsIdentically) {
  // The script covers less than the budget: both engines must execute the
  // identical prefix and throw out_of_range at the same tick.
  std::vector<std::size_t> script;
  for (std::size_t i = 0; i < 200; ++i) script.push_back(i % 4);
  const ScheduleFactory f = [&script] {
    return std::make_unique<ScriptedSchedule>(4, script,
                                              ScriptExhaust::kThrow);
  };
  const auto a = run_workload(GrantEngine::kBatched, f, {100000});
  const auto b = run_workload(GrantEngine::kSingleStep, f, {100000});
  expect_equal(a, b, "script-throw");
  EXPECT_TRUE(a.threw);
  // 200 scripted grants executed + the faulting grant's consumed tick.
  EXPECT_EQ(a.ticks, 201u);
}

TEST(BatchEquivalence, ScriptedRoundRobinExhaustRunsOn) {
  std::vector<std::size_t> script = {0, 0, 1, 3, 2, 2, 1};
  const ScheduleFactory f = [&script] {
    return std::make_unique<ScriptedSchedule>(4, script,
                                              ScriptExhaust::kRoundRobin);
  };
  const auto a = run_workload(GrantEngine::kBatched, f, {3000});
  const auto b = run_workload(GrantEngine::kSingleStep, f, {3000});
  expect_equal(a, b, "script-rr");
  EXPECT_FALSE(a.threw);
}

TEST(BatchEquivalence, StatefulStopPredicateSeesIdenticalPolls) {
  // Regression: while grants to a finished processor keep the work count
  // parked on a check_interval boundary, the single-step engine re-polls
  // the stop predicate once per grant.  A STATEFUL predicate (a counter)
  // therefore fires at a specific grant; the batched engine must observe
  // the identical number of polls, ticks, and work.
  auto run_counting = [](GrantEngine engine) {
    SimConfig cfg{2, 4, 1};
    cfg.engine = engine;
    Simulator sim(cfg, std::make_unique<RoundRobinSchedule>(2));
    sim.spawn([](Ctx& c) { return early_finisher(c, 0); });  // dies fast
    sim.spawn([](Ctx& c) { return incrementer(c, 1, 1000); });
    int polls = 0;
    const auto res = sim.run(
        100, [&] { return ++polls >= 4; }, 2);
    return std::tuple{polls, sim.ticks(), sim.total_work(),
                      res.predicate_hit, res.work};
  };
  EXPECT_EQ(run_counting(GrantEngine::kBatched),
            run_counting(GrantEngine::kSingleStep));
}

TEST(BatchEquivalence, StarvationFaultsAtSameTick) {
  // All grants go to a processor that finishes immediately; with a small
  // starvation limit both engines must fault after the same grant count.
  auto build = [](GrantEngine engine) {
    SimConfig cfg;
    cfg.nprocs = 2;
    cfg.memory_words = 2;
    cfg.seed = 1;
    cfg.engine = engine;
    cfg.starvation_limit = 50;
    auto sched = std::make_unique<ScriptedSchedule>(
        2, std::vector<std::size_t>(500, 0), ScriptExhaust::kRoundRobin);
    auto sim = std::make_unique<Simulator>(cfg, std::move(sched));
    sim->spawn([](Ctx& c) { return early_finisher(c, 0); });
    sim->spawn([](Ctx& c) { return incrementer(c, 1, 1000); });
    return sim;
  };
  auto a = build(GrantEngine::kBatched);
  auto b = build(GrantEngine::kSingleStep);
  EXPECT_THROW(a->run(10000), std::runtime_error);
  EXPECT_THROW(b->run(10000), std::runtime_error);
  EXPECT_EQ(a->ticks(), b->ticks());
  EXPECT_EQ(a->total_work(), b->total_work());
}

TEST(BatchEquivalence, RunAfterCaughtScheduleExhaustionDoesNotReplay) {
  // Regression: a fill() exception used to leave the prefetch buffer's
  // length stale, so catching the exhaustion and calling run() again
  // replayed the previous batch's grants.  Both engines must instead
  // re-raise on every subsequent run(), consuming one tick per attempt,
  // with no work executed.
  auto run_twice = [](GrantEngine engine) {
    SimConfig cfg{2, 4, 1};
    cfg.engine = engine;
    auto sched = std::make_unique<ScriptedSchedule>(
        2, std::vector<std::size_t>{0, 1, 0, 1, 0, 1},
        ScriptExhaust::kThrow);
    Simulator sim(cfg, std::move(sched));
    sim.spawn([](Ctx& c) { return incrementer(c, 0, 100); });
    sim.spawn([](Ctx& c) { return incrementer(c, 1, 100); });
    EXPECT_THROW(sim.run(50), std::out_of_range);
    const auto work_at_fault = sim.total_work();
    const auto ticks_at_fault = sim.ticks();
    EXPECT_THROW(sim.run(50), std::out_of_range);
    return std::tuple{work_at_fault, ticks_at_fault, sim.total_work(),
                      sim.ticks(), sim.memory().at(0), sim.memory().at(1)};
  };
  EXPECT_EQ(run_twice(GrantEngine::kBatched),
            run_twice(GrantEngine::kSingleStep));
}

// Emits an out-of-range processor id at exactly one tick; valid
// round-robin grants otherwise.  Exercises both the refill-time batch
// validation and the single-step per-grant check.
class BadGrantSchedule final : public Schedule {
 public:
  BadGrantSchedule(std::size_t nprocs, std::uint64_t bad_tick)
      : Schedule(nprocs), bad_tick_(bad_tick) {}
  std::size_t next(std::uint64_t t) override {
    if (t == bad_tick_) return nprocs_ + 100;
    return static_cast<std::size_t>(t % nprocs_);
  }

 private:
  std::uint64_t bad_tick_;
};

TEST(BatchEquivalence, RunContinuesPastCaughtUnknownProcFault) {
  // The bad grant consumes its tick and faults; a caller that catches the
  // logic_error and runs again must see execution continue with the
  // remaining (valid) grants — identically under both engines.
  auto go = [](GrantEngine engine) {
    SimConfig cfg{2, 4, 1};
    cfg.engine = engine;
    Simulator sim(cfg, std::make_unique<BadGrantSchedule>(2, 7));
    sim.spawn([](Ctx& c) { return incrementer(c, 0, 1000); });
    sim.spawn([](Ctx& c) { return incrementer(c, 1, 1000); });
    EXPECT_THROW(sim.run(100), std::logic_error);
    const auto ticks_at_fault = sim.ticks();
    const auto res = sim.run(10);  // must make normal progress
    return std::tuple{ticks_at_fault, res.work, sim.total_work(),
                      sim.ticks(), sim.memory().at(0), sim.memory().at(1)};
  };
  const auto a = go(GrantEngine::kBatched);
  const auto b = go(GrantEngine::kSingleStep);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::get<0>(a), 8u);   // 7 good grants + the faulting tick
  EXPECT_EQ(std::get<1>(a), 10u);  // second run() proceeded normally
}

TEST(BatchEquivalence, FuzzedScheduleComposesIdenticalSegmentsUnderPrefetch) {
  // Segments are composed only when a grant is actually demanded of them,
  // so prefetch depth must not change segments_generated()/describe() —
  // the failure reports of `apexcli fuzz` depend on this.
  auto go = [](GrantEngine engine) {
    auto fz = std::make_unique<check::FuzzedSchedule>(4, 77);
    check::FuzzedSchedule* fzp = fz.get();
    SimConfig cfg{4, 8, 11};
    cfg.engine = engine;
    Simulator sim(cfg, std::move(fz));
    sim.spawn([](Ctx& c) { return incrementer(c, 0, 100000); });
    sim.spawn([](Ctx& c) { return incrementer(c, 1, 100000); });
    sim.spawn([](Ctx& c) { return padder(c, 2); });
    sim.spawn([](Ctx& c) { return rng_writer(c, 3, 5); });
    // Stop mid-run on a memory condition polled at the fuzzer's cadence,
    // mimicking an oracle firing partway through a segment.
    sim.run(
        100000, [&] { return sim.memory().at(0).value >= 700; }, 16);
    return std::tuple{fzp->segments_generated(), fzp->describe(),
                      sim.ticks(), sim.total_work()};
  };
  EXPECT_EQ(go(GrantEngine::kBatched), go(GrantEngine::kSingleStep));
}

TEST(BatchEquivalence, FastAndInstrumentedPathsAgree) {
  // Same engine, with and without an observer attached: the observer flips
  // the batched engine onto the instrumented grant path, which must not
  // change the simulation.
  struct NullObs final : StepObserver {
    std::uint64_t events = 0;
    void on_step(const StepEvent&) override { ++events; }
  };
  const ScheduleFactory f = [] {
    return std::make_unique<BurstSchedule>(4, 0.9, Rng(5));
  };

  const auto fast = run_workload(GrantEngine::kBatched, f, {4000});

  // Instrumented variant: re-run with an observer attached.
  constexpr std::size_t kProcs = 4;
  SimConfig cfg;
  cfg.nprocs = kProcs;
  cfg.memory_words = 8;
  cfg.seed = 11;
  cfg.engine = GrantEngine::kBatched;
  Simulator sim(cfg, std::make_unique<BurstSchedule>(4, 0.9, Rng(5)));
  sim.spawn([](Ctx& c) { return incrementer(c, 0, 40); });
  sim.spawn([](Ctx& c) { return early_finisher(c, 1); });
  sim.spawn([](Ctx& c) { return padder(c, 2); });
  sim.spawn([](Ctx& c) { return rng_writer(c, 3, 5); });
  NullObs obs;
  sim.add_observer(&obs);
  sim.run(4000, nullptr, 7);

  EXPECT_EQ(sim.total_work(), fast.work);
  EXPECT_EQ(obs.events, fast.work);
  for (std::size_t a = 0; a < 8; ++a)
    EXPECT_EQ(sim.memory().at(a), fast.memory[a]) << "addr " << a;
  for (std::size_t p = 0; p < kProcs; ++p)
    EXPECT_EQ(sim.proc_steps(p), fast.steps[p]) << "proc " << p;
}

ProcTask locals_then_halt(Ctx& ctx, int count) {
  for (int i = 0; i < count; ++i) co_await ctx.local();
}

/// What a run charged: total work, steps per processor, and whether every
/// processor finished.
struct Charged {
  std::uint64_t work = 0;
  std::vector<std::uint64_t> steps;
  bool all_finished = false;
  bool operator==(const Charged&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Charged& c) {
    os << "work=" << c.work << " steps=";
    for (auto s : c.steps) os << s << ' ';
    return os << "all_finished=" << c.all_finished;
  }
};

TEST(BatchEquivalence, DoubleChargeMutationChargesAlikeOnAllPaths) {
  // kWorkDoubleCharge charges a second work unit for every Local step,
  // including each processor's final (halting) resume, which the batched
  // loop accounts itself.  The fast path, the instrumented path (an
  // observer attached) and the single-step engine must charge the same.
  const check::ScopedMutation mutation(check::Mutation::kWorkDoubleCharge);
  struct CountingObs final : StepObserver {
    std::uint64_t events = 0;
    void on_step(const StepEvent&) override { ++events; }
  };
  const auto go = [](GrantEngine engine, CountingObs* obs) {
    SimConfig cfg;
    cfg.nprocs = 3;
    cfg.memory_words = 2;
    cfg.seed = 11;
    cfg.engine = engine;
    Simulator sim(cfg, make_schedule(ScheduleKind::kUniformRandom, 3, Rng(3)));
    sim.spawn([](Ctx& c) { return incrementer(c, 0, 40); });
    sim.spawn([](Ctx& c) { return early_finisher(c, 1); });
    sim.spawn([](Ctx& c) { return locals_then_halt(c, 10); });
    if (obs != nullptr) sim.add_observer(obs);
    Charged out;
    out.all_finished = sim.run(10000, nullptr, 7).all_finished;
    out.work = sim.total_work();
    for (std::size_t p = 0; p < 3; ++p) out.steps.push_back(sim.proc_steps(p));
    return out;
  };

  // 81 + 2 + 11 granted steps; 13 of them are Local (10 locals and three
  // halting steps), each charged twice.
  const Charged expected{107, {81, 2, 11}, true};
  CountingObs obs;
  EXPECT_EQ(go(GrantEngine::kBatched, nullptr), expected) << "fast path";
  EXPECT_EQ(go(GrantEngine::kBatched, &obs), expected) << "instrumented path";
  EXPECT_EQ(obs.events, 94u) << "one event per granted step";
  EXPECT_EQ(go(GrantEngine::kSingleStep, nullptr), expected) << "single-step";
}

}  // namespace
}  // namespace apex::sim
