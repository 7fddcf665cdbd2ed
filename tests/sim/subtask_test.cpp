#include "sim/subtask.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "sim/simulator.h"

namespace apex::sim {
namespace {

// Sub-procedure: read two cells and return their sum (2 atomic steps).
SubTask<Word> sum_two(Ctx& ctx, std::size_t a, std::size_t b) {
  const Cell ca = co_await ctx.read(a);
  const Cell cb = co_await ctx.read(b);
  co_return ca.value + cb.value;
}

// Sub-procedure with no steps at all (must complete synchronously).
SubTask<Word> constant_fn(Ctx&) { co_return 42; }

// void sub-procedure.
SubTask<void> write_one(Ctx& ctx, std::size_t addr, Word v) {
  co_await ctx.write(addr, v, 0);
}

// Nested: calls sum_two twice through another level.
SubTask<Word> sum_four(Ctx& ctx, std::size_t base) {
  const Word s1 = co_await sum_two(ctx, base, base + 1);
  const Word s2 = co_await sum_two(ctx, base + 2, base + 3);
  co_return s1 + s2;
}

SubTask<Word> throwing_sub(Ctx& ctx) {
  co_await ctx.local();
  throw std::runtime_error("sub failed");
}

Simulator make_sim(std::size_t nprocs, std::size_t words) {
  return Simulator(SimConfig{nprocs, words, 1},
                   std::make_unique<RoundRobinSchedule>(nprocs));
}

TEST(SubTask, ValueReturnedToParent) {
  auto sim = make_sim(1, 8);
  for (std::size_t i = 0; i < 4; ++i) sim.memory().at(i) = Cell{i + 1, 0};
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      const Word s = co_await sum_two(ctx, 0, 1);
      co_await ctx.write(4, s, 0);
    }(c);
  });
  const auto res = sim.run(100);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(4).value, 3u);
}

TEST(SubTask, StepAccountingCrossesBoundaries) {
  auto sim = make_sim(1, 8);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      (void)co_await sum_two(ctx, 0, 1);  // 2 steps
      co_await ctx.local();               // 1 step
    }(c);
  });
  sim.run(100);
  // 2 reads + 1 local + final resume = 4.
  EXPECT_EQ(sim.total_work(), 4u);
}

TEST(SubTask, SynchronousSubtaskCostsNothing) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      const Word v = co_await constant_fn(ctx);
      co_await ctx.write(0, v, 0);
    }(c);
  });
  sim.run(100);
  EXPECT_EQ(sim.memory().at(0).value, 42u);
  // 1 write + final resume: the stepless subtask consumed no grants.
  EXPECT_EQ(sim.total_work(), 2u);
}

TEST(SubTask, VoidSubtask) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      co_await write_one(ctx, 2, 9);
      co_await write_one(ctx, 3, 11);
    }(c);
  });
  sim.run(100);
  EXPECT_EQ(sim.memory().at(2).value, 9u);
  EXPECT_EQ(sim.memory().at(3).value, 11u);
}

TEST(SubTask, TwoLevelNesting) {
  auto sim = make_sim(1, 8);
  for (std::size_t i = 0; i < 4; ++i) sim.memory().at(i) = Cell{10 * (i + 1), 0};
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      const Word s = co_await sum_four(ctx, 0);
      co_await ctx.write(7, s, 0);
    }(c);
  });
  const auto res = sim.run(100);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(7).value, 100u);
  // 4 reads + 1 write + final resume = 6.
  EXPECT_EQ(sim.total_work(), 6u);
}

TEST(SubTask, InterleavingAcrossProcsInsideSubtasks) {
  // Two procs both run nested subtasks; round-robin interleaves their
  // atomic steps one-for-one even mid-subtask.
  auto sim = make_sim(2, 16);
  for (std::size_t p = 0; p < 2; ++p) {
    sim.spawn([&, p](Ctx& c) -> ProcTask {
      return [](Ctx& ctx, std::size_t base) -> ProcTask {
        for (int k = 0; k < 3; ++k) {
          const Word s = co_await sum_two(ctx, base, base + 1);
          co_await ctx.write(base + 2, s + static_cast<Word>(k), 0);
        }
      }(c, 8 * p);
    });
  }
  const auto res = sim.run(1000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(2).value, 2u);
  EXPECT_EQ(sim.memory().at(10).value, 2u);
  EXPECT_EQ(sim.proc_steps(0), sim.proc_steps(1));
}

TEST(SubTask, ExceptionPropagatesThroughStack) {
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      (void)co_await throwing_sub(ctx);
      co_await ctx.local();  // never reached
    }(c);
  });
  EXPECT_THROW(sim.run(100), std::runtime_error);
}

TEST(SubTask, LoopedSubtaskCalls) {
  // A subtask invoked many times in a loop must not leak or corrupt state.
  auto sim = make_sim(1, 4);
  sim.spawn([&](Ctx& c) -> ProcTask {
    return [](Ctx& ctx) -> ProcTask {
      for (int k = 0; k < 100; ++k) co_await write_one(ctx, 0, static_cast<Word>(k));
    }(c);
  });
  const auto res = sim.run(10000);
  EXPECT_TRUE(res.all_finished);
  EXPECT_EQ(sim.memory().at(0).value, 99u);
  EXPECT_EQ(sim.total_work(), 101u);
}

// Endless nested work: every suspension sits three SubTask levels deep
// (deep_loop -> sum_four -> sum_two) with a live frame at each level.
SubTask<Word> deep_loop(Ctx& ctx, std::size_t base) {
  Word total = 0;
  for (;;) {
    total += co_await sum_four(ctx, base);
    co_await write_one(ctx, base + 4, total);
  }
}

ProcTask endless(Ctx& ctx, std::size_t base) {
  (void)co_await deep_loop(ctx, base);
}

TEST(SubTask, DestroyingSimulatorMidRunFreesSuspendedFrames) {
  // Destroy simulators while every processor is suspended inside nested
  // SubTasks, on both engines and with another simulator's pool running
  // (a nested run), so frames return to the pool they came from.  Under
  // ASan a frame freed after its pool, or a pool chunk leaked, is a
  // report.
  for (auto engine : {GrantEngine::kBatched, GrantEngine::kSingleStep}) {
    SimConfig cfg{3, 16, 1};
    cfg.engine = engine;
    auto outer = std::make_unique<Simulator>(
        cfg, std::make_unique<RoundRobinSchedule>(3));
    std::unique_ptr<Simulator> inner;
    outer->spawn([&](Ctx& c) -> ProcTask {
      return [](Ctx& ctx, std::unique_ptr<Simulator>& in,
                SimConfig icfg) -> ProcTask {
        for (int k = 0;; ++k) {
          co_await write_one(ctx, 12, static_cast<Word>(k));
          if (k == 5) {
            // A simulator created, run and destroyed mid-grant of another.
            in = std::make_unique<Simulator>(
                icfg, std::make_unique<RoundRobinSchedule>(3));
            for (std::size_t p = 0; p < 3; ++p)
              in->spawn([p](Ctx& c2) { return endless(c2, p); });
            in->run(97);
            EXPECT_EQ(in->total_work(), 97u);
            in.reset();
          }
        }
      }(c, inner, cfg);
    });
    outer->spawn([](Ctx& c) { return endless(c, 0); });
    outer->spawn([](Ctx& c) { return endless(c, 6); });
    outer->run(250);
    EXPECT_EQ(outer->total_work(), 250u);
    outer.reset();
  }
}

TEST(FramePool, RecyclesFramesToTheOwningPool) {
  FramePool a, b;
  void* first = nullptr;
  {
    const FramePool::Scope in_a(&a);
    first = FramePool::allocate(200);
    FramePool::deallocate(first, 200);
    void* again = FramePool::allocate(200);
    EXPECT_EQ(again, first) << "same size class must reuse the freed frame";
    {
      // Freed while another pool runs: still goes back to pool a.
      const FramePool::Scope in_b(&b);
      FramePool::deallocate(again, 200);
      void* from_b = FramePool::allocate(200);
      EXPECT_NE(from_b, first);
      FramePool::deallocate(from_b, 200);
    }
    EXPECT_EQ(FramePool::allocate(200), first);
    FramePool::deallocate(first, 200);
  }
  // No pool running: the global heap, and freeing it needs no pool.
  void* loose = FramePool::allocate(64);
  {
    const FramePool::Scope in_a(&a);
    FramePool::deallocate(loose, 64);
  }
  // Too large for the size classes: the global heap even inside a scope.
  const FramePool::Scope in_a(&a);
  void* big = FramePool::allocate(1 << 16);
  FramePool::deallocate(big, 1 << 16);
}

}  // namespace
}  // namespace apex::sim
