#include "exec/executor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/math.h"

namespace apex::exec {

const char* scheme_name(Scheme s) noexcept {
  return s == Scheme::kNondeterministic ? "nondet" : "det";
}

namespace {

/// Cap on the simulated memory one executor lays out, counting the state
/// the simulator keeps per processor as cells too: 2^26 cells (1 GiB).
/// No run the simulator could finish comes near it (the clock alone ticks
/// once per ~alpha * n * lg n agreement cycles), so the cap only turns an
/// oversized program into a clean error before anything is allocated.
constexpr std::size_t kMaxWords = std::size_t{1} << 26;

/// Allowance for scheme_proc's top-level coroutine frame, whose size the
/// compiler fixes (184 bytes under GCC 12 Release, x86-64).
constexpr std::size_t kFrameBytes = 256;

/// Cells' worth of state the simulator allocates per spawned processor.
constexpr std::size_t kProcWords = static_cast<std::size_t>(ceil_div(
    sim::Simulator::proc_state_bytes() + kFrameBytes, sizeof(sim::Cell)));

/// Reject a layout (per-processor state, clock slots, generation slots,
/// then bins or NewVal) larger than kMaxWords.  Products saturate just past
/// the cap, so the sum cannot wrap.
void check_layout(const pram::Program& p, Scheme scheme,
                  const ExecConfig& cfg) {
  const auto capped = [](std::size_t a, std::size_t b) {
    return b != 0 && a > kMaxWords / b ? kMaxWords + 1 : a * b;
  };
  const std::size_t n = p.nthreads();
  const std::size_t tail =
      scheme == Scheme::kNondeterministic
          ? capped(n, agreement::BinArray::cells_for(n, cfg.beta))
          : capped(n, 1);
  if (capped(n, kProcWords) + capped(n, 1) +
          capped(p.nvars(), cfg.generations) + tail >
      kMaxWords)
    throw std::invalid_argument(
        "Executor: memory layout exceeds the simulator's limit of " +
        std::to_string(kMaxWords) + " words");
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl: memory layout, task procedures, driver, and the subphase monitor.
// ---------------------------------------------------------------------------

struct Executor::Impl {
  const pram::Program* prog;
  Scheme scheme;
  ExecConfig cfg;
  sim::Simulator* sim;

  std::unique_ptr<clockx::PhaseClock> clock;
  std::unique_ptr<agreement::BinArray> bins;  // nondet scheme only
  std::size_t var_base = 0;
  std::size_t newval_base = 0;                // det scheme only
  agreement::AgreementRuntime rt;             // nondet scheme only

  // Diagnostics (single-threaded simulation: plain counters suffice).
  std::uint64_t stamp_misses = 0;

  std::size_t n() const { return prog->nthreads(); }
  std::size_t T() const { return prog->nsteps(); }

  /// Address of generation slot for (variable, writer-stamp).
  std::size_t var_addr(std::uint32_t var, sim::Word stamp) const {
    return var_base + static_cast<std::size_t>(var) * cfg.generations +
           static_cast<std::size_t>(stamp % cfg.generations);
  }

  std::size_t newval_addr(std::size_t i) const { return newval_base + i; }

  // --- In-model task procedures ------------------------------------------

  /// Read one operand variable, accepting only the statically expected
  /// writer stamp.  Returns nullopt on a stale/missing stamp.
  sim::SubTask<agreement::TaskResult> read_operand(sim::Ctx& ctx,
                                                   std::uint32_t var,
                                                   std::uint32_t writer) {
    const sim::Word want = pram::stamp_of_writer(writer);
    const sim::Cell c = co_await ctx.read(var_addr(var, want));
    if (c.stamp != want) {
      ++stamp_misses;
      co_return agreement::TaskResult{};
    }
    co_return agreement::TaskResult{c.value};
  }

  /// Evaluate instruction `i` of step `s` (reads operands, one local step
  /// to compute / draw).  Costs at most 4 atomic steps — 5 when the
  /// program contains kGatherDyn (3 operand reads + 1 segment read).
  sim::SubTask<agreement::TaskResult> eval_task(sim::Ctx& ctx, std::size_t s,
                                                std::size_t i) {
    const pram::Instr& ins = prog->step(s).instrs[i];
    if (ins.op == pram::OpCode::kNop) {
      co_await ctx.local();
      co_return agreement::TaskResult{0};
    }
    const auto& w = prog->writers(s, i);
    const int r = pram::reads_of(ins.op);
    sim::Word xv = 0, yv = 0, cv = 0;
    if (r >= 1) {
      const auto v = co_await read_operand(ctx, ins.x, w.x);
      if (!v) co_return agreement::TaskResult{};
      xv = *v;
    }
    if (ins.op == pram::OpCode::kGather) {
      // Data-dependent addressing: the index value xv picks the target
      // variable at run time; the writer table answers "who last wrote it
      // before step s" for EVERY variable, so the timestamp discipline is
      // unchanged — only the table lookup moves to run time.
      const std::uint32_t target = pram::gather_target(ins, xv);
      if (target != pram::kGatherOutOfRange) {
        const auto v = co_await read_operand(
            ctx, target,
            prog->last_writer_before(s, target));
        if (!v) co_return agreement::TaskResult{};
        yv = *v;
      }
      co_await ctx.local();
      co_return agreement::TaskResult{yv};
    }
    if (r >= 2) {
      const auto v = co_await read_operand(ctx, ins.y, w.y);
      if (!v) co_return agreement::TaskResult{};
      yv = *v;
    }
    if (r >= 3) {
      const auto v = co_await read_operand(ctx, ins.c, w.c);
      if (!v) co_return agreement::TaskResult{};
      cv = *v;
    }
    if (ins.op == pram::OpCode::kGatherDyn) {
      // Like kGather, but base and bound came from the x/y/c operand reads
      // above; the static segment caps the computed target, so the writer
      // table covers it the same way.
      const std::uint32_t target =
          pram::gather_dyn_target(ins, xv + yv, cv);
      sim::Word wv = 0;
      if (target != pram::kGatherOutOfRange) {
        const auto v = co_await read_operand(
            ctx, target, prog->last_writer_before(s, target));
        if (!v) co_return agreement::TaskResult{};
        wv = *v;
      }
      co_await ctx.local();
      co_return agreement::TaskResult{wv};
    }
    co_await ctx.local();  // the basic computation / random draw
    switch (ins.op) {
      case pram::OpCode::kRandBelow:
        co_return agreement::TaskResult{ins.imm == 0 ? 0
                                                     : ctx.rng().below(ins.imm)};
      case pram::OpCode::kCoin:
        co_return agreement::TaskResult{
            ctx.rng().uniform() * 4294967296.0 < static_cast<double>(ins.imm)
                ? 1
                : 0};
      default:
        co_return agreement::TaskResult{
            pram::eval_deterministic(ins, xv, yv, cv)};
    }
  }

  /// Deterministic-scheme Compute: pick a random task, evaluate it, write
  /// NewVal[i] directly (no agreement — the baseline's fatal flaw for
  /// nondeterministic f).
  sim::SubTask<void> det_compute_once(sim::Ctx& ctx, std::size_t s,
                                      sim::Word stamp) {
    const std::size_t i = static_cast<std::size_t>(ctx.rng().below(n()));
    co_await ctx.local();
    const auto v = co_await eval_task(ctx, s, i);
    if (v) co_await ctx.write(newval_addr(i), *v, stamp);
  }

  /// Copy subphase task: pick a random thread, fetch its NewVal (from the
  /// bins under the nondeterministic scheme, from the NewVal array under
  /// the baseline), and commit it to z_i's generation slot.
  sim::SubTask<void> copy_once(sim::Ctx& ctx, std::size_t s, sim::Word stamp) {
    const std::size_t i = static_cast<std::size_t>(ctx.rng().below(n()));
    co_await ctx.local();
    const pram::Instr& ins = prog->step(s).instrs[i];
    if (!pram::writes_dest(ins.op)) co_return;

    agreement::TaskResult v;
    if (scheme == Scheme::kNondeterministic) {
      v = co_await agreement::read_agreed(ctx, *bins, i, stamp);
    } else {
      const sim::Cell c = co_await ctx.read(newval_addr(i));
      if (c.stamp == stamp) v = c.value;
    }
    if (v) co_await ctx.write(var_addr(ins.z, stamp), *v, stamp);
  }

  /// Per-processor driver: interleave clock maintenance with random task
  /// execution for the current subphase; exit once the clock passes 2T.
  sim::ProcTask scheme_proc(sim::Ctx& ctx) {
    const std::uint64_t stride = lg(n());
    const std::uint64_t end_tick = 2 * static_cast<std::uint64_t>(T());
    std::uint64_t tick = 0;
    for (std::uint64_t iter = 0;; ++iter) {
      // Staggered by id, as in agreement_proc: avoids synchronized
      // clock-read blocks under lockstep schedules.
      if ((iter + ctx.id()) % stride == 0) {
        co_await clock->update(ctx);
        tick = co_await clock->read(ctx);
        if (tick >= end_tick) co_return;
      }
      if (tick >= end_tick) {
        co_await ctx.local();
        continue;
      }
      const std::size_t s = static_cast<std::size_t>(tick / 2);
      const sim::Word stamp = pram::stamp_of_step(static_cast<std::uint32_t>(s));
      if (tick % 2 == 0) {
        if (scheme == Scheme::kNondeterministic)
          co_await agreement::agreement_cycle(ctx, rt, stamp);
        else
          co_await det_compute_once(ctx, s, stamp);
      } else {
        co_await copy_once(ctx, s, stamp);
      }
    }
  }

  // --- Out-of-band subphase monitor ----------------------------------------

  /// Watches clock writes to detect true tick transitions and audits each
  /// step's COMMITTED values one full phase after its Copy subphase ended.
  ///
  /// It runs on the simulator's write watch, not on the observer chain:
  /// the watch calls it at the atomic point of every write into the clock
  /// region (det scheme: clock through NewVal, see the constructor), so the
  /// audits read live memory exactly as it stands at the tick transition,
  /// and an executor with no user observers keeps the batched engine on its
  /// fast path.
  ///
  /// Why the delay: processors act on *estimated* ticks that lag/lead the
  /// true tick by a bounded amount, so copies for step s legitimately
  /// straggle past the true Copy->Compute boundary.  Snapshotting agreed
  /// values right at the boundary (the original design) raced those
  /// stragglers: it both overcounted `incomplete` and recorded stale
  /// `produced` values for runs whose final memory was perfectly correct —
  /// the long irregular workloads (bfs: ~230 subphases) hit this
  /// systematically.  Auditing the generation slot at the close of tick
  /// 2s+3 is race-free on both sides: estimate skew is well under a full
  /// phase, so every straggling copy of step s has landed, and the
  /// earliest possible overwrite of the slot (the Copy subphase of step
  /// s+G, G >= 3 enforced at construction, at estimated tick 2s+2G+1)
  /// cannot have started even from a ~2-tick estimate leader.  The
  /// committed slot is also the authoritative agreed value — copies only
  /// ever commit values read from completed agreements — so `produced` is
  /// exactly what downstream steps can observe.
  ///
  /// The DETERMINISTIC baseline has no agreement, hence no unique NewVal:
  /// re-executions of a randomized task overwrite NewVal[i] with fresh
  /// draws, and which one a copy commits is a race (the paper's motivating
  /// flaw).  For that scheme `produced` records the FIRST NewVal write of
  /// each (step, task) — an event-driven, race-free capture — so a later
  /// redraw that gets committed shows up as a genuine consistency
  /// violation instead of being laundered by reading the final slot back.
  struct Monitor final : public sim::WriteWatcher {
    Impl* im = nullptr;
    std::uint64_t clock_total = 0;
    std::uint64_t tick = 0;
    std::vector<std::vector<pram::Word>> produced;
    std::uint64_t incomplete = 0;
    /// Det scheme: highest NewVal stamp already recorded per task
    /// (first-write-wins per stamp; late stale-stamp writes are ignored).
    std::vector<sim::Word> newval_stamp_seen;

    void init(Impl* impl) {
      im = impl;
      produced.assign(im->T(), std::vector<pram::Word>(im->n(), 0));
      if (im->scheme == Scheme::kDeterministic)
        newval_stamp_seen.assign(im->n(), 0);
    }

    /// Ticks the monitor must close to have audited every step: the audit
    /// of step T-1 happens when tick 2(T-1)+3 = 2T+1 closes.
    std::uint64_t end_tick() const { return 2 * im->T() + 2; }

    void on_write(std::size_t addr, const sim::Cell& before,
                  const sim::Cell& after) override {
      if (im->scheme == Scheme::kDeterministic && addr >= im->newval_base &&
          addr < im->newval_base + im->n()) {
        const std::size_t i = addr - im->newval_base;
        const sim::Word st = after.stamp;
        if (st > newval_stamp_seen[i] && st >= 1 &&
            st <= static_cast<sim::Word>(im->T())) {
          newval_stamp_seen[i] = st;
          produced[static_cast<std::size_t>(st - 1)][i] = after.value;
        }
        return;
      }
      if (!im->clock->owns(addr)) return;
      if (after.value > before.value) clock_total += after.value - before.value;
      const std::uint64_t now = clock_total / im->clock->threshold();
      while (tick < now && tick < end_tick()) finalize_subphase();
    }

    /// Close subphase `tick`: audit the step whose Copy subphase ended a
    /// full phase ago, then advance.
    void finalize_subphase() {
      if (tick >= 3 && tick % 2 == 1) {
        const std::size_t s = static_cast<std::size_t>((tick - 3) / 2);
        if (s < im->T())
          audit_commits(s,
                        pram::stamp_of_step(static_cast<std::uint32_t>(s)));
      }
      ++tick;
    }

    /// Read step s's committed generation slots: a matching stamp yields
    /// the agreed value (nondet scheme — the det baseline keeps its
    /// first-evaluation capture, see the struct comment); a missing one is
    /// unfinished work (the scheme's designed w.h.p. failure mode,
    /// surfaced to the caller).
    void audit_commits(std::size_t s, sim::Word stamp) {
      for (std::size_t i = 0; i < im->n(); ++i) {
        const pram::Instr& ins = im->prog->step(s).instrs[i];
        if (!pram::writes_dest(ins.op)) continue;
        const sim::Cell c = im->sim->memory().at(im->var_addr(ins.z, stamp));
        if (c.stamp == stamp) {
          if (im->scheme == Scheme::kNondeterministic) produced[s][i] = c.value;
        } else {
          ++incomplete;
        }
      }
    }
  };

  Monitor monitor;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(const pram::Program& program, Scheme scheme, ExecConfig cfg)
    : prog_(&program), scheme_(scheme), cfg_(cfg) {
  // G >= 3: the monitor audits step s's commits at the close of tick 2s+3,
  // and a processor whose estimate leads true time by the tolerated ~2
  // ticks may start the Copy subphase of step s+G (reusing the slot) at
  // true tick 2(s+G)-1.  G=2 would put that reuse at 2s+3 — racing the
  // audit — so the unsafe configuration is rejected outright.
  if (cfg.generations < 3)
    throw std::invalid_argument("Executor: generations must be >= 3");
  check_layout(program, scheme, cfg);
  const std::size_t n = program.nthreads();

  apex::SeedTree seeds{cfg.seed};
  sim::SimConfig sc;
  sc.nprocs = n;
  sc.memory_words = 0;
  sc.seed = cfg.seed;
  sc.engine = cfg.engine;
  auto schedule =
      cfg.schedule_factory
          ? cfg.schedule_factory(n, seeds.schedule())
          : sim::make_schedule(cfg.schedule, n, seeds.schedule());
  sim_ = std::make_unique<sim::Simulator>(sc, std::move(schedule));

  impl_ = std::make_unique<Impl>();
  impl_->prog = prog_;
  impl_->scheme = scheme_;
  impl_->cfg = cfg_;
  impl_->sim = sim_.get();

  clockx::ClockConfig cc;
  cc.nprocs = n;
  cc.alpha = cfg.clock_alpha;
  impl_->clock = std::make_unique<clockx::PhaseClock>(sim_->memory(), cc);

  impl_->var_base =
      sim_->memory().extend(program.nvars() * cfg.generations);

  if (scheme_ == Scheme::kNondeterministic) {
    impl_->bins = std::make_unique<agreement::BinArray>(
        sim_->memory(), n, agreement::BinArray::cells_for(n, cfg.beta));
    impl_->rt.cfg.n = n;
    impl_->rt.cfg.beta = cfg.beta;
    // <= 3 operand reads + 1 local; a kGatherDyn adds one segment read.
    impl_->rt.cfg.compute_steps = program.has_dyn_gather() ? 5 : 4;
    impl_->rt.bins = impl_->bins.get();
    impl_->rt.clock = impl_->clock.get();
    Impl* im = impl_.get();
    impl_->rt.task = [im](sim::Ctx& ctx, std::size_t i, sim::Word phase) {
      return im->eval_task(ctx, static_cast<std::size_t>(phase - 1), i);
    };
  } else {
    impl_->newval_base = sim_->memory().extend(n);
  }

  // The monitor needs the clock's writes; the det scheme's first-write
  // capture also needs NewVal's, which the layout puts after the variables,
  // so its watch spans clock, variables and NewVal (the monitor skips
  // variable writes).
  impl_->monitor.init(impl_.get());
  const clockx::PhaseClock& clk = *impl_->clock;
  const std::size_t watch_end = scheme_ == Scheme::kNondeterministic
                                    ? clk.base_addr() + clk.slots()
                                    : impl_->newval_base + n;
  sim_->watch_writes(clk.base_addr(), watch_end, &impl_->monitor);

  Impl* im = impl_.get();
  for (std::size_t p = 0; p < n; ++p)
    sim_->spawn([im](sim::Ctx& ctx) { return im->scheme_proc(ctx); });
}

Executor::~Executor() = default;

clockx::PhaseClock& Executor::clock() noexcept { return *impl_->clock; }

agreement::BinArray* Executor::bins() noexcept { return impl_->bins.get(); }

void Executor::set_agreement_observer(
    agreement::AgreementObserver* obs) noexcept {
  impl_->rt.observer = obs;
}

std::uint64_t Executor::default_budget(const pram::Program& p) {
  const std::size_t n = p.nthreads();
  agreement::AgreementConfig acfg;
  acfg.n = n;
  acfg.compute_steps = p.has_dyn_gather() ? 5 : 4;
  // One tick costs ~α·n·lg n cycles of ω steps each, plus clock traffic
  // (~ one update + one read per lg n cycles).  Budget 4x the expected
  // 2T-tick run, plus slack for tiny programs.
  const double per_tick = ExecConfig{}.clock_alpha * static_cast<double>(n) *
                          lg(n) * static_cast<double>(acfg.omega() + 4);
  return static_cast<std::uint64_t>(per_tick * 2.0 *
                                    static_cast<double>(p.nsteps()) * 4.0) +
         1'000'000;
}

ExecResult Executor::run(std::uint64_t max_work) {
  const auto res = sim_->run(max_work);
  ExecResult out;
  out.completed = res.all_finished;
  out.total_work = sim_->total_work();
  out.stamp_misses = impl_->stamp_misses;

  if (out.completed) {
    // Finalize any subphases whose boundary the monitor has not yet seen
    // (processors exit on estimated ticks, which can lead the exact tick),
    // including the trailing audit ticks past 2T.
    while (impl_->monitor.tick < impl_->monitor.end_tick())
      impl_->monitor.finalize_subphase();
  }
  out.produced = impl_->monitor.produced;
  out.incomplete_tasks = impl_->monitor.incomplete;

  // Extract final variable values: the freshest generation slot wins.
  out.memory.assign(prog_->nvars(), 0);
  for (std::size_t v = 0; v < prog_->nvars(); ++v) {
    sim::Word best_stamp = 0;
    sim::Word best_value = 0;
    for (std::size_t g = 0; g < cfg_.generations; ++g) {
      const sim::Cell c =
          sim_->memory().at(impl_->var_base + v * cfg_.generations + g);
      if (c.stamp >= best_stamp) {
        best_stamp = c.stamp;
        best_value = c.value;
      }
    }
    out.memory[v] = best_value;
  }
  return out;
}

CheckedRun run_checked(const pram::Program& p, Scheme scheme, ExecConfig cfg,
                       std::uint64_t max_work) {
  Executor ex(p, scheme, cfg);
  if (max_work == 0) max_work = Executor::default_budget(p);
  CheckedRun out;
  out.result = ex.run(max_work);
  if (!out.result.completed) {
    out.consistency_error = "execution did not complete within budget";
    return out;
  }
  out.consistency_error = pram::check_execution_consistency(
      p, std::vector<pram::Word>(p.nvars(), 0), out.result.produced,
      out.result.memory);
  return out;
}

}  // namespace apex::exec
