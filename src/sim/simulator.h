// The A-PRAM simulator: grants atomic steps to virtual processors according
// to an adversary schedule and accounts total work exactly as the paper
// defines it — "the total number of steps performed in the system, summed
// over all processors", including busy waiting and idling.
//
// Grant engines.  The simulator executes the same abstract machine through
// one of two engines:
//
//   kBatched (default)  pulls grants from the schedule in bulk via
//       Schedule::fill() and consumes them from an internal buffer, with the
//       stop-predicate / alive / starvation checks hoisted to batch
//       boundaries and an observer-free fast grant path selected once per
//       run().  This is the production hot path.
//   kSingleStep         the reference engine: one virtual Schedule::next()
//       call, one fully instrumented grant per step.  Kept for equivalence
//       tests and as the perf baseline (`apexcli perfbench` measures both).
//
// The two engines are grant-for-grant and byte-for-byte equivalent for every
// schedule whose fill() honors the determinism contract (see
// docs/ARCHITECTURE.md): identical grant traces, memory images, work
// accounting and RunResults.  Prefetched-but-unconsumed grants are buffered
// inside the simulator across run() calls, so oblivious schedules may be
// drawn ahead of execution without changing what executes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/frame_pool.h"
#include "sim/memory.h"
#include "sim/observer.h"
#include "sim/proc.h"
#include "sim/schedule.h"

namespace apex::sim {

/// Which grant engine Simulator::run() uses.  kSingleStep is the pre-batching
/// reference implementation; results are identical (see header comment).
enum class GrantEngine : std::uint8_t { kBatched, kSingleStep };

struct SimConfig {
  std::size_t nprocs = 0;
  std::size_t memory_words = 0;
  std::uint64_t seed = 1;  ///< Root of the processor-stream seed tree.
  GrantEngine engine = GrantEngine::kBatched;
  /// Consecutive grants to finished processors (while live processors
  /// remain) tolerated before run() throws.  0 = max(2^20, 64 * nprocs).
  /// The guard is persistent simulator state: it accumulates across run()
  /// calls and resets only when a live processor is granted a step.
  std::uint64_t starvation_limit = 0;
};

class Simulator {
 public:
  Simulator(SimConfig cfg, std::unique_ptr<Schedule> schedule);

  Memory& memory() noexcept { return memory_; }
  const Memory& memory() const noexcept { return memory_; }
  std::size_t nprocs() const noexcept { return nprocs_; }

  /// Bytes spawn() allocates per processor besides its top-level
  /// coroutine frame: the Ctx, the processor record and the resume slot.
  static constexpr std::size_t proc_state_bytes() noexcept {
    return sizeof(Ctx) + sizeof(ProcState) + sizeof(std::coroutine_handle<>);
  }

  /// Spawn a virtual processor.  `factory` is invoked once with the
  /// processor's Ctx& and must return the protocol coroutine
  /// (e.g. `[&](Ctx& c) { return my_protocol(c, args...); }`).
  /// Returns the processor id.  All spawns must precede the first run().
  template <typename Factory>
  std::size_t spawn(Factory&& factory) {
    if (started_)
      throw std::logic_error("Simulator::spawn after run() started");
    const std::size_t id = procs_.size();
    auto ctx = std::make_unique<Ctx>(*this, id, seeds_.processor(id));
    Ctx& ref = *ctx;
    procs_.push_back(ProcState{std::move(ctx), factory(ref), false});
    // Invariant: for an unfinished processor, its resume slot always holds
    // the next handle to resume — the top-level coroutine before the first
    // grant, then whatever handle the last step awaiter suspended (every
    // suspension back to the simulator goes through a step awaiter); a
    // finished processor's slot is null.  Slot addresses are bound into the
    // Ctxs at the first run(), once the vector stops growing.
    resume_slots_.push_back(procs_.back().task.handle());
    return id;
  }

  struct RunResult {
    std::uint64_t work = 0;     ///< Work units consumed by this run() call.
    bool stop_requested = false;
    bool all_finished = false;
    bool predicate_hit = false;
  };

  /// Run until: `max_steps` more work units are consumed, every processor
  /// finished, stop was requested, or `stop` (checked every
  /// `check_interval` consumed work units) returns true.  May be called
  /// repeatedly.
  RunResult run(std::uint64_t max_steps,
                const std::function<bool()>& stop = nullptr,
                std::uint64_t check_interval = 256);

  /// Total work units consumed across all run() calls.
  std::uint64_t total_work() const noexcept { return work_; }

  /// Schedule grants consumed so far (including grants to finished
  /// processors, which charge no work).  This is the length of the executed
  /// grant trace; the schedule itself may have been drawn further ahead by
  /// the batched engine's prefetch buffer.
  std::uint64_t ticks() const noexcept { return tick_; }

  /// Steps granted to processor i so far.
  std::uint64_t proc_steps(std::size_t i) const {
    return procs_.at(i).ctx->steps();
  }

  bool finished(std::size_t i) const { return procs_.at(i).finished; }

  /// Attach an observer to the chain (delivery in attach order).  Any
  /// attached observer switches run() to the instrumented grant path.
  void add_observer(StepObserver* obs) { observers_.add(obs); }
  void remove_observer(StepObserver* obs) { observers_.remove(obs); }
  void clear_observers() noexcept { observers_.clear(); }

  /// Watch writes into [lo, hi): `w` is called at the atomic point of each
  /// one (see WriteWatcher), on every engine, with or without observers.
  /// One watch per simulator; a later call replaces it, and a null `w` or
  /// an empty range removes it.  Set it between run() calls.
  void watch_writes(std::size_t lo, std::size_t hi, WriteWatcher* w) noexcept {
    watcher_ = w;
    watch_lo_ = lo;
    watch_len_ = w != nullptr && hi > lo ? hi - lo : 0;
  }

  /// Deliver any buffered-but-undelivered step events down the deferred
  /// part of the observer chain NOW (exactly once, in order).  The batched
  /// engine flushes automatically at batch boundaries, stop-predicate
  /// checks and run() exits; protocol runtimes that emit out-of-band events
  /// of their own (agreement cycle/phase hooks) call this first, so an
  /// observer consuming both streams sees them interleaved exactly as the
  /// single-step engine interleaves them.  Safe to call mid-grant from
  /// inside protocol code: everything up to the previous completed step is
  /// delivered; no-op outside instrumented batched runs.
  void flush_observers() {
    if (ev_next_ != ev_flushed_) flush_observers_slow();
  }

  void request_stop() noexcept { stop_requested_ = true; }

  const Schedule& schedule() const noexcept { return *schedule_; }

  GrantEngine engine() const noexcept { return engine_; }

 private:
  struct ProcState {
    std::unique_ptr<Ctx> ctx;
    ProcTask task;
    bool finished = false;
  };

  friend class Ctx;

  /// Grant one atomic step to processor p, instrumented per-step: builds
  /// the StepEvent, uses checked memory access, delivers down the whole
  /// observer chain immediately.  Used ONLY by the single-step reference
  /// engine (the genuine pre-batching behavior).
  /// Returns false if p had already finished (no work charged).
  bool grant_instrumented(std::size_t p, bool double_charge);

  /// Consume buffered grants [buf_pos_, end): ops executed inline
  /// (bound-checked) by the awaiters against raw memory, invariant
  /// pointers hoisted out of the loop.  Returns on exhaustion, stop
  /// request, or last processor finish.  run_batched picks the
  /// instantiation once per run: kInstrumented (observers attached) also
  /// fills the batch event buffer through ev_cur_ and flushes it as
  /// on_steps(span) at every exit; the fast one builds no StepEvent.
  /// `poll_on_dead`: the batch began exactly on a stop-predicate boundary,
  /// so a grant to a finished processor before any live grant must return
  /// to the caller for a re-poll — the single-step engine re-evaluates the
  /// predicate on every such grant (work parked on the boundary), and a
  /// stateful predicate must observe the same number of calls.
  template <bool kInstrumented>
  void consume_batch(std::size_t end, bool double_charge, bool poll_on_dead,
                     RunResult& res);

  /// Fault the grant to processor p whose awaiter flagged an out-of-range
  /// address: restore p's resume slot and throw std::out_of_range, as
  /// checked Memory::at does on the single-step engine.
  [[noreturn]] void throw_oob(std::size_t p);

  /// Refill the grant buffer from the schedule (at most one fill() call).
  void refill_grants();

  /// Range-validate grant_buf_[from, buf_len_), setting bad_grant_at_ to
  /// the first out-of-range grant (or buf_len_ when clean).
  void validate_grants(std::size_t from);

  /// Account a grant to an already-finished processor at global tick
  /// `dead_tick` and throw once `starvation_limit_` consecutive such
  /// grants accumulate.  Consecutiveness is tick-based (`last_dead_tick_`),
  /// so the count naturally spans batches and run() calls and resets the
  /// moment any live grant's tick intervenes — and the live-grant hot path
  /// never touches the counter.
  void charge_starvation(std::uint64_t dead_tick);

  RunResult run_batched(std::uint64_t max_steps,
                        const std::function<bool()>& stop,
                        std::uint64_t check_interval);
  RunResult run_single_step(std::uint64_t max_steps,
                            const std::function<bool()>& stop,
                            std::uint64_t check_interval);

  /// SubTask frame pool (see frame_pool.h).  Declared before procs_ so it
  /// outlives every frame: destroying the processors' coroutines returns
  /// their nested frames here.
  FramePool frames_;
  SeedTree seeds_;
  Memory memory_;
  std::unique_ptr<Schedule> schedule_;
  std::vector<ProcState> procs_;
  std::size_t nprocs_;
  std::size_t alive_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t tick_ = 0;        ///< Grants consumed (executed trace length).
  std::uint64_t ticks_drawn_ = 0; ///< Grants drawn from the schedule.
  std::uint64_t starvation_ = 0;  ///< Consecutive finished-proc grants.
  std::uint64_t starvation_limit_ = 0;
  /// Tick of the most recent finished-proc grant (see charge_starvation).
  /// The max() sentinel + 1 wraps to 0, but starvation_ == 0 then makes
  /// both branches of the consecutiveness test yield 1 — still correct.
  std::uint64_t last_dead_tick_ = ~0ULL;
  GrantEngine engine_ = GrantEngine::kBatched;
  bool prefetchable_ = true;
  bool stop_requested_ = false;
  bool started_ = false;
  CompositeObserver observers_;
  std::vector<std::uint32_t> grant_buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  /// First out-of-range grant in the buffer (== buf_len_ when clean),
  /// found once per refill so the hot loop carries no per-grant check.
  std::size_t bad_grant_at_ = 0;
  /// Per-processor next-resume handle (null = finished); parallel to
  /// procs_.  See the invariant note in spawn().
  std::vector<std::coroutine_handle<>> resume_slots_;
  /// Out-of-line tail of flush_observers().
  void flush_observers_slow();

  /// Batch event buffer (instrumented batched runs).  Sized like the grant
  /// buffer: a batch of k grants yields at most k events, so a batch can
  /// never overflow it mid-loop.
  std::vector<StepEvent> event_buf_;
  /// Cursors into event_buf_: [ev_flushed_, ev_next_) is filled but not
  /// yet delivered; ev_next_ is the slot the CURRENT grant's awaiter fills
  /// (each Ctx's ev_cur_ points at ev_next_ during instrumented batched
  /// runs).  Both rewind to the buffer base at batch boundaries, after
  /// delivery.
  StepEvent* ev_next_ = nullptr;
  StepEvent* ev_flushed_ = nullptr;
  /// Out-of-range fault raised by an awaiter (see Ctx::flag_oob): the op
  /// was refused before executing; the scheduler throws for that grant.
  /// oob_resume_ holds the faulting processor's resume handle meanwhile.
  bool oob_fault_ = false;
  std::size_t oob_addr_ = 0;
  std::coroutine_handle<> oob_resume_{};
  /// The write watch (see watch_writes); watch_len_ == 0 means none.
  WriteWatcher* watcher_ = nullptr;
  std::size_t watch_lo_ = 0;
  std::size_t watch_len_ = 0;
};

}  // namespace apex::sim
