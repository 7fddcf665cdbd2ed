// The full execution scheme (paper §2, Fig. 1) on real OS threads, with
// logical processors VIRTUALIZED: P logical processors are multiplexed onto
// T worker threads (T <= P), decoupling the paper's n from the core count.
//
// Mirrors src/exec/Executor on the host substrate.  Shared memory is
// HostMemory (value+stamp packed into one atomic 64-bit word); phases are
// PRAM steps, each with a Compute subphase (bin-array agreement cycles
// evaluating the step's instructions) and a Copy subphase (committing
// agreed NewVal values into the program variables' generation slots), both
// delimited by the sampled-counter phase clock.
//
// The virtual-processor run loop: each logical processor is a dense
// HostProc record (private RNG, tick estimate, work counters — no heap, no
// atomics, owned by exactly one worker thread), and each of T OS threads
// walks its contiguous slice of the P records under a pluggable interleave
// policy (round-robin / random / block), executing ONE protocol step per
// visit.  The substrate provides timing, the protocol provides correctness:
// from the protocol's viewpoint a T-thread host is simply an adversary that
// stalls every processor of a slice in lockstep — a LEGAL oblivious
// adversary (the OS and the policy never see the protocol's coins), and a
// strictly more asynchronous one than one-thread-per-processor, since a
// single preemption now stalls P/T processors at once.  By default
// (os_threads = 0) T is the hardware thread count, clamped to P; setting
// os_threads = P gives one std::thread per processor, and T = 1 is a fully
// deterministic sequential interleaving.
//
// What this validates: the w.h.p. guarantees of the scheme carry from the
// oblivious-adversary model to genuine preemption — and now to instance
// sizes (P = 64-256) far beyond the core count.
//
// One honest fidelity boundary: the OS is STRONGER than the adversary the
// scheme is tuned for.  The model's schedules stall a pending operation for
// at most a bounded number of ticks, so a tardy generation-slot commit can
// never be G or more phases stale; a real OS can park a thread between its
// commit decision and the store for an unbounded time (observed on an
// oversubscribed machine: a worker waking after ~10 phases and clobbering
// the slot its ancient stamp aliases mod G).  No write-only protocol closes
// that window — the paper's word+stamp postulate forbids compare-and-swap —
// but a tardy write always carries its OLD stamp, which makes the damage
// DETECTABLE: run() audits every variable's last-writer slot after the
// threads join, then REPAIRS each audited-stale slot from the agreed value
// still published in its writer's bin (upper half, where Theorem 1's
// uniqueness holds), re-auditing after each re-commit.  Repaired slots are
// reported as `repaired_commits`; a slot whose bin has since been recycled
// by later phases is unrepairable and stays in `lost_commits`.  An
// audit-clean result (lost_commits == 0, repaired or not) is sound: readers
// accept only exact stamps, and the value stored under a given stamp is
// always that step's unique agreed value, even when the store itself was
// tardy.  Non-zero lost_commits means the memory must not be trusted and
// the caller should re-run: run_until_clean() below is that retry policy.
//
// Limits vs the simulator executor: program values must fit in 40 bits
// (host Pack width), and there is no produced-trace monitor — tests verify
// invariants on the final memory (deterministic kernels against the
// synchronous reference; nondeterministic kernels against their
// self-declared invariants).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "host/host_memory.h"
#include "pram/program.h"
#include "util/math.h"
#include "util/rng.h"

namespace apex::host {

/// Order in which a worker thread visits the virtual processors it owns.
/// All policies are oblivious (they never read protocol state), so each is
/// a legal adversary; they differ in the relative asynchrony they induce
/// between processors of one slice.
enum class Interleave : std::uint8_t {
  kRoundRobin,  ///< Cyclic sweep: skew within a slice bounded by 1 visit.
  kRandom,      ///< Uniform pick per visit (thread-private stream).
  kBlock,       ///< `block` consecutive steps per processor before moving on.
  kPartition,   ///< Cyclic sweep over WEIGHT-BALANCED slices: the T slice
                ///< bounds come from HostExecConfig::proc_weights (e.g. the
                ///< graph degree partitioner's per-processor work), so the
                ///< OS threads that walk a CSR partition own the processors
                ///< placed on it.  Still oblivious: weights are static data
                ///< fixed before the run.
};

/// The worker-thread count T a run uses for a requested os_threads value
/// and P logical processors: 0 = one per hardware thread; always in [1, P].
std::size_t resolve_os_threads(std::size_t os_threads, std::size_t nprocs);

const char* interleave_name(Interleave p) noexcept;
/// Parse "rr"/"round_robin", "random", "block", "partition"; returns false
/// on junk.
bool parse_interleave(const std::string& s, Interleave& out) noexcept;

struct HostExecConfig {
  std::size_t generations = 4;  ///< G generation slots per program variable.
  std::size_t beta = 8;         ///< Bin sizing.
  /// Clock updates per tick = alpha * P.  As in the simulator, alpha must
  /// comfortably exceed beta so every bin fills early in its phase.  On
  /// real threads it also sets a phase's wall-clock length: with T = P a
  /// phase must outlast OS timeslices (hence 4096), while small-T configs
  /// tolerate far smaller alpha (e.g. 48) because intra-slice skew is
  /// bounded by the interleave policy.
  double clock_alpha = 4096.0;
  std::uint64_t seed = 1;
  double timeout_seconds = 60.0;

  // --- virtualization -------------------------------------------------------
  /// T = number of OS worker threads.  0 = one per hardware thread
  /// (std::thread::hardware_concurrency(), at least 1).  Clamped to P (a
  /// worker needs at least one processor to drive).
  std::size_t os_threads = 0;
  Interleave interleave = Interleave::kRoundRobin;
  /// Steps per visit under Interleave::kBlock.  64 keeps a processor's RNG
  /// and loop state register-resident across the block (measured ~1.1-1.3x
  /// over per-visit round-robin) while staying far inside a phase: even at
  /// alpha = 48 a tick spans ~alpha*lg(n) visits per processor.
  std::size_t block = 64;
  /// Fidelity fallback: force seq_cst on every protocol word, restoring the
  /// pre-virtualization memory discipline exactly.  Off = the audited
  /// relaxed/acq-rel orders (see the proof obligations in host_executor.cpp).
  bool seq_cst = false;
  /// Run the post-join lost-commit repair pass (on by default; off shows
  /// the raw audit).
  bool repair = true;
  /// Per-logical-processor work weights for Interleave::kPartition (e.g.
  /// instruction-slot counts from the graph degree partitioner).  Empty =
  /// equal-count slices (kPartition then degenerates to round-robin); a
  /// non-empty vector must have exactly P entries.
  std::vector<std::uint64_t> proc_weights;
  /// TEST ONLY: fault injected between thread join and the commit audit —
  /// lets tests exercise the audit+repair path deterministically (genuine
  /// ultra-preemption damage needs an adversarial OS moment).
  std::function<void(HostMemory&)> preaudit_fault;
};

struct HostExecResult {
  bool completed = false;        ///< Every thread saw the final tick.
  std::uint64_t total_work = 0;  ///< Atomic steps summed over processors.
  double wall_seconds = 0.0;
  std::vector<std::uint64_t> memory;  ///< Final value of each variable.
  std::uint64_t stamp_misses = 0;     ///< Operand reads that found a stale
                                      ///< stamp and retried (normal).
  /// First worker-side fault (e.g. a program value exceeding the 40-bit
  /// host Pack width).  Non-empty implies completed == false; the run
  /// aborts cleanly instead of crashing the process.
  std::string error;
  /// Variables whose LAST writer's commit was absent from its generation
  /// slot after the run AND could not be repaired from the agreed bin
  /// value.  0 certifies the extracted memory; non-zero means re-run.
  std::size_t lost_commits = 0;
  /// Audited-stale slots re-committed from their writer's bin (upper half)
  /// and re-audited clean.  Counted separately so the trajectory shows how
  /// often ultra-preemption damage occurs vs how often it is recoverable.
  std::size_t repaired_commits = 0;
};

class HostExecutor {
 public:
  HostExecutor(const pram::Program& program, HostExecConfig cfg);

  /// Launch T worker threads over the P virtual processors, run the full
  /// phase sequence, join, audit + repair, and extract the final memory.
  HostExecResult run();

  /// Raw host memory (clock | bins | generation slots) — for inspectors
  /// and tests; read it only after run() returned.
  const HostMemory& memory() const noexcept { return mem_; }
  /// Address of the generation slot var v uses for `stamp` (inspectors).
  std::size_t var_slot_addr(std::uint32_t var, std::uint32_t stamp) const {
    return var_addr(var, stamp);
  }
  /// Address of cell `cell` of bin `bin` (inspectors).
  std::size_t bin_addr(std::size_t bin, std::size_t cell) const {
    return bins_base_ + bin * b_ + cell;
  }
  std::size_t cells_per_bin() const noexcept { return b_; }
  /// The worker-thread count this run will use (after clamping).
  std::size_t os_threads() const noexcept { return nthreads_; }

 private:
  /// Dense per-logical-processor loop state.  Owned by exactly one worker
  /// thread at a time — plain fields, no synchronization.  Cache-line
  /// aligned so neighbouring processors in different slices never false-
  /// share.
  struct alignas(64) HostProc {
    apex::Rng rng;
    std::uint64_t iter = 0;         ///< Countdown to next clock update
                                    ///< (replaces the (iter+id) % stride
                                    ///< test — no per-visit divide).
    std::uint64_t tick = 0;         ///< Latest clock estimate.
    std::uint64_t clamp = 0;        ///< Monotone reader clamp.
    std::uint64_t work = 0;
    std::uint64_t misses = 0;
    bool done = false;
  };

  /// Precomputed per-(step, instruction) operand plan: every address and
  /// expected stamp the hot loop needs, resolved once at construction so a
  /// visit performs no multiplies, no writer-table walks, no bounds checks.
  struct OpPlan {
    pram::OpCode op;
    std::uint8_t nreads;       ///< reads_of(op).
    bool writes;               ///< writes_dest(op).
    std::uint32_t x_addr, y_addr, c_addr;  ///< Operand generation slots.
    std::uint32_t x_want, y_want, c_want;  ///< Expected operand stamps.
    std::uint32_t z_addr;      ///< Commit slot (writes only).
    const pram::Instr* ins;    ///< For eval_deterministic / imm / gather.
  };

  void worker(std::size_t tid);
  /// The hot path is templated on the fidelity flag so every memory order
  /// is a COMPILE-TIME constant: GCC/Clang compile a runtime-valued
  /// std::memory_order argument to the strongest order (the builtin falls
  /// back to seq_cst), which would silently undo the downgrade audit.
  template <bool kSeqCst>
  void worker_body(std::size_t tid);
  /// Execute one protocol step for this processor; returns true when the
  /// processor observed the final tick (it must not be visited again).
  template <bool kSeqCst>
  bool visit(HostProc& vp);
  template <bool kSeqCst>
  bool eval(HostProc& vp, std::size_t s, std::size_t i, std::uint64_t& out);
  void record_error(std::size_t tid, const char* what);
  void audit_and_repair(HostExecResult& out);

  // Memory layout helper (clock slots | bins | variable generations).
  std::size_t var_addr(std::uint32_t var, std::uint32_t stamp) const {
    return var_base_ + static_cast<std::size_t>(var) * cfg_.generations +
           stamp % cfg_.generations;
  }

  const pram::Program* prog_;
  HostExecConfig cfg_;
  std::size_t n_;           ///< P: logical processors = program threads = bins.
  std::size_t nthreads_;    ///< T: OS worker threads (clamped to [1, P]).
  std::size_t b_;           ///< Cells per bin.
  std::size_t clock_base_;
  std::size_t bins_base_;
  std::size_t var_base_;
  std::uint64_t clock_tau_;
  std::size_t clock_samples_;
  std::uint64_t stride_;    ///< Visits between clock updates (>= 1).
  std::uint64_t end_tick_;
  HostMemory mem_;

  std::vector<HostProc> procs_;        ///< P dense records.
  std::vector<std::size_t> slice_;     ///< T+1 slice bounds over procs_.
  std::vector<OpPlan> plans_;          ///< nsteps * P, step-major.
  std::vector<std::uint32_t> step_stamp_;    ///< Stamp per step.

  std::atomic<bool> abort_{false};
  /// Per-worker clean-completion flags (watchdog reads them live).  Dense
  /// vector block — the vector is sized once and never resized (atomics
  /// are not movable), same idiom as HostMemory.
  std::vector<std::atomic<std::uint8_t>> done_;
  /// Lock-free first-fault capture: each worker owns error_slot_[tid]; the
  /// first faulting worker claims first_error_ with one CAS (harness
  /// bookkeeping, not protocol memory — the model's no-RMW postulate
  /// applies to the shared PRAM words only).  No mutex anywhere on the
  /// worker path.
  std::vector<std::string> error_slot_;
  std::atomic<std::int32_t> first_error_{-1};
};

/// The result of run_until_clean(): the last run, plus what its retries
/// cost.
struct CleanRun {
  HostExecResult result;             ///< The final run.
  std::size_t damaged_runs = 0;      ///< Runs discarded for lost_commits.
  std::size_t lost_commits = 0;      ///< Summed over every run.
  std::size_t repaired_commits = 0;  ///< Summed over every run.
};

/// The one lost-commit recovery policy: run `program` until a run is
/// audit-clean (lost_commits == 0), re-seeding +1000 after each damaged
/// run, for at most `attempts` runs.  Stops early on a run that did not
/// complete (timeout or worker fault).  `result.lost_commits != 0` means
/// every attempt was damaged.  Construction errors (e.g. generations < 2)
/// propagate as std::invalid_argument.
CleanRun run_until_clean(const pram::Program& program, HostExecConfig cfg,
                         std::size_t attempts);

}  // namespace apex::host
