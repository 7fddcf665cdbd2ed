// The adversarial fuzz driver.
//
// Runs a grid of protocol × fuzzed-schedule × seed trials on the
// batch::SweepEngine, each trial watched by the full invariant-oracle set
// (oracle.h).  Everything is deterministic in (config seed, trial index):
// output is byte-identical for every --jobs value, and a failing trial is
// re-run, SHRUNK and dumped as a replayable repro file from its index
// alone.
//
// Shrinking: the failing trial is re-run under a RecordingSchedule to
// capture the exact grant trace up to the violation, then the shortest
// prefix that still reproduces the same oracle failure is found by binary
// search; the result is a minimal ScriptedSchedule (round-robin beyond the
// prefix) — usually a few hundred grants instead of an opaque seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz_schedule.h"
#include "check/oracle.h"

namespace apex::check {

enum class FuzzProtocol { kAgreement, kConsensus, kWorkload, kGrammar };
const char* fuzz_protocol_name(FuzzProtocol p) noexcept;

/// The registered PRAM workloads the fuzzer draws kWorkload trials from:
/// the irregular/data-dependent suite, run through the full execution
/// scheme (exec::Executor, nondeterministic) under a FuzzedSchedule with
/// the invariant oracles attached, plus the workload's own final-memory
/// verdict and the produced-trace consistency oracle.
///
/// kGrammar trials add a second adversary axis: a seed-deterministic
/// grammar-generated .pram program (lang::generate_program) is compiled
/// through the full language front-end, run through the execution scheme
/// under the same oracle set, checked against the produced-trace
/// consistency oracle, and — when the generated program is deterministic —
/// diffed bit-for-bit against the reference interpreter's replay.  A
/// compile failure of generated source is itself a finding
/// (oracle "grammar_compile"): the generator emits EREW-valid programs by
/// construction.
const std::vector<const char*>& fuzz_workload_pool();

struct FuzzConfig {
  std::size_t trials = 100;
  std::size_t jobs = 1;        ///< SweepEngine workers; 0 = all hardware.
  std::uint64_t seed = 1;      ///< Corpus base seed.
  bool shrink = true;          ///< Shrink failures to a minimal prefix.
  std::string repro_dir;       ///< When set, dump repro files here.
  /// Oracle tolerances (see oracle.h).
  std::uint64_t skew_ticks = 2;
  std::uint32_t clobber_bound = 0;  ///< 0 = ClobberOracle::default_bound.
  /// Restrict the corpus to kGrammar trials (the CI grammar smoke and
  /// `apexcli fuzz --grammar`); the default mix interleaves all protocols.
  bool grammar_only = false;
};

/// One fully-specified trial (also the self-test's and replayer's entry
/// point).  Adversary precedence: script > fuzzed > kind.
struct TrialSpec {
  FuzzProtocol protocol = FuzzProtocol::kAgreement;
  std::size_t n = 8;
  std::size_t beta = 8;
  std::uint64_t seed = 1;
  std::uint64_t budget = 40000;
  std::string workload;  ///< Registry name (kWorkload trials only).
  const std::vector<std::size_t>* script = nullptr;  ///< Replay a grant trace.
  bool fuzzed = false;  ///< FuzzedSchedule(n, seed) adversary.
  sim::ScheduleKind kind = sim::ScheduleKind::kUniformRandom;
  /// Grant engine the trial's simulator runs on.  The default is the
  /// production engine; the engine-equivalence suite replays identical
  /// specs on kSingleStep and asserts identical outcomes.
  sim::GrantEngine engine = sim::GrantEngine::kBatched;
};

struct TrialOutcome {
  bool failed = false;
  std::string oracle;    ///< First failing oracle, or "exception".
  std::string message;
  std::string schedule_desc;
  std::vector<std::size_t> trace;  ///< Grant trace (record=true only).
};

/// Run one trial with the oracle set attached; record=true captures the
/// grant trace.  Never throws: run-time exceptions become an "exception"
/// outcome (they are findings too).
TrialOutcome run_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                       bool record = false);

/// The deterministic trial grid point for index `i` under `cfg`.
TrialSpec make_trial_spec(const FuzzConfig& cfg, std::size_t i);

struct FuzzFailure {
  std::size_t trial = 0;
  std::uint64_t seed = 0;
  FuzzProtocol protocol = FuzzProtocol::kAgreement;
  std::size_t n = 0;
  std::uint64_t budget = 0;
  std::string workload;  ///< kWorkload trials only.
  std::string oracle;
  std::string message;
  std::string schedule;
  std::vector<std::size_t> repro_script;  ///< Shrunk grant prefix.
  /// The shrink verified repro_script (round-robin beyond it) as the
  /// adversary, even when it is empty; false keeps the fuzzed seed.
  bool shrunk = false;
  std::string repro_path;                 ///< File dumped (repro_dir set).
};

struct FuzzReport {
  std::size_t trials = 0;
  std::vector<FuzzFailure> failures;  ///< Ascending trial index.
  bool ok() const noexcept { return failures.empty(); }
};

FuzzReport run_fuzz(const FuzzConfig& cfg);

// ---- Repro files ----------------------------------------------------------

/// The adversary a repro replays.
enum class ReproSchedule {
  kFuzzed,    ///< FuzzedSchedule(n, seed): the failure was not shrunk.
  kScripted,  ///< `script`, then round-robin; an empty script means
              ///< round-robin from the first grant.
};
const char* repro_schedule_name(ReproSchedule s) noexcept;

struct Repro {
  FuzzProtocol protocol = FuzzProtocol::kAgreement;
  std::size_t n = 0;
  std::size_t beta = 8;
  std::uint64_t seed = 0;
  std::uint64_t budget = 0;
  std::string workload;  ///< kWorkload repros only.
  /// Oracle tolerances the failure was found under (replay uses these, not
  /// the replayer's defaults).
  std::uint64_t skew_ticks = 2;
  std::uint32_t clobber_bound = 0;
  std::string oracle;                 ///< Expected failing oracle.
  ReproSchedule schedule = ReproSchedule::kFuzzed;
  std::vector<std::size_t> script;    ///< kScripted only.
};

/// Files are `apex-fuzz-repro v2`, which names the schedule kind.  A v1
/// file (no kind) still loads: an empty script there means kFuzzed.
/// write_repro throws std::invalid_argument for a kFuzzed repro with a
/// script.
void write_repro(const std::string& path, const Repro& r);
Repro load_repro(const std::string& path);

/// Re-run a repro with fresh oracles.  Returns the observed outcome; the
/// repro "reproduces" when outcome.failed and outcome.oracle == r.oracle.
TrialOutcome replay_repro(const Repro& r, const FuzzConfig& cfg);

}  // namespace apex::check
