#include "check/fuzz.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "agreement/testbed.h"
#include "batch/sweep.h"
#include "consensus/scan_consensus.h"
#include "exec/executor.h"
#include "lang/compile.h"
#include "lang/gen.h"
#include "pram/interp.h"
#include "pram/workloads.h"

namespace apex::check {

namespace {

constexpr std::uint64_t kTrialTag = 0xF0221A6;
constexpr sim::Word kSupportMax = 1 << 20;

/// Grants between stop-predicate polls: small enough that shrink traces end
/// close to the violation, large enough not to dominate wall time.
constexpr std::uint64_t kPollInterval = 16;

/// The trial's adversary, built through the protocol's schedule factory:
/// a scripted replay, the fuzzed schedule or the canonical `spec.kind`
/// (precedence script > fuzzed > kind), optionally wrapped in a
/// RecordingSchedule.  It keeps what the outcome later reports: the fuzzed
/// schedule's description and the recorded grant trace.
class AdversaryTap {
 public:
  AdversaryTap(const TrialSpec& spec, bool record)
      : spec_(spec), record_(record) {}

  std::unique_ptr<sim::Schedule> operator()(std::size_t nprocs,
                                            apex::Rng rng) {
    std::unique_ptr<sim::Schedule> s;
    if (spec_.script != nullptr) {
      s = std::make_unique<sim::ScriptedSchedule>(
          nprocs, *spec_.script, sim::ScriptExhaust::kRoundRobin);
    } else if (spec_.fuzzed) {
      auto f = std::make_unique<FuzzedSchedule>(nprocs, spec_.seed);
      fuzzed_ = f.get();
      s = std::move(f);
    } else {
      s = sim::make_schedule(spec_.kind, nprocs, rng);
    }
    if (!record_) return s;
    auto r = std::make_unique<RecordingSchedule>(std::move(s));
    recording_ = r.get();
    return r;
  }

  /// Fill the outcome's schedule description and trace.  The batched
  /// engine may have drawn grants it never executed; the executed
  /// interleaving is exactly the first ticks() entries.
  void report(TrialOutcome& out, const sim::Simulator& sim) const {
    if (fuzzed_ != nullptr) out.schedule_desc = fuzzed_->describe();
    if (recording_ != nullptr) {
      out.trace = recording_->trace();
      const auto executed = static_cast<std::size_t>(sim.ticks());
      if (out.trace.size() > executed) out.trace.resize(executed);
    }
  }

 private:
  const TrialSpec& spec_;
  bool record_;
  FuzzedSchedule* fuzzed_ = nullptr;
  RecordingSchedule* recording_ = nullptr;
};

/// A failing verdict: the oracle's name and its message.
TrialOutcome failure(std::string oracle, std::string message) {
  TrialOutcome out;
  out.failed = true;
  out.oracle = std::move(oracle);
  out.message = std::move(message);
  return out;
}

/// Run one observed trial and package its outcome.  `run()` drives the
/// simulation and returns the trial's end-to-end check, which is asked
/// only when every oracle in `set` passed; it returns a failure or a clean
/// outcome.  Any exception is the "exception" finding.
template <typename Run>
TrialOutcome run_observed(const AdversaryTap& tap, sim::Simulator& sim,
                          OracleSet& set, Run&& run) {
  TrialOutcome out;
  try {
    const auto end_to_end = run();
    set.finish(sim);
    if (const Oracle* o = set.first_failing())
      out = failure(o->name(), o->failures().front());
    else
      out = end_to_end();
  } catch (const std::exception& e) {
    out = failure("exception", e.what());
  }
  tap.report(out, sim);
  return out;
}

/// The four protocol oracles over one phase clock and bin array, in one
/// set: work accounting, clock skew, bin validity and the clobber cap.
struct ProtocolOracles {
  ProtocolOracles(const clockx::PhaseClock& clk,
                  const agreement::BinArray& bin_array, std::size_t n,
                  std::uint64_t skew_ticks, agreement::SupportFn support,
                  std::uint32_t clobber_bound)
      : clock(clk, n, skew_ticks),
        bins(bin_array, std::move(support)),
        clobbers(bin_array, clk, clobber_bound) {
    set.add(&work);
    set.add(&clock);
    set.add(&bins);
    set.add(&clobbers);
  }

  WorkAccountingOracle work;
  ClockOracle clock;
  BinArrayOracle bins;
  ClobberOracle clobbers;
  OracleSet set;
};

TrialOutcome run_agreement_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                                 bool record) {
  AdversaryTap tap(spec, record);
  agreement::TestbedConfig tc;
  tc.n = spec.n;
  tc.beta = spec.beta;
  tc.seed = spec.seed;
  tc.engine = spec.engine;
  tc.schedule_factory = std::ref(tap);
  agreement::AgreementTestbed tb(tc, agreement::uniform_task(kSupportMax),
                                 agreement::uniform_support(kSupportMax));

  ProtocolOracles oracles(tb.clock(), tb.bins(), spec.n, cfg.skew_ticks,
                          agreement::uniform_support(kSupportMax),
                          cfg.clobber_bound);
  tb.attach(static_cast<sim::StepObserver*>(&oracles.set));
  tb.attach(static_cast<agreement::AgreementObserver*>(&oracles.set));
  return run_observed(tap, tb.simulator(), oracles.set, [&] {
    tb.simulator().run(
        spec.budget, [&] { return oracles.set.failed(); }, kPollInterval);
    return [] { return TrialOutcome{}; };
  });
}

TrialOutcome run_consensus_trial(const TrialSpec& spec, bool record) {
  AdversaryTap tap(spec, record);
  apex::SeedTree seeds{spec.seed};
  consensus::ScanConfig sc;
  sc.n = spec.n;
  sc.seed = spec.seed;
  sc.engine = spec.engine;
  consensus::ScanConsensus scan(sc, agreement::uniform_task(kSupportMax),
                                tap(spec.n, seeds.schedule()));

  WorkAccountingOracle work;
  ConsensusOracle cons(scan);
  OracleSet set;
  set.add(&work);
  set.add(&cons);
  scan.simulator().add_observer(&set);
  return run_observed(tap, scan.simulator(), set, [&] {
    scan.simulator().run(
        spec.budget, [&] { return set.failed(); }, kPollInterval);
    return [] { return TrialOutcome{}; };
  });
}

/// A program trial's final check on a clean run's memory: a failure, or a
/// clean outcome.
using MemoryCheck =
    std::function<TrialOutcome(const std::vector<pram::Word>& memory)>;

/// Workload and grammar trials: `prog` through the nondeterministic
/// execution scheme on `engine` under the four protocol oracles (clock
/// oracle over `n` processors), then — on a run the scheme itself
/// considers clean — the produced-trace consistency oracle (reported as
/// `consistency_oracle`) and `check`.
TrialOutcome run_program_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                               bool record, const pram::Program& prog,
                               sim::GrantEngine engine, std::size_t n,
                               const char* consistency_oracle,
                               const MemoryCheck& check) {
  AdversaryTap tap(spec, record);
  exec::ExecConfig ec;
  ec.seed = spec.seed;
  ec.engine = engine;
  ec.schedule_factory = std::ref(tap);
  exec::Executor ex(prog, exec::Scheme::kNondeterministic, ec);

  // The agreed values are whole-program data, not a fixed per-bin support,
  // so the bin oracle's support predicate is permissive here; its stamp and
  // copy-forward provenance checks (the hard Fig. 2 invariants) stay live.
  //
  // The Lemma-1 cap is calibrated per phase on the single-phase agreement
  // corpus; a program run takes the max over HUNDREDS of phases (bfs at
  // n=8: ~460), so the legitimate extreme-value tail sits higher.  Measured
  // over a 120-seed fuzzed corpus: worst 74 (bfs n=8), 62 (bfs n=6), <=41
  // for merge/spmv/dag, against single-phase caps of 52.  Doubling the cap
  // keeps >=40% two-sided margin while a stamp-refresh mutation floods
  // ~alpha*lg(n) = 72 per phase in EVERY phase of the run.
  ProtocolOracles oracles(
      ex.clock(), *ex.bins(), n, cfg.skew_ticks,
      [](std::size_t, sim::Word) { return true; },
      cfg.clobber_bound != 0 ? cfg.clobber_bound
                             : 2 * ClobberOracle::default_bound(n));
  ex.simulator().add_observer(&oracles.set);
  ex.set_agreement_observer(&oracles.set);

  return run_observed(tap, ex.simulator(), oracles.set, [&] {
    const std::uint64_t budget =
        spec.budget != 0 ? spec.budget : exec::Executor::default_budget(prog);
    return [&, res = ex.run(budget)] {
      // An adversary may legitimately stall completion within the budget,
      // and the scheme's own w.h.p. failure mode — a subphase ending with
      // unfinished tasks under an extreme schedule — is self-reported via
      // incomplete_tasks (the monitor's audit).  The end-to-end oracles
      // assert the UNCONDITIONAL part of the contract: a run the scheme
      // itself considers clean must be consistent with some valid
      // synchronous execution and pass the trial's own check.
      if (!res.completed || res.incomplete_tasks != 0) return TrialOutcome{};
      const std::string cons = pram::check_execution_consistency(
          prog, std::vector<pram::Word>(prog.nvars(), 0), res.produced,
          res.memory);
      if (!cons.empty()) return failure(consistency_oracle, cons);
      return check(res.memory);
    };
  });
}

TrialOutcome run_workload_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                                bool record) {
  const pram::WorkloadSpec* wl = pram::find_workload(spec.workload);
  if (wl == nullptr)
    return failure("exception", "unknown workload '" + spec.workload + "'");
  return run_program_trial(
      spec, cfg, record, wl->make(spec.n), spec.engine, spec.n,
      "workload_consistency", [&](const std::vector<pram::Word>& memory) {
        const std::string verdict = wl->check(spec.n, memory);
        return verdict.empty() ? TrialOutcome{}
                               : failure("workload_invariant", verdict);
      });
}

/// Everything a kGrammar trial derives from its seed alone: the generated
/// source, whether nondeterministic ops were allowed, and which grant
/// engine runs it.  Deriving from the SEED (not the trial index) keeps
/// repro files self-contained — replaying a dumped seed regenerates the
/// identical program on the identical engine.
struct GrammarDraw {
  lang::GeneratedProgram gen;
  bool deterministic = false;
  sim::GrantEngine engine = sim::GrantEngine::kBatched;
};

GrammarDraw draw_grammar(std::uint64_t seed) {
  GrammarDraw d;
  d.deterministic = (seed & 1) != 0;
  d.engine = ((seed >> 1) & 1) != 0 ? sim::GrantEngine::kSingleStep
                                    : sim::GrantEngine::kBatched;
  d.gen = lang::generate_program({seed, d.deterministic});
  return d;
}

TrialOutcome run_grammar_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                               bool record) {
  const GrammarDraw draw = draw_grammar(spec.seed);

  // The whole language front-end is under test: generated source must
  // compile cleanly (the generator is EREW-valid by construction), so a
  // diagnostic here is a front-end or generator bug, not a bad input.
  const lang::CompileResult comp = lang::compile_source(draw.gen.source);
  if (!comp.ok())
    return failure("grammar_compile", lang::render_diagnostics(
                                          draw.gen.source, comp.diagnostics));
  const pram::Program& prog = *comp.program;

  // A deterministic program's final memory must match the reference
  // interpreter bit-for-bit.
  return run_program_trial(
      spec, cfg, record, prog, draw.engine, prog.nthreads(),
      "grammar_consistency", [&](const std::vector<pram::Word>& memory) {
        if (prog.is_nondeterministic()) return TrialOutcome{};
        const std::vector<pram::Word> zeros(prog.nvars(), 0);
        if (pram::Interpreter(prog).run_deterministic(zeros).memory == memory)
          return TrialOutcome{};
        return failure("grammar_determinism",
                       "deterministic generated program diverged from the "
                       "reference interpreter (seed " +
                           std::to_string(spec.seed) + ")");
      });
}

/// Shrink: find the shortest grant-trace prefix that still trips the same
/// oracle, by binary search over the prefix length (replays are cheap and
/// fully deterministic, so ~log2(trace) re-runs).
void shrink_failure(const FuzzConfig& cfg, FuzzFailure& f) {
  TrialSpec ts = make_trial_spec(cfg, f.trial);
  const TrialOutcome recorded = run_trial(ts, cfg, /*record=*/true);
  if (!recorded.failed || recorded.trace.empty()) return;

  std::vector<std::size_t> prefix;
  auto fails_with = [&](std::size_t len) {
    prefix.assign(recorded.trace.begin(),
                  recorded.trace.begin() +
                      static_cast<std::ptrdiff_t>(len));
    TrialSpec rs = ts;
    rs.fuzzed = false;
    rs.script = &prefix;
    const TrialOutcome o = run_trial(rs, cfg, false);
    return o.failed && o.oracle == f.oracle;
  };

  // Replay is exact, so the whole trace fails again; should it not, the
  // search is skipped and the whole trace is kept as the repro.
  std::size_t hi = recorded.trace.size();
  std::size_t lo = fails_with(hi) ? 0 : hi;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails_with(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  f.repro_script.assign(
      recorded.trace.begin(),
      recorded.trace.begin() + static_cast<std::ptrdiff_t>(hi));
  f.shrunk = true;
}

}  // namespace

const char* fuzz_protocol_name(FuzzProtocol p) noexcept {
  switch (p) {
    case FuzzProtocol::kAgreement: return "agreement";
    case FuzzProtocol::kConsensus: return "consensus";
    case FuzzProtocol::kWorkload: return "workload";
    case FuzzProtocol::kGrammar: return "grammar";
  }
  return "?";
}

const std::vector<const char*>& fuzz_workload_pool() {
  static const std::vector<const char*> kPool = {"bfs", "merge", "spmv",
                                                 "dag"};
  return kPool;
}

TrialOutcome run_trial(const TrialSpec& spec, const FuzzConfig& cfg,
                       bool record) {
  try {
    switch (spec.protocol) {
      case FuzzProtocol::kAgreement:
        return run_agreement_trial(spec, cfg, record);
      case FuzzProtocol::kConsensus:
        return run_consensus_trial(spec, record);
      case FuzzProtocol::kWorkload:
        return run_workload_trial(spec, cfg, record);
      case FuzzProtocol::kGrammar:
        return run_grammar_trial(spec, cfg, record);
    }
    throw std::logic_error("run_trial: unknown protocol");
  } catch (const std::exception& e) {
    // Construction-time failures (bad config) — still a finding.
    return failure("exception", e.what());
  }
}

TrialSpec make_trial_spec(const FuzzConfig& cfg, std::size_t i) {
  apex::Rng rng(apex::mix64(apex::mix64(cfg.seed, kTrialTag), i));
  TrialSpec ts;
  ts.fuzzed = true;
  ts.seed = rng.next();
  if (cfg.grammar_only || i % 8 == 6) {
    // Grammar-generated programs through the language front-end and the
    // full execution scheme.  Everything else about the trial (the program
    // text, det/nondet, grant engine) is derived from ts.seed inside
    // run_grammar_trial, so repro files stay self-contained.
    ts.protocol = FuzzProtocol::kGrammar;
    const GrammarDraw draw = draw_grammar(ts.seed);
    ts.n = draw.gen.nthreads;
    const lang::CompileResult comp = lang::compile_source(draw.gen.source);
    // A generator/compiler bug surfaces as the grammar_compile finding when
    // the trial runs; budget 1 here just keeps the spec well-formed.
    ts.budget = comp.ok() ? exec::Executor::default_budget(*comp.program) : 1;
    return ts;
  }
  if (i % 4 == 1) {
    ts.protocol = FuzzProtocol::kConsensus;
    static constexpr std::size_t kNs[] = {3, 4, 6, 8};
    ts.n = kNs[rng.below(4)];
    ts.budget =
        2000 + 800 * static_cast<std::uint64_t>(ts.n) * ts.n;
  } else if (i % 4 == 3) {
    // The irregular PRAM suite through the full execution scheme.  n >= 6
    // for the same clobber-cap reason as the agreement trials (the scheme
    // runs the identical protocol underneath); merge needs a power of two.
    ts.protocol = FuzzProtocol::kWorkload;
    const auto& pool = fuzz_workload_pool();
    ts.workload = pool[rng.below(pool.size())];
    ts.n = ts.workload == std::string("merge") ? 8 : (rng.below(2) ? 6 : 8);
    if (i % 64 == 19) {
      // Rare LARGE-n trial: a registry scale_ns instance through the
      // simulated scheme (n = 64 costs ~1-2 s with oracles attached, so
      // one trial in 64 keeps the soak budget).  spmv is the gather-heavy
      // pick — the computed-index path is where large n stresses the
      // writer-table discipline hardest.
      ts.workload = "spmv";
      ts.n = 64;
    }
    const pram::WorkloadSpec* wl = pram::find_workload(ts.workload);
    ts.budget = exec::Executor::default_budget(wl->make(ts.n));
  } else {
    ts.protocol = FuzzProtocol::kAgreement;
    // n >= 6: at n=4 the clock has 4 slots, lost updates stretch phases and
    // the legitimate clobber tail closes to within ~1 of the stale-stamp
    // flood — no sound cap separates them.  Tiny n stays covered by the
    // consensus trials.
    static constexpr std::size_t kNs[] = {6, 8, 12, 16};
    ts.n = kNs[rng.below(4)];
    ts.budget = 20000 + 4000 * static_cast<std::uint64_t>(ts.n);
  }
  return ts;
}

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  FuzzReport rep;
  rep.trials = cfg.trials;
  std::vector<std::unique_ptr<FuzzFailure>> slots(cfg.trials);

  batch::SweepSpec spec;
  spec.trials = cfg.trials;
  spec.jobs = cfg.jobs;
  spec.keep_going = true;
  batch::SweepEngine().run(spec, [&](std::size_t i) {
    const TrialSpec ts = make_trial_spec(cfg, i);
    const TrialOutcome out = run_trial(ts, cfg, false);
    batch::TrialResult r;
    if (out.failed) {
      auto f = std::make_unique<FuzzFailure>();
      f->trial = i;
      f->seed = ts.seed;
      f->protocol = ts.protocol;
      f->n = ts.n;
      f->budget = ts.budget;
      f->workload = ts.workload;
      f->oracle = out.oracle;
      f->message = out.message;
      f->schedule = out.schedule_desc;
      slots[i] = std::move(f);
      r.ok = false;
    }
    return r;
  });

  bool repro_dir_ready = false;
  for (auto& slot : slots) {
    if (!slot) continue;
    if (cfg.shrink) shrink_failure(cfg, *slot);
    if (!cfg.repro_dir.empty()) {
      Repro r;
      r.protocol = slot->protocol;
      r.n = slot->n;
      r.workload = slot->workload;
      r.seed = slot->seed;
      r.budget = slot->budget;
      r.skew_ticks = cfg.skew_ticks;
      r.clobber_bound = cfg.clobber_bound;
      r.oracle = slot->oracle;
      if (slot->shrunk) {
        r.schedule = ReproSchedule::kScripted;
        r.script = slot->repro_script;
      }
      const std::string path = cfg.repro_dir + "/repro-trial" +
                               std::to_string(slot->trial) + ".txt";
      // A dump problem must never lose the report itself — note it on the
      // failure and carry on.
      try {
        if (!repro_dir_ready) {
          std::filesystem::create_directories(cfg.repro_dir);
          repro_dir_ready = true;
        }
        write_repro(path, r);
        slot->repro_path = path;
      } catch (const std::exception& e) {
        slot->message += " [repro not written: " + std::string(e.what()) +
                         "]";
      }
    }
    rep.failures.push_back(std::move(*slot));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

const char* repro_schedule_name(ReproSchedule s) noexcept {
  return s == ReproSchedule::kFuzzed ? "fuzzed" : "script";
}

void write_repro(const std::string& path, const Repro& r) {
  if (r.schedule == ReproSchedule::kFuzzed && !r.script.empty())
    throw std::invalid_argument("write_repro: a fuzzed-schedule repro "
                                "has no script");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_repro: cannot open " + path);
  out << "apex-fuzz-repro v2\n";
  out << "protocol " << fuzz_protocol_name(r.protocol) << "\n";
  if (!r.workload.empty()) out << "workload " << r.workload << "\n";
  out << "n " << r.n << "\n";
  out << "beta " << r.beta << "\n";
  out << "seed " << r.seed << "\n";
  out << "budget " << r.budget << "\n";
  out << "skew " << r.skew_ticks << "\n";
  out << "clobber_bound " << r.clobber_bound << "\n";
  out << "oracle " << r.oracle << "\n";
  out << "schedule " << repro_schedule_name(r.schedule) << "\n";
  if (r.schedule == ReproSchedule::kScripted) {
    out << "script";
    for (auto p : r.script) out << ' ' << p;
    out << "\n";
  }
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_repro: cannot open " + path);
  std::string header;
  std::getline(in, header);
  const bool v1 = header == "apex-fuzz-repro v1";
  if (!v1 && header != "apex-fuzz-repro v2")
    throw std::runtime_error("load_repro: bad header in " + path);
  Repro r;
  bool has_schedule = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "protocol") {
      std::string v;
      ls >> v;
      if (v == "agreement")
        r.protocol = FuzzProtocol::kAgreement;
      else if (v == "consensus")
        r.protocol = FuzzProtocol::kConsensus;
      else if (v == "workload")
        r.protocol = FuzzProtocol::kWorkload;
      else if (v == "grammar")
        r.protocol = FuzzProtocol::kGrammar;
      else
        throw std::runtime_error("load_repro: unknown protocol " + v);
    } else if (key == "workload") {
      ls >> r.workload;
    } else if (key == "n") {
      ls >> r.n;
    } else if (key == "beta") {
      ls >> r.beta;
    } else if (key == "seed") {
      ls >> r.seed;
    } else if (key == "budget") {
      ls >> r.budget;
    } else if (key == "skew") {
      ls >> r.skew_ticks;
    } else if (key == "clobber_bound") {
      ls >> r.clobber_bound;
    } else if (key == "oracle") {
      ls >> r.oracle;
    } else if (key == "schedule" && !v1) {
      std::string v;
      ls >> v;
      if (v == repro_schedule_name(ReproSchedule::kFuzzed))
        r.schedule = ReproSchedule::kFuzzed;
      else if (v == repro_schedule_name(ReproSchedule::kScripted))
        r.schedule = ReproSchedule::kScripted;
      else
        throw std::runtime_error("load_repro: unknown schedule " + v);
      has_schedule = true;
    } else if (key == "script") {
      std::size_t p;
      while (ls >> p) r.script.push_back(p);
    } else if (!key.empty()) {
      throw std::runtime_error("load_repro: unknown key " + key);
    }
  }
  if (r.n == 0 || r.budget == 0 || (!v1 && !has_schedule))
    throw std::runtime_error("load_repro: incomplete repro " + path);
  // A v1 file wrote an empty script for both a fuzzed seed and a prefix
  // shrunk to nothing; it always replayed the fuzzed seed.
  if (v1 && !r.script.empty()) r.schedule = ReproSchedule::kScripted;
  if (r.schedule == ReproSchedule::kFuzzed && !r.script.empty())
    throw std::runtime_error("load_repro: fuzzed-schedule repro with a "
                             "script in " + path);
  return r;
}

TrialOutcome replay_repro(const Repro& r, const FuzzConfig& cfg) {
  FuzzConfig replay_cfg = cfg;
  replay_cfg.skew_ticks = r.skew_ticks;
  replay_cfg.clobber_bound = r.clobber_bound;
  TrialSpec ts;
  ts.protocol = r.protocol;
  ts.n = r.n;
  ts.workload = r.workload;
  ts.beta = r.beta;
  ts.seed = r.seed;
  ts.budget = r.budget;
  if (r.schedule == ReproSchedule::kFuzzed)
    ts.fuzzed = true;
  else
    ts.script = &r.script;
  return run_trial(ts, replay_cfg, false);
}

}  // namespace apex::check
