// apex_perfbench: runs ONE benchmark workload in this process and prints one
// JSON object of raw samples as the last line of stdout.  perfbench/run.py
// builds this binary, runs it once per workload (so peak RSS belongs to that
// workload alone) and turns the samples into the reported metrics.
//
//   apex_perfbench --workload=sim-bfs|host-spmv|pram-compile|fuzz --seed=N
//                  --seconds=S --trace=0|1 [--spans=FILE] [--inject-fault]
//
// Every workload is a closed loop with one client: operation k starts when
// operation k-1 has ended, and the loop stops at the first operation
// boundary after S seconds (at least one operation runs).  Operation k draws
// its seed from (--seed, k); operation 0 uses --seed itself, so its work
// count matches `apexcli exec --seed=N`.
//
// The binary measures each layer from OUTSIDE, through libapex's public
// API: wall time around calls into a layer, and (traced runs only) counting
// observers on the public hooks.  With --trace=1 every operation runs twice
// at the same seed, untraced and then traced, so the counters can be
// checked against the untraced work and the tracing overhead measured; the
// spans (name, start, end, parent, operation) are kept in memory and
// written to --spans when the run ends.
//
// --inject-fault corrupts the output of operation 0 before its check (the
// benchmark's self-test uses it to show that the check catches a bad
// result and that the failure is counted).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "agreement/protocol.h"
#include "check/fuzz.h"
#include "exec/executor.h"
#include "host/host_executor.h"
#include "lang/compile.h"
#include "lang/emit.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "pram/interp.h"
#include "pram/workloads.h"
#include "sim/observer.h"
#include "util/rng.h"

namespace {

using namespace apex;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workload parameters ---------------------------------------------------
// Why these workloads and sizes: perfbench/README.md.

constexpr std::size_t kSimBfsN = 64;
constexpr std::size_t kHostSpmvN = 4096;  // P = min(n, 4096) = 4096
constexpr std::size_t kHostThreads = 2;
constexpr double kHostAlpha = 32.0;    // the perfbench graph_rows operating
constexpr std::size_t kHostGens = 6;   // point (apexcli perfbench)
constexpr int kHostAttempts = 3;       // first run + 2 retries on lost commits
constexpr std::size_t kCompileBaseN = 9'984;  // n = base + seed % 32
constexpr std::size_t kFuzzBlock = 16;  // trials per fuzz operation
constexpr std::size_t kFuzzJobs = 2;

std::uint64_t op_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : mix64(seed, k);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  bool inject_fault = false;
};

// ---- spans ------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }

  /// Opens a span; returns -1 (and records nothing) when tracing is off.
  int open(std::string name, int parent, long op) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), now(), 0.0, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d, \"op\": %ld}%s\n",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.op,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;  // benchmark-chosen, never needs JSON escaping
    double start, end;
    int parent;
    long op;  // operation index; -1 for set-up
  };
  double now() const { return secs(t0_, Clock::now()); }

  bool on_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs f(span_id) inside a span and returns its wall time in seconds.
template <typename F>
double timed(Tracer& tr, const char* name, int parent, long op, F&& f) {
  const int id = tr.open(name, parent, op);
  const auto a = Clock::now();
  f(id);
  const double d = secs(a, Clock::now());
  tr.close(id);
  return d;
}

// ---- raw report -------------------------------------------------------------

struct Report {
  struct Op {
    double seconds = 0;
    bool ok = true;
    std::uint64_t work = 0;  // protocol work units (0 where none is run)
  };
  std::vector<double> setup_s;
  std::vector<Op> ops;
  std::vector<std::string> failures;      // why an operation failed
  std::vector<std::string> trace_errors;  // traced-run self-checks
  std::map<std::string, std::vector<double>> samples;  // per-layer samples
  std::map<std::string, double> totals;                // per-layer sums
  std::map<std::string, double> info;                  // human-readable only

  void op(double s, const std::string& error, std::uint64_t work) {
    ops.push_back({s, error.empty(), work});
    if (!error.empty() && failures.size() < 20)
      failures.push_back("op " + std::to_string(ops.size() - 1) + ": " +
                         error);
  }
  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void add(const std::string& name, double v) { totals[name] += v; }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// "[a, b]" or "{"k": a}" from a container, one element rendered by `item`.
template <typename C, typename F>
std::string join(const C& items, char open, char close, F&& item) {
  std::string s(1, open);
  for (const auto& x : items) s += (s.size() > 1 ? ", " : "") + item(x);
  return s + close;
}

void print_report(const Args& a, const Report& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto number = [](double v) { return json_number(v); };
  const auto list = [&](const std::vector<double>& v) {
    return join(v, '[', ']', number);
  };
  const auto object = [](const auto& map, auto&& value) {
    return join(map, '{', '}', [&](const auto& kv) {
      return json_string(kv.first) + ": " + value(kv.second);
    });
  };
  const auto op = [](const Report::Op& o) {
    return "{\"s\": " + json_number(o.seconds) +
           ", \"ok\": " + (o.ok ? "true" : "false") +
           ", \"work\": " + std::to_string(o.work) + "}";
  };
  const std::string s =
      "{\"workload\": " + json_string(a.workload) +
      ", \"seed\": " + std::to_string(a.seed) +
      ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"setup_s\": " + list(r.setup_s) +
      ", \"ops\": " + join(r.ops, '[', ']', op) +
      ", \"failures\": " + join(r.failures, '[', ']', json_string) +
      ", \"trace_errors\": " + join(r.trace_errors, '[', ']', json_string) +
      ", \"peak_rss_kb\": " + std::to_string(ru.ru_maxrss) +
      ", \"samples\": " + object(r.samples, list) +
      ", \"totals\": " + object(r.totals, number) +
      ", \"info\": " + object(r.info, number) + "}";
  std::printf("%s\n", s.c_str());
}

// ---- shared loop pieces -----------------------------------------------------

/// Runs the workload's set-up once, timed, and returns its result.
template <typename S>
auto set_up_once(Report& r, Tracer& tr, S& setup) {
  const int id = tr.open("setup", -1, -1);
  const auto a = Clock::now();
  auto v = setup(id);
  r.setup_s.push_back(secs(a, Clock::now()));
  tr.close(id);
  return v;
}

/// The set-up whose result the workload uses, after repetitions for the
/// median: at least 5 runs, then more until 0.5 s have been spent (at most
/// 25).  The result of the first run is kept.
template <typename S>
auto set_up(Report& r, Tracer& tr, S& setup) {
  auto v = set_up_once(r, tr, setup);
  double spent = r.setup_s.back();
  while (r.setup_s.size() < 5 || (spent < 0.5 && r.setup_s.size() < 25)) {
    set_up_once(r, tr, setup);
    spent += r.setup_s.back();
  }
  return v;
}

/// Closed loop, one client: at least one operation, then until `seconds`.
/// After each operation the set-up runs again (result discarded), up to 5
/// times while those repetitions have taken under 10% of the loop, so that
/// setup_s samples the whole run: on a shared box the speed of the memory
/// system changes within seconds.
template <typename S, typename F>
void closed_loop(const Args& a, Report& r, Tracer& tr, S& setup, F&& op) {
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(a.seconds);
  double spent = 0;
  for (std::size_t k = 0; k == 0 || Clock::now() < deadline; ++k) {
    op(k);
    for (int i = 0; i < 5 && spent < 0.1 * secs(start, Clock::now()); ++i) {
      set_up_once(r, tr, setup);
      spent += r.setup_s.back();
    }
  }
}

const pram::WorkloadSpec& registry(const char* name) {
  const pram::WorkloadSpec* spec = pram::find_workload(name);
  if (spec == nullptr)
    throw std::runtime_error(std::string("no registry workload ") + name);
  return *spec;
}

struct Made {
  pram::Program program;
  double make_s = 0;
  double validate_s = 0;  // traced runs only
};

/// Registry make and, when tracing, a second EREW validation of the built
/// steps (the Program constructor alone).
Made make_program(Tracer& tr, int parent, const pram::WorkloadSpec& spec,
                  std::size_t n) {
  std::optional<pram::Program> p;
  const double make_s =
      timed(tr, "pram.make", parent, -1, [&](int) { p = spec.make(n); });
  double validate_s = 0;
  if (tr.on()) {
    std::vector<pram::Step> steps;
    for (std::size_t s = 0; s < p->nsteps(); ++s) steps.push_back(p->step(s));
    validate_s = timed(tr, "pram.validate", parent, -1, [&](int) {
      pram::Program again(p->nthreads(), p->nvars(), std::move(steps));
    });
  }
  return {std::move(*p), make_s, validate_s};
}

void record_made(Report& r, const Tracer& tr, double make_s,
                 double validate_s) {
  r.sample("pram.make_s", make_s);
  if (tr.on()) r.sample("pram.validate_s", validate_s);
}

struct Shape {
  double slots = 0;
  double nops = 0;
};

Shape shape_of(const pram::Program& p) {
  Shape s;
  for (std::size_t st = 0; st < p.nsteps(); ++st)
    for (const pram::Instr& ins : p.step(st).instrs) {
      s.slots += 1;
      s.nops += ins.op == pram::OpCode::kNop;
    }
  return s;
}

void record_shape(Report& r, const Shape& s) {
  r.totals["pram.task_slots"] = s.slots;
  r.totals["pram.nop_share"] = s.slots > 0 ? s.nops / s.slots : 0.0;
}

/// Deterministic kernel output check: the registry verdict, then the
/// synchronous reference interpreter's replay from the same inputs.
std::string check_deterministic(const pram::WorkloadSpec& spec, std::size_t n,
                                const pram::Program& p,
                                const std::vector<pram::Word>& mem) {
  std::string verdict = spec.check(n, mem);
  if (!verdict.empty()) return "check: " + verdict;
  const auto ref = pram::Interpreter(p).run_deterministic(
      std::vector<pram::Word>(p.nvars(), 0));
  if (ref.memory != mem) return "diverges from the reference interpreter";
  return "";
}

/// One operation: its wall time, why its output check failed (empty when it
/// passed) and the protocol work it spent.
struct OpResult {
  double seconds = 0;
  std::string error;
  std::uint64_t work = 0;
};

// ---- sim-bfs ----------------------------------------------------------------

/// Counting observers for the traced simulator run (out of band: they cost
/// no work and never touch memory).
class SimCounters final : public sim::StepObserver,
                          public agreement::AgreementObserver {
 public:
  SimCounters(const clockx::PhaseClock& clock, const agreement::BinArray* bins)
      : clock_(clock), bins_(bins) {}

  void on_step(const sim::StepEvent& ev) override { count(ev); }
  void on_steps(std::span<const sim::StepEvent> evs) override {
    for (const sim::StepEvent& ev : evs) count(ev);
  }
  void on_cycle(const agreement::CycleRecord& c) override {
    ++cycles;
    f_evals += c.evaluated_f;
    wrote += c.wrote_cell >= 0;
  }

  std::uint64_t reads = 0, writes = 0, locals = 0, other = 0;
  std::uint64_t clock_accesses = 0, clock_writes = 0, bin_accesses = 0;
  std::uint64_t var_accesses = 0;
  std::uint64_t cycles = 0, f_evals = 0, wrote = 0;

 private:
  void count(const sim::StepEvent& ev) {
    using Kind = sim::Op::Kind;
    const Kind k = ev.op.kind;
    if (k == Kind::Local) {
      ++locals;
      return;
    }
    if (k != Kind::Read && k != Kind::Write) {
      ++other;
      return;
    }
    ++(k == Kind::Read ? reads : writes);
    if (clock_.owns(ev.op.addr)) {
      ++clock_accesses;
      clock_writes += k == Kind::Write;
    } else if (bins_ != nullptr && bins_->owns(ev.op.addr)) {
      ++bin_accesses;
    } else {
      ++var_accesses;
    }
  }

  const clockx::PhaseClock& clock_;
  const agreement::BinArray* bins_;
};

OpResult sim_op(const pram::WorkloadSpec& spec, std::size_t n,
                const pram::Program& p, std::uint64_t seed, long k,
                bool traced, bool inject, Tracer& tr, Report& r) {
  exec::ExecConfig cfg;
  cfg.seed = seed;
  cfg.schedule = sim::ScheduleKind::kUniformRandom;
  cfg.engine = sim::GrantEngine::kBatched;
  Tracer off(false);
  Tracer& t = traced ? tr : off;
  OpResult out;
  out.seconds = timed(t, "op", -1, k, [&](int op_id) {
    std::optional<exec::Executor> ex;
    const double ctor_s = timed(t, "exec.ctor", op_id, k, [&](int) {
      ex.emplace(p, exec::Scheme::kNondeterministic, cfg);
    });
    std::optional<SimCounters> counters;
    if (traced) {
      counters.emplace(ex->clock(), ex->bins());
      ex->simulator().add_observer(&*counters);
      ex->set_agreement_observer(&*counters);
    }
    exec::ExecResult res;
    const double run_s = timed(t, "exec.run", op_id, k, [&](int) {
      res = ex->run(exec::Executor::default_budget(p));
    });
    out.work = res.total_work;
    if (inject) res.memory[p.nvars() / 2] ^= 1;
    const double verify_s = timed(t, "pram.verify", op_id, k, [&](int vid) {
      if (!res.completed) {
        out.error = "did not complete within the work budget";
        return;
      }
      timed(t, "pram.verify.consistency", vid, k, [&](int) {
        const std::string e = pram::check_execution_consistency(
            p, std::vector<pram::Word>(p.nvars(), 0), res.produced,
            res.memory);
        if (!e.empty()) out.error = "consistency oracle: " + e;
      });
      if (!out.error.empty()) return;
      timed(t, "pram.verify.check_and_replay", vid, k, [&](int) {
        out.error = check_deterministic(spec, n, p, res.memory);
      });
    });
    if (!traced) return;
    const SimCounters& c = *counters;
    const double steps = static_cast<double>(c.reads + c.writes + c.locals);
    const double slots = static_cast<double>(p.nsteps() * p.nthreads());
    const auto ticks = static_cast<double>(ex->simulator().ticks());
    r.sample("exec.ctor_s", ctor_s);
    r.sample("pram.verify_s", verify_s);
    r.sample("sim.steps", steps);
    r.sample("sim.idle_grants", ticks - steps);
    r.sample("sim.reads", static_cast<double>(c.reads));
    r.sample("sim.writes", static_cast<double>(c.writes));
    r.sample("sim.locals", static_cast<double>(c.locals));
    r.sample("sim.steps_per_s", steps / run_s);
    r.sample("clock.updates", static_cast<double>(c.clock_writes));
    r.sample("clock.lost_updates",
             static_cast<double>(c.clock_writes) -
                 static_cast<double>(ex->clock().exact_total()));
    r.sample("clock.accesses", static_cast<double>(c.clock_accesses));
    r.sample("clock.work_share", c.clock_accesses / steps);
    r.sample("agreement.cycles", static_cast<double>(c.cycles));
    r.sample("agreement.f_evals", static_cast<double>(c.f_evals));
    r.sample("agreement.write_ratio",
             c.cycles ? static_cast<double>(c.wrote) / c.cycles : 0.0);
    r.sample("agreement.bin_accesses", static_cast<double>(c.bin_accesses));
    r.sample("agreement.work_share", c.bin_accesses / steps);
    r.sample("exec.var_accesses", static_cast<double>(c.var_accesses));
    r.sample("exec.stamp_misses", static_cast<double>(res.stamp_misses));
    r.sample("exec.incomplete_tasks",
             static_cast<double>(res.incomplete_tasks));
    r.sample("exec.work_per_slot", static_cast<double>(res.total_work) / slots);
    if (c.other != 0)
      r.trace_errors.push_back("op " + std::to_string(k) +
                               ": step events of no known kind");
    if (c.reads + c.writes + c.locals != res.total_work)
      r.trace_errors.push_back("op " + std::to_string(k) +
                               ": observed steps != total_work");
  });
  return out;
}

void run_sim_bfs(const Args& a, Tracer& tr, Report& r) {
  const pram::WorkloadSpec& spec = registry("bfs");
  const std::size_t n = kSimBfsN;
  auto setup = [&](int id) {
    Made m = make_program(tr, id, spec, n);
    record_made(r, tr, m.make_s, m.validate_s);
    return std::move(m.program);
  };
  const pram::Program p = set_up(r, tr, setup);
  record_shape(r, shape_of(p));
  closed_loop(a, r, tr, setup, [&](std::size_t k) {
    const std::uint64_t seed = op_seed(a.seed, k);
    const long op = static_cast<long>(k);
    const OpResult u =
        sim_op(spec, n, p, seed, op, false, a.inject_fault && k == 0, tr, r);
    r.op(u.seconds, u.error, u.work);
    if (k == 0) r.totals["exec.work"] = static_cast<double>(u.work);
    r.sample("exec.work_per_s", u.work / u.seconds);
    if (!tr.on()) return;
    const OpResult t = sim_op(spec, n, p, seed, op, true, false, tr, r);
    if (!t.error.empty())
      r.trace_errors.push_back("traced op " + std::to_string(k) + ": " +
                               t.error);
    // The simulator is deterministic at a fixed seed: the traced run must
    // execute exactly the untraced run's steps.
    if (t.work != u.work)
      r.trace_errors.push_back("op " + std::to_string(k) +
                               ": traced work != untraced work");
    r.sample("bench.trace_overhead", t.seconds / u.seconds);
  });
}

// ---- host-spmv --------------------------------------------------------------

OpResult host_op(const pram::WorkloadSpec& spec, std::size_t n,
                 const pram::Program& p,
                 const std::vector<std::uint64_t>& weights,
                 std::uint64_t seed, long k, bool traced, bool inject,
                 Tracer& tr, Report& r) {
  host::HostExecConfig cfg;
  cfg.seed = seed;
  cfg.os_threads = kHostThreads;
  cfg.interleave = host::Interleave::kPartition;
  cfg.proc_weights = weights;
  cfg.clock_alpha = kHostAlpha;
  cfg.generations = kHostGens;
  cfg.timeout_seconds = 45.0;
  Tracer off(false);
  Tracer& t = traced ? tr : off;
  OpResult out;
  double ctor_s = 0, run_s = 0, verify_s = 0;
  std::uint64_t misses = 0, lost = 0, repaired = 0, retries = 0;
  out.seconds = timed(t, "op", -1, k, [&](int op_id) {
    for (int attempt = 0; attempt < kHostAttempts; ++attempt) {
      std::optional<host::HostExecutor> ex;
      ctor_s += timed(t, "host.ctor", op_id, k,
                      [&](int) { ex.emplace(p, cfg); });
      host::HostExecResult res;
      run_s += timed(t, "host.run", op_id, k, [&](int) { res = ex->run(); });
      out.work += res.total_work;
      misses += res.stamp_misses;
      lost += res.lost_commits;
      repaired += res.repaired_commits;
      if (!res.completed) {
        out.error = "aborted: " + (res.error.empty() ? "timeout" : res.error);
        return;
      }
      if (res.lost_commits != 0) {  // detected damage: re-run, fresh seed
        ++retries;
        cfg.seed += 1000;
        continue;
      }
      std::vector<pram::Word> mem(res.memory.begin(), res.memory.end());
      if (inject) mem[p.nvars() / 2] ^= 1;
      verify_s = timed(t, "pram.verify", op_id, k, [&](int) {
        out.error = check_deterministic(spec, n, p, mem);
      });
      return;
    }
    out.error = "lost commits remain after " +
                std::to_string(kHostAttempts) + " attempts";
  });
  r.add("host.retries", static_cast<double>(retries));
  if (!traced) return out;
  const double slots = static_cast<double>(p.nsteps() * p.nthreads());
  r.sample("host.ctor_s", ctor_s);
  r.sample("host.run_s", run_s);
  r.sample("pram.verify_s", verify_s);
  r.sample("host.work_per_slot", out.work / slots);
  r.sample("host.stamp_misses", static_cast<double>(misses));
  r.add("host.lost_commits", static_cast<double>(lost));
  r.add("host.repaired_commits", static_cast<double>(repaired));
  return out;
}

void run_host_spmv(const Args& a, Tracer& tr, Report& r) {
  const pram::WorkloadSpec& spec = registry("spmv");
  const std::size_t n = kHostSpmvN;
  struct Input {
    pram::Program p;
    std::vector<std::uint64_t> weights;
  };
  auto setup = [&](int id) {
    Made m = make_program(tr, id, spec, n);
    record_made(r, tr, m.make_s, m.validate_s);
    std::vector<std::uint64_t> w;
    r.sample("graph.partition_s",
             timed(tr, "graph.partition", id, -1,
                   [&](int) { w = spec.proc_weights(n); }));
    return Input{std::move(m.program), std::move(w)};
  };
  const Input in = set_up(r, tr, setup);
  record_shape(r, shape_of(in.p));
  closed_loop(a, r, tr, setup, [&](std::size_t k) {
    const std::uint64_t seed = op_seed(a.seed, k);
    const long op = static_cast<long>(k);
    const OpResult u = host_op(spec, n, in.p, in.weights, seed, op, false,
                               a.inject_fault && k == 0, tr, r);
    r.op(u.seconds, u.error, u.work);
    r.sample("host.work", static_cast<double>(u.work));
    r.sample("host.work_per_s", u.work / u.seconds);
    if (!tr.on()) return;
    const OpResult t =
        host_op(spec, n, in.p, in.weights, seed, op, true, false, tr, r);
    if (!t.error.empty())
      r.trace_errors.push_back("traced op " + std::to_string(k) + ": " +
                               t.error);
    r.sample("bench.trace_overhead", t.seconds / u.seconds);
  });
}

// ---- pram-compile -----------------------------------------------------------

struct Kernel {
  pram::Program program;  // the registry twin the compile must reproduce
  lang::SourceFile source;
};

bool same_program(const pram::Program& a, const pram::Program& b) {
  if (a.nthreads() != b.nthreads() || a.nvars() != b.nvars() ||
      a.nsteps() != b.nsteps())
    return false;
  for (std::size_t s = 0; s < a.nsteps(); ++s)
    if (a.step(s).instrs != b.step(s).instrs) return false;
  return true;
}

std::string check_compiled(const Kernel& kern, const lang::CompileResult& c) {
  if (!c.diagnostics.empty())
    return kern.source.name + ": " + std::to_string(c.diagnostics.size()) +
           " diagnostic(s), first: " + c.diagnostics.front().message;
  if (!c.ok()) return kern.source.name + ": no program";
  if (!same_program(*c.program, kern.program))
    return kern.source.name + ": IR differs from the registry program";
  return "";
}

void run_pram_compile(const Args& a, Tracer& tr, Report& r) {
  const std::size_t n = kCompileBaseN + a.seed % 32;
  auto setup = [&](int id) {
    std::vector<Kernel> ks;
    double make_s = 0, validate_s = 0;
    for (const char* name : {"bfs", "spmv"}) {
      Made m = make_program(tr, id, registry(name), n);
      make_s += m.make_s;
      validate_s += m.validate_s;
      lang::SourceFile src;
      src.name = std::string(name) + "_n" + std::to_string(n) + ".pram";
      timed(tr, "lang.emit", id, -1,
            [&](int) { src.text = lang::emit_pram(m.program, name); });
      ks.push_back({std::move(m.program), std::move(src)});
    }
    record_made(r, tr, make_s, validate_s);
    return ks;
  };
  const std::vector<Kernel> kernels = set_up(r, tr, setup);
  Shape total;
  for (const Kernel& kern : kernels) {
    const Shape s = shape_of(kern.program);
    total.slots += s.slots;
    total.nops += s.nops;
  }
  record_shape(r, total);
  r.info["source_mb"] = 0;
  for (const Kernel& kern : kernels)
    r.info["source_mb"] += kern.source.text.size() / 1e6;
  r.info["n"] = static_cast<double>(n);

  closed_loop(a, r, tr, setup, [&](std::size_t k) {
    const long op = static_cast<long>(k);
    // One operation compiles both renderings: their costs differ by ~1.7x,
    // so a median over single compiles would jump between the two.
    std::string error;
    const double s = timed(tr, "op.untraced", -1, op, [&](int) {
      for (const Kernel& kern : kernels) {
        std::optional<lang::SourceFile> bad;
        if (a.inject_fault && k == 0) {
          bad = kern.source;
          bad->text += "\nstray";
        }
        const lang::CompileResult c =
            lang::compile_source(bad ? *bad : kern.source);
        const std::string e = check_compiled(kern, c);
        if (!e.empty() && error.empty()) error = e;
      }
    });
    r.op(s, error, 0);
    if (!tr.on()) return;
    double lex_s = 0, parse_s = 0, compile_s = 0, verify_s = 0, tokens = 0;
    const double ts = timed(tr, "op", -1, op, [&](int op_id) {
      for (const Kernel& kern : kernels) {
        std::vector<lang::Diagnostic> diags;
        {
          std::vector<lang::Token> toks;
          lex_s += timed(tr, "lang.lex", op_id, op, [&](int) {
            toks = lang::lex(kern.source, diags);
          });
          tokens += static_cast<double>(toks.size());
          parse_s += timed(tr, "lang.parse", op_id, op, [&](int) {
            const auto tree = lang::parse(toks, diags);
          });
        }
        std::optional<lang::CompileResult> c;
        compile_s += timed(tr, "lang.compile_source", op_id, op, [&](int) {
          c = lang::compile_source(kern.source);
        });
        verify_s += timed(tr, "pram.verify", op_id, op, [&](int) {
          const std::string e = check_compiled(kern, *c);
          if (!e.empty()) r.trace_errors.push_back("traced: " + e);
        });
        if (!diags.empty())
          r.trace_errors.push_back("traced: lex/parse diagnostics");
      }
    });
    r.sample("lang.lex_s", lex_s);
    r.sample("lang.parse_s", parse_s);
    r.sample("lang.codegen_s", compile_s - lex_s - parse_s);
    r.sample("lang.tokens", tokens);
    r.sample("pram.verify_s", verify_s);
    r.sample("bench.trace_overhead", ts / s);
  });
}

// ---- fuzz -------------------------------------------------------------------

check::FuzzConfig fuzz_config(std::uint64_t seed, std::size_t jobs) {
  check::FuzzConfig cfg;
  cfg.trials = kFuzzBlock;
  cfg.jobs = jobs;
  cfg.seed = seed;
  cfg.shrink = true;
  return cfg;
}

std::string fuzz_verdict(const check::FuzzReport& rep) {
  if (rep.trials != kFuzzBlock) return "ran a different number of trials";
  if (rep.failures.empty()) return "";
  const check::FuzzFailure& f = rep.failures.front();
  return std::to_string(rep.failures.size()) + " failed trial(s), first: #" +
         std::to_string(f.trial) + " " + f.oracle + ": " + f.message;
}

void run_fuzz(const Args& a, Tracer& tr, Report& r) {
  // Set-up plans the first block: the trial grid, whose specs size each
  // trial's budget by building (or compiling) its program.
  auto setup = [&](int) {
    const check::FuzzConfig cfg = fuzz_config(op_seed(a.seed, 0), kFuzzJobs);
    std::vector<check::TrialSpec> specs;
    for (std::size_t i = 0; i < kFuzzBlock; ++i)
      specs.push_back(check::make_trial_spec(cfg, i));
    return specs;
  };
  set_up(r, tr, setup);
  r.info["trials_per_op"] = kFuzzBlock;
  closed_loop(a, r, tr, setup, [&](std::size_t k) {
    const long op = static_cast<long>(k);
    check::FuzzConfig cfg = fuzz_config(op_seed(a.seed, k), kFuzzJobs);
    // A clobber cap of 1 is far below what the protocol legitimately
    // produces, so the oracles report genuine violations.
    if (a.inject_fault && k == 0) cfg.clobber_bound = 1;
    std::string error;
    const double par_s = timed(tr, "op.untraced", -1, op, [&](int) {
      error = fuzz_verdict(check::run_fuzz(cfg));
    });
    r.op(par_s, error, 0);
    if (!tr.on()) return;
    cfg.clobber_bound = 0;
    cfg.jobs = 1;
    std::string serial_error;
    const double serial_s = timed(tr, "op.untraced.jobs1", -1, op, [&](int) {
      serial_error = fuzz_verdict(check::run_fuzz(cfg));
    });
    double trials_s = 0;
    const double traced_s = timed(tr, "op", -1, op, [&](int op_id) {
      for (std::size_t i = 0; i < kFuzzBlock; ++i) {
        const check::TrialSpec spec = check::make_trial_spec(cfg, i);
        const std::string name = std::string("check.trial_s.") +
                                 check::fuzz_protocol_name(spec.protocol);
        check::TrialOutcome out;
        const double d = timed(tr, name.c_str(), op_id, op, [&](int) {
          out = check::run_trial(spec, cfg);
        });
        trials_s += d;
        r.sample(name, d);
        if (out.failed) r.add("check.failures", 1);
      }
    });
    if (!serial_error.empty())
      r.trace_errors.push_back("jobs=1 op " + std::to_string(k) + ": " +
                               serial_error);
    r.sample("batch.trials_per_s", kFuzzBlock / par_s);
    // Parallel rate over twice the serial rate implied by the trial times.
    r.sample("batch.efficiency", trials_s / (kFuzzJobs * par_s));
    r.sample("bench.trace_overhead", traced_s / serial_s);
  });
}

// ---- main -------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        std::size_t used = 0;
        a.seed = std::stoull(val, &used);
        if (used != val.size() || val.empty() || val[0] == '-') return false;
      } else if (key == "--seconds") {
        std::size_t used = 0;
        a.seconds = std::stod(val, &used);
        if (used != val.size() || !(a.seconds > 0)) return false;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (key == "--spans") {
        a.spans = val;
      } else if (arg == "--inject-fault") {
        a.inject_fault = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: apex_perfbench --workload=sim-bfs|host-spmv|"
                 "pram-compile|fuzz --seed=N --seconds=S --trace=0|1 "
                 "[--spans=FILE] [--inject-fault]\n");
    return 2;
  }
  const std::map<std::string, void (*)(const Args&, Tracer&, Report&)> runs = {
      {"sim-bfs", run_sim_bfs},
      {"host-spmv", run_host_spmv},
      {"pram-compile", run_pram_compile},
      {"fuzz", run_fuzz},
  };
  const auto it = runs.find(a.workload);
  if (it == runs.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Tracer tr(a.trace);
  Report r;
  try {
    it->second(a, tr, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  if (a.trace && !a.spans.empty() && !tr.write(a.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", a.spans.c_str());
    return 1;
  }
  print_report(a, r);
  return 0;
}
