// E12 — the protocol on real threads (Fig. 4 sanity / host validation).
//
// The paper's model is asynchronous shared memory; our simulator realizes
// it with an explicit adversary, and this experiment closes the loop on a
// REAL asynchronous system: std::threads under genuine OS preemption, with
// (value, stamp) packed into one atomic 64-bit word to honor the paper's
// word+timestamp atomic-access postulate.
//
// Measurement: for P = T in {2, 4, 8}, run single-shot bin-array
// agreement — a one-step program where processor i draws rand_below(1000)
// into variable i, i.e. one Compute subphase of the execution scheme — on
// the host executor, one OS thread per processor.  Report work and wall
// time.  Every configuration must come back audit-clean with each agreed
// value in its support, including the oversubscribed one (more threads
// than cores), which maximizes preemption asynchrony.
//
// Second table: the FULL execution scheme on real threads, regular vs
// irregular kernels.  For each thread count, a regular lockstep kernel
// (prefix) and an irregular data-dependent one (dag — random dataflow,
// plus spmv's computed-index gathers at n=8) run through HostExecutor;
// every run must pass the workload's final-memory verdict (audit-clean
// runs only; lost_commits, the detected ultra-preemption damage, is
// reported and retried by host::run_until_clean — see host_executor.h).
//
// Third table: the SCALING STUDY the virtualized executor exists for.
// P logical processors (up to the registry's scale_ns instances, 64/128)
// multiplexed onto T <= 8 OS threads, swept over interleave policy
// (rr/random/block) and memory order (the audited acq_rel hot path vs the
// --seq-cst fidelity fallback), with steps/s (Mwork/s) plus the
// lost/repaired commit columns on every row.  The one-thread-per-processor
// design bounded P by what the OS could sensibly timeslice; these grids
// are exactly the configurations it could never run.
//
// Fourth table: GRAPH SCALE — the CSR-backed kernels (bfs, spmv) at the
// registry's n = 1e4 instance (1e5 with --full): thousands of logical
// processors walking partitioned CSR row slices through dynamic-window
// gathers, placed partition-aware (each OS thread owns a weight-balanced
// share of the degree mass) on T = 2 threads at alpha = 32.
//
// Fifth: the virtualization dividend — the same workload at the same
// protocol parameters (alpha = 4096), one-thread-per-processor (the
// pre-virtualization shape, T = P set explicitly) vs T = hardware threads;
// the wall-clock ratio is printed (informational: absolute timing is
// machine-dependent).
//
// Note on --jobs: each trial already spawns its own thread team, and the
// wall-clock/throughput columns are timing measurements, so running trials
// concurrently oversubscribes the machine and perturbs them.  Leave
// --jobs=1 (the default) when the absolute numbers matter.
#include <algorithm>
#include <functional>
#include <thread>

#include "bench/common.h"
#include "host/host_executor.h"
#include "pram/workloads.h"

using namespace apex;
using namespace apex::host;

namespace {

/// One host trial: run `p` until audit-clean (host::run_until_clean) and
/// judge the final memory with `check` ("" = pass).  Counts "damaged" and
/// "repaired" runs; an audit-clean, passing run counts "ok" and samples
/// work, wall (ms) and Mwork/s.
batch::TrialResult host_trial(
    const pram::Program& p, const HostExecConfig& cfg, std::size_t attempts,
    const std::function<std::string(const std::vector<pram::Word>&)>& check) {
  batch::TrialResult r;
  const CleanRun run = run_until_clean(p, cfg, attempts);
  const HostExecResult& res = run.result;
  if (run.damaged_runs != 0)
    r.count("damaged", static_cast<double>(run.damaged_runs));
  if (run.repaired_commits != 0)
    r.count("repaired", static_cast<double>(run.repaired_commits));
  if (!res.completed || res.lost_commits != 0 || !check(res.memory).empty()) {
    r.ok = false;
    return r;
  }
  r.count("ok");
  r.sample("work", static_cast<double>(res.total_work));
  r.sample("wall", res.wall_seconds * 1000.0);
  r.sample("wps", static_cast<double>(res.total_work) /
                      std::max(res.wall_seconds, 1e-9) / 1e6);
  return r;
}

/// host_trial against a registry workload's own final-memory verdict.
batch::TrialResult workload_trial(const char* workload, std::size_t n,
                                  const HostExecConfig& cfg,
                                  std::size_t attempts) {
  const auto* spec = pram::find_workload(workload);
  return host_trial(spec->make(n), cfg, attempts,
                    [&](const std::vector<pram::Word>& mem) {
                      return spec->check(n, mem);
                    });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("E12: bin-array agreement on real std::threads",
                "the protocol must reach a unanimous, accessible bin array "
                "under genuine OS-scheduler asynchrony, at every thread count");

  // ---- single-shot agreement: P = T, one thread per processor -------------

  const std::vector<std::size_t> proc_counts = {2, 4, 8};
  const int reps = opt.full ? 3 * opt.seeds : opt.seeds;
  constexpr pram::Word kSupport = 1000;

  const auto groups =
      opt.sweep(proc_counts, reps, [](std::size_t procs, int s) {
        pram::ProgramBuilder b(procs, procs);
        b.step().all([](std::size_t i) {
          return pram::Instr::rand_below(static_cast<std::uint32_t>(i),
                                         kSupport);
        });
        HostExecConfig cfg;
        cfg.seed = 12'000 + static_cast<std::uint64_t>(s);
        cfg.os_threads = procs;  // T = P: oversubscribed at 8
        cfg.timeout_seconds = 20.0;
        return host_trial(b.build(), cfg, 3,
                          [](const std::vector<pram::Word>& mem) {
                            for (const pram::Word v : mem)
                              if (v >= kSupport) return std::string("support");
                            return std::string();
                          });
      });

  Table t({"P=T", "runs", "satisfied", "work_mean", "wall_ms_mean"});
  bool all_ok = true;

  for (std::size_t g = 0; g < proc_counts.size(); ++g) {
    const auto& group = groups[g];
    if (!group.all_ok()) all_ok = false;
    const int sat = static_cast<int>(group.count("ok"));
    t.row()
        .cell(static_cast<std::uint64_t>(proc_counts[g]))
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(sat)
        .cell(sat ? group.sample("work").mean() : 0.0, 0)
        .cell(sat ? group.sample("wall").mean() : 0.0, 2);
  }
  opt.emit(t);

  // ---- full scheme: regular vs irregular PRAM kernels on real threads ----

  struct WlPoint {
    const char* workload;
    std::size_t n;
  };
  const std::vector<WlPoint> wl_grid = {
      {"prefix", 4}, {"prefix", 8}, {"dag", 4}, {"dag", 8}, {"spmv", 8}};

  const auto wl_groups = opt.sweep(wl_grid, opt.seeds, [](const WlPoint& pt,
                                                          int s) {
    HostExecConfig cfg;
    cfg.seed = 12'500 + static_cast<std::uint64_t>(s);
    cfg.timeout_seconds = 60.0;
    return workload_trial(pt.workload, pt.n, cfg, 3);
  });

  Table wt({"kernel", "class", "n", "runs", "ok", "damaged", "work_mean",
            "wall_ms", "Mwork/s"});
  for (std::size_t g = 0; g < wl_grid.size(); ++g) {
    const auto& group = wl_groups[g];
    if (!group.all_ok()) all_ok = false;
    const auto* spec = pram::find_workload(wl_grid[g].workload);
    const int ok = static_cast<int>(group.count("ok"));
    wt.row()
        .cell(wl_grid[g].workload)
        .cell(spec->irregular ? "irregular" : "regular")
        .cell(static_cast<std::uint64_t>(wl_grid[g].n))
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(ok)
        .cell(static_cast<std::uint64_t>(group.count("damaged")))
        .cell(ok ? group.sample("work").mean() : 0.0, 0)
        .cell(ok ? group.sample("wall").mean() : 0.0, 2)
        .cell(ok ? group.sample("wps").mean() : 0.0, 2);
  }
  opt.emit(wt);

  // ---- scaling study: P virtual processors on T OS threads ----------------

  struct ScalePoint {
    const char* workload;
    std::size_t P;       ///< Logical processors.
    std::size_t T;       ///< OS worker threads.
    Interleave il;
    bool seq_cst;
  };
  std::vector<ScalePoint> sgrid = {
      {"spmv", 16, 1, Interleave::kRoundRobin, false},
      {"spmv", 16, 2, Interleave::kRoundRobin, false},
      {"spmv", 64, 1, Interleave::kRoundRobin, false},
      {"spmv", 64, 2, Interleave::kRoundRobin, false},
      {"spmv", 64, 4, Interleave::kRoundRobin, false},
      {"spmv", 64, 8, Interleave::kRoundRobin, false},
      {"spmv", 64, 2, Interleave::kRandom, false},
      {"spmv", 64, 2, Interleave::kBlock, false},
      {"spmv", 64, 2, Interleave::kRoundRobin, true},
      {"bfs", 64, 2, Interleave::kRoundRobin, false},
      {"dag", 64, 2, Interleave::kRoundRobin, false},
  };
  if (opt.full) {
    sgrid.push_back({"bfs", 64, 4, Interleave::kRoundRobin, false});
    sgrid.push_back({"spmv", 128, 4, Interleave::kRoundRobin, false});
    sgrid.push_back({"bfs", 128, 4, Interleave::kRoundRobin, false});
    sgrid.push_back({"dag", 128, 4, Interleave::kRoundRobin, false});
  }

  const auto sgroups = opt.sweep(sgrid, opt.seeds, [](const ScalePoint& pt,
                                                      int s) {
    HostExecConfig cfg;
    cfg.seed = 12'800 + static_cast<std::uint64_t>(s);
    cfg.os_threads = pt.T;
    cfg.interleave = pt.il;
    cfg.seq_cst = pt.seq_cst;
    cfg.clock_alpha = 48.0;  // virtualized: phases need not outlast OS slices
    cfg.timeout_seconds = 120.0;
    return workload_trial(pt.workload, pt.P, cfg, 3);
  });

  Table st({"kernel", "P", "T", "policy", "order", "runs", "ok", "damaged",
            "repaired", "work_mean", "wall_ms", "Msteps/s"});
  for (std::size_t g = 0; g < sgrid.size(); ++g) {
    const auto& group = sgroups[g];
    if (!group.all_ok()) all_ok = false;
    const int ok = static_cast<int>(group.count("ok"));
    st.row()
        .cell(sgrid[g].workload)
        .cell(static_cast<std::uint64_t>(sgrid[g].P))
        .cell(static_cast<std::uint64_t>(sgrid[g].T))
        .cell(interleave_name(sgrid[g].il))
        .cell(sgrid[g].seq_cst ? "seq_cst" : "acq_rel")
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(ok)
        .cell(static_cast<std::uint64_t>(group.count("damaged")))
        .cell(static_cast<std::uint64_t>(group.count("repaired")))
        .cell(ok ? group.sample("work").mean() : 0.0, 0)
        .cell(ok ? group.sample("wall").mean() : 0.0, 2)
        .cell(ok ? group.sample("wps").mean() : 0.0, 2);
  }
  std::printf("\nscaling study (virtualized: P logical processors on T OS "
              "threads, alpha=48):\n");
  opt.emit(st);

  // ---- graph scale: CSR kernels at n = 1e4 (1e5 with --full) --------------
  //
  // The registry's graph-scale instances: n vertices compiled onto
  // P = min(n, 4096) logical processors that walk partitioned CSR row
  // slices through dynamic-window gathers.  Placement is partition-aware
  // (Interleave::kPartition seeded with the workload's reported
  // per-processor degree mass), so each OS thread owns a weight-balanced
  // share of the irregular rows.  Audit-clean runs only, like every host
  // table above.

  struct GraphPoint {
    const char* workload;
    std::size_t n;
  };
  std::vector<GraphPoint> ggrid = {{"bfs", 10'000}, {"spmv", 10'000}};
  if (opt.full) {
    ggrid.push_back({"bfs", 100'000});
    ggrid.push_back({"spmv", 100'000});
  }
  const auto ggroups = opt.sweep(ggrid, opt.seeds, [](const GraphPoint& pt,
                                                      int s) {
    HostExecConfig cfg;
    cfg.seed = 13'000 + static_cast<std::uint64_t>(s);
    cfg.os_threads = 2;
    cfg.clock_alpha = 32.0;
    cfg.generations = 6;
    cfg.interleave = Interleave::kPartition;
    cfg.proc_weights = pram::find_workload(pt.workload)->proc_weights(pt.n);
    cfg.timeout_seconds = pt.n > 10'000 ? 1200.0 : 600.0;
    return workload_trial(pt.workload, pt.n, cfg, 4);
  });

  Table gt({"kernel", "n", "P", "T", "policy", "runs", "ok", "damaged",
            "repaired", "work_mean", "wall_ms", "Msteps/s"});
  for (std::size_t g = 0; g < ggrid.size(); ++g) {
    const auto& group = ggroups[g];
    if (!group.all_ok()) all_ok = false;
    const int ok = static_cast<int>(group.count("ok"));
    gt.row()
        .cell(ggrid[g].workload)
        .cell(static_cast<std::uint64_t>(ggrid[g].n))
        .cell(static_cast<std::uint64_t>(std::min<std::size_t>(ggrid[g].n,
                                                               4096)))
        .cell(static_cast<std::uint64_t>(2))
        .cell("partition")
        .cell(static_cast<std::uint64_t>(group.trials()))
        .cell(ok)
        .cell(static_cast<std::uint64_t>(group.count("damaged")))
        .cell(static_cast<std::uint64_t>(group.count("repaired")))
        .cell(ok ? group.sample("work").mean() : 0.0, 0)
        .cell(ok ? group.sample("wall").mean() : 0.0, 2)
        .cell(ok ? group.sample("wps").mean() : 0.0, 2);
  }
  std::printf("\ngraph scale (CSR kernels, partition-aware placement, "
              "alpha=32, T=2):\n");
  opt.emit(gt);

  // ---- virtualization dividend: T = P (pre-virtualization shape) vs -------
  // ---- T = hardware threads, identical protocol parameters ----------------

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  struct DivPoint {
    const char* workload;
    std::size_t n;
    std::size_t T;  ///< n = one thread per processor (legacy shape).
  };
  std::vector<DivPoint> dgrid;
  for (const char* wlname : {"prefix", "dag"}) {
    dgrid.push_back({wlname, 8, 8});
    dgrid.push_back({wlname, 8, std::min<std::size_t>(hw, 8)});
  }
  const auto dgroups = opt.sweep(dgrid, opt.seeds, [](const DivPoint& pt,
                                                      int s) {
    HostExecConfig cfg;
    cfg.seed = 12'900 + static_cast<std::uint64_t>(s);
    cfg.os_threads = pt.T;
    // Virtualized side runs the throughput policy (block keeps a
    // processor's state register-resident); legacy T=P has one processor
    // per thread, for which the policy is a no-op distinction.
    if (pt.T != pt.n) cfg.interleave = Interleave::kBlock;
    cfg.timeout_seconds = 120.0;  // default alpha: the legacy operating point
    return workload_trial(pt.workload, pt.n, cfg, 3);
  });

  std::printf("\nvirtualization dividend (same kernel, same alpha=4096; "
              "wall legacy T=P / virtualized T=%zu):\n", hw);
  for (std::size_t g = 0; g + 1 < dgrid.size(); g += 2) {
    if (!dgroups[g].all_ok() || !dgroups[g + 1].all_ok()) all_ok = false;
    const double legacy = dgroups[g].sample("wall").mean();
    const double virt = dgroups[g + 1].sample("wall").mean();
    std::printf("  %-6s n=%zu: legacy %.2f ms, virtualized %.2f ms, "
                "ratio %.2fx\n",
                dgrid[g].workload, dgrid[g].n, legacy, virt,
                virt > 0 ? legacy / virt : 0.0);
  }

  return bench::verdict(all_ok,
                        "agreement reached at every thread count on real "
                        "threads; the full scheme executes regular AND "
                        "irregular PRAM kernels correctly under genuine "
                        "asynchrony, including P=64+ instances virtualized "
                        "onto a handful of OS threads across every "
                        "interleave policy and memory order");
}
