// The agreement protocol on REAL std::threads.
//
//   $ ./host_threads [threads]   (default 4)
//
// Everything else in this repository runs on the deterministic A-PRAM
// simulator; this example runs the same bin-array protocol under genuine
// OS-scheduler asynchrony (preemption, cache misses, timing jitter) and
// shows it still converges to a single agreed value per bin.  Single-shot
// agreement is a one-step program — processor i draws rand_below(1e6) into
// variable i — run on the host executor with one OS thread per processor.
#include <cstdio>
#include <cstdlib>

#include "host/host_executor.h"
#include "pram/program.h"

using namespace apex;

int main(int argc, char** argv) {
  const std::size_t threads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  if (threads == 0) {
    std::fprintf(stderr, "threads must be >= 1\n");
    return 2;
  }

  std::printf("bin-array agreement on %zu std::threads\n\n", threads);

  pram::ProgramBuilder b(threads, threads);
  b.step().all([](std::size_t i) {
    return pram::Instr::rand_below(static_cast<std::uint32_t>(i), 1'000'000);
  });
  const pram::Program p = b.build();
  const auto stamp = static_cast<std::uint32_t>(pram::stamp_of_step(0));

  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    host::HostExecConfig cfg;
    cfg.os_threads = threads;
    cfg.seed = seed;
    host::HostExecutor ex(p, cfg);
    const auto res = ex.run();
    const bool agreed = res.completed && res.lost_commits == 0;
    std::printf("seed %llu: %s  wall=%.3fs  work=%llu\n",
                static_cast<unsigned long long>(seed),
                agreed ? "agreed" : "FAILED", res.wall_seconds,
                static_cast<unsigned long long>(res.total_work));
    if (!agreed) continue;
    std::printf("  values:");
    for (auto v : res.memory)
      std::printf(" %llu", static_cast<unsigned long long>(v));
    std::printf("\n");
    // Uniqueness, checked on the quiescent memory: every upper-half cell of
    // bin i that carries this step's stamp holds the committed value.
    bool unique = true;
    const std::size_t cells = ex.cells_per_bin();
    for (std::size_t i = 0; i < threads; ++i)
      for (std::size_t j = cells / 2; j < cells; ++j) {
        const host::HostCell c = ex.memory().read(ex.bin_addr(i, j));
        unique &= c.stamp != stamp || c.value == res.memory[i];
      }
    std::printf("  uniqueness in every bin: %s\n", unique ? "yes" : "NO");
  }
  return 0;
}
