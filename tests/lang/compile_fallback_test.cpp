// compile_source lowers every step in one parse while the declarations all
// precede the steps and the '{' count keeps procs x steps under the slot
// limit.  Otherwise it falls back to reading the whole file first and
// lowering in a second parse.  Both paths must produce the same program.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/compile.h"
#include "lang/emit.h"
#include "pram/workloads.h"

namespace apex::lang {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `text` with every declaration line moved after the last step, in order.
std::string declarations_last(const std::string& text) {
  std::istringstream in(text);
  std::string body, decls, line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string first;
    words >> first;
    const bool decl = first == "procs" || first == "vars" ||
                      first == "var" || first == "segment";
    (decl ? decls : body) += line + '\n';
  }
  return body + decls;
}

testing::AssertionResult programs_equal(const pram::Program& a,
                                        const pram::Program& b) {
  if (a.nthreads() != b.nthreads() || a.nvars() != b.nvars() ||
      a.nsteps() != b.nsteps())
    return testing::AssertionFailure()
           << "shape " << a.nthreads() << "x" << a.nvars() << "x"
           << a.nsteps() << " vs " << b.nthreads() << "x" << b.nvars()
           << "x" << b.nsteps();
  for (std::size_t s = 0; s < a.nsteps(); ++s)
    if (a.step(s).instrs != b.step(s).instrs)
      return testing::AssertionFailure() << "step " << s << " differs";
  return testing::AssertionSuccess();
}

/// `text` and its declarations-last rendering compile to the same program.
void expect_same_when_declarations_last(const std::string& name,
                                        const std::string& text) {
  const std::string moved = declarations_last(text);
  ASSERT_NE(moved, text) << name << ": no declaration moved";
  const CompileResult first = compile_source(SourceFile{name, text});
  const CompileResult last = compile_source(SourceFile{name, moved});
  ASSERT_TRUE(first.ok()) << name << ": " << first.diagnostics[0].message;
  ASSERT_TRUE(last.ok()) << name << " (declarations last): "
                         << last.diagnostics[0].message;
  EXPECT_TRUE(programs_equal(*first.program, *last.program)) << name;
}

TEST(CompileFallback, ShippedKernelsWithDeclarationsLast) {
  const std::string root = std::string(APEX_SOURCE_DIR) + "/kernels";
  std::size_t kernels = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() != ".pram") continue;
    ++kernels;
    expect_same_when_declarations_last(entry.path().filename().string(),
                                       slurp(entry.path().string()));
  }
  EXPECT_GE(kernels, 4u);
}

TEST(CompileFallback, RegistryKernelsWithDeclarationsLast) {
  for (const auto& spec : pram::workload_registry()) {
    if (!pram::workload_supports_n(spec, 8)) continue;
    const std::string name = std::string(spec.name) + "_n8";
    expect_same_when_declarations_last(name, emit_pram(spec.make(8), name));
  }
}

// 4096 procs x 7001 '{' bytes crosses the 26843545-slot limit, so the one
// pass is abandoned; the real count, 4096 x 2 slots, is far inside it.
TEST(CompileFallback, BracesInCommentsOnlyBoundTheSlots) {
  const std::string steps =
      "step {\n  0: const v0, 1\n}\n"
      "step {\n  4095: copy v1, v0\n}\n";
  const std::string plain = "pram p\nprocs 4096\nvars 2\n" + steps;
  const std::string braces =
      "pram p\nprocs 4096\nvars 2\n# " + std::string(6999, '{') + "\n" +
      steps;
  const CompileResult a = compile_source(SourceFile{"plain", plain});
  const CompileResult b = compile_source(SourceFile{"braces", braces});
  ASSERT_TRUE(a.ok()) << a.diagnostics[0].message;
  ASSERT_TRUE(b.ok()) << b.diagnostics[0].message;
  EXPECT_TRUE(programs_equal(*a.program, *b.program));
}

// 13500000 procs fit one step's slots but not two: the limit is judged on
// the exact step count, and nothing is lowered before it is.
TEST(CompileFallback, SlotLimitJudgedOnTheExactStepCount) {
  const CompileResult r = compile_source(SourceFile{
      "slots", "pram p\nprocs 13500000\nvars 1\n"
               "step {\n  0: const v0, 1\n}\nstep {\n  0: nop\n}\n"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].message,
            "program too large: procs=13500000 x 2 steps exceeds the "
            "compiler's limit of 26843545 instruction slots");
  EXPECT_EQ(r.diagnostics[0].loc.line, 2u);
}

// A declaration after a step may undo what the declarations before the
// first step said, a crossed size limit included: the file is analyzed
// from its whole set of declarations.
TEST(CompileFallback, LaterDeclarationOverridesEarlierLimit) {
  const CompileResult r = compile_source(SourceFile{
      "late", "pram p\nprocs 2\nvars 4000000000\n"
              "step {\n  0: const v0, 1\n  1: copy v1, v2\n}\n"
              "vars 3\n"});
  ASSERT_TRUE(r.ok()) << r.diagnostics[0].message;
  EXPECT_EQ(r.program->nvars(), 3u);
  EXPECT_EQ(r.program->nsteps(), 1u);
}

// Errors found before a later declaration are not reported: with it, the
// program is clean.
TEST(CompileFallback, LaterDeclarationClearsEarlierErrors) {
  const CompileResult r = compile_source(SourceFile{
      "late", "pram p\nstep {\n  0: const a, 1\n}\n"
              "step {\n  1: copy b[1], a\n}\n"
              "procs 2\nvar a\nvar b[2]\n"});
  ASSERT_TRUE(r.ok()) << r.diagnostics[0].message;
  EXPECT_EQ(r.program->nthreads(), 2u);
  EXPECT_EQ(r.program->nvars(), 3u);
}

}  // namespace
}  // namespace apex::lang
