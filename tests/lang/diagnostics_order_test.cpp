// The diagnostics contract of compile_source, pinned on whole files:
//
//   lexical error  >  syntax error  >  layout / size limits  >  lowering
//   errors  >  EREW errors (reported only when nothing else fired)
//
// A lexical error anywhere in the file is reported alone, and so is the
// first syntax error of a file that lexes cleanly.  Declarations may
// follow the steps that use them, so none of this may depend on where in
// the file an error sits relative to the declarations.
#include <gtest/gtest.h>

#include <string>

#include "lang/compile.h"

namespace apex::lang {
namespace {

CompileResult compile_text(const std::string& text) {
  return compile_source(SourceFile{"<test>", text});
}

void expect_only(const CompileResult& r, std::size_t line, std::size_t col,
                 const std::string& message) {
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.diagnostics.size(), 1u) << r.diagnostics.back().message;
  EXPECT_EQ(r.diagnostics[0].message, message);
  EXPECT_EQ(r.diagnostics[0].loc.line, line);
  EXPECT_EQ(r.diagnostics[0].loc.col, col);
}

bool same_program(const pram::Program& a, const pram::Program& b) {
  if (a.nthreads() != b.nthreads() || a.nvars() != b.nvars() ||
      a.nsteps() != b.nsteps())
    return false;
  for (std::size_t s = 0; s < a.nsteps(); ++s)
    if (a.step(s).instrs != b.step(s).instrs) return false;
  return true;
}

TEST(DiagnosticsOrder, DeclarationsAfterStepsCompileTheSame) {
  const std::string steps =
      "step {\n"
      "  0: const a, 1\n"
      "  2: const b[1], 5\n"
      "}\n"
      "step {\n"
      "  0: gather_dyn v0, a, v1, v2, s\n"
      "  1: copy v3, v3\n"
      "}\n";
  const auto first = compile_text(
      "pram p\nprocs 3\nvars 4\nvar a\nvar b[2]\nsegment s = b[0] : 2\n" +
      steps);
  ASSERT_TRUE(first.ok()) << first.diagnostics.front().message;
  // Every declaration after the first step; some between steps.
  const auto after = compile_text(
      "pram p\n"
      "step {\n  0: const a, 1\n  2: const b[1], 5\n}\n"
      "var a\nprocs 3\n"
      "step {\n  0: gather_dyn v0, a, v1, v2, s\n  1: copy v3, v3\n}\n"
      "vars 4\nvar b[2]\nsegment s = b[0] : 2\n");
  ASSERT_TRUE(after.ok()) << after.diagnostics.front().message;
  EXPECT_TRUE(same_program(*first.program, *after.program));
  EXPECT_EQ(after.program->step(1).instrs[0],
            pram::Instr::gather_dyn(0, 4, 1, 2, 5, 2));
}

TEST(DiagnosticsOrder, LaterLoweringErrorSuppressesEarlierErew) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 2\n"
      "step {\n  0: const v0, 1\n  1: const v0, 2\n}\n"  // EREW write
      "step {\n  0: copy v1, nope\n}\n");                // undefined
  expect_only(r, 9, 15, "undefined variable 'nope'");
}

TEST(DiagnosticsOrder, ErewErrorsOfEveryStepInStepOrder) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 3\n"
      "step {\n  1: copy v1, v0\n  0: copy v2, v0\n}\n"
      "step {\n  0: const v1, 1\n  1: const v1, 2\n}\n");
  ASSERT_EQ(r.diagnostics.size(), 2u);
  // Within a step, conflicts are found in thread order, not source order:
  // thread 0's read comes first, so thread 1's (line 5) is the second.
  EXPECT_EQ(r.diagnostics[0].loc.line, 5u);
  EXPECT_EQ(r.diagnostics[0].message,
            "EREW violation: variable v0 read by more than one thread in "
            "this step");
  EXPECT_EQ(r.diagnostics[1].loc.line, 10u);
  EXPECT_EQ(r.diagnostics[1].message,
            "EREW violation: variable v1 written by more than one thread in "
            "this step");
}

TEST(DiagnosticsOrder, LayoutAndLoweringErrorsAreBatchedInOrder) {
  // A layout error does not stop lowering; its diagnostic comes first
  // even though the offending declaration follows the steps.
  const auto r = compile_text(
      "pram p\nprocs 1\nvars 1\n"
      "step {\n  0: copy v0, nope\n}\n"
      "var step\n");
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].message, "variable name 'step' is reserved");
  EXPECT_EQ(r.diagnostics[0].loc.line, 7u);
  EXPECT_EQ(r.diagnostics[1].message, "undefined variable 'nope'");
  EXPECT_EQ(r.diagnostics[1].loc.line, 5u);
}

TEST(DiagnosticsOrder, SyntaxErrorAfterInvalidStepIsReportedAlone) {
  // After a lowering error.
  expect_only(compile_text("pram p\nprocs 1\nvars 1\n"
                           "step {\n  0: copy v0, nope\n}\n"
                           "step {\n  0: copy v0 v0\n}\n"),
              8, 14, "expected ',', found 'v0'");
  // After an EREW error.
  expect_only(compile_text("pram p\nprocs 2\nvars 1\n"
                           "step {\n  0: const v0, 1\n  1: const v0, 2\n}\n"
                           "step {\n  0 nop\n}\n"),
              9, 5, "expected ':', found 'nop'");
  // After a layout error (no procs) and inside a later step body.
  expect_only(compile_text("pram p\nvars 1\n"
                           "step {\n  0: nop\n}\n"
                           "step {\n  0: nop\n"),
              8, 1, "expected lane index, found end of input");
  // After a size-limit error, in a step with no closing brace.
  expect_only(compile_text("pram p\nprocs 50000000\nvars 1\n"
                           "step {\n  0: nop\n}\n"
                           "step {\n  0: nop\nstep {\n}\n"),
              9, 1, "expected lane index, found 'step'");
}

TEST(DiagnosticsOrder, LexicalErrorAfterSyntaxErrorIsReportedAlone) {
  expect_only(compile_text("pram p\nprocs 1\nvars 1\n"
                           "step {\n  0: copy v0 v0\n}\n"
                           "step {\n  0: const v0, @\n}\n"),
              8, 16, "unexpected character '@'");
  // Between items, after a syntax error in a declaration.
  expect_only(compile_text("pram p\nprocs\nvars 1\n$\n"), 4, 1,
              "unexpected character '$'");
}

TEST(DiagnosticsOrder, SlotLimitCrossedByTrailingProcs) {
  expect_only(compile_text("pram p\nvars 1\n"
                           "step {\n  0: const v0, 1\n}\n"
                           "step {\n  0: nop\n}\n"
                           "procs 50000000\n"),
              9, 1,
              "program too large: procs=50000000 x 2 steps exceeds the "
              "compiler's limit of 26843545 instruction slots");
}

}  // namespace
}  // namespace apex::lang
