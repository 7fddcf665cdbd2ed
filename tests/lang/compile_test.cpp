#include "lang/compile.h"

#include <gtest/gtest.h>

#include "pram/interp.h"

namespace apex::lang {
namespace {

CompileResult compile_text(const std::string& text) {
  return compile_source(SourceFile{"<test>", text});
}

std::string first_message(const CompileResult& r) {
  return r.diagnostics.empty() ? std::string() : r.diagnostics[0].message;
}

TEST(Compile, MinimalProgram) {
  const auto r = compile_text("pram p\nprocs 2\nvars 2\n"
                              "step {\n  0: const v0, 7\n  1: copy v1, v1\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  const pram::Program& p = *r.program;
  EXPECT_EQ(p.nthreads(), 2u);
  EXPECT_EQ(p.nvars(), 2u);
  EXPECT_EQ(p.nsteps(), 1u);
  EXPECT_EQ(p.step(0).instrs[0], pram::Instr::constant(0, 7));
  EXPECT_EQ(p.step(0).instrs[1], pram::Instr::copy(1, 1));
}

TEST(Compile, NamedVarsAllocateAfterRawPool) {
  // `vars 3` reserves v0..v2; declarations allocate sequentially after.
  const auto r = compile_text(
      "pram p\nprocs 1\nvars 3\nvar a\nvar b[2]\n"
      "step {\n  0: add a, b[0], b[1]\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->nvars(), 6u);
  EXPECT_EQ(r.program->step(0).instrs[0], pram::Instr::add(3, 4, 5));
}

TEST(Compile, GatherWindowAndSegment) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n"
      "  0: gather v0, v1, v2, 2\n"
      "  1: gather_dyn v3, v5, v6, v7, s\n"
      "}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->step(0).instrs[0], pram::Instr::gather(0, 1, 2, 2));
  EXPECT_EQ(r.program->step(0).instrs[1],
            pram::Instr::gather_dyn(3, 5, 6, 7, 4, 4));
}

TEST(Compile, IdleLanesBecomeNops) {
  const auto r = compile_text("pram p\nprocs 3\nvars 1\n"
                              "step {\n  1: const v0, 1\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  EXPECT_EQ(r.program->step(0).instrs[0].op, pram::OpCode::kNop);
  EXPECT_EQ(r.program->step(0).instrs[2].op, pram::OpCode::kNop);
}

TEST(Compile, NondeterministicOpsAreFlagged) {
  const auto det = compile_text("pram p\nprocs 1\nvars 1\n"
                                "step {\n  0: const v0, 1\n}\n");
  const auto nondet = compile_text("pram p\nprocs 1\nvars 1\n"
                                   "step {\n  0: rand_below v0, 10\n}\n");
  ASSERT_TRUE(det.ok() && nondet.ok());
  EXPECT_FALSE(det.program->is_nondeterministic());
  EXPECT_TRUE(nondet.program->is_nondeterministic());
}

TEST(Compile, CompiledProgramRunsInInterpreter) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 4\n"
      "step {\n  0: const v0, 20\n  1: const v1, 22\n}\n"
      "step {\n  0: add v2, v0, v1\n}\n"
      "step {\n  1: sub v3, v1, v0\n}\n");
  ASSERT_TRUE(r.ok()) << first_message(r);
  const auto res = pram::Interpreter(*r.program)
                       .run_deterministic(std::vector<pram::Word>(4, 0));
  EXPECT_EQ(res.memory[2], 42u);
  EXPECT_EQ(res.memory[3], 2u);
}

TEST(Parse, KeywordsMapToOpcodes) {
  for (int i = 0; i <= static_cast<int>(pram::OpCode::kGatherDyn); ++i) {
    const auto op = static_cast<pram::OpCode>(i);
    EXPECT_EQ(opcode_from_keyword(pram::opcode_name(op)), op)
        << pram::opcode_name(op);
  }
  EXPECT_EQ(opcode_from_keyword(""), std::nullopt);
  EXPECT_EQ(opcode_from_keyword("copyx"), std::nullopt);
  EXPECT_EQ(opcode_from_keyword("gather_dy"), std::nullopt);
  EXPECT_EQ(opcode_from_keyword("Add"), std::nullopt);
}

// ---- semantic diagnostics (messages; caret goldens in diagnostics_test) ----

TEST(Compile, UndefinedVariable) {
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: copy v0, total\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("undefined variable 'total'"),
            std::string::npos);
}

TEST(Compile, ErewWriteWriteConflict) {
  const auto r = compile_text("pram p\nprocs 2\nvars 2\n"
                              "step {\n  0: const v0, 1\n  1: const v0, 2\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find(
                "EREW violation: variable v0 written by more than one thread"),
            std::string::npos);
}

TEST(Compile, ErewReadReadConflict) {
  const auto r = compile_text("pram p\nprocs 2\nvars 3\n"
                              "step {\n  0: copy v1, v0\n  1: copy v2, v0\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find(
                "EREW violation: variable v0 read by more than one thread"),
            std::string::npos);
}

TEST(Compile, GatherWindowOverlapIsAReadConflict) {
  // Both lanes' windows cover v4: the window marks every cell read.
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\n"
      "step {\n"
      "  0: gather v0, v1, v4, 2\n"
      "  1: gather v2, v3, v5, 2\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("read by more than one thread"),
            std::string::npos);
}

TEST(Compile, GatherWindowBeyondNvars) {
  const auto r = compile_text("pram p\nprocs 1\nvars 4\n"
                              "step {\n  0: gather v0, v1, v2, 4\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("gather window"), std::string::npos);
  EXPECT_NE(first_message(r).find("exceeds vars=4"), std::string::npos);
}

TEST(Compile, SameStepSegmentWrite) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n"
      "  0: gather_dyn v0, v1, v2, v3, s\n"
      "  1: const v5, 9\n"
      "}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(
      first_message(r).find("variable v5 written inside gather_dyn segment"),
      std::string::npos);
}

TEST(Compile, SegmentWriteInOtherStepIsFine) {
  const auto r = compile_text(
      "pram p\nprocs 2\nvars 8\nsegment s = v4 : 4\n"
      "step {\n  1: const v5, 9\n}\n"
      "step {\n  0: gather_dyn v0, v1, v2, v3, s\n}\n");
  EXPECT_TRUE(r.ok()) << first_message(r);
}

TEST(Compile, RawVariableIdOverflow) {
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: copy v0, v4294967296\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("overflows 32 bits"), std::string::npos);
}

TEST(Compile, LaneOutOfRangeAndDuplicate) {
  const auto out = compile_text("pram p\nprocs 2\nvars 1\n"
                                "step {\n  2: const v0, 1\n}\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(first_message(out).find("lane 2 out of range (procs=2)"),
            std::string::npos);
  const auto dup = compile_text("pram p\nprocs 2\nvars 2\n"
                                "step {\n  0: const v0, 1\n  0: const v1, 2\n}\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(first_message(dup).find("duplicate lane 0"), std::string::npos);
}

TEST(Compile, MissingProcsAndZeroVars) {
  const auto np = compile_text("pram p\nvars 1\nstep {\n  0: nop\n}\n");
  ASSERT_FALSE(np.ok());
  const auto nv = compile_text("pram p\nprocs 1\nstep {\n  0: nop\n}\n");
  ASSERT_FALSE(nv.ok());
}

TEST(Compile, MultipleDiagnosticsAreBatched) {
  // Semantic errors don't stop at the first: both bad refs are reported.
  const auto r = compile_text("pram p\nprocs 1\nvars 1\n"
                              "step {\n  0: add v0, alpha, beta\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diagnostics.size(), 2u);
}

// ---- lexical errors: exactly the one lexer diagnostic --------------------

void expect_only_lexical(const CompileResult& r, std::size_t line,
                         std::size_t col, const std::string& message) {
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.diagnostics.size(), 1u) << r.diagnostics.back().message;
  EXPECT_EQ(r.diagnostics[0].message, message);
  EXPECT_EQ(r.diagnostics[0].loc.line, line);
  EXPECT_EQ(r.diagnostics[0].loc.col, col);
}

TEST(Compile, StrayCharacterIsTheOnlyDiagnostic) {
  // Mid-instruction: the parser is left expecting an operand.
  expect_only_lexical(compile_text("pram p\nprocs 1\nvars 1\n"
                                   "step {\n  0: copy v0, @v0\n}\n"),
                      5, 15, "unexpected character '@'");
  // Between items: what precedes it parses as a complete program.
  expect_only_lexical(compile_text("pram p\nprocs 1\nvars 1\n$"), 4, 1,
                      "unexpected character '$'");
  // After a syntax error: the lexical error still wins.
  expect_only_lexical(compile_text("pram p\nbogus 1\n  ; x"), 3, 3,
                      "unexpected character ';'");
}

TEST(Compile, OverflowingLiteralIsTheOnlyDiagnostic) {
  expect_only_lexical(
      compile_text("pram p\nprocs 18446744073709551616\nvars 1\n"),
      2, 7,
      "integer literal '18446744073709551616' does not fit in 64 bits");
  expect_only_lexical(
      compile_text("pram p\nprocs 1\nvars 1\n"
                   "step {\n  0: const v0, 99999999999999999999\n}\n"),
      5, 16,
      "integer literal '99999999999999999999' does not fit in 64 bits");
}

TEST(Compile, SyntaxErrorWithoutLexicalError) {
  const auto r = compile_text("pram p\nbogus 1\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].message,
            "expected a declaration or 'step', found 'bogus'");
  const auto end =
      compile_text("pram p\nprocs 1\nvars 1\nstep {\n  0: copy v0,");
  ASSERT_EQ(end.diagnostics.size(), 1u);
  EXPECT_EQ(end.diagnostics[0].message,
            "expected a variable reference, found end of input");
}

// ---- size limits: checked before the analysis allocates ------------------

TEST(Compile, OversizedDeclarationsAreDiagnosed) {
  const auto vars = compile_text("pram p\nprocs 1\nvars 4000000000\n"
                                 "step {\n  0: const v0, 1\n}\n");
  ASSERT_EQ(vars.diagnostics.size(), 1u);
  EXPECT_EQ(vars.diagnostics[0].loc.line, 3u);
  EXPECT_NE(first_message(vars).find("program too large"), std::string::npos);
  const auto array = compile_text("pram p\nprocs 1\nvars 1\n"
                                  "var x[3000000000]\n"
                                  "step {\n  0: const v0, 1\n}\n");
  ASSERT_EQ(array.diagnostics.size(), 1u);
  EXPECT_EQ(array.diagnostics[0].loc.line, 4u);
  const auto slots = compile_text("pram p\nprocs 50000000\nvars 1\n"
                                  "step {\n  0: const v0, 1\n}\nstep {\n}\n");
  ASSERT_EQ(slots.diagnostics.size(), 1u);
  EXPECT_EQ(slots.diagnostics[0].loc.line, 2u);
  EXPECT_NE(first_message(slots).find("instruction slots"),
            std::string::npos);
  // Wide but short programs stay legal: the limit is on procs x steps.
  const auto wide = compile_text("pram p\nprocs 1000000\nvars 1\n"
                                 "step {\n  0: const v0, 1\n}\n");
  EXPECT_TRUE(wide.ok()) << first_message(wide);
}

TEST(Compile, DeclaredSizesSaturateInsteadOfWrapping) {
  // 2^64 - 1 + 1 variables would wrap to 0 without saturation.
  const auto r = compile_text("pram p\nprocs 1\nvars 18446744073709551615\n"
                              "var a\nstep {\n  0: nop\n}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(first_message(r).find("variable id overflow"), std::string::npos);
}

TEST(CompileFile, MissingFileIsADiagnosticNotAThrow) {
  SourceFile src;
  const auto r = compile_file("/nonexistent/nope.pram", src);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].loc.line, 1u);
}

TEST(CompileFile, DirectoryIsAReadDiagnostic) {
  SourceFile src;
  const std::string dir = std::string(APEX_SOURCE_DIR) + "/tests/lang";
  const auto r = compile_file(dir, src);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(first_message(r), "cannot read '" + dir + "': Is a directory");
}

TEST(CompileFile, FileWithoutASizeIsReadToItsEnd) {
  // A device (like a pipe) has no size; its empty text reaches the parser.
  SourceFile src;
  const auto r = compile_file("/dev/null", src);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(first_message(r), "expected 'pram', found end of input");
}

}  // namespace
}  // namespace apex::lang
