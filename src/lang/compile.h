// Semantic analysis + codegen: .pram source -> validated pram::Program,
// one step at a time.  The declarations (a ProgramSrc) are resolved when
// the first step closes; then each step is lowered and EREW-checked as
// the parser closes it, so the analysis holds one step of source lanes
// besides its output.  Declarations may follow the steps that use them,
// so compile_source falls back to a second parse when one does (see
// there); the result is the same either way.
//
// Every rule pram::Program::validate_erew enforces at construction time is
// re-checked here FIRST, against the source tree, so violations surface as
// file:line:col diagnostics with a caret instead of std::invalid_argument
// throws.  The mapping:
//
//   validate_erew rule                      diagnostic (anchored at)
//   -----------------------------------    --------------------------------
//   operand var out of range                "variable vN out of range"
//                                           (the operand ref)
//   var read by two threads in a step       "EREW violation: ... read by
//                                           more than one thread" (second
//                                           reading operand)
//   var written by two threads in a step    "...written by more than one
//                                           thread" (second writer's dest)
//   gather window length 0 / exceeds        "gather window ..." (the window
//   nvars / overlapping window reads        length / base operand)
//   gather_dyn segment length 0 / exceeds   "segment ..." (the declaration)
//   same-step write into a segment          "written inside gather_dyn
//                                           segment" (the writer's dest)
//
// Language-level checks with no validate_erew twin: undefined variable or
// segment names, subscripts out of a named array's bounds, variable ids
// overflowing 32 bits (Instr stores uint32_t), lane indices out of range
// or duplicated, missing/zero `procs`/`vars`.
//
// Diagnostics come in a fixed precedence: a lexical error is reported
// alone; else the first syntax error alone; else the declaration errors
// (layout, then size limits, then segments; a crossed size limit stops
// the analysis there), then the lowering errors in source order; and only
// when none of those fired, the EREW errors in step order (thread order
// within a step).
//
// Compilation succeeds only when the diagnostic list is empty; the
// returned Program has already passed its own constructor validation, so
// downstream executors can trust it exactly like a hand-built kernel.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lang/parser.h"
#include "lang/source.h"
#include "pram/program.h"

namespace apex::lang {

struct CompileResult {
  std::optional<pram::Program> program;  ///< Set iff diagnostics is empty.
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return program.has_value(); }
};

/// Lex + parse + analyze + build in one call.  A clean file that declares
/// before its first step is read once: the declarations read by then are
/// resolved, and each step is lowered as it closes.  A declaration after a
/// step, an error, or a slot bound (procs x the '{' count) past the limit
/// drops that pass; the file is then parsed to its end for the whole set
/// of declarations and the step count, and lowered in a second parse.
/// The parser pulls tokens from the lexer as it goes; the tokens and the
/// source tree borrow
/// `src` and die inside this call, so the result owns everything it holds
/// and may outlive `src` (rendering its diagnostics needs `src` again).
/// Running out of memory throws std::bad_alloc.
CompileResult compile_source(const SourceFile& src);

/// Convenience: read `path` from disk and compile it.  A missing or
/// unreadable file (a directory, say) becomes a diagnostic at 1:1.  `out_src` receives the loaded source
/// so callers can render diagnostics.
CompileResult compile_file(const std::string& path, SourceFile& out_src);

}  // namespace apex::lang
