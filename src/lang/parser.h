// Recursive-descent parser for the .pram kernel language.
//
// Grammar (whitespace-insensitive, `#` comments):
//
//   program  := "pram" IDENT item*
//   item     := "procs" INT
//             | "vars" INT                       (total variable count)
//             | "var" IDENT ("[" INT "]")?       (named var / array, allocated
//                                                 sequentially after "vars")
//             | "segment" IDENT "=" ref ":" INT  (gather_dyn segment: base:len)
//             | "step" "{" lane* "}"
//   lane     := INT ":" instr                    (lane = thread index)
//   instr    := "nop"
//             | "const" ref "," INT
//             | "copy" ref "," ref
//             | BINOP ref "," ref "," ref        (add sub mul min max xor and
//                                                 or less eq)
//             | "select" ref "," ref "," ref "," ref     (z, cond, x, y)
//             | "rand_below" ref "," INT
//             | "coin" ref "," INT               (raw 32-bit fixed-point imm)
//             | "gather" ref "," ref "," ref "," INT     (z, idx, window base,
//                                                         window len)
//             | "gather_dyn" ref "," ref "," ref "," ref "," IDENT
//                                                (z, idx, off, bound, segment)
//   ref      := IDENT ("[" INT "]")?
//
// A ref spelled `v<digits>` that is not shadowed by a declaration is a RAW
// variable index (`v12` = variable 12) — this is the form the emitter
// produces, so machine-generated kernels need no declarations.  Declared
// names may not collide with keywords or the raw `v<digits>` pattern.
//
// The parser hands each `step { ... }` to a StepSink as its closing brace
// is read: the lanes sit in one buffer the parser reuses for every step,
// so a ProgramSrc holds only the declarations and the step count, and no
// parse keeps more than one step of lanes.  All semantic rules live in
// compile.h.  The parser reads tokens through a cursor with one token of
// lookahead, either straight from a Lexer (the streaming path
// compile_source takes) or from a token vector.
//
// Declarations may follow the steps that use them, so compile_source runs
// the same parser twice over one file: parse_declarations skips every step
// body to its '}' and collects what the layout needs, then parse hands
// each step to a sink that lowers it.
//
// LIFETIME: every name in a ProgramSrc, StepSrc or LaneSrc is a view into
// the SourceFile it was parsed from, which must outlive them.  The lanes a
// StepSink receives are valid only during that call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/lexer.h"
#include "lang/source.h"
#include "pram/ir.h"

namespace apex::lang {

/// A variable reference as written: name plus optional [index] subscript.
struct Ref {
  Loc loc;
  std::string_view name;     ///< Borrowed from the SourceFile.
  bool has_subscript = false;
  std::uint64_t subscript = 0;
};

/// One `lane: instr` entry inside a step.
struct LaneSrc {
  Loc lane_loc;
  std::uint64_t lane = 0;
  Loc op_loc;
  pram::OpCode op = pram::OpCode::kNop;
  Ref z, x, y, c;            ///< Used according to the op's arity.
  std::uint64_t imm = 0;     ///< const/rand_below/coin imm, gather window len.
  Loc imm_loc;
  std::string_view seg_name; ///< gather_dyn segment reference.
  Loc seg_loc;
};

/// One step as the parser hands it to a StepSink.
struct StepSrc {
  Loc loc;
  std::vector<LaneSrc> lanes;  ///< Reused by the parser for the next step.
};

/// Called once per step, in source order, when its '}' has been read.
using StepSink = std::function<void(const StepSrc&)>;

struct VarDeclSrc {
  Loc loc;
  std::string_view name;
  std::uint64_t count = 1;   ///< Array size (1 for scalars).
};

struct SegDeclSrc {
  Loc loc;
  std::string_view name;
  Ref base;
  std::uint64_t len = 0;
  Loc len_loc;
};

struct ProgramSrc {
  std::string_view name;
  Loc name_loc;
  std::optional<std::uint64_t> procs;
  Loc procs_loc;
  std::optional<std::uint64_t> vars;  ///< Declared total variable count.
  Loc vars_loc;
  std::vector<VarDeclSrc> var_decls;
  std::vector<SegDeclSrc> seg_decls;
  std::size_t nsteps = 0;             ///< Steps in the file.
};

/// Parse the tokens `lexer` hands out, passing every step to `on_step`
/// (if set).  Returns nullopt when a parse error was appended to `diags`
/// (parsing stops at the first syntax error; semantic errors are batched
/// later by the compiler).  A lexical error ends the stream early: the
/// parser then sees kEnd, so the caller checks the lexer's diagnostics too
/// (compile_source does).
std::optional<ProgramSrc> parse(Lexer& lexer, std::vector<Diagnostic>& diags,
                                const StepSink& on_step = {});

/// The same parser with every step body skipped to its '}': collects the
/// declarations and the step count.  It accepts every file `parse` does
/// (lanes hold no '}'), so a syntax error here means `parse` fails too,
/// though perhaps at an earlier token.
std::optional<ProgramSrc> parse_declarations(Lexer& lexer,
                                             std::vector<Diagnostic>& diags);

/// `parse` over a token vector ending in kEnd (as `lex` returns).
std::optional<ProgramSrc> parse(const std::vector<Token>& toks,
                                std::vector<Diagnostic>& diags);

/// The opcode an instruction keyword names (spellings are exactly
/// pram::opcode_name), or nullopt.
std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw);

}  // namespace apex::lang
