#include "lang/parser.h"

#include <initializer_list>
#include <string>
#include <utility>

namespace apex::lang {

std::optional<pram::OpCode> opcode_from_keyword(std::string_view kw) {
  using pram::OpCode;
  // Candidates by first letter, so a lookup compares at most three
  // spellings; the spellings themselves stay those of pram::opcode_name.
  auto pick = [kw](std::initializer_list<OpCode> ops)
      -> std::optional<OpCode> {
    for (OpCode op : ops)
      if (kw == pram::opcode_name(op)) return op;
    return std::nullopt;
  };
  switch (kw.empty() ? '\0' : kw[0]) {
    case 'a': return pick({OpCode::kAdd, OpCode::kAnd});
    case 'c': return pick({OpCode::kConst, OpCode::kCopy, OpCode::kCoin});
    case 'e': return pick({OpCode::kEq});
    case 'g': return pick({OpCode::kGather, OpCode::kGatherDyn});
    case 'l': return pick({OpCode::kLess});
    case 'm': return pick({OpCode::kMul, OpCode::kMin, OpCode::kMax});
    case 'n': return pick({OpCode::kNop});
    case 'o': return pick({OpCode::kOr});
    case 'r': return pick({OpCode::kRandBelow});
    case 's': return pick({OpCode::kSub, OpCode::kSelect});
    case 'x': return pick({OpCode::kXor});
    default: return std::nullopt;
  }
}

namespace {

/// One token of lookahead over a Lexer or over a token vector.
class Cursor {
 public:
  explicit Cursor(Lexer& lexer) : lexer_(&lexer), cur_(lexer.next()) {}
  explicit Cursor(const std::vector<Token>& toks) : toks_(&toks) {
    if (!toks.empty()) cur_ = toks.front();
  }

  const Token& cur() const { return cur_; }

  Token take() {
    Token t = cur_;
    if (lexer_ != nullptr)
      cur_ = lexer_->next();
    else if (pos_ + 1 < toks_->size())
      cur_ = (*toks_)[++pos_];
    return t;
  }

 private:
  Lexer* lexer_ = nullptr;
  const std::vector<Token>* toks_ = nullptr;
  std::size_t pos_ = 0;
  Token cur_;
};

class Parser {
 public:
  /// An empty `on_step` parses step bodies and drops them; `skip_bodies`
  /// skips them to their '}' unparsed.
  Parser(Cursor cursor, std::vector<Diagnostic>& diags,
         StepSink on_step = {}, bool skip_bodies = false)
      : in_(cursor), diags_(diags), on_step_(std::move(on_step)),
        skip_bodies_(skip_bodies) {}

  std::optional<ProgramSrc> run() {
    ProgramSrc p;
    if (!expect_keyword("pram")) return std::nullopt;
    const auto name = expect(TokKind::kIdent, "program name");
    if (!name) return std::nullopt;
    p.name = name->text;
    p.name_loc = name->loc;
    while (!at(TokKind::kEnd)) {
      if (!parse_item(p)) return std::nullopt;
    }
    return p;
  }

 private:
  const Token& cur() const { return in_.cur(); }
  bool at(TokKind k) const { return cur().kind == k; }
  Token take() { return in_.take(); }

  void error_here(const std::string& msg) {
    diags_.push_back({cur().loc, msg});
  }

  std::optional<Token> expect(TokKind k, const char* what) {
    if (!at(k)) {
      error_here(std::string("expected ") + what + ", found " +
                 describe(cur()));
      return std::nullopt;
    }
    return take();
  }

  bool expect_keyword(const char* kw) {
    if (!at(TokKind::kIdent) || cur().text != kw) {
      error_here(std::string("expected '") + kw + "', found " +
                 describe(cur()));
      return false;
    }
    take();
    return true;
  }

  static std::string describe(const Token& t) {
    switch (t.kind) {
      case TokKind::kIdent:
      case TokKind::kInt: {
        // Appended in place: "'" + std::string(...) trips a false GCC 12
        // -Wrestrict warning.
        std::string q(1, '\'');
        q.append(t.text).push_back('\'');
        return q;
      }
      case TokKind::kEnd: return "end of input";
      default: return tok_kind_name(t.kind);
    }
  }

  bool parse_item(ProgramSrc& p) {
    if (!at(TokKind::kIdent)) {
      error_here("expected a declaration or 'step', found " + describe(cur()));
      return false;
    }
    const std::string_view kw = cur().text;
    if (kw == "procs") {
      p.procs_loc = take().loc;
      const auto n = expect(TokKind::kInt, "processor count");
      if (!n) return false;
      p.procs = n->value;
      return true;
    }
    if (kw == "vars") {
      p.vars_loc = take().loc;
      const auto n = expect(TokKind::kInt, "variable count");
      if (!n) return false;
      p.vars = n->value;
      return true;
    }
    if (kw == "var") {
      take();
      const auto name = expect(TokKind::kIdent, "variable name");
      if (!name) return false;
      VarDeclSrc d{name->loc, name->text, 1};
      if (at(TokKind::kLBracket)) {
        take();
        const auto cnt = expect(TokKind::kInt, "array size");
        if (!cnt) return false;
        d.count = cnt->value;
        if (!expect(TokKind::kRBracket, "']'")) return false;
      }
      p.var_decls.push_back(std::move(d));
      return true;
    }
    if (kw == "segment") {
      take();
      const auto name = expect(TokKind::kIdent, "segment name");
      if (!name) return false;
      SegDeclSrc d;
      d.loc = name->loc;
      d.name = name->text;
      if (!expect(TokKind::kEq, "'='")) return false;
      if (!parse_ref(d.base)) return false;
      if (!expect(TokKind::kColon, "':'")) return false;
      const auto len = expect(TokKind::kInt, "segment length");
      if (!len) return false;
      d.len = len->value;
      d.len_loc = len->loc;
      p.seg_decls.push_back(std::move(d));
      return true;
    }
    if (kw == "step") {
      step_.loc = take().loc;
      if (!expect(TokKind::kLBrace, "'{'")) return false;
      if (skip_bodies_) {
        while (!at(TokKind::kRBrace)) {
          if (at(TokKind::kEnd)) {
            error_here("expected '}', found end of input");
            return false;
          }
          take();
        }
      } else {
        step_.lanes.clear();
        while (!at(TokKind::kRBrace))
          if (!parse_lane(step_.lanes.emplace_back())) return false;
      }
      take();  // '}'
      ++p.nsteps;
      if (on_step_) on_step_(step_);
      return true;
    }
    error_here("expected a declaration or 'step', found " + describe(cur()));
    return false;
  }

  bool parse_lane(LaneSrc& lane) {
    const auto t = expect(TokKind::kInt, "lane index");
    if (!t) return false;
    lane.lane = t->value;
    lane.lane_loc = t->loc;
    if (!expect(TokKind::kColon, "':'")) return false;
    if (!at(TokKind::kIdent)) {
      error_here("expected an instruction, found " + describe(cur()));
      return false;
    }
    const Token op_tok = take();
    const auto op = opcode_from_keyword(op_tok.text);
    if (!op) {
      diags_.push_back({op_tok.loc, "unknown instruction '" +
                                        std::string(op_tok.text) + "'"});
      return false;
    }
    lane.op = *op;
    lane.op_loc = op_tok.loc;
    using pram::OpCode;
    switch (*op) {
      case OpCode::kNop:
        return true;
      case OpCode::kConst:
      case OpCode::kRandBelow:
      case OpCode::kCoin:
        return parse_ref(lane.z) && comma() && parse_imm(lane);
      case OpCode::kCopy:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x);
      case OpCode::kSelect:
        // Source order z, cond, x, y mirrors "z = cond ? x : y".
        return parse_ref(lane.z) && comma() && parse_ref(lane.c) && comma() &&
               parse_ref(lane.x) && comma() && parse_ref(lane.y);
      case OpCode::kGather:
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y) && comma() && parse_imm(lane);
      case OpCode::kGatherDyn: {
        if (!(parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
              parse_ref(lane.y) && comma() && parse_ref(lane.c) && comma()))
          return false;
        const auto seg = expect(TokKind::kIdent, "segment name");
        if (!seg) return false;
        lane.seg_name = seg->text;
        lane.seg_loc = seg->loc;
        return true;
      }
      default:  // two-operand ALU ops
        return parse_ref(lane.z) && comma() && parse_ref(lane.x) && comma() &&
               parse_ref(lane.y);
    }
  }

  bool comma() { return expect(TokKind::kComma, "','").has_value(); }

  bool parse_imm(LaneSrc& lane) {
    const auto t = expect(TokKind::kInt, "an integer immediate");
    if (!t) return false;
    lane.imm = t->value;
    lane.imm_loc = t->loc;
    return true;
  }

  bool parse_ref(Ref& r) {
    const auto name = expect(TokKind::kIdent, "a variable reference");
    if (!name) return false;
    r.loc = name->loc;
    r.name = name->text;
    if (at(TokKind::kLBracket)) {
      take();
      const auto idx = expect(TokKind::kInt, "a subscript");
      if (!idx) return false;
      r.has_subscript = true;
      r.subscript = idx->value;
      if (!expect(TokKind::kRBracket, "']'")) return false;
    }
    return true;
  }

  Cursor in_;
  std::vector<Diagnostic>& diags_;
  StepSink on_step_;
  bool skip_bodies_;
  StepSrc step_;  ///< The step being parsed; its lane buffer is reused.
};

}  // namespace

std::optional<ProgramSrc> parse(Lexer& lexer, std::vector<Diagnostic>& diags,
                                const StepSink& on_step) {
  return Parser(Cursor(lexer), diags, on_step).run();
}

std::optional<ProgramSrc> parse_declarations(Lexer& lexer,
                                             std::vector<Diagnostic>& diags) {
  return Parser(Cursor(lexer), diags, {}, true).run();
}

std::optional<ProgramSrc> parse(const std::vector<Token>& toks,
                                std::vector<Diagnostic>& diags) {
  return Parser(Cursor(toks), diags).run();
}

}  // namespace apex::lang
