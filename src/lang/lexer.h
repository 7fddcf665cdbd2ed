// Tokenizer for the .pram kernel language.
//
// The language is whitespace- and newline-insensitive; `#` starts a
// comment that runs to end of line.  Identifiers are [A-Za-z_][A-Za-z0-9_]*
// (keywords are ordinary identifiers resolved by the parser); integer
// literals are strict decimal digits — no sign, no leading whitespace
// baked into the token, no hex.  Punctuation: { } [ ] , : =
//
// The lexer streams: `Lexer::next()` hands out one token at a time, and
// the parser pulls from it directly, so compiling a file never holds a
// token vector.  Tokens do not own their spelling.
//
// LIFETIME: `Token::text` is a view into the SourceFile the token came
// from.  The SourceFile must outlive every token (and every ProgramSrc
// built from them, see parser.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "lang/source.h"

namespace apex::lang {

enum class TokKind : std::uint8_t {
  kIdent,
  kInt,
  kLBrace,   // {
  kRBrace,   // }
  kLBracket, // [
  kRBracket, // ]
  kComma,    // ,
  kColon,    // :
  kEq,       // =
  kEnd,      // end of input
};

const char* tok_kind_name(TokKind k) noexcept;

struct Token {
  TokKind kind = TokKind::kEnd;
  Loc loc;
  std::string_view text;     ///< Spelling, borrowed from the SourceFile.
  std::uint64_t value = 0;   ///< For kInt.
};

/// Pull-based tokenizer over one SourceFile.
class Lexer {
 public:
  Lexer(const SourceFile& src, std::vector<Diagnostic>& diags)
      : text_(src.text), diags_(diags) {}
  /// Tokens would dangle into a temporary.
  Lexer(SourceFile&&, std::vector<Diagnostic>&) = delete;

  /// The next token.  On a lexical error (stray character, integer
  /// overflowing 64 bits) a diagnostic is appended and lexing stops: this
  /// and every later call return kEnd located at the offending character.
  /// After the end of input, every call returns kEnd.
  Token next();

 private:
  Loc loc_at(std::size_t offset) const {
    return {line_, offset - line_start_ + 1, offset};
  }
  Token fail(std::size_t offset, std::string message);

  std::string_view text_;
  std::vector<Diagnostic>& diags_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;  ///< Offset of the first byte of line_.
  bool stopped_ = false;        ///< A lexical error ended the stream.
};

/// Tokenize the whole file: the Lexer's stream up to and including its
/// kEnd token.  On a lexical error the diagnostic is appended and the
/// vector ends with the kEnd token at the error.
std::vector<Token> lex(const SourceFile& src,
                       std::vector<Diagnostic>& diags);
std::vector<Token> lex(SourceFile&&, std::vector<Diagnostic>&) = delete;

}  // namespace apex::lang
