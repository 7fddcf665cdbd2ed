#include "lang/lexer.h"

#include <array>
#include <string>

namespace apex::lang {

const char* tok_kind_name(TokKind k) noexcept {
  switch (k) {
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kComma: return "','";
    case TokKind::kColon: return "':'";
    case TokKind::kEq: return "'='";
    case TokKind::kEnd: return "end of input";
  }
  return "?";
}

namespace {

enum CharClass : std::uint8_t { kOther, kDigit, kIdentStart };

constexpr std::array<std::uint8_t, 256> make_char_classes() {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart;
  t['_'] = kIdentStart;
  return t;
}

constexpr std::array<std::uint8_t, 256> kCharClass = make_char_classes();

CharClass char_class(char c) {
  return static_cast<CharClass>(kCharClass[static_cast<unsigned char>(c)]);
}

}  // namespace

Token Lexer::fail(std::size_t offset, std::string message) {
  pos_ = offset;
  stopped_ = true;
  Token t;
  t.loc = loc_at(offset);
  diags_.push_back({t.loc, std::move(message)});
  return t;
}

Token Lexer::next() {
  const char* s = text_.data();
  const std::size_t n = text_.size();
  std::size_t i = pos_;
  Token t;  // kEnd until classified
  if (stopped_) {
    t.loc = loc_at(i);
    return t;
  }
  // Skip whitespace and comments; only a newline moves the line start.
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line_;
      line_start_ = ++i;
    } else if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
    } else if (c == '#') {
      while (i < n && s[i] != '\n') ++i;
    } else {
      break;
    }
  }
  t.loc = loc_at(i);
  pos_ = i;
  if (i == n) return t;  // kEnd
  const char c = s[i];
  std::size_t end = i + 1;
  switch (char_class(c)) {
    case kIdentStart:
      while (end < n && char_class(s[end]) != kOther) ++end;
      t.kind = TokKind::kIdent;
      break;
    case kDigit: {
      std::uint64_t v = static_cast<std::uint64_t>(c - '0');
      bool overflow = false;
      for (; end < n && char_class(s[end]) == kDigit; ++end) {
        const std::uint64_t d = static_cast<std::uint64_t>(s[end] - '0');
        if (v > (UINT64_MAX - d) / 10) overflow = true;
        if (!overflow) v = v * 10 + d;
      }
      if (overflow)
        return fail(i, "integer literal '" +
                           std::string(text_.substr(i, end - i)) +
                           "' does not fit in 64 bits");
      t.kind = TokKind::kInt;
      t.value = v;
      break;
    }
    case kOther:
      switch (c) {
        case '{': t.kind = TokKind::kLBrace; break;
        case '}': t.kind = TokKind::kRBrace; break;
        case '[': t.kind = TokKind::kLBracket; break;
        case ']': t.kind = TokKind::kRBracket; break;
        case ',': t.kind = TokKind::kComma; break;
        case ':': t.kind = TokKind::kColon; break;
        case '=': t.kind = TokKind::kEq; break;
        default:
          return fail(i, std::string("unexpected character '") + c + "'");
      }
      break;
  }
  t.text = text_.substr(i, end - i);
  pos_ = end;
  return t;
}

std::vector<Token> lex(const SourceFile& src,
                       std::vector<Diagnostic>& diags) {
  Lexer lexer(src, diags);
  std::vector<Token> toks;
  do {
    toks.push_back(lexer.next());
  } while (toks.back().kind != TokKind::kEnd);
  return toks;
}

}  // namespace apex::lang
