//===- pyast/Lexer.cpp - Indentation-aware Python lexer -------------------===//

#include "pyast/Lexer.h"

#include <array>

using namespace seldon;
using namespace seldon::pyast;

namespace {

/// Character classes, one bit each, looked up through CharClass.
enum : uint8_t {
  IdentStart = 1 << 0, ///< Starts an identifier: a letter, `_` or >= 0x80.
  IdentCont = 1 << 1,  ///< Continues one: a letter, digit, `_` or >= 0x80.
  Digit = 1 << 2,      ///< 0-9.
  HexRun = 1 << 3,     ///< Continues a 0x/0o/0b literal: a hex digit or `_`.
  PrefixChar = 1 << 4, ///< May appear in a string prefix: r b u f, any case.
};

constexpr std::array<uint8_t, 256> makeCharClass() {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] |= IdentStart | IdentCont;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] |= IdentStart | IdentCont;
  T['_'] |= IdentStart | IdentCont | HexRun;
  // Bytes of a UTF-8 sequence: a non-ASCII name is one identifier.
  for (int C = 0x80; C <= 0xff; ++C)
    T[C] |= IdentStart | IdentCont;
  for (int C = '0'; C <= '9'; ++C)
    T[C] |= IdentCont | Digit | HexRun;
  for (int C = 'a'; C <= 'f'; ++C)
    T[C] |= HexRun;
  for (int C = 'A'; C <= 'F'; ++C)
    T[C] |= HexRun;
  for (char C : {'r', 'R', 'b', 'B', 'u', 'U', 'f', 'F'})
    T[static_cast<unsigned char>(C)] |= PrefixChar;
  return T;
}

constexpr std::array<uint8_t, 256> CharClass = makeCharClass();

bool is(char C, uint8_t Class) {
  return CharClass[static_cast<unsigned char>(C)] & Class;
}

bool isStringPrefix(std::string_view Ident) {
  if (Ident.empty() || Ident.size() > 3)
    return false;
  for (char C : Ident)
    if (!is(C, PrefixChar))
      return false;
  return true;
}

} // namespace

Lexer::Lexer(std::string_view Source)
    : Cur(Source.data()), End(Source.data() + Source.size()),
      LineStart(Source.data()) {}

void Lexer::error(std::string Message) {
  Errors.push_back({TokLine, TokCol, std::move(Message)});
}

void Lexer::pushIndent(int Width) {
  // One block for the usual nesting depths.
  if (Indents.capacity() == 0)
    Indents.reserve(16);
  Indents.push_back(Width);
}

bool Lexer::handleIndentation(std::vector<Token> &Out) {
  for (;;) {
    int Width = 0;
    while (!atEnd() && (*Cur == ' ' || *Cur == '\t')) {
      Width = *Cur == '\t' ? (Width / 8 + 1) * 8 : Width + 1;
      ++Cur;
    }
    if (atEnd())
      return false;
    if (*Cur == '\r') {
      ++Cur;
      continue;
    }
    // Blank lines and comment-only lines carry no indentation information.
    if (*Cur == '\n') {
      newline();
      continue;
    }
    if (*Cur == '#') {
      while (!atEnd() && *Cur != '\n')
        ++Cur;
      continue;
    }
    startToken();
    if (Width > indentTop()) {
      pushIndent(Width);
      push(Out, TokenKind::Indent, Cur);
      return true;
    }
    while (Width < indentTop()) {
      Indents.pop_back();
      push(Out, TokenKind::Dedent, Cur);
      if (Width > indentTop()) {
        error("unindent does not match any outer indentation level");
        pushIndent(Width);
        break;
      }
    }
    return true;
  }
}

void Lexer::lexNumber(std::vector<Token> &Out) {
  const char *Begin = Cur;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X' || peek(1) == 'o' ||
                        peek(1) == 'O' || peek(1) == 'b' || peek(1) == 'B')) {
    Cur += 2;
    while (!atEnd() && is(*Cur, HexRun))
      ++Cur;
    push(Out, TokenKind::Number, Begin);
    return;
  }

  auto IsDigitOrUnderscore = [](char C) { return is(C, Digit) || C == '_'; };
  while (!atEnd() && IsDigitOrUnderscore(*Cur))
    ++Cur;
  if (peek() == '.' && is(peek(1), Digit)) {
    ++Cur;
    while (!atEnd() && IsDigitOrUnderscore(*Cur))
      ++Cur;
  } else if (peek() == '.' && Cur != Begin && !is(peek(1), IdentStart) &&
             peek(1) != '.') {
    // Trailing-dot float like `1.` — but not `1..attr` or `1.foo`.
    ++Cur;
  }
  if (peek() == 'e' || peek() == 'E') {
    char Sign = peek(1);
    if (is(Sign, Digit) ||
        ((Sign == '+' || Sign == '-') && is(peek(2), Digit))) {
      Cur += Sign == '+' || Sign == '-' ? 2 : 1;
      while (!atEnd() && IsDigitOrUnderscore(*Cur))
        ++Cur;
    }
  }
  if (peek() == 'j' || peek() == 'J')
    ++Cur;
  push(Out, TokenKind::Number, Begin);
}

void Lexer::lexString(std::vector<Token> &Out, std::string_view Prefix) {
  bool Raw = false, FString = false;
  for (char C : Prefix) {
    Raw |= C == 'r' || C == 'R';
    FString |= C == 'f' || C == 'F';
  }

  char Quote = *Cur++;
  bool Triple = false;
  if (peek() == Quote && peek(1) == Quote) {
    Cur += 2;
    Triple = true;
  }

  // Walk to the closing quote, stepping over each escape as a pair; the
  // body is decoded later, by whoever needs its value. In a raw string a
  // backslash still keeps the next character (a quote included) inside the
  // literal, but both stay in the body as written.
  const char *Body = Cur;
  const char *BodyEnd;
  bool SawEscape = false;
  for (;;) {
    if (atEnd() || (!Triple && *Cur == '\n')) {
      error("unterminated string literal");
      BodyEnd = Cur;
      break;
    }
    char C = *Cur;
    if (C == Quote) {
      if (!Triple) {
        BodyEnd = Cur++;
        break;
      }
      if (peek(1) == Quote && peek(2) == Quote) {
        BodyEnd = Cur;
        Cur += 3;
        break;
      }
      ++Cur;
      continue;
    }
    if (C == '\\' && End - Cur > 1) {
      SawEscape |= !Raw;
      ++Cur;
      // A backslash before CRLF continues the line, as before LF.
      if (*Cur == '\r' && peek(1) == '\n')
        ++Cur;
    }
    if (*Cur == '\n')
      newline();
    else
      ++Cur;
  }
  Out.push_back({std::string_view(Body, static_cast<size_t>(BodyEnd - Body)),
                 TokLine, TokCol, TokenKind::String, FString, SawEscape});
}

void Lexer::lexOperator(std::vector<Token> &Out) {
  const char *Begin = Cur;
  char C = *Cur;
  // The longest operator starting with C; `Eq` is the kind of C followed
  // by `=`, `Double` of C doubled, and `DoubleEq` of C doubled then `=`
  // (Absent where Python has no such operator).
  auto Longest = [&](TokenKind Single, TokenKind Eq, TokenKind Double,
                     TokenKind DoubleEq) {
    if (peek(1) == C && Double != TokenKind::Error) {
      if (peek(2) == '=' && DoubleEq != TokenKind::Error) {
        Cur += 3;
        return DoubleEq;
      }
      Cur += 2;
      return Double;
    }
    if (peek(1) == '=' && Eq != TokenKind::Error) {
      Cur += 2;
      return Eq;
    }
    ++Cur;
    return Single;
  };
  constexpr TokenKind Absent = TokenKind::Error;
  TokenKind Kind;
  switch (C) {
  case '(': case '[': case '{':
    ++Cur;
    ++BracketDepth;
    Kind = C == '(' ? TokenKind::LParen
                    : C == '[' ? TokenKind::LBracket : TokenKind::LBrace;
    break;
  case ')': case ']': case '}':
    ++Cur;
    if (BracketDepth > 0)
      --BracketDepth;
    Kind = C == ')' ? TokenKind::RParen
                    : C == ']' ? TokenKind::RBracket : TokenKind::RBrace;
    break;
  case ',': ++Cur; Kind = TokenKind::Comma; break;
  case ';': ++Cur; Kind = TokenKind::Semicolon; break;
  case '.': ++Cur; Kind = TokenKind::Dot; break;
  case '~': ++Cur; Kind = TokenKind::Tilde; break;
  case '*':
    Kind = Longest(TokenKind::Star, TokenKind::StarEq, TokenKind::DoubleStar,
                   TokenKind::DoubleStarEq);
    break;
  case '/':
    Kind = Longest(TokenKind::Slash, TokenKind::SlashEq,
                   TokenKind::DoubleSlash, TokenKind::DoubleSlashEq);
    break;
  case '<':
    Kind = Longest(TokenKind::Less, TokenKind::LessEq, TokenKind::LShift,
                   TokenKind::LShiftEq);
    break;
  case '>':
    Kind = Longest(TokenKind::Greater, TokenKind::GreaterEq,
                   TokenKind::RShift, TokenKind::RShiftEq);
    break;
  case '=':
    Kind = Longest(TokenKind::Equal, TokenKind::EqEq, Absent, Absent);
    break;
  case '+':
    Kind = Longest(TokenKind::Plus, TokenKind::PlusEq, Absent, Absent);
    break;
  case '%':
    Kind = Longest(TokenKind::Percent, TokenKind::PercentEq, Absent, Absent);
    break;
  case '&':
    Kind = Longest(TokenKind::Amp, TokenKind::AmpEq, Absent, Absent);
    break;
  case '|':
    Kind = Longest(TokenKind::Pipe, TokenKind::PipeEq, Absent, Absent);
    break;
  case '^':
    Kind = Longest(TokenKind::Caret, TokenKind::CaretEq, Absent, Absent);
    break;
  case '@':
    Kind = Longest(TokenKind::At, TokenKind::AtEq, Absent, Absent);
    break;
  case '-':
    if (peek(1) == '>') {
      Cur += 2;
      Kind = TokenKind::Arrow;
    } else {
      Kind = Longest(TokenKind::Minus, TokenKind::MinusEq, Absent, Absent);
    }
    break;
  case ':':
    Kind = Longest(TokenKind::Colon, TokenKind::Walrus, Absent, Absent);
    break;
  case '!':
    if (peek(1) == '=') {
      Cur += 2;
      Kind = TokenKind::NotEq;
      break;
    }
    [[fallthrough]];
  default:
    error(std::string("unexpected character '") + C + "'");
    ++Cur;
    Kind = TokenKind::Error;
    break;
  }
  push(Out, Kind, Begin);
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Out;
  lexAll(Out);
  return Out;
}

void Lexer::lexAll(std::vector<Token> &Out) {
  Out.clear();
  // About one token per four bytes of real code; reserving a third of the
  // size makes growth rare.
  Out.reserve(static_cast<size_t>(End - Cur) / 3 + 8);
  bool AtLineStart = true;
  while (!atEnd()) {
    if (AtLineStart && BracketDepth == 0) {
      if (!handleIndentation(Out))
        break;
      AtLineStart = false;
      continue;
    }
    char C = *Cur;
    if (C == '#') {
      while (!atEnd() && *Cur != '\n')
        ++Cur;
      continue;
    }
    if (C == '\n') {
      startToken();
      newline();
      if (BracketDepth == 0) {
        push(Out, TokenKind::Newline, Cur);
        AtLineStart = true;
      }
      continue;
    }
    // A backslash ending a line (LF or CRLF) joins it with the next.
    size_t Join = C != '\\'        ? 0
                  : peek(1) == '\n' ? 1
                  : peek(1) == '\r' && peek(2) == '\n' ? 2
                                                      : 0;
    if (Join) {
      Cur += Join;
      newline();
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Cur;
      continue;
    }

    startToken();
    if (is(C, IdentStart)) {
      const char *Begin = Cur;
      while (!atEnd() && is(*Cur, IdentCont))
        ++Cur;
      std::string_view Ident(Begin, static_cast<size_t>(Cur - Begin));
      if ((peek() == '"' || peek() == '\'') && isStringPrefix(Ident)) {
        lexString(Out, Ident);
        continue;
      }
      push(Out, classifyIdentifier(Ident), Begin);
      continue;
    }
    if (is(C, Digit) || (C == '.' && is(peek(1), Digit))) {
      lexNumber(Out);
      continue;
    }
    if (C == '"' || C == '\'') {
      lexString(Out, {});
      continue;
    }
    lexOperator(Out);
  }

  startToken();
  // Close the final logical line if the file does not end with a newline.
  if (!Out.empty() && Out.back().isNot(TokenKind::Newline) &&
      Out.back().isNot(TokenKind::Dedent))
    push(Out, TokenKind::Newline, Cur);
  while (!Indents.empty()) {
    Indents.pop_back();
    push(Out, TokenKind::Dedent, Cur);
  }
  push(Out, TokenKind::EndOfFile, Cur);
}
