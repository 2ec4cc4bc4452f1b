//===- pyast/Token.cpp - Python token definitions -------------------------===//

#include "pyast/Token.h"

#include <cstring>
#include <span>

using namespace seldon;
using namespace seldon::pyast;

const char *seldon::pyast::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile: return "eof";
  case TokenKind::Newline: return "newline";
  case TokenKind::Indent: return "indent";
  case TokenKind::Dedent: return "dedent";
  case TokenKind::Name: return "name";
  case TokenKind::Number: return "number";
  case TokenKind::String: return "string";
  case TokenKind::KwAnd: return "and";
  case TokenKind::KwAs: return "as";
  case TokenKind::KwAssert: return "assert";
  case TokenKind::KwBreak: return "break";
  case TokenKind::KwClass: return "class";
  case TokenKind::KwContinue: return "continue";
  case TokenKind::KwDef: return "def";
  case TokenKind::KwDel: return "del";
  case TokenKind::KwElif: return "elif";
  case TokenKind::KwElse: return "else";
  case TokenKind::KwExcept: return "except";
  case TokenKind::KwFalse: return "False";
  case TokenKind::KwFinally: return "finally";
  case TokenKind::KwFor: return "for";
  case TokenKind::KwFrom: return "from";
  case TokenKind::KwGlobal: return "global";
  case TokenKind::KwIf: return "if";
  case TokenKind::KwImport: return "import";
  case TokenKind::KwIn: return "in";
  case TokenKind::KwIs: return "is";
  case TokenKind::KwLambda: return "lambda";
  case TokenKind::KwNone: return "None";
  case TokenKind::KwNonlocal: return "nonlocal";
  case TokenKind::KwNot: return "not";
  case TokenKind::KwOr: return "or";
  case TokenKind::KwPass: return "pass";
  case TokenKind::KwRaise: return "raise";
  case TokenKind::KwReturn: return "return";
  case TokenKind::KwTrue: return "True";
  case TokenKind::KwTry: return "try";
  case TokenKind::KwWhile: return "while";
  case TokenKind::KwWith: return "with";
  case TokenKind::KwYield: return "yield";
  case TokenKind::LParen: return "(";
  case TokenKind::RParen: return ")";
  case TokenKind::LBracket: return "[";
  case TokenKind::RBracket: return "]";
  case TokenKind::LBrace: return "{";
  case TokenKind::RBrace: return "}";
  case TokenKind::Comma: return ",";
  case TokenKind::Colon: return ":";
  case TokenKind::Semicolon: return ";";
  case TokenKind::Dot: return ".";
  case TokenKind::Arrow: return "->";
  case TokenKind::At: return "@";
  case TokenKind::Equal: return "=";
  case TokenKind::Walrus: return ":=";
  case TokenKind::Plus: return "+";
  case TokenKind::Minus: return "-";
  case TokenKind::Star: return "*";
  case TokenKind::DoubleStar: return "**";
  case TokenKind::Slash: return "/";
  case TokenKind::DoubleSlash: return "//";
  case TokenKind::Percent: return "%";
  case TokenKind::Amp: return "&";
  case TokenKind::Pipe: return "|";
  case TokenKind::Caret: return "^";
  case TokenKind::Tilde: return "~";
  case TokenKind::LShift: return "<<";
  case TokenKind::RShift: return ">>";
  case TokenKind::EqEq: return "==";
  case TokenKind::NotEq: return "!=";
  case TokenKind::Less: return "<";
  case TokenKind::LessEq: return "<=";
  case TokenKind::Greater: return ">";
  case TokenKind::GreaterEq: return ">=";
  case TokenKind::PlusEq: return "+=";
  case TokenKind::MinusEq: return "-=";
  case TokenKind::StarEq: return "*=";
  case TokenKind::SlashEq: return "/=";
  case TokenKind::DoubleSlashEq: return "//=";
  case TokenKind::PercentEq: return "%=";
  case TokenKind::DoubleStarEq: return "**=";
  case TokenKind::AmpEq: return "&=";
  case TokenKind::PipeEq: return "|=";
  case TokenKind::CaretEq: return "^=";
  case TokenKind::LShiftEq: return "<<=";
  case TokenKind::RShiftEq: return ">>=";
  case TokenKind::AtEq: return "@=";
  case TokenKind::Error: return "error";
  }
  return "unknown";
}

TokenKind seldon::pyast::classifyIdentifier(std::string_view Ident) {
  struct Keyword {
    const char *Spelling;
    TokenKind Kind;
  };
  // Keywords bucketed by length (2 to 8), so a name is compared against
  // at most eight spellings of its own length.
  static const Keyword Len2[] = {{"as", TokenKind::KwAs},
                                 {"if", TokenKind::KwIf},
                                 {"in", TokenKind::KwIn},
                                 {"is", TokenKind::KwIs},
                                 {"or", TokenKind::KwOr}};
  static const Keyword Len3[] = {{"and", TokenKind::KwAnd},
                                 {"def", TokenKind::KwDef},
                                 {"del", TokenKind::KwDel},
                                 {"for", TokenKind::KwFor},
                                 {"not", TokenKind::KwNot},
                                 {"try", TokenKind::KwTry}};
  static const Keyword Len4[] = {{"elif", TokenKind::KwElif},
                                 {"else", TokenKind::KwElse},
                                 {"from", TokenKind::KwFrom},
                                 {"None", TokenKind::KwNone},
                                 {"pass", TokenKind::KwPass},
                                 {"True", TokenKind::KwTrue},
                                 {"with", TokenKind::KwWith}};
  static const Keyword Len5[] = {{"break", TokenKind::KwBreak},
                                 {"class", TokenKind::KwClass},
                                 {"False", TokenKind::KwFalse},
                                 {"raise", TokenKind::KwRaise},
                                 {"while", TokenKind::KwWhile},
                                 {"yield", TokenKind::KwYield}};
  static const Keyword Len6[] = {{"assert", TokenKind::KwAssert},
                                 {"except", TokenKind::KwExcept},
                                 {"global", TokenKind::KwGlobal},
                                 {"import", TokenKind::KwImport},
                                 {"lambda", TokenKind::KwLambda},
                                 {"return", TokenKind::KwReturn}};
  static const Keyword Len7[] = {{"finally", TokenKind::KwFinally}};
  static const Keyword Len8[] = {{"continue", TokenKind::KwContinue},
                                 {"nonlocal", TokenKind::KwNonlocal}};
  std::span<const Keyword> Bucket;
  switch (Ident.size()) {
  case 2: Bucket = Len2; break;
  case 3: Bucket = Len3; break;
  case 4: Bucket = Len4; break;
  case 5: Bucket = Len5; break;
  case 6: Bucket = Len6; break;
  case 7: Bucket = Len7; break;
  case 8: Bucket = Len8; break;
  default: return TokenKind::Name;
  }
  for (const Keyword &K : Bucket)
    if (std::memcmp(K.Spelling, Ident.data(), Ident.size()) == 0)
      return K.Kind;
  return TokenKind::Name;
}

char *seldon::pyast::decodeBody(std::string_view Body, char *Out) {
  const char *Cur = Body.data(), *End = Cur + Body.size();
  while (Cur != End) {
    char C = *Cur++;
    if (C != '\\' || Cur == End) { // A trailing backslash stays.
      *Out++ = C;
      continue;
    }
    switch (char E = *Cur++) {
    case 'n': *Out++ = '\n'; break;
    case 't': *Out++ = '\t'; break;
    case 'r': *Out++ = '\r'; break;
    case '0': *Out++ = '\0'; break;
    case '\\':
    case '\'':
    case '"': *Out++ = E; break;
    case '\n': break; // Line continuation inside a string.
    case '\r':
      if (Cur != End && *Cur == '\n') { // The same, before CRLF.
        ++Cur;
        break;
      }
      [[fallthrough]];
    default:
      *Out++ = '\\';
      *Out++ = E;
      break;
    }
  }
  return Out;
}

std::string seldon::pyast::decodedText(const Token &T) {
  if (!T.NeedsDecode)
    return std::string(T.Text);
  std::string Out(T.Text.size(), '\0');
  Out.resize(static_cast<size_t>(decodeBody(T.Text, Out.data()) - Out.data()));
  return Out;
}
