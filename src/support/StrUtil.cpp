//===- support/StrUtil.cpp - Small string helpers -------------------------===//

#include "support/StrUtil.h"

#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace seldon;

std::vector<std::string> seldon::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Parts.emplace_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

std::string seldon::joinStrings(const std::vector<std::string> &Parts,
                                std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string_view seldon::trim(std::string_view Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\r' || C == '\n' || C == '\f' ||
           C == '\v';
  };
  while (!Text.empty() && IsSpace(Text.front()))
    Text.remove_prefix(1);
  while (!Text.empty() && IsSpace(Text.back()))
    Text.remove_suffix(1);
  return Text;
}

std::string seldon::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (N > 0) {
    Out.resize(static_cast<size_t>(N));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args2);
  }
  va_end(Args2);
  return Out;
}

void seldon::appendDouble(std::string &Out, double Value,
                          std::chars_format Format, int Precision) {
  // Room for the widest fixed-form double (309 integral digits) plus sign,
  // point and up to 64 fraction digits.
  char Buf[384];
  assert(Precision >= 0 && Precision <= 64);
  std::to_chars_result R =
      std::to_chars(Buf, Buf + sizeof(Buf), Value, Format, Precision);
  Out.append(Buf, R.ptr);
}

std::string seldon::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendJsonEscaped(Out, Text);
  return Out;
}

void seldon::appendJsonEscaped(std::string &Out, std::string_view Text) {
  static const char Hex[] = "0123456789abcdef";
  // Copy runs that need no escape in one append each.
  size_t Run = 0;
  for (size_t I = 0; I < Text.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Text[I]);
    if (!jsonNeedsEscape(C))
      continue;
    Out.append(Text, Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      Out += "\\u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xf];
      break;
    }
  }
  Out.append(Text, Run, Text.size() - Run);
}
