//===- support/StrUtil.h - Small string helpers ------------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the project: splitting, joining, trimming,
/// a printf-style formatter returning std::string, and appending
/// formatters for the hot rendering paths (numbers that ignore the host
/// locale, JSON escaping without a temporary).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_STRUTIL_H
#define SELDON_SUPPORT_STRUTIL_H

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {

/// Splits \p Text on \p Sep. Adjacent separators yield empty elements;
/// splitting the empty string yields one empty element.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view Text);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends \p Value to \p Out exactly as printf's `%.<Precision>f`
/// (Format fixed) or `%.<Precision>g` (Format general) prints it in the C
/// locale, whatever LC_NUMERIC says — the output stays valid JSON and
/// byte-stable across hosts.
void appendDouble(std::string &Out, double Value, std::chars_format Format,
                  int Precision);

/// True when \p C must be escaped inside a JSON string literal: a quote, a
/// backslash or a control character. These are the bytes jsonEscape
/// rewrites; every other byte is copied as is.
inline bool jsonNeedsEscape(unsigned char C) {
  return C < 0x20 || C == '"' || C == '\\';
}

/// Escapes \p Text for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(std::string_view Text);

/// jsonEscape(\p Text) appended to \p Out, without the temporary.
void appendJsonEscaped(std::string &Out, std::string_view Text);

} // namespace seldon

#endif // SELDON_SUPPORT_STRUTIL_H
