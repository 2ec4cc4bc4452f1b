//===- support/ArgParser.h - Declarative CLI flag parsing --------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative flag parser used by the `seldon` CLI and the
/// `seldond` daemon. The flags the two share are registered once, by
/// tools/SharedFlags, on either binary's parser. Flags are registered
/// with a typed target and a help line; parse() then
/// accepts both `--name value` and `--name=value`, applies the same strict
/// numeric rules everywhere (`--jobs=-1` and `--jobs banana` are errors,
/// never garbage through atoi), collects non-flag operands as positional
/// arguments, and rejects unknown `--` options. usage() renders the
/// registered flags as aligned help text, so the usage screen can never
/// drift from what the binary actually accepts.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_ARGPARSER_H
#define SELDON_SUPPORT_ARGPARSER_H

#include <string>
#include <vector>

namespace seldon {

/// Strictly parses \p Text as a base-10 unsigned integer. Rejects empty
/// strings, signs, trailing junk, and overflow. On failure prints
/// "error: <flag> expects a non-negative integer ..." to stderr and
/// returns false.
bool parseStrictUnsigned(const std::string &Flag, const std::string &Text,
                         unsigned long &Out);

/// Strictly parses \p Text as a finite decimal number (full consume).
/// On failure prints "error: <flag> expects a number ..." to stderr and
/// returns false.
bool parseStrictDouble(const std::string &Flag, const std::string &Text,
                       double &Out);

/// Declarative flag table + parser. Register typed flags, then call
/// parse(); diagnostics go to stderr and parse() returns false on the
/// first error. Targets keep their initial value until their flag is seen,
/// so defaults live at the declaration site.
class ArgParser {
public:
  /// Registers a boolean flag (`--name`, takes no value; an inline
  /// `--name=x` is an error).
  ArgParser &flag(const std::string &Name, bool *Target,
                  const std::string &Help);

  /// Registers a string-valued flag (`--name VALUE` / `--name=VALUE`).
  /// \p ValueName is the placeholder shown in usage() ("FILE", "DIR").
  ArgParser &string(const std::string &Name, std::string *Target,
                    const std::string &ValueName, const std::string &Help);

  /// Registers a strict non-negative integer flag.
  ArgParser &unsignedInt(const std::string &Name, unsigned long *Target,
                         const std::string &ValueName,
                         const std::string &Help);

  /// Registers a strict decimal flag.
  ArgParser &decimal(const std::string &Name, double *Target,
                     const std::string &ValueName, const std::string &Help);

  /// Parses Argv[Begin, Argc): flags update their targets, everything else
  /// lands in \p Positional (never null-checked — pass a valid vector).
  /// Unknown `--options`, missing values, inline values on boolean flags,
  /// and malformed numbers are errors: a diagnostic is printed to stderr
  /// and parse() returns false.
  bool parse(int Argc, char **Argv, int Begin,
             std::vector<std::string> *Positional);

  /// True when \p Name was given on the last parsed command line.
  bool seen(const std::string &Name) const;

  /// The registered flags rendered as aligned "  --name VALUE  help" lines
  /// (help text is wrapped on the registered line breaks, i.e. '\n' in
  /// Help continues indented under the first line).
  std::string usage() const;

private:
  enum class Kind { Bool, String, Unsigned, Double };
  struct Flag {
    std::string Name;
    std::string ValueName;
    std::string Help;
    Kind FlagKind = Kind::Bool;
    bool *BoolTarget = nullptr;
    std::string *StringTarget = nullptr;
    unsigned long *UnsignedTarget = nullptr;
    double *DoubleTarget = nullptr;
    bool Seen = false;
  };

  Flag *find(const std::string &Name);
  const Flag *find(const std::string &Name) const;

  std::vector<Flag> Flags;
};

} // namespace seldon

#endif // SELDON_SUPPORT_ARGPARSER_H
