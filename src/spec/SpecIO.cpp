//===- spec/SpecIO.cpp - Specification serialization ----------------------===//

#include "spec/SpecIO.h"

#include "support/FileIO.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cmath>

using namespace seldon;
using namespace seldon::spec;
using namespace seldon::propgraph;

namespace {

/// Returns an error message when \p Text looks cut off mid-record: every
/// writer in this file ends each record (and the file) with '\n', so a
/// non-empty file without a trailing newline was truncated.
std::string truncationError(const std::string &Path,
                            const std::string &Text) {
  if (!Text.empty() && Text.back() != '\n')
    return Path + " is truncated (no newline after the last record)";
  return std::string();
}

/// Folds per-line parse errors into one descriptive load error.
std::string corruptionError(const std::string &Path,
                            const std::vector<std::string> &Errors) {
  if (Errors.empty())
    return std::string();
  std::string Msg =
      Path + " is corrupt (" + formatString("%zu", Errors.size()) +
      " malformed record" + (Errors.size() == 1 ? "" : "s") +
      "): " + Errors.front();
  if (Errors.size() > 1)
    Msg += formatString(" (+%zu more)", Errors.size() - 1);
  return Msg;
}

} // namespace

IOResult<SeedSpec> seldon::spec::loadSeedSpec(const std::string &Path) {
  IOResult<std::string> Text = io::readFile(Path);
  if (!Text)
    return IOResult<SeedSpec>::failure("seed spec: " + Text.Error);
  if (std::string Err = truncationError(Path, Text.Value); !Err.empty())
    return IOResult<SeedSpec>::failure(std::move(Err));
  std::vector<std::string> Errors;
  SeedSpec Parsed = SeedSpec::parse(Text.Value, &Errors);
  if (std::string Err = corruptionError(Path, Errors); !Err.empty())
    return IOResult<SeedSpec>::failure(std::move(Err));
  return IOResult<SeedSpec>::success(std::move(Parsed));
}

IOResult<LearnedSpec> seldon::spec::loadLearnedSpec(const std::string &Path) {
  IOResult<std::string> Text = io::readFile(Path);
  if (!Text)
    return IOResult<LearnedSpec>::failure("spec: " + Text.Error);
  if (std::string Err = truncationError(Path, Text.Value); !Err.empty())
    return IOResult<LearnedSpec>::failure(std::move(Err));
  std::vector<std::string> Errors;
  LearnedSpec Parsed = parseLearnedSpec(Text.Value, &Errors);
  if (std::string Err = corruptionError(Path, Errors); !Err.empty())
    return IOResult<LearnedSpec>::failure(std::move(Err));
  return IOResult<LearnedSpec>::success(std::move(Parsed));
}

IOResult<size_t> seldon::spec::saveSeedSpec(const SeedSpec &Seed,
                                            const std::string &Path) {
  return io::writeFile(Path, writeSeedSpec(Seed));
}

IOResult<size_t> seldon::spec::saveLearnedSpec(const LearnedSpec &Learned,
                                               const std::string &Path,
                                               double MinScore) {
  return io::writeFile(Path, writeLearnedSpec(Learned, MinScore));
}

std::string seldon::spec::writeSeedSpec(const SeedSpec &Seed) {
  std::string Out;
  struct Section {
    Role R;
    char Prefix;
    const char *Header;
  };
  static const Section Sections[] = {
      {Role::Source, 'o', "# Sources"},
      {Role::Sanitizer, 'a', "# Sanitizers"},
      {Role::Sink, 'i', "# Sinks"},
  };
  for (const Section &S : Sections) {
    std::vector<std::string> Reps = Seed.Spec.sortedReps(S.R);
    if (Reps.empty())
      continue;
    Out += S.Header;
    Out += '\n';
    for (const std::string &Rep : Reps) {
      Out += S.Prefix;
      Out += ": ";
      Out += Rep;
      Out += '\n';
    }
    Out += '\n';
  }
  if (!Seed.Blacklist.empty()) {
    Out += "# Blacklist\n";
    for (const std::string &Pattern : Seed.Blacklist.patterns()) {
      Out += "b: ";
      Out += Pattern;
      Out += '\n';
    }
  }
  return Out;
}

std::string seldon::spec::writeLearnedSpec(const LearnedSpec &Learned,
                                           double MinScore) {
  std::string Out = "# seldon learned specification\n"
                    "# <role> <score> <representation>\n";
  for (Role R : {Role::Source, Role::Sanitizer, Role::Sink})
    for (const auto &[Rep, Score] : Learned.ranked(R, MinScore))
      Out += formatString("%s %.6f %s\n", roleName(R), Score, Rep.c_str());
  return Out;
}

LearnedSpec
seldon::spec::parseLearnedSpec(std::string_view Text,
                               std::vector<std::string> *ErrorsOut) {
  LearnedSpec Out;
  size_t LineNo = 0;
  for (const std::string &RawLine : splitString(Text, '\n')) {
    ++LineNo;
    std::string_view Line = trim(RawLine);
    if (Line.empty() || Line.front() == '#')
      continue;
    size_t Sp1 = Line.find(' ');
    size_t Sp2 = Sp1 == std::string_view::npos
                     ? std::string_view::npos
                     : Line.find(' ', Sp1 + 1);
    if (Sp2 == std::string_view::npos) {
      if (ErrorsOut)
        ErrorsOut->push_back(
            formatString("line %zu: expected '<role> <score> <rep>'",
                         LineNo));
      continue;
    }
    std::string RoleStr(Line.substr(0, Sp1));
    std::string ScoreStr(Line.substr(Sp1 + 1, Sp2 - Sp1 - 1));
    std::string Rep(trim(Line.substr(Sp2 + 1)));

    Role R;
    if (RoleStr == "source")
      R = Role::Source;
    else if (RoleStr == "sanitizer")
      R = Role::Sanitizer;
    else if (RoleStr == "sink")
      R = Role::Sink;
    else {
      if (ErrorsOut)
        ErrorsOut->push_back(
            formatString("line %zu: unknown role '%s'", LineNo,
                         RoleStr.c_str()));
      continue;
    }
    char *End = nullptr;
    double Score = std::strtod(ScoreStr.c_str(), &End);
    if (End == ScoreStr.c_str() || *End != '\0' || Score < 0.0 ||
        Score > 1.0) {
      if (ErrorsOut)
        ErrorsOut->push_back(formatString("line %zu: bad score '%s'", LineNo,
                                          ScoreStr.c_str()));
      continue;
    }
    if (Rep.empty()) {
      if (ErrorsOut)
        ErrorsOut->push_back(
            formatString("line %zu: empty representation", LineNo));
      continue;
    }
    Out.setScore(Rep, R, Score);
  }
  return Out;
}

SpecDiff seldon::spec::diffLearnedSpecs(const LearnedSpec &Old,
                                        const LearnedSpec &New,
                                        double Threshold,
                                        double DriftDelta) {
  SpecDiff Out;
  for (Role R : {Role::Source, Role::Sanitizer, Role::Sink}) {
    for (const auto &[Rep, NewScore] : New.ranked(R, 0.0)) {
      double OldScore = Old.score(Rep, R);
      bool InNew = NewScore >= Threshold;
      bool InOld = OldScore >= Threshold;
      if (InNew && !InOld)
        Out.Added.emplace_back(Rep, R);
      else if (InNew && InOld &&
               std::abs(NewScore - OldScore) >= DriftDelta)
        Out.Drifted.emplace_back(Rep, R, OldScore, NewScore);
    }
    for (const auto &[Rep, OldScore] : Old.ranked(R, 0.0)) {
      if (OldScore < Threshold)
        continue;
      if (New.score(Rep, R) < Threshold)
        Out.Removed.emplace_back(Rep, R);
    }
  }
  auto ByRoleThenRep = [](const auto &A, const auto &B) {
    if (std::get<1>(A) != std::get<1>(B))
      return std::get<1>(A) < std::get<1>(B);
    return std::get<0>(A) < std::get<0>(B);
  };
  std::sort(Out.Added.begin(), Out.Added.end(), ByRoleThenRep);
  std::sort(Out.Removed.begin(), Out.Removed.end(), ByRoleThenRep);
  std::sort(Out.Drifted.begin(), Out.Drifted.end(), ByRoleThenRep);
  return Out;
}

std::string seldon::spec::renderSpecDiff(const SpecDiff &Diff) {
  std::string Out;
  for (const auto &[Rep, R] : Diff.Added)
    Out += formatString("+ %s %s\n", roleName(R), Rep.c_str());
  for (const auto &[Rep, R] : Diff.Removed)
    Out += formatString("- %s %s\n", roleName(R), Rep.c_str());
  for (const auto &[Rep, R, OldScore, NewScore] : Diff.Drifted)
    Out += formatString("~ %s %s  %.3f -> %.3f\n", roleName(R),
                        Rep.c_str(), OldScore, NewScore);
  return Out;
}
