//===- active/Oracle.cpp - Oracles for active learning --------------------===//

#include "active/Oracle.h"

#include "corpus/GroundTruth.h"
#include "service/Json.h"
#include "service/QueryResult.h"
#include "support/FileIO.h"

using namespace seldon;
using namespace seldon::active;

const char *seldon::active::oracleAnswerName(OracleAnswer A) {
  switch (A) {
  case OracleAnswer::Yes:
    return "yes";
  case OracleAnswer::No:
    return "no";
  case OracleAnswer::Unknown:
    return "unknown";
  }
  return "?";
}

OracleAnswer GroundTruthOracle::answer(const std::string &Rep,
                                       propgraph::Role R) {
  return Truth->isTrue(Rep, R) ? OracleAnswer::Yes : OracleAnswer::No;
}

OracleAnswer FileOracle::answer(const std::string &Rep, propgraph::Role R) {
  auto It = Answers.find({Rep, static_cast<int>(R)});
  if (It == Answers.end())
    return OracleAnswer::Unknown;
  return It->second ? OracleAnswer::Yes : OracleAnswer::No;
}

bool FileOracle::parse(const std::string &JsonText, FileOracle &Out,
                       std::string &Error) {
  service::JsonValue Doc;
  if (!service::parseJson(JsonText, Doc, Error))
    return false;
  if (!Doc.isObject()) {
    Error = "oracle file must be a JSON object";
    return false;
  }
  const service::JsonValue *Answers = Doc.get("answers");
  if (!Answers || !Answers->isArray()) {
    Error = "oracle file needs an \"answers\" array";
    return false;
  }
  FileOracle Parsed;
  size_t Index = 0;
  for (const service::JsonValue &Entry : Answers->arrayValue()) {
    std::string At = "answers[" + std::to_string(Index++) + "]";
    if (!Entry.isObject()) {
      Error = At + " is not an object";
      return false;
    }
    const service::JsonValue *Rep = Entry.get("rep");
    const service::JsonValue *RoleV = Entry.get("role");
    const service::JsonValue *Truth = Entry.get("truth");
    if (!Rep || !Rep->isString() || Rep->stringValue().empty()) {
      Error = At + " needs a non-empty string \"rep\"";
      return false;
    }
    propgraph::Role R;
    if (!RoleV || !RoleV->isString() ||
        !service::roleFromName(RoleV->stringValue(), R)) {
      Error = At + " needs \"role\" of source, sanitizer, or sink";
      return false;
    }
    if (!Truth || !Truth->isBool()) {
      Error = At + " needs a boolean \"truth\"";
      return false;
    }
    Parsed.add(Rep->stringValue(), R, Truth->boolValue());
  }
  Out = std::move(Parsed);
  return true;
}

bool FileOracle::load(const std::string &Path, FileOracle &Out,
                      std::string &Error) {
  io::IOResult<std::string> Text = io::readFile(Path);
  if (!Text) {
    Error = "oracle file: " + Text.Error;
    return false;
  }
  if (!parse(Text.Value, Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

std::string
seldon::active::writeOracleFile(const std::vector<OracleExchange> &Transcript) {
  std::string Out = "{\"answers\":[";
  bool First = true;
  for (const OracleExchange &E : Transcript) {
    if (E.A == OracleAnswer::Unknown)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  {\"rep\":";
    Out += service::JsonValue::makeString(E.Rep).render();
    Out += ",\"role\":\"";
    Out += propgraph::roleName(E.R);
    Out += "\",\"truth\":";
    Out += E.A == OracleAnswer::Yes ? "true" : "false";
    Out += "}";
  }
  Out += First ? "]}\n" : "\n]}\n";
  return Out;
}
