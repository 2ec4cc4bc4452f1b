//===- service/FeedbackJson.cpp - Feedback wire/file format ---------------===//

#include "service/FeedbackJson.h"

#include "service/QueryResult.h"
#include "support/FileIO.h"

using namespace seldon;
using namespace seldon::service;

namespace {

bool parseVerdictArray(const JsonValue &Doc, const char *Key, bool Accepted,
                       constraints::FeedbackSet &Out, std::string &Error,
                       size_t &Count) {
  const JsonValue *Array = Doc.get(Key);
  if (!Array)
    return true;
  if (!Array->isArray()) {
    Error = std::string("\"") + Key + "\" must be an array";
    return false;
  }
  size_t Index = 0;
  for (const JsonValue &Entry : Array->arrayValue()) {
    std::string At =
        std::string(Key) + "[" + std::to_string(Index++) + "]";
    if (!Entry.isObject()) {
      Error = At + " is not an object";
      return false;
    }
    const JsonValue *Rep = Entry.get("rep");
    if (!Rep || !Rep->isString() || Rep->stringValue().empty()) {
      Error = At + " needs a non-empty string \"rep\"";
      return false;
    }
    const JsonValue *RoleV = Entry.get("role");
    propgraph::Role R;
    if (!RoleV || !RoleV->isString() ||
        !roleFromName(RoleV->stringValue(), R)) {
      Error = At + " needs \"role\" of source, sanitizer, or sink";
      return false;
    }
    if (Accepted)
      Out.accept(Rep->stringValue(), R);
    else
      Out.reject(Rep->stringValue(), R);
    ++Count;
  }
  return true;
}

} // namespace

bool seldon::service::feedbackFromJson(const JsonValue &Doc,
                                       constraints::FeedbackSet &Out,
                                       std::string &Error, size_t *Accepted,
                                       size_t *Rejected) {
  if (!Doc.isObject()) {
    Error = "feedback must be a JSON object";
    return false;
  }
  // Parse into a scratch set first so a malformed later entry leaves the
  // caller's accumulated feedback untouched.
  constraints::FeedbackSet Parsed;
  size_t NumAccepted = 0, NumRejected = 0;
  if (!parseVerdictArray(Doc, "accept", /*Accepted=*/true, Parsed, Error,
                         NumAccepted) ||
      !parseVerdictArray(Doc, "reject", /*Accepted=*/false, Parsed, Error,
                         NumRejected))
    return false;
  if (NumAccepted + NumRejected == 0) {
    Error = "feedback needs a non-empty \"accept\" or \"reject\" array";
    return false;
  }
  for (const constraints::FeedbackEntry &E : Parsed.entries()) {
    if (E.Accepted)
      Out.accept(E.Rep, E.R);
    else
      Out.reject(E.Rep, E.R);
  }
  if (Accepted)
    *Accepted = NumAccepted;
  if (Rejected)
    *Rejected = NumRejected;
  return true;
}

bool seldon::service::loadFeedbackFile(const std::string &Path,
                                       constraints::FeedbackSet &Out,
                                       std::string &Error, size_t *Accepted,
                                       size_t *Rejected) {
  io::IOResult<std::string> Text = io::readFile(Path);
  if (!Text) {
    Error = "feedback file: " + Text.Error;
    return false;
  }
  JsonValue Doc;
  if (!parseJson(Text.Value, Doc, Error) ||
      !feedbackFromJson(Doc, Out, Error, Accepted, Rejected)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}
