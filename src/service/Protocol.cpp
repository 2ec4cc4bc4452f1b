//===- service/Protocol.cpp - Versioned request/response framing ----------===//

#include "service/Protocol.h"

#include "support/StrUtil.h"

#include <cmath>

using namespace seldon;
using namespace seldon::service;

const char *seldon::service::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::BadJson:
    return "bad-json";
  case ErrorCode::BadRequest:
    return "bad-request";
  case ErrorCode::UnsupportedVersion:
    return "unsupported-version";
  case ErrorCode::UnknownOp:
    return "unknown-op";
  case ErrorCode::Oversized:
    return "oversized";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::Deadline:
    return "deadline";
  case ErrorCode::Internal:
    return "internal";
  case ErrorCode::ShuttingDown:
    return "shutting-down";
  }
  return "internal";
}

bool seldon::service::parseRequest(const std::string &Line, size_t MaxBytes,
                                   Request &Out, RequestError &Err) {
  Out = Request();
  if (Line.size() > MaxBytes) {
    Err.Code = ErrorCode::Oversized;
    Err.Message = formatString("request line is %zu bytes; the limit is %zu",
                               Line.size(), MaxBytes);
    return false;
  }
  std::string ParseError;
  if (!parseJson(Line, Out.Params, ParseError)) {
    Err.Code = ErrorCode::BadJson;
    Err.Message = ParseError;
    return false;
  }
  if (!Out.Params.isObject()) {
    Err.Code = ErrorCode::BadRequest;
    Err.Message = "request must be a JSON object";
    return false;
  }
  // The id is salvaged first so every later failure can still echo it.
  // Only scalar ids are accepted; a composite id is a malformed request.
  if (const JsonValue *Id = Out.Params.get("id")) {
    if (Id->isArray() || Id->isObject()) {
      Err.Code = ErrorCode::BadRequest;
      Err.Message = "\"id\" must be a string, number, bool, or null";
      return false;
    }
    Out.Id = *Id;
  }
  const JsonValue *V = Out.Params.get("v");
  if (!V || !V->isNumber() ||
      std::floor(V->numberValue()) != V->numberValue()) {
    Err.Code = ErrorCode::BadRequest;
    Err.Message = "missing or non-integer \"v\" field";
    return false;
  }
  Out.Version = static_cast<int>(V->numberValue());
  if (Out.Version != ProtocolVersion) {
    Err.Code = ErrorCode::UnsupportedVersion;
    Err.Message = formatString(
        "this server speaks protocol version %d; request carried %d",
        ProtocolVersion, Out.Version);
    return false;
  }
  const JsonValue *Op = Out.Params.get("op");
  if (!Op || !Op->isString() || Op->stringValue().empty()) {
    Err.Code = ErrorCode::BadRequest;
    Err.Message = "missing or non-string \"op\" field";
    return false;
  }
  Out.Op = Op->stringValue();
  return true;
}

std::string seldon::service::renderOkResponse(const JsonValue &Id,
                                              const std::string &ResultJson) {
  // Envelope keys in fixed order; `result` last so byte-oriented consumers
  // can splice the payload off the end of the line. The payload (megabytes
  // for a hot representation) is copied once: the reserve covers the
  // closing brace and the transport's newline.
  std::string Out = "{\"v\":" + std::to_string(ProtocolVersion) +
                    ",\"id\":" + Id.render() + ",\"ok\":true,\"result\":";
  Out.reserve(Out.size() + ResultJson.size() + 1 + ResponseNewlineRoom);
  Out += ResultJson;
  Out += '}';
  return Out;
}

std::string seldon::service::renderErrorResponse(const JsonValue &Id,
                                                 ErrorCode Code,
                                                 const std::string &Message) {
  return formatString(
      "{\"v\":%d,\"id\":%s,\"ok\":false,\"error\":{\"code\":\"%s\","
      "\"message\":\"%s\"}}",
      ProtocolVersion, Id.render().c_str(), errorCodeName(Code),
      jsonEscape(Message).c_str());
}
