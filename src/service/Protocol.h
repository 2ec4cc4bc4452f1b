//===- service/Protocol.h - Versioned request/response framing ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `seldond` wire protocol: line-delimited JSON, one request per line,
/// one response line per request, in order. Every request carries a
/// protocol version and a caller-chosen id that is echoed verbatim:
///
///   -> {"v":1,"id":1,"op":"status"}
///   <- {"v":1,"id":1,"ok":true,"result":{...}}
///   -> {"v":1,"id":"q7","op":"query","rep":"bleach.clean()","role":"sanitizer"}
///   <- {"v":1,"id":"q7","ok":true,"result":{"rep":"bleach.clean()",...}}
///
/// Failures are *structured errors*, never closed connections or crashes:
///
///   <- {"v":1,"id":null,"ok":false,"error":{"code":"bad-json","message":"..."}}
///
/// The envelope keys are emitted in a fixed order (v, id, ok, then result
/// or error last), so byte-oriented consumers can splice the result out of
/// a response line without a JSON parser. Version gating happens before
/// anything else is interpreted: a request whose `v` is not the supported
/// version is answered with `unsupported-version` and the fields are not
/// touched, which is what lets the API evolve under long-lived clients.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_PROTOCOL_H
#define SELDON_SERVICE_PROTOCOL_H

#include "service/Json.h"

#include <cstddef>
#include <string>

namespace seldon {
namespace service {

/// The protocol version this build speaks. Bump only with a translation
/// path for the previous version.
constexpr int ProtocolVersion = 1;

/// Default cap on one request line (bytes, newline excluded). A line
/// beyond the cap is answered with an `oversized` error and discarded
/// without being parsed.
constexpr size_t DefaultMaxRequestBytes = 1 << 20;

/// Machine-readable error codes; the `code` field of a structured error.
enum class ErrorCode {
  BadJson,            ///< The line is not a JSON object.
  BadRequest,         ///< Missing/mistyped envelope or parameter field.
  UnsupportedVersion, ///< `v` is not ProtocolVersion.
  UnknownOp,          ///< `op` names no operation.
  Oversized,          ///< Request line exceeded the byte cap.
  Overloaded,         ///< Admission queue full; retry later.
  Deadline,           ///< Per-request deadline expired mid-execution.
  Internal,           ///< Handler threw; message carries the diagnostic.
  ShuttingDown,       ///< Service is draining after `shutdown`.
};

/// The wire name of \p Code ("bad-json", "unsupported-version", ...).
const char *errorCodeName(ErrorCode Code);

/// One parsed, version-checked request envelope.
struct Request {
  int Version = 0;
  /// The caller's id, echoed verbatim into the response. Null when the
  /// request carried none (or could not be parsed far enough to find it).
  JsonValue Id;
  std::string Op;
  /// The whole request object; operations read their parameters from it.
  JsonValue Params;
};

/// A structured failure produced while parsing or executing a request.
struct RequestError {
  ErrorCode Code = ErrorCode::Internal;
  std::string Message;
};

/// Parses and validates one request line (already stripped of its
/// newline). Enforces, in order: the \p MaxBytes frame cap, JSON
/// well-formedness, object shape, version `v`, and a string `op`. The id
/// is salvaged whenever the line parses as an object, so even error
/// responses correlate with the request that caused them. Returns false
/// with \p Err filled (and \p Out.Id set to the salvaged id) on failure.
bool parseRequest(const std::string &Line, size_t MaxBytes, Request &Out,
                  RequestError &Err);

/// Room a success envelope keeps past its last byte: a transport
/// terminates the line with '\n' in place, without copying it.
constexpr size_t ResponseNewlineRoom = 1;

/// Renders a success envelope: {"v":1,"id":<id>,"ok":true,"result":<R>}.
/// \p ResultJson must already be rendered JSON. No trailing newline, but
/// ResponseNewlineRoom bytes of capacity for one.
std::string renderOkResponse(const JsonValue &Id,
                             const std::string &ResultJson);

/// Renders a failure envelope:
/// {"v":1,"id":<id>,"ok":false,"error":{"code":"...","message":"..."}}.
std::string renderErrorResponse(const JsonValue &Id, ErrorCode Code,
                                const std::string &Message);

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_PROTOCOL_H
