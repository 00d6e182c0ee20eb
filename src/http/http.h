// HTTP/1.1 message parsing for the flagship netcomputer service.
//
// The paper's §7 case studies compose OSKit components into whole systems
// (the network computer, the standalone Java environment); this component is
// the protocol layer of that story grown to production shape: an
// incremental, segmentation-independent HTTP/1.1 parser feeding the
// selector-driven server in src/http/server.h.
//
// The parser is a pure byte-stream machine: Feed() appends whatever the
// transport delivered — one byte, a full pipeline of requests, a request
// torn mid-header — and completed requests become available in arrival
// order.  Parsing depends only on the accumulated byte sequence, never on
// segmentation, which the seeded property tests in tests/http_test.cc pin
// for both parsers by comparing every torn feed against a flat-buffer
// reference.
//
// Scope (what the flagship workload needs, nothing more): GET/HEAD/POST,
// CRLF line discipline, Content-Length bodies, HTTP/1.0-vs-1.1 keep-alive
// rules.  Transfer-Encoding is recognized and rejected (kError — the server
// answers 501) rather than silently mis-framed.  Header fields are validated
// and counted against the limit but not kept: framing is all the server and
// the load generators read from them.

#ifndef OSKIT_SRC_HTTP_HTTP_H_
#define OSKIT_SRC_HTTP_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>

namespace oskit::http {

struct Request {
  std::string method;   // "GET", "HEAD", "POST", ...
  std::string target;   // raw request-target, query string included
  int version_major = 1;
  int version_minor = 1;
  std::string body;      // Content-Length bytes, possibly empty
  bool keep_alive = true;
};

enum class ParseStatus {
  kNeedMore,  // no complete request buffered yet
  kRequest,   // at least one complete request ready (TakeRequest pops)
  kError,     // stream is malformed; sticky until Reset
};

// Client-side counterpart for loadgen: parses status-line + headers +
// Content-Length body responses (exactly what the server emits).
struct Response {
  int status = 0;
  int version_major = 1;
  int version_minor = 1;
  std::string body;
  bool keep_alive = true;
};

namespace internal {

// The one framing loop under both parsers.  Each Feed resumes the blank-line
// search where the previous one stopped, parses a head once (over
// string_views into the bytes), then appends body bytes straight from the
// caller's buffer into the pending message until its Content-Length is met.
// A parser holds only pending bytes: `buf_` is the unparsed part of a head
// torn across Feeds, and a completed message leaves with its own body, so no
// buffer keeps the capacity of the largest message seen.
template <typename Message>
class Framer {
 public:
  struct Limits {
    size_t max_line;     // first line, checked before its CRLF arrives
    size_t max_head;     // first line + headers + blank line
    size_t max_headers;
    uint64_t max_body;
  };

  explicit Framer(const Limits& limits) : limits_(limits) {}

  // Appends transport bytes and parses as far as possible.  Once the stream
  // has errored every further Feed returns kError (a malformed stream has
  // no recoverable framing).
  ParseStatus Feed(const void* data, size_t len);

  ParseStatus status() const {
    return failed_ ? ParseStatus::kError
                   : ready_.empty() ? ParseStatus::kNeedMore
                                    : ParseStatus::kRequest;
  }

  bool HasMessage() const { return !ready_.empty(); }

  // Pops the oldest completed message.  Only valid when HasMessage().
  Message TakeMessage() {
    Message m = std::move(ready_.front());
    ready_.pop_front();
    return m;
  }

  // Reason for kError ("" while healthy).
  const char* error() const { return error_; }

  // Bytes buffered but not yet part of a completed message.
  size_t pending_bytes() const { return buf_.size() + held_; }

  void Reset() { *this = Framer(limits_); }

 private:
  // Parses a complete head into `pending_` and starts its body; nullptr or a
  // static error reason.
  const char* StartMessage(std::string_view head);
  void Complete();
  ParseStatus Fail(const char* reason, size_t held);

  Limits limits_;
  std::string buf_;         // head bytes torn across Feeds
  int matched_ = 0;         // bytes of "\r\n\r\n" matched at the end of buf_
  bool saw_crlf_ = false;   // the head's first line has ended
  Message pending_;         // head parsed, body in flight
  uint64_t body_left_ = 0;
  size_t held_ = 0;         // pending bytes outside buf_: head + body so far
  std::deque<Message> ready_;
  const char* error_ = "";
  bool failed_ = false;
};

}  // namespace internal

class RequestParser : private internal::Framer<Request> {
 public:
  static constexpr size_t kMaxRequestLine = 4096;
  static constexpr size_t kMaxHeaderBytes = 16 * 1024;  // line + headers
  static constexpr size_t kMaxHeaders = 64;
  static constexpr uint64_t kMaxBody = 1 << 20;

  RequestParser()
      : Framer({kMaxRequestLine, kMaxHeaderBytes, kMaxHeaders, kMaxBody}) {}

  using Framer::Feed, Framer::status, Framer::error, Framer::pending_bytes,
      Framer::Reset;
  bool HasRequest() const { return HasMessage(); }
  Request TakeRequest() { return TakeMessage(); }
};

// Responses have no size limits: the load generators trust the server.
class ResponseParser : private internal::Framer<Response> {
 public:
  ResponseParser()
      : Framer({SIZE_MAX, SIZE_MAX, /*max_headers=*/64, UINT64_MAX}) {}

  using Framer::Feed, Framer::status, Framer::error, Framer::Reset;
  bool HasResponse() const { return HasMessage(); }
  Response TakeResponse() { return TakeMessage(); }
};

// Appends a response head (status line with the canonical reason + the
// standard header block + blank line) to `out`.  The caller appends the body
// itself — the server streams file bodies in after the head.
void AppendResponseHead(std::string* out, int status, size_t content_length,
                        const char* content_type, bool keep_alive);

// Canonical reason phrase for the status codes the server emits.
const char* StatusReason(int status);

// ASCII case-insensitive string equality (header names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

}  // namespace oskit::http

#endif  // OSKIT_SRC_HTTP_HTTP_H_
