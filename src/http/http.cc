#include "src/http/http.h"

#include <algorithm>
#include <cstdio>

namespace oskit::http {

namespace {

// Announced lengths reserve at most this much up front; a larger body grows
// as its bytes actually arrive.
constexpr uint64_t kMaxBodyReserve = 1 << 20;
constexpr uint64_t kNoLength = ~uint64_t{0};

// ASCII classes, so header parsing never consults the locale.
struct AsciiClasses {
  char lower[256];
  bool token[256];  // RFC 7230 tchar
};

constexpr AsciiClasses MakeAsciiClasses() {
  AsciiClasses t{};
  for (int c = 0; c < 256; ++c) {
    bool upper = c >= 'A' && c <= 'Z';
    t.lower[c] = static_cast<char>(upper ? c + ('a' - 'A') : c);
    t.token[c] = upper || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  }
  for (char c : std::string_view("!#$%&'*+-.^_`|~")) {
    t.token[static_cast<unsigned char>(c)] = true;
  }
  return t;
}

constexpr AsciiClasses kAscii = MakeAsciiClasses();

bool IsTokenChar(char c) { return kAscii.token[static_cast<unsigned char>(c)]; }

// Parses a non-negative decimal; false on overflow/empty/non-digits.
bool ParseDecimal(std::string_view s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9' || v > (~uint64_t{0} - 9) / 10) {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parses "HTTP/<d>.<d>"; false on anything else.
bool ParseVersion(std::string_view s, int* major, int* minor) {
  if (s.size() != 8 || s.substr(0, 5) != "HTTP/" || s[6] != '.' ||
      s[5] < '0' || s[5] > '9' || s[7] < '0' || s[7] > '9') {
    return false;
  }
  *major = s[5] - '0';
  *minor = s[7] - '0';
  return true;
}

// What the header block says about framing the body.
struct Framing {
  uint64_t content_length = kNoLength;
  bool keep_alive;  // seeded with the version's default
  bool reject_te = false;
};

// Validates the header lines (each CRLF-terminated), counts them against
// `max_headers` and resolves framing; no header is kept.  Shared by both
// head parsers; nullptr on success or a static error reason.
const char* ParseFields(std::string_view fields, size_t max_headers,
                        Framing* framing) {
  size_t count = 0;
  while (!fields.empty()) {
    size_t eol = fields.find("\r\n");  // the head's framing guarantees one
    std::string_view line = fields.substr(0, eol);
    fields.remove_prefix(eol + 2);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return "header line missing name";
    }
    std::string_view name = line.substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) {
        return "header name has illegal character";
      }
    }
    std::string_view value = TrimOws(line.substr(colon + 1));
    for (char c : value) {
      if (static_cast<unsigned char>(c) < 0x20 && c != '\t') {
        return "header value has control character";
      }
    }
    if (++count > max_headers) {
      return "too many headers";
    }
    if (EqualsIgnoreCase(name, "content-length")) {
      uint64_t v = 0;
      if (!ParseDecimal(value, &v)) {
        return "bad Content-Length";
      }
      if (framing->content_length != kNoLength &&
          framing->content_length != v) {
        return "conflicting Content-Length";
      }
      framing->content_length = v;
    } else if (EqualsIgnoreCase(name, "transfer-encoding")) {
      framing->reject_te = true;
    } else if (EqualsIgnoreCase(name, "connection")) {
      if (EqualsIgnoreCase(value, "close")) {
        framing->keep_alive = false;
      } else if (EqualsIgnoreCase(value, "keep-alive")) {
        framing->keep_alive = true;
      }
    }
  }
  return nullptr;
}

// Request head: request line + header lines.
const char* ParseHead(std::string_view line, std::string_view fields,
                      size_t max_headers, Request* req, uint64_t* body_len) {
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return "malformed request line";
  }
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method.empty() || target.empty()) {
    return "malformed request line";
  }
  for (char c : method) {
    if (!IsTokenChar(c)) {
      return "malformed method";
    }
  }
  for (char c : target) {
    if (static_cast<unsigned char>(c) <= 0x20 || c == 0x7f) {
      return "malformed request target";
    }
  }
  if (!ParseVersion(line.substr(sp2 + 1), &req->version_major,
                    &req->version_minor)) {
    return "malformed HTTP version";
  }
  if (req->version_major != 1) {
    return "unsupported HTTP major version";
  }
  req->method = method;
  req->target = target;
  Framing framing{.keep_alive = req->version_minor >= 1};  // 1.0 defaults off
  if (const char* reason = ParseFields(fields, max_headers, &framing)) {
    return reason;
  }
  if (framing.reject_te) {
    // No chunked support: mis-framing the body would desynchronize the
    // whole connection, so refuse loudly (server answers 501).
    return "Transfer-Encoding not supported";
  }
  req->keep_alive = framing.keep_alive;
  *body_len = framing.content_length == kNoLength ? 0 : framing.content_length;
  return nullptr;
}

// Response head: status line + header lines.
const char* ParseHead(std::string_view line, std::string_view fields,
                      size_t max_headers, Response* resp, uint64_t* body_len) {
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return "malformed status line";
  }
  if (!ParseVersion(line.substr(0, sp1), &resp->version_major,
                    &resp->version_minor)) {
    return "malformed HTTP version";
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  uint64_t code = 0;
  if (!ParseDecimal(line.substr(sp1 + 1, sp2 - sp1 - 1), &code) ||
      code < 100 || code > 999) {
    return "malformed status code";
  }
  resp->status = static_cast<int>(code);
  Framing framing{.keep_alive = resp->version_minor >= 1};
  if (const char* reason = ParseFields(fields, max_headers, &framing)) {
    return reason;
  }
  if (framing.reject_te || framing.content_length == kNoLength) {
    // The loadgen protocol requires explicitly framed responses; a
    // missing Content-Length would mean read-until-close.
    return "response without Content-Length";
  }
  resp->keep_alive = framing.keep_alive;
  *body_len = framing.content_length;
  return nullptr;
}

}  // namespace

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (kAscii.lower[static_cast<unsigned char>(a[i])] !=
        kAscii.lower[static_cast<unsigned char>(b[i])]) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Framer
// ---------------------------------------------------------------------------

namespace internal {

template <typename Message>
ParseStatus Framer<Message>::Feed(const void* data, size_t len) {
  if (failed_) {
    return ParseStatus::kError;
  }
  const char* p = static_cast<const char*>(data);
  const char* const end = p + len;
  while (p < end) {
    if (held_ != 0) {
      size_t n = static_cast<size_t>(
          std::min<uint64_t>(body_left_, static_cast<size_t>(end - p)));
      pending_.body.append(p, n);
      p += n;
      held_ += n;
      body_left_ -= n;
      if (body_left_ == 0) {
        Complete();
      }
      continue;
    }
    // Resume the blank-line search where the last Feed stopped.  On a
    // mismatch the only live prefix of "\r\n\r\n" is a lone '\r'.
    const char* q = p;
    while (q < end && matched_ < 4) {
      char c = *q++;
      matched_ = c == "\r\n\r\n"[matched_] ? matched_ + 1 : c == '\r';
      saw_crlf_ |= matched_ == 2;
    }
    // A head whole within this Feed parses in place; a torn one collects.
    std::string_view head(p, static_cast<size_t>(q - p));
    if (!buf_.empty() || matched_ < 4) {
      buf_.append(head);
      head = buf_;
    }
    p = q;
    if (matched_ < 4) {
      // An early limit error is reportable before the blank line arrives.
      if (buf_.size() > limits_.max_head) {
        return Fail("header block too large", buf_.size());
      }
      if (!saw_crlf_ && buf_.size() > limits_.max_line) {
        return Fail("request line too long", buf_.size());
      }
      break;
    }
    matched_ = 0;
    saw_crlf_ = false;
    if (const char* reason = StartMessage(head)) {
      return Fail(reason, head.size() + static_cast<size_t>(end - p));
    }
    std::string().swap(buf_);  // release the torn head's storage
  }
  return status();
}

template <typename Message>
const char* Framer<Message>::StartMessage(std::string_view head) {
  if (head.size() > limits_.max_head) {
    return "header block too large";
  }
  size_t line_end = head.find("\r\n");
  if (line_end > limits_.max_line) {
    return "request line too long";
  }
  // Header lines run from after the first line to before the blank line.
  std::string_view fields = head.substr(line_end + 2);
  fields.remove_suffix(2);
  uint64_t body_len = 0;
  if (const char* reason = ParseHead(head.substr(0, line_end), fields,
                                     limits_.max_headers, &pending_,
                                     &body_len)) {
    return reason;
  }
  if (body_len > limits_.max_body) {
    return "body too large";
  }
  held_ = head.size();
  body_left_ = body_len;
  if (body_len == 0) {
    Complete();
  } else {
    pending_.body.reserve(
        static_cast<size_t>(std::min(body_len, kMaxBodyReserve)));
  }
  return nullptr;
}

template <typename Message>
void Framer<Message>::Complete() {
  ready_.push_back(std::move(pending_));
  pending_ = Message();
  held_ = 0;
}

template <typename Message>
ParseStatus Framer<Message>::Fail(const char* reason, size_t held) {
  failed_ = true;
  error_ = reason;
  held_ = held;
  pending_ = Message();
  std::string().swap(buf_);
  return ParseStatus::kError;
}

template class Framer<Request>;
template class Framer<Response>;

}  // namespace internal

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

const char* StatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string FormatResponseHead(int status, size_t content_length,
                               const char* content_type, bool keep_alive) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: %s\r\n"
                "\r\n",
                status, StatusReason(status), content_type, content_length,
                keep_alive ? "keep-alive" : "close");
  return std::string(head);
}

}  // namespace oskit::http
