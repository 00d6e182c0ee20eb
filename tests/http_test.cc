// HTTP component tests: the incremental RequestParser/ResponseParser unit
// behavior (framing, keep-alive rules, Transfer-Encoding rejection, limits,
// heap held after large messages), a seeded property harness proving parsing
// is segmentation-independent — every random request or response stream
// parses byte-identically whether it arrives in one segment, one byte at a
// time, or torn at random TCP boundaries — and an in-world integration run
// of the selector-driven http::Server (static FFS content, a dynamic route,
// pipelining, 404s, clean quit-path drain).
//
// Seeds: the property suite runs over five fixed seeds.  Setting
// PROPERTY_SEED=<n> narrows the run to that seed, so a CI failure line
// ("rerun: PROPERTY_SEED=...") reproduces directly.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
#include "src/http/http.h"
#include "src/http/server.h"
#include "src/testbed/testbed.h"

// Live heap bytes of the whole test binary, kept by the replaced global
// operator new/delete below so the retention tests can see what a parser
// holds on to.
static std::atomic<size_t> g_live_heap_bytes{0};

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_heap_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_heap_bytes.fetch_sub(malloc_usable_size(p),
                                std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace oskit::http {
namespace {

using oskit::Rng;
using oskit::VirtualSwitch;
using oskit::testbed::Host;
using oskit::testbed::NetConfig;
using oskit::testbed::World;

// ---------------------------------------------------------------------------
// RequestParser units
// ---------------------------------------------------------------------------

TEST(RequestParserTest, ParsesSimpleGet) {
  RequestParser parser;
  const char wire[] =
      "GET /index.html?q=1 HTTP/1.1\r\n"
      "Host: www\r\n"
      "X-Trace: abc\r\n"
      "\r\n";
  EXPECT_EQ(ParseStatus::kRequest, parser.Feed(wire, sizeof(wire) - 1));
  ASSERT_TRUE(parser.HasRequest());
  Request req = parser.TakeRequest();
  EXPECT_EQ("GET", req.method);
  EXPECT_EQ("/index.html?q=1", req.target);
  EXPECT_EQ(1, req.version_major);
  EXPECT_EQ(1, req.version_minor);
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(req.body.empty());
  EXPECT_EQ(0u, parser.pending_bytes());
  EXPECT_EQ(ParseStatus::kNeedMore, parser.status());
}

TEST(RequestParserTest, ContentLengthFramesTheBody) {
  RequestParser parser;
  // The body is opaque octets: embedded CRLFs must not confuse framing.
  std::string body = "a=1\r\n\r\nb=2\0c";
  body.push_back('\0');
  std::string wire = "POST /submit HTTP/1.1\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body;
  // Body still in flight: no request yet.
  EXPECT_EQ(ParseStatus::kNeedMore,
            parser.Feed(wire.data(), wire.size() - 3));
  EXPECT_EQ(ParseStatus::kRequest,
            parser.Feed(wire.data() + wire.size() - 3, 3));
  Request req = parser.TakeRequest();
  EXPECT_EQ("POST", req.method);
  EXPECT_EQ(body, req.body);
}

TEST(RequestParserTest, PipelinedRequestsPopInArrivalOrder) {
  RequestParser parser;
  const char wire[] =
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(ParseStatus::kRequest, parser.Feed(wire, sizeof(wire) - 1));
  EXPECT_EQ("/a", parser.TakeRequest().target);
  EXPECT_EQ("/b", parser.TakeRequest().target);
  Request last = parser.TakeRequest();
  EXPECT_EQ("/c", last.target);
  EXPECT_FALSE(last.keep_alive);
  EXPECT_FALSE(parser.HasRequest());
}

TEST(RequestParserTest, KeepAliveRulesPerVersion) {
  struct Case {
    const char* wire;
    bool keep_alive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.wire);
    RequestParser parser;
    ASSERT_EQ(ParseStatus::kRequest, parser.Feed(c.wire, std::strlen(c.wire)));
    EXPECT_EQ(c.keep_alive, parser.TakeRequest().keep_alive);
  }
}

TEST(RequestParserTest, MalformedStreamsErrorAndStick) {
  struct Case {
    const char* wire;
    const char* error;
  } cases[] = {
      {"no-spaces-here\r\n\r\n", "malformed request line"},
      {"GET /a b HTTP/1.1\r\n\r\n", "malformed request line"},
      {"G<>T / HTTP/1.1\r\n\r\n", "malformed method"},
      {"GET / HTTPX/1.1\r\n\r\n", "malformed HTTP version"},
      {"GET / HTTP/2.0\r\n\r\n", "unsupported HTTP major version"},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       "Transfer-Encoding not supported"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.wire);
    RequestParser parser;
    EXPECT_EQ(ParseStatus::kError, parser.Feed(c.wire, std::strlen(c.wire)));
    EXPECT_STREQ(c.error, parser.error());
    // The error is sticky: a malformed stream has no recoverable framing.
    EXPECT_EQ(ParseStatus::kError, parser.Feed("GET / HTTP/1.1\r\n\r\n", 18));
    EXPECT_FALSE(parser.HasRequest());
    // Reset recovers the parser for a fresh connection.
    parser.Reset();
    EXPECT_EQ(ParseStatus::kRequest, parser.Feed("GET / HTTP/1.1\r\n\r\n", 18));
  }
}

TEST(RequestParserTest, LimitsAreEnforced) {
  {
    // Request-line overflow is reportable before the CRLF even arrives.
    RequestParser parser;
    std::string line = "GET /" + std::string(RequestParser::kMaxRequestLine, 'a');
    EXPECT_EQ(ParseStatus::kError, parser.Feed(line.data(), line.size()));
    EXPECT_STREQ("request line too long", parser.error());
  }
  {
    // Exactly kMaxHeaders header lines parse; one more is refused.
    for (size_t n : {RequestParser::kMaxHeaders, RequestParser::kMaxHeaders + 1}) {
      RequestParser parser;
      std::string wire = "GET / HTTP/1.1\r\n";
      for (size_t i = 0; i < n; ++i) {
        wire += "X-H" + std::to_string(i) + ": v\r\n";
      }
      wire += "\r\n";
      bool over = n > RequestParser::kMaxHeaders;
      EXPECT_EQ(over ? ParseStatus::kError : ParseStatus::kRequest,
                parser.Feed(wire.data(), wire.size()));
      EXPECT_STREQ(over ? "too many headers" : "", parser.error());
    }
  }
  {
    RequestParser parser;
    std::string wire = "GET / HTTP/1.1\r\nX-Pad: " +
                       std::string(RequestParser::kMaxHeaderBytes, 'p') +
                       "\r\n\r\n";
    EXPECT_EQ(ParseStatus::kError, parser.Feed(wire.data(), wire.size()));
    EXPECT_STREQ("header block too large", parser.error());
  }
  {
    // An oversized Content-Length claim is refused without buffering the
    // body.
    RequestParser parser;
    std::string wire = "POST / HTTP/1.1\r\nContent-Length: " +
                       std::to_string(RequestParser::kMaxBody + 1) + "\r\n\r\n";
    EXPECT_EQ(ParseStatus::kError, parser.Feed(wire.data(), wire.size()));
    EXPECT_STREQ("body too large", parser.error());
    EXPECT_EQ(wire.size(), parser.pending_bytes());
  }
}

// ---------------------------------------------------------------------------
// ResponseParser + head formatting
// ---------------------------------------------------------------------------

// Builds a wire the way the server stages one: each head formatted straight
// onto the bytes before it, then its body.
void AppendResponse(std::string* wire, int status, const std::string& body,
                    const char* content_type, bool keep_alive) {
  AppendResponseHead(wire, status, body.size(), content_type, keep_alive);
  *wire += body;
}

TEST(ResponseParserTest, ParsesPipelinedResponses) {
  std::string wire;
  AppendResponse(&wire, 200, "hello", "text/plain", true);
  AppendResponse(&wire, 404, "gon", "text/plain", false);
  ResponseParser parser;
  EXPECT_EQ(ParseStatus::kRequest, parser.Feed(wire.data(), wire.size()));
  Response first = parser.TakeResponse();
  EXPECT_EQ(200, first.status);
  EXPECT_EQ("hello", first.body);
  EXPECT_TRUE(first.keep_alive);
  Response second = parser.TakeResponse();
  EXPECT_EQ(404, second.status);
  EXPECT_EQ("gon", second.body);
  EXPECT_FALSE(second.keep_alive);
}

TEST(ResponseParserTest, MalformedStatusLineErrors) {
  ResponseParser parser;
  const char wire[] = "HTTP/1.1 2xx Weird\r\n\r\n";
  EXPECT_EQ(ParseStatus::kError, parser.Feed(wire, sizeof(wire) - 1));
  EXPECT_STREQ("malformed status code", parser.error());
}

TEST(ResponseParserTest, AnnouncedLengthDoesNotAllocateAhead) {
  // Responses have no body limit, so a huge Content-Length must not turn
  // into a huge reservation before the bytes exist.
  const char wire[] = "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n"
                      "hello";
  const size_t before = g_live_heap_bytes.load();
  ResponseParser parser;
  EXPECT_EQ(ParseStatus::kNeedMore, parser.Feed(wire, sizeof(wire) - 1));
  EXPECT_LE(g_live_heap_bytes.load() - before, size_t{2} << 20);
}

// ---------------------------------------------------------------------------
// Retention: a parser holds only pending bytes
// ---------------------------------------------------------------------------

// Heap bytes `Parser` holds after `run` fed it, beyond what a fresh parser
// holds.  Completed messages are taken (and dropped) as they appear.
template <typename Parser, typename Run>
long RetainedBeyondFresh(Run run) {
  size_t base = g_live_heap_bytes.load();
  long fresh;
  {
    Parser parser;
    fresh = static_cast<long>(g_live_heap_bytes.load() - base);
  }
  Parser parser;
  run(parser);
  return static_cast<long>(g_live_heap_bytes.load() - base) - fresh;
}

// Feeds `wire` in 4 KB reads, as the server and the load generators do.
template <typename Parser>
void FeedInReads(Parser& parser, const std::string& wire) {
  for (size_t off = 0; off < wire.size(); off += 4096) {
    parser.Feed(wire.data() + off, std::min<size_t>(4096, wire.size() - off));
  }
}

TEST(ParserRetentionTest, ResponseParserDropsLargeBodiesOnceTaken) {
  std::string wire;
  for (int i = 0; i < 8; ++i) {
    AppendResponse(&wire, 200, std::string(64 * 1024, static_cast<char>('a' + i)),
                   "application/x", true);
  }
  AppendResponse(&wire, 200, std::string(100, 'z'), "text/plain", true);
  size_t taken = 0;
  long retained = RetainedBeyondFresh<ResponseParser>(
      [&](ResponseParser& parser) {
        FeedInReads(parser, wire);
        for (; parser.HasResponse(); ++taken) {
          parser.TakeResponse();
        }
      });
  EXPECT_EQ(9u, taken);
  EXPECT_LE(retained, 4096);
}

TEST(ParserRetentionTest, RequestParserDropsLargeBodiesOnceTaken) {
  std::string wire = "POST /upload HTTP/1.1\r\nContent-Length: " +
                     std::to_string(512 * 1024) + "\r\n\r\n" +
                     std::string(512 * 1024, 'u') + "GET / HTTP/1.1\r\n\r\n";
  size_t taken = 0;
  long retained = RetainedBeyondFresh<RequestParser>(
      [&](RequestParser& parser) {
        FeedInReads(parser, wire);
        for (; parser.HasRequest(); ++taken) {
          parser.TakeRequest();
        }
      });
  EXPECT_EQ(2u, taken);
  EXPECT_LE(retained, 4096);
}

// ---------------------------------------------------------------------------
// Property: parsing is segmentation-independent
// ---------------------------------------------------------------------------

// What a parser extracted from one complete stream: every completed request
// plus the terminal state.
struct ParseOutcome {
  std::vector<Request> requests;
  ParseStatus final_status = ParseStatus::kNeedMore;
  std::string error;
  size_t pending = 0;
};

bool SameRequest(const Request& a, const Request& b) {
  return a.method == b.method && a.target == b.target &&
         a.version_major == b.version_major &&
         a.version_minor == b.version_minor && a.body == b.body &&
         a.keep_alive == b.keep_alive;
}

// Feeds `wire` in segments whose sizes come from `next_len`, draining
// completed requests as they appear (as the server does).
ParseOutcome ParseSegmented(const std::string& wire,
                            const std::function<size_t(size_t remaining)>&
                                next_len) {
  RequestParser parser;
  ParseOutcome out;
  size_t off = 0;
  while (off < wire.size()) {
    size_t n = next_len(wire.size() - off);
    parser.Feed(wire.data() + off, n);
    off += n;
    while (parser.HasRequest()) {
      out.requests.push_back(parser.TakeRequest());
    }
  }
  out.final_status = parser.status();
  out.error = parser.error();
  out.pending = parser.pending_bytes();
  return out;
}

// A random well-formed request appended to `wire`; bodies are arbitrary
// octets (embedded CRLFs included) framed by Content-Length.
void AppendRandomRequest(Rng& rng, std::string* wire) {
  static const char* const kMethods[] = {"GET", "HEAD", "POST", "PUT"};
  const char* method = kMethods[rng.Below(4)];
  std::string target = "/r";
  size_t target_len = rng.Range(1, 40);
  for (size_t i = 0; i < target_len; ++i) {
    target += static_cast<char>('a' + rng.Below(26));
  }
  if (rng.Percent(30)) {
    target += "?k=" + std::to_string(rng.Below(1000));
  }
  *wire += std::string(method) + " " + target + " HTTP/1." +
           (rng.Percent(20) ? "0" : "1") + "\r\n";
  size_t header_count = rng.Below(5);
  for (size_t i = 0; i < header_count; ++i) {
    std::string value;
    size_t value_len = rng.Below(30);
    for (size_t j = 0; j < value_len; ++j) {
      value += static_cast<char>(' ' + rng.Below(94));  // printable
    }
    *wire += "X-R" + std::to_string(i) + ": " + value + "\r\n";
  }
  if (rng.Percent(15)) {
    *wire += "Connection: close\r\n";
  }
  if (std::strcmp(method, "POST") == 0 || std::strcmp(method, "PUT") == 0) {
    std::string body;
    size_t body_len = rng.Below(2000);
    for (size_t i = 0; i < body_len; ++i) {
      body += static_cast<char>(rng.Next());  // any octet, CR/LF included
    }
    *wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    *wire += body;
  } else {
    *wire += "\r\n";
  }
}

// A stream-terminating flaw: the parser must end in the same state no
// matter how the bytes were segmented.
void AppendMalformedTail(Rng& rng, std::string* wire) {
  switch (rng.Below(4)) {
    case 0:
      *wire += "no-spaces-here\r\n\r\n";
      break;
    case 1:
      *wire += "GET /x HTTP/3.0\r\n\r\n";
      break;
    case 2:
      *wire += "POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
      break;
    default: {
      // Truncated request: ends mid-header, final state stays kNeedMore.
      std::string full;
      AppendRandomRequest(rng, &full);
      *wire += full.substr(0, full.size() - rng.Range(1, full.size()));
      break;
    }
  }
}

class HttpPropTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HttpPropTest, TornFeedsMatchFlatReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr size_t kCases = 300;

  for (size_t case_i = 0; case_i < kCases; ++case_i) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << case_i << " (rerun: PROPERTY_SEED=" << seed
                 << " ./http_test)");

    std::string wire;
    size_t request_count = rng.Range(1, 6);
    for (size_t i = 0; i < request_count; ++i) {
      AppendRandomRequest(rng, &wire);
    }
    bool malformed = rng.Percent(30);
    if (malformed) {
      AppendMalformedTail(rng, &wire);
    }

    // Reference: the whole stream in one segment.
    ParseOutcome flat =
        ParseSegmented(wire, [](size_t remaining) { return remaining; });
    if (!malformed) {
      ASSERT_EQ(request_count, flat.requests.size());
      ASSERT_EQ(ParseStatus::kNeedMore, flat.final_status);
    }

    // Torn at every byte, and torn at random TCP-segment boundaries: both
    // must extract byte-identical requests and land in the same final state.
    ParseOutcome torn = ParseSegmented(wire, [](size_t) { return size_t{1}; });
    ParseOutcome random_seg = ParseSegmented(wire, [&rng](size_t remaining) {
      return std::min(remaining, size_t{1} + rng.Below(1460));
    });

    for (const ParseOutcome* out : {&torn, &random_seg}) {
      ASSERT_EQ(flat.requests.size(), out->requests.size());
      for (size_t i = 0; i < flat.requests.size(); ++i) {
        ASSERT_TRUE(SameRequest(flat.requests[i], out->requests[i]))
            << "request " << i << " differs";
      }
      ASSERT_EQ(flat.final_status, out->final_status);
      ASSERT_EQ(flat.error, out->error);
      ASSERT_EQ(flat.pending, out->pending);
    }
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

// PROPERTY_SEED=<n> narrows the sweep to one reproducing seed.
std::vector<uint64_t> PropertySeeds() {
  if (const char* env = std::getenv("PROPERTY_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {0x477b0001, 0x477b0002, 0x477b0003, 0x477b0004, 0x477b0005};
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpPropTest,
                         ::testing::ValuesIn(PropertySeeds()));

// The same property for the client-side ResponseParser: what the load
// generators extract must not depend on how TCP tore the response stream.
struct ResponseOutcome {
  std::vector<Response> responses;
  ParseStatus final_status = ParseStatus::kNeedMore;
  std::string error;
};

bool SameResponse(const Response& a, const Response& b) {
  return a.status == b.status && a.version_major == b.version_major &&
         a.version_minor == b.version_minor && a.body == b.body &&
         a.keep_alive == b.keep_alive;
}

ResponseOutcome ParseResponsesSegmented(
    const std::string& wire,
    const std::function<size_t(size_t remaining)>& next_len) {
  ResponseParser parser;
  ResponseOutcome out;
  size_t off = 0;
  while (off < wire.size()) {
    size_t n = next_len(wire.size() - off);
    parser.Feed(wire.data() + off, n);
    off += n;
    while (parser.HasResponse()) {
      out.responses.push_back(parser.TakeResponse());
    }
  }
  out.final_status = parser.status();
  out.error = parser.error();
  return out;
}

// A random well-formed response; bodies are arbitrary octets and some carry
// an embedded blank line, which must never be taken for a head terminator.
void AppendRandomResponse(Rng& rng, std::string* wire) {
  static const int kCodes[] = {200, 204, 301, 404, 500, 503};
  int code = kCodes[rng.Below(6)];
  *wire += std::string("HTTP/1.") + (rng.Percent(20) ? "0" : "1") + " " +
           std::to_string(code);
  if (rng.Percent(90)) {
    *wire += std::string(" ") + StatusReason(code);
  }
  *wire += "\r\n";
  size_t header_count = rng.Below(5);
  for (size_t i = 0; i < header_count; ++i) {
    std::string value;
    size_t value_len = rng.Below(30);
    for (size_t j = 0; j < value_len; ++j) {
      value += static_cast<char>(' ' + rng.Below(94));  // printable
    }
    *wire += "X-S" + std::to_string(i) + ": " + value + "\r\n";
  }
  if (rng.Percent(30)) {
    *wire += rng.Percent(50) ? "Connection: close\r\n"
                             : "connection: Keep-Alive\r\n";
  }
  std::string body;
  size_t body_len = rng.Percent(20) ? 0 : rng.Below(3000);
  for (size_t i = 0; i < body_len; ++i) {
    body += static_cast<char>(rng.Next());  // any octet, CR/LF included
  }
  if (rng.Percent(40)) {
    body.insert(rng.Below(body.size() + 1), "\r\n\r\n");
  }
  *wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  *wire += body;
}

void AppendMalformedResponseTail(Rng& rng, std::string* wire) {
  switch (rng.Below(6)) {
    case 0:
      *wire += "HTTP/1.1 2xx Weird\r\n\r\n";
      break;
    case 1:
      *wire += "HTTPX/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
      break;
    case 2:
      *wire += "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
      break;
    case 3:
      *wire += "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 5"
               "\r\n\r\n";
      break;
    case 4:
      *wire += "HTTP/1.1 200 OK\r\nno colon\r\n\r\n";
      break;
    default: {
      // Truncated mid-head or mid-body: final state stays kNeedMore.
      std::string full;
      AppendRandomResponse(rng, &full);
      *wire += full.substr(0, full.size() - rng.Range(1, full.size()));
      break;
    }
  }
}

class HttpResponsePropTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HttpResponsePropTest, TornFeedsMatchFlatReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr size_t kCases = 300;

  for (size_t case_i = 0; case_i < kCases; ++case_i) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << case_i << " (rerun: PROPERTY_SEED=" << seed
                 << " ./http_test)");

    std::string wire;
    size_t response_count = rng.Range(1, 6);
    for (size_t i = 0; i < response_count; ++i) {
      AppendRandomResponse(rng, &wire);
    }
    bool malformed = rng.Percent(30);
    if (malformed) {
      AppendMalformedResponseTail(rng, &wire);
    }

    ResponseOutcome flat = ParseResponsesSegmented(
        wire, [](size_t remaining) { return remaining; });
    if (!malformed) {
      ASSERT_EQ(response_count, flat.responses.size());
      ASSERT_EQ(ParseStatus::kNeedMore, flat.final_status);
    }

    ResponseOutcome torn =
        ParseResponsesSegmented(wire, [](size_t) { return size_t{1}; });
    ResponseOutcome random_seg =
        ParseResponsesSegmented(wire, [&rng](size_t remaining) {
          return std::min(remaining, size_t{1} + rng.Below(1460));
        });

    for (const ResponseOutcome* out : {&torn, &random_seg}) {
      ASSERT_EQ(flat.responses.size(), out->responses.size());
      for (size_t i = 0; i < flat.responses.size(); ++i) {
        ASSERT_TRUE(SameResponse(flat.responses[i], out->responses[i]))
            << "response " << i << " differs";
      }
      ASSERT_EQ(flat.final_status, out->final_status);
      ASSERT_EQ(flat.error, out->error);
    }
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpResponsePropTest,
                         ::testing::ValuesIn(PropertySeeds()));

// ---------------------------------------------------------------------------
// In-world server integration
// ---------------------------------------------------------------------------

constexpr uint16_t kPort = 8080;

// Blocking request/response helper: sends `wire`, reads until `expected`
// further responses have parsed and appended to `out`.
bool Exchange(const ComPtr<Socket>& sock, const std::string& wire,
              size_t expected, std::vector<Response>* out) {
  size_t sent = 0;
  if (!Ok(sock->Send(wire.data(), wire.size(), &sent)) ||
      sent != wire.size()) {
    return false;
  }
  const size_t target = out->size() + expected;
  ResponseParser parser;
  char buf[4096];
  while (out->size() < target) {
    size_t got = 0;
    Error err = sock->Recv(buf, sizeof(buf), &got);
    if (!Ok(err) || got == 0) {
      return false;
    }
    if (parser.Feed(buf, got) == ParseStatus::kError) {
      return false;
    }
    while (parser.HasResponse()) {
      out->push_back(parser.TakeResponse());
    }
  }
  return true;
}

TEST(HttpServerWorldTest, ServesStaticDynamicAndDrainsOnQuit) {
  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 100ull * 1000 * 1000;
  sw.port.propagation_ns = 5000;
  World world(sw);
  Host& server = world.AddHost("www", NetConfig::kOskit);
  Host& client = world.AddHost("client", NetConfig::kNativeBsd);

  const std::string hello(1000, 'h');
  // A sparse file: three whole blocks of hole, then data written past them.
  const size_t hole = 3 * fs::kBlockSize;
  std::string sparse(hole, '\0');
  for (size_t i = 0; i < 5000; ++i) {
    sparse.push_back(static_cast<char>('a' + i % 26));
  }
  bool listening = false;
  bool client_done = false;
  std::unique_ptr<Server> httpd;

  world.sim().Spawn("www/httpd", [&] {
    auto disk = MemBlkIo::Create(2 * 1024 * 1024, 512);
    ASSERT_TRUE(Ok(fs::Mkfs(disk.get())));
    fs::MountOptions mo;
    mo.trace = &server.trace;
    ComPtr<FileSystem> ffs;
    ASSERT_TRUE(Ok(fs::Offs::Mount(disk.get(), mo, ffs.Receive())));
    ComPtr<Dir> root;
    ASSERT_TRUE(Ok(ffs->GetRoot(root.Receive())));
    ComPtr<File> f;
    ASSERT_TRUE(Ok(root->Create("hello.txt", 0644, f.Receive())));
    size_t n = 0;
    ASSERT_TRUE(Ok(f->Write(hello.data(), 0, hello.size(), &n)));
    ComPtr<File> holes;
    ASSERT_TRUE(Ok(root->Create("sparse.bin", 0644, holes.Receive())));
    ASSERT_TRUE(Ok(holes->Write(sparse.data() + hole, hole,
                                sparse.size() - hole, &n)));

    Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.trace = &server.trace;
    cfg.now = [&world] { return world.sim().clock().Now(); };
    httpd = std::make_unique<Server>(server.socket_factory,
                                     server.stack->CreateSelector(), root, cfg);
    httpd->AddDynRoute("/echo", [](const Request& req, std::string* body,
                                   std::string* content_type) {
      *body = req.method + " " + req.target;
      *content_type = "text/plain";
      return 200;
    });
    ASSERT_TRUE(Ok(httpd->Start()));
    listening = true;
    httpd->Run();
  });

  world.sim().Spawn("client", [&] {
    world.sim().WaitUntil([&] { return listening; });
    SimTime rtt = 0;
    client.stack->Ping(server.addr, kNsPerSec, &rtt);

    ComPtr<Socket> sock = client.MakeSocket(SockType::kStream);
    ASSERT_TRUE(Ok(sock->Connect(SockAddr{server.addr, kPort})));

    // Keep-alive static GETs on one connection.
    std::vector<Response> responses;
    ASSERT_TRUE(Exchange(sock, "GET /hello.txt HTTP/1.1\r\n\r\n", 1,
                         &responses));
    // A pipelined burst in one segment: static miss + dyn route.
    ASSERT_TRUE(Exchange(sock,
                         "GET /missing HTTP/1.1\r\n\r\n"
                         "GET /echo?x=7 HTTP/1.1\r\n\r\n",
                         2, &responses));
    ASSERT_EQ(3u, responses.size());
    EXPECT_EQ(200, responses[0].status);
    EXPECT_EQ(hello, responses[0].body);
    EXPECT_EQ(404, responses[1].status);
    EXPECT_EQ(200, responses[2].status);
    EXPECT_EQ("GET /echo?x=7", responses[2].body);

    // The sparse file arrives byte-exact: zeros for the holes, then data.
    std::vector<Response> sparse_responses;
    ASSERT_TRUE(Exchange(sock, "GET /sparse.bin HTTP/1.1\r\n\r\n", 1,
                         &sparse_responses));
    EXPECT_EQ(200, sparse_responses[0].status);
    EXPECT_TRUE(sparse_responses[0].body == sparse);

    // HEAD on its own close-delimited connection: the head must announce
    // the full Content-Length with zero body bytes after the blank line.
    ComPtr<Socket> head = client.MakeSocket(SockType::kStream);
    ASSERT_TRUE(Ok(head->Connect(SockAddr{server.addr, kPort})));
    size_t sent = 0;
    const char head_wire[] =
        "HEAD /hello.txt HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_TRUE(Ok(head->Send(head_wire, sizeof(head_wire) - 1, &sent)));
    std::string head_raw;
    char raw[1024];
    for (;;) {
      size_t got = 0;
      if (!Ok(head->Recv(raw, sizeof(raw), &got)) || got == 0) {
        break;  // EOF: close-delimited
      }
      head_raw.append(raw, got);
    }
    head.Reset();
    EXPECT_EQ(0u, head_raw.find("HTTP/1.1 200"));
    EXPECT_NE(std::string::npos,
              head_raw.find("Content-Length: " +
                            std::to_string(hello.size())));
    // Nothing after the header block.
    size_t blank = head_raw.find("\r\n\r\n");
    ASSERT_NE(std::string::npos, blank);
    EXPECT_EQ(head_raw.size(), blank + 4);

    // A malformed request gets answered and the connection closed.
    ComPtr<Socket> bad = client.MakeSocket(SockType::kStream);
    ASSERT_TRUE(Ok(bad->Connect(SockAddr{server.addr, kPort})));
    std::vector<Response> bad_responses;
    ASSERT_TRUE(Exchange(bad, "no-spaces-here\r\n\r\n", 1, &bad_responses));
    EXPECT_EQ(400, bad_responses[0].status);
    bad.Reset();

    // Quit path: the server answers, stops accepting, drains, and Run
    // returns — RunToCompletion below is the no-hang proof.
    std::vector<Response> quit_responses;
    ASSERT_TRUE(Exchange(sock,
                         "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n",
                         1, &quit_responses));
    EXPECT_EQ(200, quit_responses[0].status);
    sock.Reset();
    client_done = true;
  });

  world.RunToCompletion(60 * kNsPerSec);
  ASSERT_TRUE(client_done);

  // The malformed stream never parses into a request, but its 400 is a
  // response: 6 parsed requests, 7 responses.
  EXPECT_EQ(6u, httpd->requests());
  EXPECT_EQ(7u, httpd->responses());
  EXPECT_EQ(0u, httpd->open_conns());
  EXPECT_TRUE(httpd->stopping());

  // The attribution spans registered in the host's environment and closed
  // one request span per response; the pipelined burst was counted.
  EXPECT_EQ(7u, server.trace.registry.Value("http.span.request.count"));
  EXPECT_GE(server.trace.registry.Value("http.span.fs_read.count"), 2u);
  EXPECT_EQ(1u, server.trace.registry.Value("http.span.dyn.count"));
  EXPECT_GE(server.trace.registry.Value("http.requests.pipelined"), 1u);
  EXPECT_EQ(1u, server.trace.registry.Value("http.errors.bad_request"));
  EXPECT_EQ(1u, server.trace.registry.Value("http.errors.not_found"));

  // The static bodies went out zero-copy: the full GETs of /hello.txt and
  // /sparse.bin were staged as sendfile chunks, every body byte was queued
  // straight from the file's cached blocks or, for a hole, the shared zero
  // block (net.tx.sendfile_bytes), and none of them fell back to the copy
  // path.
  EXPECT_EQ(2u, server.trace.registry.Value("http.sendfile_responses"));
  EXPECT_EQ(hello.size() + sparse.size(),
            server.trace.registry.Value("net.tx.sendfile_bytes"));
  EXPECT_EQ(0u, server.trace.registry.Value("net.tx.sendfile_fallback_bytes"));
  httpd.reset();
}

// ---------------------------------------------------------------------------
// Connection teardown under a held population
// ---------------------------------------------------------------------------

// Forwards to a real selector but reports every harvested event twice in
// the same batch: all the originals, then the copies.  A connection closed
// while its first slot is handled therefore reappears in a later slot of
// that batch, which is the case the server's dead-flag tombstone covers.
// Were a Conn freed before its batch ended, the repeat would touch freed
// memory (an ASan report in the sanitizer job).
class RepeatingSelector final
    : public ComObject<RepeatingSelector, NetSelector> {
 public:
  explicit RepeatingSelector(ComPtr<NetSelector> inner)
      : inner_(std::move(inner)) {}

  Error Add(Socket* socket, uint32_t interest, bool edge,
            void* token) override {
    return inner_->Add(socket, interest, edge, token);
  }
  Error Modify(Socket* socket, uint32_t interest, bool edge) override {
    return inner_->Modify(socket, interest, edge);
  }
  Error Remove(Socket* socket) override { return inner_->Remove(socket); }
  Error Wait(NetReadyEvent* out_events, size_t capacity, bool block,
             size_t* out_count) override {
    size_t n = 0;
    Error err = inner_->Wait(out_events, capacity / 2, block, &n);
    for (size_t i = 0; i < n; ++i) {
      out_events[n + i] = out_events[i];
    }
    repeated_ += n;
    *out_count = 2 * n;
    return err;
  }

  uint64_t repeated() const { return repeated_; }

 private:
  friend class RefCounted<RepeatingSelector>;
  ~RepeatingSelector() = default;

  ComPtr<NetSelector> inner_;
  uint64_t repeated_ = 0;
};

TEST(HttpServerWorldTest, TeardownReapsOnlyClosedConnsUnderHeldPopulation) {
  constexpr int kHolders = 300;
  constexpr int kChurners = 4;
  constexpr int kRounds = 25;  // per churner: 100 churned connections

  VirtualSwitch::Config sw;
  World world(sw);
  Host& server = world.AddHost("www", NetConfig::kOskit);
  Host& client = world.AddHost("client", NetConfig::kNativeBsd);

  bool listening = false;
  bool done = false;
  std::unique_ptr<Server> httpd;
  RepeatingSelector* repeater = nullptr;
  auto reg = [&](const char* name) {
    return server.trace.registry.Value(name);
  };

  world.sim().Spawn("www/httpd", [&] {
    Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.trace = &server.trace;
    repeater = new RepeatingSelector(server.stack->CreateSelector());
    ComPtr<NetSelector> selector(repeater);  // adopts the birth reference
    httpd = std::make_unique<Server>(server.socket_factory, selector,
                                     /*root=*/ComPtr<Dir>(), cfg);
    httpd->AddDynRoute("/dyn", [](const Request&, std::string* body,
                                  std::string*) {
      *body = "ok";
      return 200;
    });
    ASSERT_TRUE(Ok(httpd->Start()));
    listening = true;
    httpd->Run();
  });

  std::vector<ComPtr<Socket>> holders;
  int churners_done = 0;
  for (int c = 0; c < kChurners; ++c) {
    world.sim().Spawn("churn", [&, c] {
      world.sim().WaitUntil(
          [&] { return holders.size() == static_cast<size_t>(kHolders); });
      for (int r = 0; r < kRounds; ++r) {
        ComPtr<Socket> sock = client.MakeSocket(SockType::kStream);
        ASSERT_TRUE(Ok(sock->Connect(SockAddr{server.addr, kPort})));
        // Alternate who closes: the server after a Connection: close
        // response, or the client after a keep-alive one.
        const char* wire =
            (r + c) % 2 == 0
                ? "GET /dyn HTTP/1.1\r\nConnection: close\r\n\r\n"
                : "GET /dyn HTTP/1.1\r\n\r\n";
        std::vector<Response> got;
        ASSERT_TRUE(Exchange(sock, wire, 1, &got));
        EXPECT_EQ(200, got[0].status);
      }
      ++churners_done;
    });
  }

  world.sim().Spawn("client", [&] {
    world.sim().WaitUntil([&] { return listening; });
    SimTime rtt = 0;
    client.stack->Ping(server.addr, kNsPerSec, &rtt);
    for (int i = 0; i < kHolders; ++i) {
      ComPtr<Socket> sock = client.MakeSocket(SockType::kStream);
      ASSERT_TRUE(Ok(sock->Connect(SockAddr{server.addr, kPort})));
      std::vector<Response> got;
      ASSERT_TRUE(Exchange(sock, "GET /dyn HTTP/1.1\r\n\r\n", 1, &got));
      holders.push_back(std::move(sock));
    }
    world.sim().WaitUntil([&] { return churners_done == kChurners; });
    // Quiesce: every churned connection has been closed on the server side
    // and reaped, while every holder is still open.
    world.sim().WaitUntil([&] {
      return reg("http.conns.closed") == kChurners * kRounds;
    });
    world.sim().SleepFor(10 * kNsPerMs);
    EXPECT_EQ(static_cast<size_t>(kHolders), httpd->open_conns());
    EXPECT_EQ(static_cast<uint64_t>(kHolders + kChurners * kRounds),
              reg("http.conns.accepted"));
    EXPECT_EQ(static_cast<uint64_t>(kChurners * kRounds),
              reg("http.conns.closed"));
    EXPECT_EQ(static_cast<uint64_t>(kHolders), reg("http.conns.open"));

    // Quit on one holder: the server closes every other idle holder from
    // inside the batch, then drains the quit response and returns.
    std::vector<Response> got;
    ASSERT_TRUE(Exchange(
        holders[0], "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n",
        1, &got));
    EXPECT_EQ(200, got[0].status);
    // Each holder sees its orderly close.
    for (ComPtr<Socket>& sock : holders) {
      char buf[64];
      size_t n = 1;
      EXPECT_TRUE(Ok(sock->Recv(buf, sizeof(buf), &n)));
      EXPECT_EQ(0u, n);
      sock.Reset();
    }
    done = true;
  });

  world.RunToCompletion(120 * kNsPerSec);
  ASSERT_TRUE(done);
  EXPECT_TRUE(httpd->stopping());
  const uint64_t total = kHolders + kChurners * kRounds;
  EXPECT_EQ(0u, httpd->open_conns());
  EXPECT_EQ(total, reg("http.conns.accepted"));
  EXPECT_EQ(total, reg("http.conns.closed"));
  EXPECT_EQ(0u, reg("http.conns.open"));
  EXPECT_EQ(total + 1, httpd->requests());
  // Every batch was reported twice, so each close made by an event met its
  // own repeat later in that batch.
  ASSERT_NE(nullptr, repeater);
  EXPECT_GE(repeater->repeated(), total);
  httpd.reset();
}

}  // namespace
}  // namespace oskit::http
