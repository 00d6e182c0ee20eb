// The flagship HTTP/1.1 server: netcomputer v2's engine.
//
// One fiber drives every connection through the epoll-style NetSelector —
// batched accept off the listener, nonblocking reads into the incremental
// RequestParser, responses staged per connection and flushed as the send
// window opens.  Static content comes from a COM Dir tree (FFS over the
// journal in the flagship composition); dynamic routes dispatch to
// registered handlers (the KVM interpreter in netcomputer v2).  Because
// everything arrives via COM interfaces, the same server runs unwrapped or
// behind the src/secure interposers unchanged — the secure HTTP campaign
// phase depends on exactly that.
//
// Attribution: the server owns the first real span instrumentation —
// scoped spans around the selector wait / accept burst / FS read / dyn
// dispatch, and an interval span per request from parse-complete to
// response fully flushed (pipelining and slow readers make request
// lifetimes overlap, which is what SpanSite::AddSample exists for).

#ifndef OSKIT_SRC_HTTP_SERVER_H_
#define OSKIT_SRC_HTTP_SERVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/com/filesystem.h"
#include "src/com/netselector.h"
#include "src/com/socket.h"
#include "src/http/http.h"
#include "src/trace/trace.h"

namespace oskit::http {

class Server {
 public:
  static constexpr size_t kAcceptBatch = 64;  // connections per accept call
  static constexpr size_t kReadChunk = 4096;  // bytes per Recv
  // Stop reading a connection while this much output is pending (slow
  // readers must not balloon the staging buffer).
  static constexpr size_t kOutHighWater = 256 * 1024;
  // Requests to this target shut the server down cleanly (responds 200,
  // stops accepting, drains in-flight responses).
  static constexpr std::string_view kQuitPath = "/__quit";

  struct Config {
    SockAddr bind;  // port required; addr may be kInetAny
    int backlog = 128;
    // Serve static bodies zero-copy when the file grants BufIoVec and the
    // socket grants SocketZeroCopy (sendfile).  Off = the counted read+send
    // ablation: every body byte is copied through the staging buffer.
    bool sendfile = true;
    trace::TraceEnv* trace = nullptr;  // required: where counters report
    // Simulated-time source for per-request latency spans; spans record 0 ns
    // when unset.
    std::function<uint64_t()> now;
  };

  // Dynamic route handler: fills body/content_type, returns the status code.
  using DynHandler =
      std::function<int(const Request&, std::string* body,
                        std::string* content_type)>;

  // `root` may be null (static requests answer 404).  The factory must hand
  // out sockets implementing SocketExt, and the selector must accept them —
  // both the native stack surface and the secure wrappers qualify.
  Server(ComPtr<SocketFactory> factory, ComPtr<NetSelector> selector,
         ComPtr<Dir> root, const Config& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Routes every target with this prefix to `handler` (checked in
  // registration order, before static lookup).
  void AddDynRoute(const std::string& prefix, DynHandler handler);

  // Creates/binds/registers the listener.  Must precede Run.
  Error Start();

  // The server fiber body: harvests selector events until a quit-path
  // request has been served and every connection has drained.
  void Run();

  // Counters (also in the registry under http.*).
  uint64_t requests() const { return requests_.value(); }
  uint64_t responses() const { return responses_.value(); }
  size_t open_conns() const { return conns_.size(); }
  bool stopping() const { return stopping_; }

 private:
  // One staged piece of a connection's output: either literal bytes
  // (headers, dynamic/copied bodies) or a window into a BufIoVec file that
  // Flush pushes through SocketZeroCopy::SendBufIo without staging a copy.
  struct OutChunk {
    std::string bytes;        // literal form (when `file` is null)
    ComPtr<BufIoVec> file;    // sendfile form
    uint64_t file_off = 0;    // file byte the chunk starts at
    size_t len = 0;           // total chunk length
    size_t sent = 0;          // bytes already accepted by the socket
  };

  struct Conn {
    ComPtr<Socket> sock;
    ComPtr<SocketExt> ext;
    ComPtr<SocketZeroCopy> zc;  // null: socket can't sendfile
    RequestParser parser;
    std::deque<OutChunk> outq;  // staged output not yet accepted by the socket
    size_t out_pending = 0;     // unsent bytes across outq
    uint64_t sent_total = 0;  // lifetime bytes accepted by Send
    uint64_t staged_total = 0;  // lifetime bytes staged
    // In-flight responses: span closes when sent_total reaches `end`.
    struct PendingReq {
      uint64_t end;
      uint64_t start_ns;
    };
    std::deque<PendingReq> inflight;
    uint32_t interest = 0;  // mask currently registered with the selector
    bool close_after = false;  // close once output drains
    bool saw_eof = false;
    bool dead = false;  // unregistered, on reap_ awaiting delete
  };

  void HandleListener();
  void HandleConn(Conn* conn, uint32_t events);
  void ReadInto(Conn* conn);
  void ProcessRequests(Conn* conn);
  void HandleRequest(Conn* conn, const Request& req);
  void StageResponse(Conn* conn, int status, const std::string& body,
                     const char* content_type, bool keep_alive, bool head_only,
                     uint64_t start_ns);
  void StageHead(Conn* conn, int status, size_t content_length,
                 const char* content_type, bool keep_alive, std::string_view body);
  void FinishResponse(Conn* conn, uint64_t start_ns);
  void Flush(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(Conn* conn);
  void BeginStopping();
  uint64_t NowNs() const { return config_.now ? config_.now() : 0; }

  ComPtr<SocketFactory> factory_;
  ComPtr<NetSelector> selector_;
  ComPtr<Dir> root_;
  Config config_;
  trace::TraceEnv* trace_;

  ComPtr<Socket> listener_;
  ComPtr<SocketExt> listener_ext_;
  bool listener_registered_ = false;
  std::unordered_set<Conn*> conns_;  // every allocated Conn, dead or alive
  std::vector<Conn*> reap_;  // closed during the current batch
  std::vector<std::pair<std::string, DynHandler>> dyn_routes_;
  // Buffers reused by every readable event and accept burst.
  std::array<char, kReadChunk> read_buf_;
  std::array<SockAddr, kAcceptBatch> accept_peers_;
  std::array<Socket*, kAcceptBatch> accept_socks_;
  bool stopping_ = false;

  trace::Counter accepted_;
  trace::Counter open_;  // gauge
  trace::Counter closed_;
  trace::Counter requests_;
  trace::Counter pipelined_;
  trace::Counter responses_;
  trace::Counter bytes_in_;
  trace::Counter bytes_out_;
  trace::Counter bad_requests_;
  trace::Counter not_found_;
  trace::Counter read_paused_;
  trace::Counter sendfile_responses_;  // static bodies staged zero-copy
  trace::CounterBlock counters_;

  trace::SpanSite span_wait_;
  trace::SpanSite span_accept_;
  trace::SpanSite span_fs_read_;
  trace::SpanSite span_dyn_;
  trace::SpanSite span_request_;
};

}  // namespace oskit::http

#endif  // OSKIT_SRC_HTTP_SERVER_H_
