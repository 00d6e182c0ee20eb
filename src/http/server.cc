#include "src/http/server.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::http {

namespace {

constexpr size_t kMaxEvents = 64;

const char* ContentTypeFor(const std::string& path) {
  size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return "application/octet-stream";
  }
  std::string ext = path.substr(dot);
  if (ext == ".html" || ext == ".htm") {
    return "text/html";
  }
  if (ext == ".txt") {
    return "text/plain";
  }
  return "application/octet-stream";
}

}  // namespace

Server::Server(ComPtr<SocketFactory> factory, ComPtr<NetSelector> selector,
               ComPtr<Dir> root, const Config& config)
    : factory_(std::move(factory)),
      selector_(std::move(selector)),
      root_(std::move(root)),
      config_(config),
      trace_(trace::Required(config.trace)),
      span_wait_(trace_, "http.span.wait"),
      span_accept_(trace_, "http.span.accept"),
      span_fs_read_(trace_, "http.span.fs_read"),
      span_dyn_(trace_, "http.span.dyn"),
      span_request_(trace_, "http.span.request") {
  counters_.Bind(&trace_->registry,
                 {{"http.conns.accepted", &accepted_},
                  {"http.conns.open", &open_, /*gauge=*/true},
                  {"http.conns.closed", &closed_},
                  {"http.requests", &requests_},
                  {"http.requests.pipelined", &pipelined_},
                  {"http.responses", &responses_},
                  {"http.bytes_in", &bytes_in_},
                  {"http.bytes_out", &bytes_out_},
                  {"http.errors.bad_request", &bad_requests_},
                  {"http.errors.not_found", &not_found_},
                  {"http.read_paused", &read_paused_},
                  {"http.sendfile_responses", &sendfile_responses_}});
}

Server::~Server() {
  for (Conn* conn : conns_) {
    if (!conn->dead) {
      selector_->Remove(conn->sock.get());
    }
    delete conn;
  }
  conns_.clear();
  if (listener_registered_) {
    selector_->Remove(listener_.get());
  }
}

void Server::AddDynRoute(const std::string& prefix, DynHandler handler) {
  dyn_routes_.emplace_back(prefix, std::move(handler));
}

Error Server::Start() {
  Error err = factory_->Create(SockDomain::kInet, SockType::kStream,
                               listener_.Receive());
  if (!Ok(err)) {
    return err;
  }
  listener_ext_ = ComPtr<SocketExt>::FromQuery(listener_.get());
  if (!listener_ext_) {
    return Error::kNotImpl;  // the server requires nonblocking sockets
  }
  listener_ext_->SetNonBlocking(true);
  err = listener_->Bind(config_.bind);
  if (!Ok(err)) {
    return err;
  }
  err = listener_->Listen(config_.backlog);
  if (!Ok(err)) {
    return err;
  }
  err = selector_->Add(listener_.get(), kNetReadable, /*edge=*/false,
                       /*token=*/nullptr);
  if (!Ok(err)) {
    return err;
  }
  listener_registered_ = true;
  return Error::kOk;
}

void Server::Run() {
  NetReadyEvent events[kMaxEvents];
  while (!stopping_ || !conns_.empty()) {
    size_t count = 0;
    {
      trace::ScopedSpan wait(&span_wait_);
      Error err = selector_->Wait(events, kMaxEvents, /*block=*/true, &count);
      if (!Ok(err)) {
        break;
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (events[i].token == nullptr) {
        HandleListener();
        continue;
      }
      Conn* conn = static_cast<Conn*>(events[i].token);
      // A connection closed earlier in this batch may still appear in a
      // later event slot; its Conn outlives the batch as a tombstone (dead
      // flag) on `reap_` and is freed below.
      if (conn->dead) {
        continue;
      }
      HandleConn(conn, events[i].events);
    }
    // Free only what this batch closed: the cost tracks closes, not the
    // number of open connections.
    for (Conn* conn : reap_) {
      conns_.erase(conn);
      delete conn;
    }
    reap_.clear();
  }
}

void Server::HandleListener() {
  trace::ScopedSpan accept(&span_accept_);
  auto& socks = accept_socks_;
  for (;;) {
    size_t count = 0;
    Error err = listener_ext_->AcceptBatch(accept_peers_.data(), socks.data(),
                                           socks.size(), &count);
    if (!Ok(err) || count == 0) {
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      ComPtr<Socket> sock(socks[i]);  // adopt the batch's reference
      if (stopping_) {
        continue;  // drops the connection
      }
      auto ext = ComPtr<SocketExt>::FromQuery(sock.get());
      if (!ext) {
        continue;
      }
      ext->SetNonBlocking(true);
      auto* conn = new Conn;
      conn->sock = std::move(sock);
      conn->ext = std::move(ext);
      // Optional zero-copy capability; interposed (secure-wrapped) sockets
      // typically refuse it and those connections just copy.
      conn->zc = ComPtr<SocketZeroCopy>::FromQuery(conn->sock.get());
      conn->interest = kNetReadable;
      err = selector_->Add(conn->sock.get(), conn->interest, /*edge=*/false,
                           conn);
      if (!Ok(err)) {
        delete conn;
        continue;
      }
      conns_.insert(conn);
      accepted_ += 1;
      open_ += 1;
    }
    if (count < socks.size()) {
      return;  // queue drained
    }
  }
}

void Server::HandleConn(Conn* conn, uint32_t events) {
  if ((events & kNetError) != 0) {
    CloseConn(conn);
    return;
  }
  if ((events & kNetReadable) != 0) {
    ReadInto(conn);
    if (conn->dead) {
      return;
    }
  }
  // Drain the parse -> respond -> flush cycle; a flush that empties the
  // staging buffer un-parks any requests held back by the high-water check.
  do {
    ProcessRequests(conn);
    Flush(conn);
  } while (!conn->dead && conn->out_pending == 0 &&
           conn->parser.HasRequest() && !conn->close_after);
  if (conn->dead) {
    return;
  }
  UpdateInterest(conn);
}

void Server::ReadInto(Conn* conn) {
  auto& chunk = read_buf_;
  while (!conn->saw_eof &&
         conn->parser.status() != ParseStatus::kError &&
         conn->out_pending < kOutHighWater) {
    size_t actual = 0;
    Error err = conn->sock->Recv(chunk.data(), chunk.size(), &actual);
    if (err == Error::kWouldBlock) {
      return;
    }
    if (!Ok(err)) {
      CloseConn(conn);
      return;
    }
    if (actual == 0) {
      conn->saw_eof = true;
      return;
    }
    bytes_in_ += actual;
    conn->parser.Feed(chunk.data(), actual);
  }
}

void Server::ProcessRequests(Conn* conn) {
  while (!conn->close_after && conn->parser.HasRequest() &&
         conn->out_pending < kOutHighWater) {
    if (!conn->inflight.empty()) {
      pipelined_ += 1;
    }
    Request req = conn->parser.TakeRequest();
    requests_ += 1;
    HandleRequest(conn, req);
    if (conn->dead) {
      return;
    }
  }
  if (conn->parser.status() == ParseStatus::kError && !conn->close_after) {
    bad_requests_ += 1;
    int status =
        std::strstr(conn->parser.error(), "Transfer-Encoding") != nullptr
            ? 501
            : 400;
    std::string body = std::string(StatusReason(status)) + "\n";
    StageResponse(conn, status, body, "text/plain", /*keep_alive=*/false,
                  /*head_only=*/false, NowNs());
    conn->close_after = true;
  }
  if (conn->saw_eof && !conn->parser.HasRequest()) {
    conn->close_after = true;
  }
}

void Server::HandleRequest(Conn* conn, const Request& req) {
  uint64_t start_ns = NowNs();
  bool head_only = req.method == "HEAD";

  if (req.target == kQuitPath) {
    StageResponse(conn, 200, "bye\n", "text/plain", /*keep_alive=*/false,
                  head_only, start_ns);
    conn->close_after = true;
    BeginStopping();
    return;
  }

  for (const auto& [prefix, handler] : dyn_routes_) {
    if (req.target.compare(0, prefix.size(), prefix) == 0) {
      std::string body;
      std::string type = "text/plain";
      int status;
      {
        trace::ScopedSpan dyn(&span_dyn_);
        status = handler(req, &body, &type);
      }
      StageResponse(conn, status, body, type.c_str(), req.keep_alive,
                    head_only, start_ns);
      if (!req.keep_alive) {
        conn->close_after = true;
      }
      return;
    }
  }

  if (req.method != "GET" && req.method != "HEAD") {
    StageResponse(conn, 405, "Method Not Allowed\n", "text/plain",
                  req.keep_alive, head_only, start_ns);
    if (!req.keep_alive) {
      conn->close_after = true;
    }
    return;
  }

  // Static lookup: walk the path one component at a time (the COM Dir
  // contract — and the reason security wrappers can interpose per step).
  std::string path = req.target;
  size_t query = path.find('?');
  if (query != std::string::npos) {
    path.resize(query);
  }
  ComPtr<File> file;
  bool found = root_ && !path.empty() && path[0] == '/';
  if (found) {
    trace::ScopedSpan fs(&span_fs_read_);
    ComPtr<Dir> cur = root_;
    size_t pos = 1;
    while (found && pos <= path.size()) {
      size_t slash = path.find('/', pos);
      size_t end = slash == std::string::npos ? path.size() : slash;
      std::string comp = path.substr(pos, end - pos);
      pos = end + 1;
      if (comp.empty() || comp == "." || comp == "..") {
        found = false;
        break;
      }
      ComPtr<File> next;
      if (!Ok(cur->Lookup(comp.c_str(), next.Receive()))) {
        found = false;
        break;
      }
      if (slash == std::string::npos) {
        file = std::move(next);
        break;
      }
      cur = ComPtr<Dir>::FromQuery(next.get());
      if (!cur) {
        found = false;
      }
    }
    found = found && file;
  }
  if (!found) {
    not_found_ += 1;
    StageResponse(conn, 404, "Not Found\n", "text/plain", req.keep_alive,
                  head_only, start_ns);
    if (!req.keep_alive) {
      conn->close_after = true;
    }
    return;
  }

  FileStat st;
  std::string body;
  ComPtr<BufIoVec> vec;
  Error err;
  {
    trace::ScopedSpan fs(&span_fs_read_);
    err = file->GetStat(&st);
    if (Ok(err) && st.type == FileType::kDirectory) {
      err = Error::kIsDir;
    }
    if (Ok(err) && !head_only) {
      // Sendfile: when the socket can pull bytes (SocketZeroCopy) and the
      // file can publish them (BufIoVec), stage a window into the file and
      // skip the body read entirely — Flush streams it cache-to-wire.
      if (config_.sendfile && conn->zc && st.size > 0) {
        vec = ComPtr<BufIoVec>::FromQuery(file.get());
      }
      if (!vec && st.size > 0) {
        // Copied path (and the read+send ablation): read the whole body
        // through the staging buffer.
        body.resize(st.size);
        uint64_t off = 0;
        while (Ok(err) && off < st.size) {
          size_t actual = 0;
          err = file->Read(body.data() + off, off,
                           static_cast<size_t>(st.size - off), &actual);
          if (Ok(err) && actual == 0) {
            err = Error::kIo;  // shorter than its stat said
          }
          off += actual;
        }
      }
    }
  }
  if (!Ok(err)) {
    StageResponse(conn, err == Error::kIsDir ? 403 : 500,
                  "Unavailable\n", "text/plain", req.keep_alive, head_only,
                  start_ns);
  } else if (head_only) {
    // HEAD: full Content-Length, no body bytes.
    StageHead(conn, 200, st.size, ContentTypeFor(path), req.keep_alive, {});
    FinishResponse(conn, start_ns);
  } else if (vec) {
    StageHead(conn, 200, st.size, ContentTypeFor(path), req.keep_alive, {});
    OutChunk chunk;
    chunk.file = std::move(vec);
    chunk.file_off = 0;
    chunk.len = static_cast<size_t>(st.size);
    conn->out_pending += chunk.len;
    conn->outq.push_back(std::move(chunk));
    sendfile_responses_ += 1;
    FinishResponse(conn, start_ns);
  } else {
    StageResponse(conn, 200, body, ContentTypeFor(path), req.keep_alive,
                  /*head_only=*/false, start_ns);
  }
  if (!req.keep_alive) {
    conn->close_after = true;
  }
}

// Formats a response head, then `body`, straight into the tail chunk.  The
// tail is extended when it is literal bytes too: keeps pipelined small
// responses in one Send call instead of one per header/body piece.
void Server::StageHead(Conn* conn, int status, size_t content_length,
                       const char* content_type, bool keep_alive,
                       std::string_view body) {
  if (conn->outq.empty() || conn->outq.back().file) {
    conn->outq.emplace_back();
  }
  OutChunk& tail = conn->outq.back();
  AppendResponseHead(&tail.bytes, status, content_length, content_type, keep_alive);
  tail.bytes += body;
  conn->out_pending += tail.bytes.size() - tail.len;
  tail.len = tail.bytes.size();
}

void Server::FinishResponse(Conn* conn, uint64_t start_ns) {
  conn->staged_total = conn->sent_total + conn->out_pending;
  conn->inflight.push_back({conn->staged_total, start_ns});
  responses_ += 1;
}

void Server::StageResponse(Conn* conn, int status, const std::string& body,
                           const char* content_type, bool keep_alive,
                           bool head_only, uint64_t start_ns) {
  StageHead(conn, status, body.size(), content_type, keep_alive,
            head_only ? std::string_view() : std::string_view(body));
  FinishResponse(conn, start_ns);
}

void Server::Flush(Conn* conn) {
  while (!conn->outq.empty()) {
    OutChunk& chunk = conn->outq.front();
    if (chunk.sent == chunk.len) {
      conn->outq.pop_front();
      continue;
    }
    size_t actual = 0;
    Error err;
    if (chunk.file) {
      err = conn->zc->SendBufIo(chunk.file.get(), chunk.file_off + chunk.sent,
                                chunk.len - chunk.sent, &actual);
    } else {
      err = conn->sock->Send(chunk.bytes.data() + chunk.sent,
                             chunk.len - chunk.sent, &actual);
    }
    if (Ok(err)) {
      chunk.sent += actual;
      conn->out_pending -= actual;
      conn->sent_total += actual;
      bytes_out_ += actual;
      if (actual == 0) {
        break;
      }
    } else if (err == Error::kWouldBlock) {
      break;
    } else {
      CloseConn(conn);
      return;
    }
  }
  uint64_t now = NowNs();
  while (!conn->inflight.empty() &&
         conn->inflight.front().end <= conn->sent_total) {
    uint64_t start = conn->inflight.front().start_ns;
    span_request_.AddSample(now >= start ? now - start : 0);
    conn->inflight.pop_front();
  }
}

void Server::UpdateInterest(Conn* conn) {
  if (stopping_) {
    conn->close_after = true;
  }
  bool out_pending = conn->out_pending > 0;
  if (conn->close_after && !out_pending) {
    CloseConn(conn);
    return;
  }
  uint32_t desired = 0;
  if (!conn->close_after && !conn->saw_eof &&
      conn->out_pending < kOutHighWater) {
    desired |= kNetReadable;
  } else if ((conn->interest & kNetReadable) != 0 && !conn->close_after &&
             !conn->saw_eof) {
    // Transition into backpressure: stop reading until the slow peer
    // drains what is already staged.
    read_paused_ += 1;
  }
  if (out_pending) {
    desired |= kNetWritable;
  }
  if (desired != conn->interest) {
    if (Ok(selector_->Modify(conn->sock.get(), desired, /*edge=*/false))) {
      conn->interest = desired;
    }
  }
}

void Server::CloseConn(Conn* conn) {
  if (conn->dead) {
    return;
  }
  selector_->Remove(conn->sock.get());
  conn->sock->Shutdown(SockShutdown::kBoth);
  conn->dead = true;
  reap_.push_back(conn);
  closed_ += 1;
  open_ -= 1;
}

void Server::BeginStopping() {
  if (stopping_) {
    return;
  }
  stopping_ = true;
  if (listener_registered_) {
    selector_->Remove(listener_.get());
    listener_registered_ = false;
  }
  // Idle connections never produce another event; close them now.  Draining
  // ones (the quit response itself, slow readers mid-flush) finish first.
  for (Conn* conn : conns_) {
    if (!conn->dead && conn->out_pending == 0) {
      CloseConn(conn);
    }
  }
}

}  // namespace oskit::http
