// The layer probe and the forwarding COM objects of the traced run.

#include "bench.h"

namespace kitbench {

using namespace oskit;

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

Probe::Scope::Scope(Probe* probe, Layer layer) : probe_(probe) {
  fiber_ = probe->sim_->scheduler().current();
  Frame*& top = probe->top_[fiber_];
  frame_ = Frame{top, layer, 0};
  top = &frame_;
  SimClock& clock = probe->sim_->clock();
  sim0_ = clock.Now();
  events0_ = clock.events_run();
  host0_ = HostNowNs();
}

Probe::Scope::~Scope() {
  uint64_t host = HostNowNs() - host0_;
  SimClock& clock = probe_->sim_->clock();
  bool blocked = clock.events_run() != events0_;
  Frame* parent = frame_.parent;
  if (parent == nullptr) {
    probe_->top_.erase(fiber_);
  } else {
    probe_->top_[fiber_] = parent;
  }
  LayerStats& s = probe_->stats_[static_cast<size_t>(frame_.layer)];
  ++s.calls;
  if (blocked) {
    ++s.blocked;
    s.wait_sim_ns += clock.Now() - sim0_;
  } else {
    s.busy_ns += host > frame_.child_host_ns ? host - frame_.child_host_ns : 0;
    if (parent != nullptr) {
      parent->child_host_ns += host;
    }
  }
  if (frame_.layer == Layer::kFs &&
      (parent == nullptr || parent->layer != Layer::kFs)) {
    probe_->fs_outer_host_ns_ += host;
  }
}

void Probe::Reset() {
  for (LayerStats& s : stats_) {
    s = LayerStats{};
  }
  fs_outer_host_ns_ = 0;
  nonblocking_calls = would_block = parse_bytes = 0;
  ring_submits = ring_sqes = 0;
  blk_reads = blk_writes = blk_flushes = 0;
  server_loop_ns = server_waits = server_events = 0;
}

namespace {

// ---------------------------------------------------------------------------
// NetSelector
// ---------------------------------------------------------------------------

class TimedSelector final : public NetSelector, public RefCounted<TimedSelector> {
 public:
  TimedSelector(ComPtr<NetSelector> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == NetSelector::kIid) {
      AddRef();
      *out = static_cast<NetSelector*>(this);
      return Error::kOk;
    }
    *out = nullptr;
    return Error::kNoInterface;
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error Add(Socket* socket, uint32_t interest, bool edge, void* token) override {
    return probe_->Time(Layer::kNet,
                        [&] { return inner_->Add(socket, interest, edge, token); });
  }
  Error Modify(Socket* socket, uint32_t interest, bool edge) override {
    return probe_->Time(Layer::kNet,
                        [&] { return inner_->Modify(socket, interest, edge); });
  }
  Error Remove(Socket* socket) override {
    return probe_->Time(Layer::kNet, [&] { return inner_->Remove(socket); });
  }

  // The server loop's own time is what passes between a Wait returning and
  // the next Wait, less the fs calls it made meanwhile (which may block and
  // let other fibers run).
  Error Wait(NetReadyEvent* out_events, size_t capacity, bool block,
             size_t* out_count) override {
    uint64_t now = HostNowNs();
    if (probe_->server_waits >= 1) {  // not across a Reset
      uint64_t fs = probe_->fs_outer_host_ns() - fs_at_return_;
      uint64_t span = now - returned_at_;
      probe_->server_loop_ns += span > fs ? span - fs : 0;
    }
    Error err = probe_->Time(Layer::kNet, [&] {
      return inner_->Wait(out_events, capacity, block, out_count);
    });
    ++probe_->server_waits;
    probe_->server_events += *out_count;
    fs_at_return_ = probe_->fs_outer_host_ns();
    returned_at_ = HostNowNs();
    return err;
  }

 private:
  friend class RefCounted<TimedSelector>;
  ~TimedSelector() = default;

  ComPtr<NetSelector> inner_;
  Probe* probe_;
  uint64_t returned_at_ = 0;
  uint64_t fs_at_return_ = 0;
};

// ---------------------------------------------------------------------------
// Files and directories
// ---------------------------------------------------------------------------

// Private interface id: lets a wrapper recognize its own kind (Rename must
// hand the filesystem its own directory object, which it downcasts).
constexpr Guid kTimedNodeIid = MakeGuid(0x6b17c0de, 0x0b5e, 0x4c1a, 0x9e, 0x11,
                                        0x4b, 0x17, 0xbe, 0x4c, 0x00, 0x01);

class TimedVec final : public BufIoVec, public RefCounted<TimedVec> {
 public:
  TimedVec(ComPtr<BufIoVec> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == BlkIo::kIid || iid == BufIo::kIid ||
        iid == BufIoVec::kIid) {
      AddRef();
      *out = static_cast<BufIoVec*>(this);
      return Error::kOk;
    }
    *out = nullptr;
    return Error::kNoInterface;
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    return T([&] { return inner_->Read(buf, offset, amount, out_actual); });
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    return T([&] { return inner_->Write(buf, offset, amount, out_actual); });
  }
  Error GetSize(off_t64* out_size) override {
    return T([&] { return inner_->GetSize(out_size); });
  }
  Error SetSize(off_t64 new_size) override {
    return T([&] { return inner_->SetSize(new_size); });
  }
  Error Map(void** out_addr, off_t64 offset, size_t amount) override {
    return T([&] { return inner_->Map(out_addr, offset, amount); });
  }
  Error Unmap(void* addr, off_t64 offset, size_t amount) override {
    return T([&] { return inner_->Unmap(addr, offset, amount); });
  }
  Error Wire() override { return T([&] { return inner_->Wire(); }); }
  Error Unwire() override { return T([&] { return inner_->Unwire(); }); }
  Error Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset, size_t amount,
                size_t* out_count) override {
    return T([&] { return inner_->Vectors(out_segs, cap, offset, amount, out_count); });
  }
  Error UnmapVectors(off_t64 offset, size_t amount) override {
    return T([&] { return inner_->UnmapVectors(offset, amount); });
  }

 private:
  friend class RefCounted<TimedVec>;
  ~TimedVec() = default;

  template <typename Fn>
  Error T(Fn&& fn) {
    return probe_->Time(Layer::kFs, fn);
  }

  ComPtr<BufIoVec> inner_;
  Probe* probe_;
};

// One wrapper class for both files and directories; it grants Dir only when
// the inner object does.
class TimedNode final : public Dir, public RefCounted<TimedNode> {
 public:
  TimedNode(ComPtr<File> inner, Probe* probe)
      : file_(std::move(inner)), probe_(probe) {
    dir_ = ComPtr<Dir>::FromQuery(file_.get());
  }

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == File::kIid ||
        (iid == Dir::kIid && dir_) || iid == kTimedNodeIid) {
      AddRef();
      *out = static_cast<Dir*>(this);
      return Error::kOk;
    }
    if (iid == BufIo::kIid || iid == BufIoVec::kIid) {
      ComPtr<BufIoVec> vec = ComPtr<BufIoVec>::FromQuery(file_.get());
      if (!vec) {
        *out = nullptr;
        return Error::kNoInterface;
      }
      *out = static_cast<BufIoVec*>(new TimedVec(std::move(vec), probe_));
      return Error::kOk;
    }
    *out = nullptr;
    return Error::kNoInterface;
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error Read(void* buf, uint64_t offset, size_t amount, size_t* out_actual) override {
    return T([&] { return file_->Read(buf, offset, amount, out_actual); });
  }
  Error Write(const void* buf, uint64_t offset, size_t amount,
              size_t* out_actual) override {
    return T([&] { return file_->Write(buf, offset, amount, out_actual); });
  }
  Error GetStat(FileStat* out_stat) override {
    return T([&] { return file_->GetStat(out_stat); });
  }
  Error SetSize(uint64_t new_size) override {
    return T([&] { return file_->SetSize(new_size); });
  }
  Error Sync() override { return T([&] { return file_->Sync(); }); }

  Error Lookup(const char* name, File** out_file) override {
    return Wrapped(out_file, [&](File** raw) { return dir_->Lookup(name, raw); });
  }
  Error Create(const char* name, uint32_t mode, File** out_file) override {
    return Wrapped(out_file,
                   [&](File** raw) { return dir_->Create(name, mode, raw); });
  }
  Error Mkdir(const char* name, uint32_t mode) override {
    return T([&] { return dir_->Mkdir(name, mode); });
  }
  Error Unlink(const char* name) override {
    return T([&] { return dir_->Unlink(name); });
  }
  Error Rmdir(const char* name) override {
    return T([&] { return dir_->Rmdir(name); });
  }
  Error Rename(const char* old_name, Dir* new_dir, const char* new_name) override {
    Dir* target = new_dir;
    void* self = nullptr;
    if (new_dir != nullptr && Ok(new_dir->Query(kTimedNodeIid, &self))) {
      auto* node = static_cast<TimedNode*>(static_cast<Dir*>(self));
      target = node->dir_.get();
      node->Release();
    }
    return T([&] { return dir_->Rename(old_name, target, new_name); });
  }
  Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                size_t* out_count) override {
    return T([&] {
      return dir_->ReadDir(inout_offset, entries, capacity, out_count);
    });
  }

 private:
  friend class RefCounted<TimedNode>;
  ~TimedNode() = default;

  template <typename Fn>
  Error T(Fn&& fn) {
    return probe_->Time(Layer::kFs, fn);
  }

  template <typename Fn>
  Error Wrapped(File** out_file, Fn&& fn) {
    File* raw = nullptr;
    Error err = T([&] { return fn(&raw); });
    *out_file = raw == nullptr ? nullptr : new TimedNode(ComPtr<File>(raw), probe_);
    return err;
  }

  ComPtr<File> file_;
  ComPtr<Dir> dir_;  // null for regular files
  Probe* probe_;
};

// ---------------------------------------------------------------------------
// Block devices
// ---------------------------------------------------------------------------

class TimedBlkIo final : public BlkIo,
                         public BlkIoBarrier,
                         public BlkIoRing,
                         public RefCounted<TimedBlkIo> {
 public:
  TimedBlkIo(ComPtr<BlkIo> inner, Layer layer, Probe* probe)
      : inner_(std::move(inner)), layer_(layer), probe_(probe) {
    barrier_ = ComPtr<BlkIoBarrier>::FromQuery(inner_.get());
    ring_ = ComPtr<BlkIoRing>::FromQuery(inner_.get());
  }

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == BlkIo::kIid) {
      AddRef();
      *out = static_cast<BlkIo*>(this);
      return Error::kOk;
    }
    if (iid == BlkIoBarrier::kIid && barrier_) {
      AddRef();
      *out = static_cast<BlkIoBarrier*>(this);
      return Error::kOk;
    }
    if (iid == BlkIoRing::kIid && ring_) {
      AddRef();
      *out = static_cast<BlkIoRing*>(this);
      return Error::kOk;
    }
    *out = nullptr;
    return Error::kNoInterface;
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    Count(&probe_->blk_reads);
    return T([&] { return inner_->Read(buf, offset, amount, out_actual); });
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    Count(&probe_->blk_writes);
    return T([&] { return inner_->Write(buf, offset, amount, out_actual); });
  }
  Error GetSize(off_t64* out_size) override {
    return T([&] { return inner_->GetSize(out_size); });
  }
  Error SetSize(off_t64 new_size) override {
    return T([&] { return inner_->SetSize(new_size); });
  }

  Error Flush() override {
    Count(&probe_->blk_flushes);
    return T([&] { return barrier_->Flush(); });
  }

  Error Submit(const AioSqe* sqes, size_t count, size_t* out_accepted) override {
    Error err = T([&] { return ring_->Submit(sqes, count, out_accepted); });
    if (layer_ == Layer::kAio) {
      ++probe_->ring_submits;
      probe_->ring_sqes += *out_accepted;
    }
    return err;
  }
  Error Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) override {
    return T([&] { return ring_->Reap(out_cqes, cap, out_count); });
  }
  size_t Occupancy() override { return ring_->Occupancy(); }

 private:
  friend class RefCounted<TimedBlkIo>;
  ~TimedBlkIo() = default;

  template <typename Fn>
  Error T(Fn&& fn) {
    return probe_->Time(layer_, fn);
  }
  // Device-level request counts are taken at the device boundary only.
  void Count(uint64_t* counter) {
    if (layer_ == Layer::kDev) {
      ++*counter;
    }
  }

  ComPtr<BlkIo> inner_;
  ComPtr<BlkIoBarrier> barrier_;
  ComPtr<BlkIoRing> ring_;
  Layer layer_;
  Probe* probe_;
};

}  // namespace

ComPtr<NetSelector> WrapSelector(ComPtr<NetSelector> inner, Probe* probe) {
  return ComPtr<NetSelector>(new TimedSelector(std::move(inner), probe));
}

ComPtr<Dir> WrapDir(ComPtr<Dir> inner, Probe* probe) {
  return ComPtr<Dir>(new TimedNode(ComPtr<File>::FromQuery(inner.get()), probe));
}

ComPtr<BlkIo> WrapBlkIo(ComPtr<BlkIo> inner, Layer layer, Probe* probe) {
  return ComPtr<BlkIo>(new TimedBlkIo(std::move(inner), layer, probe));
}

Error MountTimed(BlkIo* device, const fs::MountOptions& options, ComPtr<FileSystem>* out,
                 Probe* probe) {
  uint64_t t0 = HostNowNs();
  Error err = fs::Offs::Mount(device, options, out->Receive());
  if (probe != nullptr) {
    probe->mount_ns += HostNowNs() - t0;
    ++probe->mounts;
  }
  return err;
}

}  // namespace kitbench
