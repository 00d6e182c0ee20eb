#include "src/fs/cache.h"

#include <algorithm>
#include <cstring>

#include "src/base/panic.h"

namespace oskit::fs {

BlockCache::BlockCache(ComPtr<BlkIo> device, uint32_t block_size, size_t capacity,
                       trace::TraceEnv* trace)
    : device_(std::move(device)),
      block_size_(block_size),
      capacity_(capacity),
      trace_(trace::Required(trace)) {
  OSKIT_ASSERT(capacity_ >= 8);
  // Discover the barrier extension the §4.4.2 way: ask, don't assume.  A
  // device without one (plain memory block device) gets free barriers.
  barrier_ = ComPtr<BlkIoBarrier>::FromQuery(device_.get());
  trace_binding_.Bind(&trace_->registry,
                      {{"fs.cache.hits", &counters_.hits},
                       {"fs.cache.misses", &counters_.misses},
                       {"fs.cache.writebacks", &counters_.writebacks},
                       {"fs.cache.barriers", &counters_.barriers}});
}

BlockCache::~BlockCache() {
  // Callers are expected to Sync(); losing dirty blocks here mirrors what a
  // power cut would do, which the fsck tests exploit deliberately.
}

void BlockCache::Touch(Entry& entry) {
  // Relinks the node in place: a hit allocates nothing, and lru_pos stays
  // valid.
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
}

Error BlockCache::WriteBack(uint32_t block, Entry& entry) {
  size_t actual = 0;
  Error err = device_->Write(entry.data.data(),
                             static_cast<off_t64>(block) * block_size_, block_size_,
                             &actual);
  if (!Ok(err)) {
    return err;
  }
  if (actual != block_size_) {
    return Error::kIo;
  }
  entry.dirty = false;
  ++counters_.writebacks;
  return Error::kOk;
}

Error BlockCache::EvictOne() {
  OSKIT_ASSERT(!lru_.empty());
  // Least-recently-used first, but a dirty block the pin callback claims
  // (an open journal transaction's metadata) must not reach its home
  // location before the commit record — skip it.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    uint32_t victim = *it;
    auto pos = entries_.find(victim);
    OSKIT_ASSERT(pos != entries_.end());
    if (pos->second.refs > 0) {
      // A GetRef pointer is outstanding; even a clean entry must keep its
      // storage alive until PutRef.
      continue;
    }
    if (pos->second.dirty && pin_ && pin_(victim)) {
      continue;
    }
    if (pos->second.dirty) {
      Error err = WriteBack(victim, pos->second);
      if (!Ok(err)) {
        return err;
      }
    }
    lru_.erase(pos->second.lru_pos);
    entries_.erase(pos);
    return Error::kOk;
  }
  // Every cached block is unevictable (pinned dirty by an open transaction,
  // or exported via GetRef): the working set outgrew the cache.  Surface it;
  // the filesystem falls back to a non-journaled writeback.
  return Error::kBusy;
}

Error BlockCache::Get(uint32_t block, uint8_t** out_data) {
  auto it = entries_.find(block);
  if (it != entries_.end()) {
    ++counters_.hits;
    Touch(it->second);
    *out_data = it->second.data.data();
    return Error::kOk;
  }
  ++counters_.misses;
  while (entries_.size() >= capacity_) {
    Error err = EvictOne();
    if (!Ok(err)) {
      return err;
    }
  }
  Entry entry;
  entry.data.resize(block_size_);
  size_t actual = 0;
  Error err = device_->Read(entry.data.data(),
                            static_cast<off_t64>(block) * block_size_, block_size_,
                            &actual);
  if (!Ok(err)) {
    return err;
  }
  if (actual != block_size_) {
    return Error::kOutOfRange;
  }
  lru_.push_front(block);
  entry.lru_pos = lru_.begin();
  auto [pos, inserted] = entries_.emplace(block, std::move(entry));
  OSKIT_ASSERT(inserted);
  *out_data = pos->second.data.data();
  return Error::kOk;
}

void BlockCache::MarkDirty(uint32_t block) {
  auto it = entries_.find(block);
  OSKIT_ASSERT_MSG(it != entries_.end(), "MarkDirty on uncached block");
  it->second.dirty = true;
}

Error BlockCache::ZeroBlock(uint32_t block) {
  uint8_t* slot = nullptr;
  Error err = Get(block, &slot);
  if (!Ok(err)) {
    return err;
  }
  std::memset(slot, 0, block_size_);
  MarkDirty(block);
  return Error::kOk;
}

std::vector<uint32_t> BlockCache::CollectDirty() const {
  std::vector<uint32_t> dirty;
  for (const auto& [block, entry] : entries_) {
    if (entry.dirty) {
      dirty.push_back(block);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

Error BlockCache::Sync() {
  // Ascending block order, always: the hash map's iteration order must never
  // leak into the device's write log, or the crash-point campaign (which
  // cuts power at every write index) stops being reproducible.
  for (uint32_t block : CollectDirty()) {
    Error err = WriteBackOne(block);
    if (!Ok(err)) {
      return err;
    }
  }
  return Error::kOk;
}

Error BlockCache::WriteBackOne(uint32_t block) {
  auto it = entries_.find(block);
  if (it == entries_.end() || !it->second.dirty) {
    return Error::kOk;
  }
  return WriteBack(block, it->second);
}

Error BlockCache::Barrier() {
  if (!barrier_) {
    return Error::kOk;
  }
  Error err = barrier_->Flush();
  if (Ok(err)) {
    ++counters_.barriers;
  }
  return err;
}

Error BlockCache::GetRef(uint32_t block, const uint8_t** out_data) {
  uint8_t* data = nullptr;
  Error err = Get(block, &data);
  if (!Ok(err)) {
    return err;
  }
  auto it = entries_.find(block);
  OSKIT_ASSERT(it != entries_.end());
  ++it->second.refs;
  // The pointer is pin-stable: Entry.data's heap buffer never moves on map
  // rehash, and EvictOne skips entries with refs > 0.
  *out_data = data;
  return Error::kOk;
}

void BlockCache::PutRef(uint32_t block) {
  auto it = entries_.find(block);
  OSKIT_ASSERT_MSG(it != entries_.end() && it->second.refs > 0,
                   "PutRef without a matching GetRef");
  --it->second.refs;
}

void BlockCache::SetEvictionPin(std::function<bool(uint32_t)> pin) {
  pin_ = std::move(pin);
}

// ---------------------------------------------------------------------------
// CacheBlkIo
// ---------------------------------------------------------------------------

CacheBlkIo::CacheBlkIo(ComPtr<BlkIo> below, uint32_t block_size,
                       size_t capacity, trace::TraceEnv* trace)
    : cache_(std::move(below), block_size, capacity, trace) {}

ComPtr<CacheBlkIo> CacheBlkIo::Create(BlkIo* below, uint32_t block_size,
                                      size_t capacity,
                                      trace::TraceEnv* trace) {
  OSKIT_ASSERT(below != nullptr);
  off_t64 size = 0;
  OSKIT_ASSERT(Ok(below->GetSize(&size)));
  auto layer = ComPtr<CacheBlkIo>(new CacheBlkIo(
      ComPtr<BlkIo>::Retain(below), block_size, capacity, trace));
  // Whole cache blocks only: a ragged tail would need read-modify-write of
  // a partial device block, which the cache does not do.
  layer->size_ = (size / block_size) * block_size;
  return layer;
}

// Runs `op(block, data, done, span)` over each cache block the clamped
// range touches: `data` is the block's bytes at the range's position in it,
// `done` the bytes of the range before them.
template <typename OpFn>
Error CacheBlkIo::ForBlocks(off_t64 offset, size_t amount, size_t* out_actual,
                            OpFn&& op) {
  *out_actual = 0;
  Error err = ClampRange(size_, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  const uint32_t bs = cache_.block_size();
  size_t done = 0;
  while (done < amount) {
    off_t64 at = offset + done;
    auto block = static_cast<uint32_t>(at / bs);
    uint32_t in_block = static_cast<uint32_t>(at % bs);
    size_t span = std::min<size_t>(bs - in_block, amount - done);
    uint8_t* data = nullptr;
    err = cache_.Get(block, &data);
    if (!Ok(err)) {
      *out_actual = done;
      return err;
    }
    op(block, data + in_block, done, span);
    done += span;
  }
  *out_actual = done;
  return Error::kOk;
}

Error CacheBlkIo::Read(void* buf, off_t64 offset, size_t amount,
                       size_t* out_actual) {
  auto* out = static_cast<uint8_t*>(buf);
  return ForBlocks(offset, amount, out_actual,
                   [out](uint32_t, uint8_t* data, size_t done, size_t span) {
                     std::memcpy(out + done, data, span);
                   });
}

Error CacheBlkIo::Write(const void* buf, off_t64 offset, size_t amount,
                        size_t* out_actual) {
  const auto* in = static_cast<const uint8_t*>(buf);
  return ForBlocks(offset, amount, out_actual,
                   [this, in](uint32_t block, uint8_t* data, size_t done, size_t span) {
                     std::memcpy(data, in + done, span);
                     cache_.MarkDirty(block);
                   });
}

Error CacheBlkIo::Flush() {
  Error err = cache_.Sync();
  if (!Ok(err)) {
    return err;
  }
  return cache_.Barrier();
}

}  // namespace oskit::fs
