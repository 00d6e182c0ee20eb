// Write-back block cache over a BlkIo, in the style of the BSD buffer cache
// the imported filesystem code expected.
//
// Durability: the cache discovers the device's BlkIoBarrier extension via
// Query at construction.  Sync() writes dirty blocks back in ascending block
// order — a deterministic sequence the crash-point campaign depends on —
// and Barrier() makes everything written so far durable.  Writing back does
// NOT make data durable on a device with a volatile write cache; callers
// sequence WriteBack/Sync and Barrier to build ordering guarantees (the
// journal's commit protocol lives in src/fs/journal).

#ifndef OSKIT_SRC_FS_CACHE_H_
#define OSKIT_SRC_FS_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/com/blkio.h"
#include "src/trace/trace.h"

namespace oskit::fs {

class BlockCache {
 public:
  // Registered with the trace environment's registry under "fs.cache.*".
  struct Counters {
    trace::Counter hits;
    trace::Counter misses;
    trace::Counter writebacks;
    trace::Counter barriers;
  };

  // `capacity` is the number of cached blocks before LRU eviction.  `trace`
  // is the observability environment to report into.
  BlockCache(ComPtr<BlkIo> device, uint32_t block_size, size_t capacity,
             trace::TraceEnv* trace);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  uint32_t block_size() const { return block_size_; }

  // Returns a pointer to the cached block contents, reading it in if absent
  // (bread).  The pointer stays valid until the next cache call.
  Error Get(uint32_t block, uint8_t** out_data);

  // Marks a block dirty (bdwrite).
  void MarkDirty(uint32_t block);

  // Zero-fills a block through the cache and marks it dirty.
  Error ZeroBlock(uint32_t block);

  // Writes all dirty blocks back in ascending block order (sync).  Does NOT
  // issue a barrier; pair with Barrier() for a durability point.
  Error Sync();

  // Dirty block numbers in ascending order (what Sync would write).
  std::vector<uint32_t> CollectDirty() const;

  // Writes one dirty block back (no-op when absent or clean).
  Error WriteBackOne(uint32_t block);

  // Durability point: everything written back before this call survives a
  // power cut.  kOk trivially when the device exports no BlkIoBarrier.
  Error Barrier();

  // Blocks for which `pin` returns true are never evicted while dirty —
  // the journal pins an open transaction's metadata so no home-location
  // write precedes the commit record.  Clean blocks always evict.
  void SetEvictionPin(std::function<bool(uint32_t)> pin);

  // Zero-copy export (the FFS sendfile path): pins the block's cached
  // contents and returns a pointer that stays valid — the entry is never
  // evicted and its heap storage never moves — until the matching PutRef.
  // Unlike Get's pointer, this one survives later cache calls.
  Error GetRef(uint32_t block, const uint8_t** out_data);
  void PutRef(uint32_t block);

  const Counters& counters() const { return counters_; }
  uint64_t hits() const { return counters_.hits; }
  uint64_t misses() const { return counters_.misses; }
  uint64_t writebacks() const { return counters_.writebacks; }

 private:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    uint32_t refs = 0;  // GetRef pins outstanding; never evicted while > 0
    std::list<uint32_t>::iterator lru_pos;
  };

  Error EvictOne();
  Error WriteBack(uint32_t block, Entry& entry);
  void Touch(Entry& entry);

  ComPtr<BlkIo> device_;
  ComPtr<BlkIoBarrier> barrier_;  // null when the device has none
  uint32_t block_size_;
  size_t capacity_;
  std::unordered_map<uint32_t, Entry> entries_;
  std::list<uint32_t> lru_;  // front = most recent
  std::function<bool(uint32_t)> pin_;
  trace::TraceEnv* trace_;
  Counters counters_;
  trace::CounterBlock trace_binding_;
};

// The block cache as just another stackable layer: a BlkIo + BlkIoBarrier
// facade over an embedded BlockCache, so `cache(checksum(stripe(...)))` and
// every other composition order work with the same object the filesystem
// has always used.  Flush() is the layer spelling of the cache's durability
// pair: Sync() (write back all dirty blocks, ascending) then Barrier().
class CacheBlkIo final : public ComObject<CacheBlkIo, BlkIo, BlkIoBarrier> {
 public:
  static ComPtr<CacheBlkIo> Create(BlkIo* below, uint32_t block_size,
                                   size_t capacity, trace::TraceEnv* trace);

  uint32_t GetBlockSize() override { return cache_.block_size(); }
  Error Read(void* buf, off_t64 offset, size_t amount,
             size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override {
    *out_size = size_;
    return Error::kOk;
  }

  Error Flush() override;

  BlockCache& cache() { return cache_; }

 private:
  friend class RefCounted<CacheBlkIo>;
  CacheBlkIo(ComPtr<BlkIo> below, uint32_t block_size, size_t capacity,
             trace::TraceEnv* trace);
  ~CacheBlkIo() = default;

  template <typename OpFn>
  Error ForBlocks(off_t64 offset, size_t amount, size_t* out_actual, OpFn&& op);

  BlockCache cache_;
  off_t64 size_ = 0;
};

}  // namespace oskit::fs

#endif  // OSKIT_SRC_FS_CACHE_H_
