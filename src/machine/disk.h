// Simulated IDE disk hardware.
//
// One outstanding request at a time (like a 1997 IDE controller in PIO/DMA
// mode): the driver programs a read, write or cache-flush, the disk completes
// it after a simulated seek+transfer delay and raises IRQ 14.  The backing
// store is zero-on-demand host memory (src/base/zero_pages.h), so a fresh
// disk reads as zeros and costs only the sectors written to it; the host
// can read it directly to capture images.  Every write lands through
// ZeroPages::MarkWritten, so the store knows which 4 KB pages the disk ever
// wrote: raw() is a SparseImage and an image capture copies only those
// pages.  A destroyed disk zeroes just those pages and parks its platter,
// and the next disk of the same size on the thread takes it over.
//
// Volatile write cache (the durability model): with EnableWriteCache(true)
// the disk behaves like real drives of the era — a completed write is
// immediately VISIBLE (reads see it, raw() sees it) but only becomes DURABLE
// once a Flush command completes.  PowerCut() reconstructs the post-crash
// image: the un-flushed write set is discarded under a seeded policy (drop
// all, drop a random subset, reorder, or tear one sector run mid-write), the
// visible store collapses to the surviving image, and the controller goes
// dead (every further request completes with kIo).  With the cache disabled
// (the default, and the pre-flush-capable 1997 baseline) every completed
// write is durable at once and Flush is a timed no-op.
//
// The durable image is never stored separately.  Each cached write is an
// undo-log entry that keeps the bytes it overwrote; a Flush drops the log,
// and PowerCut rolls the store back to the durable image by restoring the
// pre-images newest-first before it applies the survivors.  Entries keep
// their data and pre-image side by side in one per-disk arena, so logging
// a write is two appends and a flush keeps the arena's capacity.  Both the
// rollback and the written-page set are exact only because write
// completion and PowerCut are the one way the store changes, so raw() is
// read-only.
//
// Fault injection (src/fault): with an environment bound, the disk honours
//   disk.read.error / disk.write.error — complete the request with kIo,
//   disk.flush.error — complete a Flush with kIo without draining the cache,
//   disk.stuck  — accept the request and never complete it (driver
//                 watchdogs must Reset() the controller),
//   disk.slow   — stretch the transfer delay by the site arg (a multiplier),
// modelling the media-error, hung-controller, and degraded-mode behaviours
// real IDE drivers defend against.

#ifndef OSKIT_SRC_MACHINE_DISK_H_
#define OSKIT_SRC_MACHINE_DISK_H_

#include <cstdint>
#include <vector>

#include "src/base/error.h"
#include "src/base/sparse_image.h"
#include "src/base/zero_pages.h"
#include "src/fault/fault.h"
#include "src/machine/clock.h"
#include "src/machine/physmem.h"
#include "src/machine/pic.h"
#include "src/trace/trace.h"

namespace oskit {

class DiskHw {
 public:
  static constexpr int kDefaultIrq = 14;
  static constexpr uint32_t kSectorSize = 512;

  static constexpr SimTime kSeekNs = 100 * kNsPerUs;  // fixed per-request overhead
  static constexpr SimTime kPerByteNs = 20;            // ~50 MB/s transfer

  // How PowerCut() disposes of the un-flushed write set.
  enum class CutPolicy {
    kDropAll,     // nothing since the last flush survives
    kDropSubset,  // each cached write survives with probability 1/2
    kReorder,     // a random subset survives, applied in a shuffled order
    kTear,        // earlier writes survive; the last write lands only a
                  // sector-prefix (a transfer interrupted mid-run)
  };

  // One completed write request, in completion order.
  struct WriteRecord {
    uint64_t lba = 0;
    uint32_t sectors = 0;
  };

  DiskHw(SimClock* clock, Pic* pic, uint64_t sector_count, int irq = kDefaultIrq)
      : clock_(clock), pic_(pic), irq_(irq),
        store_(sector_count * kSectorSize), sector_count_(sector_count) {}

  uint64_t sector_count() const { return sector_count_; }
  int irq() const { return irq_; }
  void SetFaultEnv(fault::FaultEnv* env) { fault_ = env; }

  // IOMMU hookup for the memory monitor (src/machine/memmon.h): when set,
  // read completions whose target buffer lies inside the physical arena
  // land through PhysMem::Dma, so a read programmed at kernel state is a
  // counted mon.violation.dma and the request completes with kIo instead
  // of scribbling.  Buffers outside the arena (host-side test buffers)
  // keep the direct path.
  void AttachDmaMonitor(PhysMem* phys) { dma_phys_ = phys; }
  uint64_t dma_rejected() const { return dma_rejected_; }

  // ---- Driver-facing request interface ----
  // Exactly one request may be outstanding.  Completion raises the IRQ;
  // the driver then reads RequestDone()/RequestStatus().
  void SubmitRead(uint64_t lba, uint32_t sectors, uint8_t* buf);
  void SubmitWrite(uint64_t lba, uint32_t sectors, const uint8_t* buf);
  // Drains the volatile write cache to durable media.  Timed like a write of
  // the cached bytes; a no-op (still timed) when the cache is disabled.
  void SubmitFlush();

  bool Busy() const { return busy_; }
  bool RequestDone() const { return done_; }
  Error RequestStatus() const { return status_; }
  void AckCompletion() { done_ = false; }

  // Controller reset: aborts any outstanding request (its completion will
  // never arrive — no partial transfer reaches the cache or the store) and
  // returns the interface to idle.  Writes already completed into the
  // volatile cache stay cached.  The recovery path a driver watchdog takes
  // after a hung request.
  void Reset();
  uint64_t resets() const { return resets_; }

  // ---- Durability model ----
  // Turning the cache on makes the current store the durable image;
  // turning it off flushes (everything becomes durable).
  void EnableWriteCache(bool on);
  bool write_cache_enabled() const { return wcache_enabled_; }

  // Simulates power loss NOW: un-flushed writes are dropped/torn under the
  // seeded policy, store_ collapses to the surviving (post-crash) image, and
  // the controller goes dead — any outstanding request never completes and
  // every later submit completes with kIo.
  void PowerCut(CutPolicy policy, uint64_t seed);

  // Arms PowerCut to fire synchronously when the `after_writes`-th write
  // request (counted from now) completes; that write is part of the at-risk
  // set and its request completes with kIo (the controller's dying gasp).
  void ArmPowerCut(uint64_t after_writes, CutPolicy policy, uint64_t seed);
  bool powered_off() const { return powered_off_; }

  // Completed write requests in completion order, for write-ordering
  // regression tests (reset by ClearWriteLog).
  const std::vector<WriteRecord>& write_log() const { return write_log_; }
  void ClearWriteLog() { write_log_.clear(); }

  // ---- Host-side read access (image capture, test assertions) ----
  // After a PowerCut this IS the post-crash image.  Converts to the bare
  // byte pointer; MemBlkIo::CreateFrom(raw(), ...) copies only the pages
  // the disk ever wrote.
  SparseImage raw() const { return store_.image(); }
  size_t raw_size() const { return store_.size(); }

  uint64_t reads_completed() const { return reads_completed_; }
  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t flushes_completed() const { return flushes_completed_; }
  size_t cached_writes() const { return wcache_.size(); }

  // Write-cache counters, bound into the registry by the client kernel as
  // disk.wcache.* (the Pit counter-accessor pattern).
  trace::Counter& wcache_writes_counter() { return wcache_writes_; }
  trace::Counter& wcache_flushes_counter() { return wcache_flushes_; }
  trace::Counter& wcache_dropped_counter() { return wcache_dropped_; }
  trace::Counter& wcache_torn_counter() { return wcache_torn_; }

 private:
  // A completed-but-unflushed write (one undo-log entry).  Its bytes sit
  // in undo_arena_ at [at, at + 2n) for n = sectors * kSectorSize: first
  // the data as transferred, so survivors can be replayed per request, then
  // the bytes it overwrote, so the store can be rolled back to the durable
  // image.
  struct CachedWrite {
    uint64_t lba = 0;
    uint32_t sectors = 0;
    size_t at = 0;
  };

  void Complete(Error status);
  // The checks every request passes, in this order: it latches the disk
  // busy; a powered-off disk fails it, a stuck controller never completes
  // it, an out-of-range one fails, and the fault at `site` fails it after
  // `delay`.  False when one of them decided the request.
  bool Admit(uint64_t lba, uint32_t sectors, const char* site, SimTime delay);
  // Applies the disk.slow fault to a nominal delay.
  SimTime EffectiveDelay(SimTime delay);
  SimTime TransferDelay(uint32_t sectors) const {
    return kSeekNs + kPerByteNs * sectors * kSectorSize;
  }
  const uint8_t* WriteData(const CachedWrite& w) const { return undo_arena_.data() + w.at; }
  const uint8_t* PreImage(const CachedWrite& w) const {
    return WriteData(w) + static_cast<size_t>(w.sectors) * kSectorSize;
  }
  // Writes the first `sectors` sectors of `bytes` at `lba` into the store.
  void Apply(uint64_t lba, const uint8_t* bytes, uint32_t sectors);
  void DropUndoLog();

  SimClock* clock_;
  Pic* pic_;
  int irq_;
  ZeroPages store_;  // written only by write completion and PowerCut
  uint64_t sector_count_;
  bool busy_ = false;
  bool done_ = false;
  Error status_ = Error::kOk;
  uint64_t reads_completed_ = 0;
  uint64_t writes_completed_ = 0;
  uint64_t flushes_completed_ = 0;
  uint64_t resets_ = 0;
  SimClock::EventId pending_ = SimClock::kInvalidEvent;
  fault::FaultEnv* fault_ = nullptr;  // null: nothing armed
  PhysMem* dma_phys_ = nullptr;  // monitor-checked DMA when set
  uint64_t dma_rejected_ = 0;

  // Durability model state.
  bool wcache_enabled_ = false;
  bool powered_off_ = false;
  std::vector<CachedWrite> wcache_;  // undo log: completed, not yet durable
  std::vector<uint8_t> undo_arena_;  // the undo log's data and pre-images
  std::vector<WriteRecord> write_log_;
  bool cut_armed_ = false;
  uint64_t cut_at_writes_ = 0;  // absolute writes_completed_ threshold
  CutPolicy cut_policy_ = CutPolicy::kDropAll;
  uint64_t cut_seed_ = 0;
  trace::Counter wcache_writes_;
  trace::Counter wcache_flushes_;
  trace::Counter wcache_dropped_;
  trace::Counter wcache_torn_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_DISK_H_
