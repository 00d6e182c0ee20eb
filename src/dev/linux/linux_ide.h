// The "imported" Linux-2.0-style IDE disk driver and its glue.
//
// Core idiom: a request struct, an interrupt handler completing the current
// request, and sleep_on/wake_up blocking — the Linux half of §4.7.6's
// "the interrupt handler in a device driver uses [sleep/wakeup] to wake up
// a blocked read or write request after it has completed".  The glue binds
// sleep_on_timeout/wake_up to OSKit sleep records and exports the drive as
// COM Device + BlkIo, so any filesystem can be bound to it at run time
// (§4.2.2).
//
// Robustness: like its ancestor, the driver defends against misbehaving
// hardware.  A request that reports a media error is retried with
// exponential backoff up to kIdeMaxRetries before the error is surfaced to the
// BlkIo client; a request whose completion interrupt never arrives trips a
// watchdog (sleep_on_timeout), the controller is reset, and the request is
// reissued.  Both the retries and the resets are counted into the trace
// registry (glue.ide.*), so a fault campaign can check every injected disk
// fault produced a recovery action.

#ifndef OSKIT_SRC_DEV_LINUX_LINUX_IDE_H_
#define OSKIT_SRC_DEV_LINUX_LINUX_IDE_H_

#include <deque>
#include <string>
#include <vector>

#include "src/com/aio.h"
#include "src/com/blkio.h"
#include "src/com/device.h"
#include "src/dev/fdev/fdev.h"
#include "src/dev/linux/skbuff.h"
#include "src/machine/disk.h"
#include "src/trace/trace.h"

namespace oskit::linuxdev {

// The Linux-ish blocking services the imported block driver expects.
// Both services are required: every request sleeps under the watchdog.
struct LinuxBlockEnv {
  void (*wake_up)(void* ctx, void* chan) = nullptr;
  // Bounded sleep for the request watchdog: returns true when `ns` elapsed
  // with no wake_up.
  bool (*sleep_on_timeout)(void* ctx, void* chan, uint64_t ns) = nullptr;
  void* ctx = nullptr;
};

// Recovery policy: the watchdog's first timeout (doubled on every retry)
// and the retries before an error reaches the BlkIo client.
inline constexpr uint64_t kIdeTimeoutNs = 50 * 1000 * 1000;  // 50 ms
inline constexpr uint32_t kIdeMaxRetries = 4;

// The "imported" driver core.
struct ide_drive {
  oskit::DiskHw* hw = nullptr;
  LinuxBlockEnv benv;

  // Current request state (one outstanding, 1997 IDE).
  bool busy = false;
  bool done = false;
  oskit::Error status = oskit::Error::kOk;

  uint64_t requests_issued = 0;
  uint64_t irqs_handled = 0;
  oskit::trace::Counter retries;           // error status -> reissued
  oskit::trace::Counter watchdog_resets;   // lost completion -> hw reset
  oskit::trace::Counter errors_surfaced;   // retries exhausted
};

// Issues a request and blocks until the completion interrupt, retrying
// transient errors and watchdog-resetting a hung controller.  Returns
// kBusy (without blocking) if a request is already outstanding.
oskit::Error ide_do_request(ide_drive* drive, uint64_t lba, uint32_t sectors,
                            uint8_t* buf, bool write);

// Issues a cache-flush command (WIN_FLUSH_CACHE) through the same blocking,
// retry and watchdog machinery.  On success every previously acknowledged
// write is durable.
oskit::Error ide_do_flush(ide_drive* drive);

// The interrupt handler the glue attaches to IRQ 14.
void ide_interrupt(ide_drive* drive);

// ---------------------------------------------------------------------------
// Glue: COM export
// ---------------------------------------------------------------------------

// Exports the drive as Device + BlkIo + BlkIoBarrier + BlkIoRing.  The ring
// is where the glue earns its keep: a deep submission batch is sorted by
// LBA and adjacent whole-sector requests are merged into single multi-count
// controller commands (up to the 64-sector IDE limit), so queue depth
// amortizes the fixed per-request seek/IRQ round-trip that the synchronous
// call-per-block path pays every time.  Counters land under glue.ide.ring.*.
class LinuxIdeDev final
    : public ComObject<LinuxIdeDev, Device, BlkIo, BlkIoBarrier, BlkIoRing> {
 public:
  LinuxIdeDev(const FdevEnv& env, oskit::DiskHw* hw, std::string name);

  // Device
  Error GetInfo(DeviceInfo* out_info) override;

  // BlkIo: byte-granular offsets; partial sectors handled by
  // read-modify-write in the glue, as the real blkio glue did.
  uint32_t GetBlockSize() override { return oskit::DiskHw::kSectorSize; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override;

  // BlkIoBarrier: drains the drive's volatile write cache.
  Error Flush() override { return ide_do_flush(&drive_); }

  // BlkIoRing: queue-depth-aware scheduling (LBA sort + adjacent merge).
  static constexpr size_t kRingDepth = 64;
  Error Submit(const AioSqe* sqes, size_t count, size_t* out_accepted) override;
  Error Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) override;
  size_t Occupancy() override { return cq_.size(); }

  const ide_drive& drive() const { return drive_; }

  // Sleep-record plumbing the emulated sleep_on_timeout/wake_up bind to
  // (§4.7.6).
  void WakeCompletion() { completion_.Wakeup(); }
  // Bounded sleep via the fdev timer service; true when the watchdog fired
  // first.
  bool SleepCompletionTimeout(uint64_t ns);

 private:
  friend class RefCounted<LinuxIdeDev>;
  ~LinuxIdeDev();

  // The one sector walk under Read and Write: whole sectors move straight
  // between `buf` and the disk, up to 64 per request (the old IDE
  // multi-sector limit); a partial sector bounces through a sector buffer,
  // read first and, for a write, written back (read-modify-write).
  Error Transfer(uint8_t* buf, off_t64 offset, size_t amount, bool write,
                 size_t* out_actual);

  // Executes one scheduled run of merged whole-sector SQEs (or one odd SQE
  // through the slow byte path) and queues its CQEs.
  void CompleteSqe(const AioSqe& sqe);
  void RunMerged(const std::vector<const AioSqe*>& run, bool write);

  FdevEnv env_;
  ide_drive drive_;
  std::string name_;
  SleepRecord completion_;
  trace::CounterBlock trace_binding_;

  std::deque<AioCqe> cq_;
  trace::Counter ring_sqes_;      // SQEs accepted
  trace::Counter ring_merges_;    // multi-SQE controller commands issued
  trace::Counter ring_merged_;    // SQEs that rode a merged command
};

// Probes every simulated disk on the machine, registering "hda", "hdb", ...
Error InitLinuxIde(const FdevEnv& env, Machine* machine, DeviceRegistry* registry);

}  // namespace oskit::linuxdev

#endif  // OSKIT_SRC_DEV_LINUX_LINUX_IDE_H_
