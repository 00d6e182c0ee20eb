// Glue encapsulating the Linux-idiom Ethernet driver (paper §4.7, §4.7.3).
//
// A thin layer that (a) emulates the Linux kernel environment the imported
// driver expects (kmalloc, request_irq) on top of the fdev osenv, (b) exports
// the driver as COM Device + EtherDev objects, and (c) converts packets at
// the boundary:
//
//   receive:  skbuff --(wrap, no copy)--> BufIo --> client's NetIo
//   transmit: BufIo --Map ok--> "fake" skbuff around the mapped data (no
//             copy; native skbuffs, recognised by their function-table
//             pointer, pass straight through this way, §4.7.3); --Map fails
//             but the object Queries as BufIoVec and the driver has gather
//             DMA--> scatter-gather transmit straight from the object's
//             segments (no copy, no flatten); --otherwise--> dev_alloc_skb
//             + Read (the copy the paper blamed for the OSKit's lower send
//             bandwidth, §5 — now only the fallback).
//
// The glue alone makes that choice, from what the driver has: gather DMA
// is the driver's hard_start_xmit_vec entry point, not a flag in the stack
// or the buffer.  WithoutGatherDma() binds the simnic without it, which
// is the Linux 2.0.29 driver of the paper's Table 1: every discontiguous
// packet is copied.

#ifndef OSKIT_SRC_DEV_LINUX_LINUX_GLUE_H_
#define OSKIT_SRC_DEV_LINUX_LINUX_GLUE_H_

#include <memory>
#include <string>

#include "src/base/free_list.h"
#include "src/com/device.h"
#include "src/com/etherdev.h"
#include "src/dev/fdev/fdev.h"
#include "src/dev/linux/linux_ether.h"

namespace oskit::linuxdev {

// BufIo face of a received skbuff.  The GUID below identifies THIS concrete
// implementation (not an abstract interface): querying for it is the C++
// rendering of the paper's "the Linux glue code can easily recognize
// 'foreign' bufio objects by checking their function table pointer".
inline constexpr Guid kSkBuffIoImplIid =
    MakeGuid(0x7b331990, 0x0e01, 0x11d0, 0xa6, 0xbe, 0x00, 0xa0, 0xc9, 0x0a, 0x5f,
             0x40);

// Free-list high-water mark of SkBuffIo wrappers, one per received frame:
// the stack above keeps a wrapper while the frame's bytes sit in a socket.
inline constexpr size_t kSkBuffIoCacheMax = 256;

class SkBuffIo final : public ComObject<SkBuffIo, BufIo, BlkIo>,
                       public FreeListed<SkBuffIo, kSkBuffIoCacheMax> {
 public:
  // Takes ownership of `skb`.
  SkBuffIo(const LinuxKernelEnv& kenv, sk_buff* skb) : kenv_(kenv), skb_(skb) {
    skb->oskit_bufio = this;  // the one-word glue field (§4.7.3)
  }

  // Also answers kSkBuffIoImplIid.
  Error Query(const Guid& iid, void** out) override;

  uint32_t GetBlockSize() override { return 1; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override;
  Error Map(void** out_addr, off_t64 offset, size_t amount) override;
  Error Unmap(void* addr, off_t64 offset, size_t amount) override { return Error::kOk; }

 private:
  friend class RefCounted<SkBuffIo>;
  ~SkBuffIo();

  LinuxKernelEnv kenv_;
  sk_buff* skb_;
};

// The encapsulated driver as a COM device.
class LinuxEtherDev final : public ComObject<LinuxEtherDev, Device, EtherDev> {
 public:
  // Boundary counters, registered with the trace environment's registry
  // under "glue.send.*" / "glue.recv.*" / "glue.rx.poll.*" /
  // "glue.recov.*".
  struct Counters {
    trace::Counter native_passthrough;  // our own skbuff handed back: no work
    trace::Counter fake_skbuff;         // foreign buffer mapped: zero copy
    trace::Counter sg_frames;           // discontiguous buffer gathered: zero copy
    trace::Counter sg_segments;         // total segments across sg_frames
    trace::Counter copied;              // foreign buffer unmappable: copied
    trace::Counter copied_bytes;
    trace::Counter rx_push_errors;      // client NetIo::Push refused a frame
    trace::Counter rx_oom_drops;        // driver dropped: no skbuff memory
    trace::Counter rx_watchdog_recoveries;  // ring drained after a lost IRQ
    trace::Counter rx_polls;            // budgeted poll dispatches
    trace::Counter rx_poll_frames;      // frames delivered by those polls
    trace::Counter rx_poll_budget_exhausted;  // polls that hit the budget
    trace::Counter rx_poll_reenable_races;    // frames caught by the re-check
  };

  // NAPI-style polled receive.  Off by default (per-frame 1997 behaviour,
  // the ablation baseline).  Once enabled, the ISR masks the RX interrupt
  // and defers to a budgeted poll: drain up to kRxPollBudget frames, then
  // either keep polling (budget exhausted) or re-enable the interrupt and
  // RE-CHECK the ring — a frame can arrive between the final drain and the
  // re-enable, raising no IRQ (the hardware does not latch); without the
  // re-check it strands until the watchdog.  The delays model softirq
  // scheduling and the ISR exit path.
  static constexpr int kRxPollBudget = 16;
  static constexpr uint64_t kRxSoftirqDelayNs = 2 * 1000;   // IRQ -> poll dispatch
  static constexpr uint64_t kRxReenableDelayNs = 2 * 1000;  // last drain -> re-enable+re-check

  LinuxEtherDev(const FdevEnv& env, NicHw* hw, std::string name);

  // Device
  Error GetInfo(DeviceInfo* out_info) override;

  // EtherDev
  Error Open(NetIo* recv, NetIo** out_send) override;
  Error Close() override;
  Error GetAddr(EtherAddr* out_addr) override;

  const Counters& counters() const { return counters_; }
  const net_device_stats& device_stats() const { return dev_.stats; }

  // Switches RX to polled receive, for good.  Call before Open so the very
  // first IRQ already takes the poll path.
  void EnableRxPoll() { rx_poll_ = true; }

  // Unbinds the driver's gather entry point, for good: a discontiguous
  // packet then takes the copy path.
  void WithoutGatherDma() { dev_.hard_start_xmit_vec = nullptr; }

  // Transmit entry used by the send-side NetIo.
  Error Transmit(BufIo* packet, size_t size);

 private:
  friend class RefCounted<LinuxEtherDev>;
  ~LinuxEtherDev();

  static void NetifRxThunk(void* ctx, linux_device* dev, sk_buff* skb);

  // Folds the driver's private drop statistics into the registry counters.
  void SyncRxStats();
  // RX watchdog: a periodic timer (fdev timer service) that drains the ring
  // if frames are waiting with no interrupt — the recovery for a lost IRQ.
  void ArmRxWatchdog();
  void RxWatchdogTick();
  void CancelRxWatchdog();

  // Polled-RX machinery (see kRxPollBudget).
  void RxIrq();             // the ISR: per-frame drain, or mask + defer
  void RxPollDispatch();    // budgeted drain, batched into the stack
  void RxReenable();        // re-enable the interrupt, then re-check
  void ScheduleRxPoll(uint64_t delay_ns);
  void CancelRxPollEvents();
  bool RxPollInFlight() const {
    return poll_token_ != nullptr || reenable_token_ != nullptr;
  }

  FdevEnv env_;
  linux_device dev_;
  std::string name_;
  ComPtr<NetIo> client_recv_;
  ComPtr<NetIoBatch> batch_recv_;  // client_recv_'s batch face, if it has one
  trace::TraceEnv* trace_;
  Counters counters_;
  trace::CounterBlock trace_binding_;
  uint64_t last_rx_dropped_ = 0;
  void* watchdog_token_ = nullptr;
  bool rx_poll_ = false;
  void* poll_token_ = nullptr;      // pending RxPollDispatch timer
  void* reenable_token_ = nullptr;  // pending RxReenable timer
};

// §5's fdev_linux_init_ethernet + fdev_probe rolled together: probes every
// simulated NIC on the machine with the Linux driver set and registers the
// resulting devices.
Error InitLinuxEthernet(const FdevEnv& env, Machine* machine,
                        DeviceRegistry* registry);

}  // namespace oskit::linuxdev

#endif  // OSKIT_SRC_DEV_LINUX_LINUX_GLUE_H_
