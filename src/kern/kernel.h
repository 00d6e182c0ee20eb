// Kernel support library (paper §3.2).
//
// "By default, the kernel support library automatically does everything
// necessary to get the processor into a convenient execution environment in
// which interrupts, traps, debugging, and other standard facilities work as
// expected" — and the client need only provide a standard C-style main().
//
// KernelEnv is that bring-up for a simulated Machine:
//  * installs default trap handlers (panic with a register dump) and lets
//    clients interpose their own handlers that fall back to the defaults
//    (§6.2.4 — how Java/PC catches null-pointer faults itself);
//  * routes PIC IRQs to registered handlers and manages masking;
//  * builds the LMM over physical memory with the conventional x86 region
//    types (<1MB, <16MB DMA, high) and reserves page zero, the BIOS area,
//    and every boot module before handing memory out (§3.2);
//  * provides the base console and the sleep environment;
//  * Boot() spawns the kernel main on a fiber with argc/argv parsed from
//    the MultiBoot command line.

#ifndef OSKIT_SRC_KERN_KERNEL_H_
#define OSKIT_SRC_KERN_KERNEL_H_

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/boot/multiboot.h"
#include "src/fault/fault.h"
#include "src/kern/console.h"
#include "src/lmm/lmm.h"
#include "src/machine/machine.h"
#include "src/machine/memmon.h"
#include "src/sleep/sleep_envs.h"
#include "src/trace/trace.h"

namespace oskit {

class KernelEnv {
 public:
  using IrqHandler = std::function<void()>;
  using MainFn = std::function<int(int argc, char** argv)>;

  enum class SleepMode {
    kFiber,  // park the fiber (threaded client OS)
    kSpin,   // single-threaded example kernel: spin on the sleep record
  };

  // The kernel is the one owner that decides which environment its
  // components report into.  `trace` is the observability environment
  // (src/trace) and `fault` the fault-injection environment (src/fault)
  // wired through this kernel's machine and LMM.  Given null, the kernel
  // makes its own, apart from every other kernel's; its own FaultEnv has
  // nothing armed and reports fires into `trace`.  A handed FaultEnv is
  // bound to a trace environment by whoever handed it.
  KernelEnv(Machine* machine, const MultiBootInfo& info,
            SleepMode sleep_mode = SleepMode::kFiber,
            trace::TraceEnv* trace = nullptr,
            fault::FaultEnv* fault = nullptr);
  ~KernelEnv();

  Machine& machine() { return *machine_; }
  Simulation& sim() { return machine_->sim(); }
  Lmm& lmm() { return lmm_; }
  BaseConsole& console() { return console_; }
  SleepEnv& sleep_env() { return *sleep_env_; }
  trace::TraceEnv& trace() { return *trace_; }
  fault::FaultEnv& fault() { return *fault_; }
  const MultiBootInfo& boot_info() const { return info_; }

  // ---- Interrupts ----
  // Registers `handler` for a PIC IRQ line and unmasks it.
  void IrqRegister(int irq, IrqHandler handler);
  void IrqUnregister(int irq);

  // Installs a custom trap handler; when it returns false the default
  // handler (panic + dump) runs.  Returns a token restoring the old state.
  void SetTrapHandler(uint32_t vector, Cpu::Handler handler);

  // ---- Timer ----
  // Programs the PIT and delivers ticks to `handler` at interrupt level.
  void SetTimer(uint32_t hz, IrqHandler handler);
  void StopTimer();

  // ---- Memory (the f_devmemalloc-style default services, §4.2.1) ----
  // Flags: kLmmFlag16Mb for DMA-reachable memory, 0 otherwise.
  void* MemAlloc(size_t size, uint32_t flags = 0);
  void* MemAllocAligned(size_t size, uint32_t flags, unsigned align_bits);
  void MemFree(void* ptr, size_t size);

  // ---- Memory monitor (src/machine/memmon.h) ----
  // Brings the nested-kernel monitor up over this machine's physical
  // memory: allocates the protection map from the LMM (those pages become
  // monitor-private — the map protects itself), attaches the monitor to
  // PhysMem and to every disk's DMA path, and installs recovery handlers
  // on kTrapGeneralProtection/kTrapPageFault that count
  // mon.violation.caught, kill the offending domain, and resume — never
  // panic.  Non-monitor traps chain to whatever handler was installed
  // before.  kExist when already enabled, kNoMem when the map can't be
  // allocated.
  Error EnableMemoryMonitor();
  // Null until EnableMemoryMonitor() succeeds.
  MemMonitor* memmon() { return memmon_.get(); }

  // ---- Bootstrap ----
  // Spawns the kernel main fiber: enables interrupts, parses the MultiBoot
  // command line into argv, runs `main`, records its exit code.
  Fiber* Boot(MainFn main);

  bool exited() const { return exited_; }
  int exit_code() const { return exit_code_; }

  // Formats a TrapFrame like the OSKit's trap_dump().
  static std::string FormatTrapFrame(const TrapFrame& frame);

 private:
  void InstallDefaultHandlers();
  void SetupMemory();

  Machine* machine_;
  MultiBootInfo info_;
  BaseConsole console_;
  std::unique_ptr<SleepEnv> sleep_env_;
  std::optional<trace::TraceEnv> own_trace_;  // made only when handed none
  trace::TraceEnv* trace_;
  fault::FaultEnv own_fault_;  // probed only when handed none
  fault::FaultEnv* fault_;
  trace::CounterBlock cpu_counters_;
  std::list<trace::CounterBlock> disk_counters_;  // one per disk
  std::list<trace::CounterBlock> nic_counters_;   // one per NIC
  Lmm lmm_;
  LmmRegion region_low_;    // < 1 MB
  LmmRegion region_dma_;    // 1..16 MB
  LmmRegion region_high_;   // > 16 MB
  IrqHandler irq_handlers_[Pic::kIrqLines];
  IrqHandler timer_handler_;
  std::unique_ptr<MemMonitor> memmon_;
  void* memmon_map_ = nullptr;  // LMM pages holding the protection map
  size_t memmon_map_bytes_ = 0;
  trace::Counter mon_caught_;
  trace::CounterBlock mon_counters_;
  bool exited_ = false;
  int exit_code_ = 0;
};

}  // namespace oskit

#endif  // OSKIT_SRC_KERN_KERNEL_H_
