#include "src/kern/kernel.h"

#include <cstdio>
#include <cstring>

namespace oskit {

KernelEnv::KernelEnv(Machine* machine, const MultiBootInfo& info, SleepMode sleep_mode,
                     trace::TraceEnv* trace, fault::FaultEnv* fault)
    : machine_(machine),
      info_(info),
      console_(&machine->sim(), &machine->console_uart()),
      trace_(trace::ResolveTraceEnv(trace)),
      fault_(fault::ResolveFaultEnv(fault)) {
  if (sleep_mode == SleepMode::kFiber) {
    sleep_env_ = std::make_unique<FiberSleepEnv>(&machine->sim());
  } else {
    sleep_env_ = std::make_unique<SpinSleepEnv>(&machine->sim());
  }
  // Bring the observability substrate up with the machine: event and span
  // timestamps from the simulated clock, the CPU's dispatch counters and
  // flight-recorder events, and the LMM's allocation instrumentation.
  trace_->recorder.SetTimeSource(
      [clock = &machine->sim().clock()] { return clock->Now(); });
  Cpu& cpu = machine_->cpu();
  Pit& pit = machine_->pit();
  cpu_counters_.Bind(&trace_->registry,
                     {{"machine.trap.dispatched", &cpu.counters().traps_dispatched},
                      {"machine.irq.dispatched", &cpu.counters().irq_dispatched},
                      {"machine.pit.skew_events", &pit.skew_events_counter()},
                      {"machine.pit.skew_compensations",
                       &pit.skew_compensations_counter()}});
  cpu.SetTraceRecorder(&trace_->recorder);
  lmm_.BindTrace(trace_);
  // Thread the fault environment through this kernel's machine: the fault
  // campaign arms one env and every simulated device on the machine sees it.
  lmm_.BindFault(fault_);
  fault_->BindTrace(trace_);
  pit.SetFaultEnv(fault_);
  for (const auto& nic : machine_->nics()) {
    nic->SetFaultEnv(fault_);
    // Per-NIC interrupt-coalescing counters; with several NICs the registry
    // reports the sum, like every other multi-instance binding.
    auto block = std::make_unique<trace::CounterBlock>();
    block->Bind(&trace_->registry,
                {{"nic.rx.coalesce.frames", &nic->rx_coalesce_frames_counter()},
                 {"nic.rx.coalesce.irqs", &nic->rx_coalesce_irqs_counter()},
                 {"nic.rx.coalesce.threshold_fires",
                  &nic->rx_coalesce_threshold_counter()},
                 {"nic.rx.coalesce.holdoff_fires",
                  &nic->rx_coalesce_holdoff_counter()},
                 {"nic.rx.coalesce.ring_fallback_fires",
                  &nic->rx_coalesce_ring_counter()}});
    nic_counters_.push_back(std::move(block));
  }
  for (const auto& disk : machine_->disks()) {
    disk->SetFaultEnv(fault_);
    // Per-disk durability counters; with several disks the registry reports
    // the sum, like every other multi-instance binding.
    auto block = std::make_unique<trace::CounterBlock>();
    block->Bind(&trace_->registry,
                {{"disk.wcache.writes", &disk->wcache_writes_counter()},
                 {"disk.wcache.flushes", &disk->wcache_flushes_counter()},
                 {"disk.wcache.dropped", &disk->wcache_dropped_counter()},
                 {"disk.wcache.torn", &disk->wcache_torn_counter()}});
    disk_counters_.push_back(std::move(block));
  }
  InstallDefaultHandlers();
  SetupMemory();
}

KernelEnv::~KernelEnv() {
  machine_->cpu().SetTraceRecorder(nullptr);
  // The time source captured this machine's clock; don't leave it dangling
  // in a shared (default) environment.
  trace_->recorder.SetTimeSource(nullptr);
  // The fault environment may outlive this kernel's trace registry (a
  // campaign sweeps many worlds with one env); move its reporting back to
  // the process-global default while the registry is still alive.
  fault_->BindTrace(nullptr);
  memmon_.reset();  // detaches itself from PhysMem
  if (memmon_map_ != nullptr) {
    MemFree(memmon_map_, memmon_map_bytes_);
  }
}

Error KernelEnv::EnableMemoryMonitor() {
  if (memmon_ != nullptr) {
    return Error::kExist;
  }
  memmon_ =
      std::make_unique<MemMonitor>(&machine_->phys(), &machine_->cpu(), trace_);
  size_t bytes = memmon_->map_bytes_needed();
  size_t rounded = (bytes + kLmmPageSize - 1) & ~size_t{kLmmPageSize - 1};
  void* storage = MemAllocAligned(rounded, 0, /*align_bits=*/12);
  if (storage == nullptr) {
    memmon_.reset();
    return Error::kNoMem;
  }
  Error err = memmon_->Enable(storage, rounded);
  if (err != Error::kOk) {
    MemFree(storage, rounded);
    memmon_.reset();
    return err;
  }
  memmon_map_ = storage;
  memmon_map_bytes_ = rounded;
  machine_->phys().AttachMonitor(memmon_.get());
  for (const auto& disk : machine_->disks()) {
    disk->AttachDmaMonitor(&machine_->phys());
  }
  mon_counters_.Bind(&trace_->registry,
                     {{"mon.violation.caught", &mon_caught_}});
  // Violations arrive as magic-tagged GP/page faults.  They are counted,
  // attributed, and RECOVERED — the offending domain dies, the world keeps
  // running.  Anything else chains to the previously installed handler
  // (§6.2.4's fall-back discipline), so organic traps still panic/dump.
  for (uint32_t vec :
       {uint32_t{kTrapGeneralProtection}, uint32_t{kTrapPageFault}}) {
    auto prev = std::make_shared<Cpu::Handler>();
    *prev = machine_->cpu().SetVector(
        vec, [this, prev](TrapFrame& frame) -> bool {
          if ((frame.error_code & 0xffff0000u) == MemMonitor::kFaultMagic) {
            ++mon_caught_;
            const MemMonitor::Violation* v = memmon_->last_violation();
            if (v != nullptr && v->domain != MemMonitor::kKernelDomain) {
              memmon_->KillDomain(v->domain);
            }
            return true;  // recovered: the store never landed
          }
          return *prev ? (*prev)(frame) : false;
        });
  }
  return Error::kOk;
}

void KernelEnv::InstallDefaultHandlers() {
  Cpu& cpu = machine_->cpu();
  // Default trap behaviour: dump the frame and panic — the "debugging works
  // as expected" baseline.
  for (uint32_t vec = 0; vec < kIrqBaseVector; ++vec) {
    cpu.SetFallback(vec, [this](TrapFrame& frame) -> bool {
      Panic("%s: unexpected trap\n%s", machine_->name().c_str(),
            FormatTrapFrame(frame).c_str());
      return true;
    });
  }
  // Default IRQ behaviour: count spurious deliveries, don't die.
  for (int irq = 0; irq < Pic::kIrqLines; ++irq) {
    cpu.SetFallback(kIrqBaseVector + irq, [](TrapFrame&) -> bool { return true; });
    cpu.SetVector(kIrqBaseVector + irq, [this, irq](TrapFrame&) -> bool {
      if (irq == Pit::kIrq && timer_handler_) {
        timer_handler_();
        return true;
      }
      if (irq_handlers_[irq]) {
        irq_handlers_[irq]();
        return true;
      }
      return false;  // fall back: spurious
    });
  }
}

void KernelEnv::SetupMemory() {
  PhysMem& phys = machine_->phys();
  uint8_t* base = phys.base();
  size_t total = phys.size();

  // Region types and priorities follow the x86 kernel support library:
  // generic allocations prefer high memory so that scarce low/DMA memory
  // stays available for the allocations that really need it (§3.3).
  lmm_.AddRegion(&region_low_, base, PhysMem::kBiosAreaEnd,
                 kLmmFlag1Mb | kLmmFlag16Mb, /*priority=*/10);
  lmm_.AddRegion(&region_dma_, base + PhysMem::kBiosAreaEnd,
                 PhysMem::kDmaLimit - PhysMem::kBiosAreaEnd, kLmmFlag16Mb,
                 /*priority=*/20);
  if (total > PhysMem::kDmaLimit) {
    lmm_.AddRegion(&region_high_, base + PhysMem::kDmaLimit,
                   total - PhysMem::kDmaLimit, 0, /*priority=*/30);
  }
  lmm_.AddFree(base, total);

  // Reserve page zero (null-pointer guard) and the BIOS/video hole that a
  // real PC would have at 640K..1M.
  lmm_.RemoveFree(base, kLmmPageSize);
  lmm_.RemoveFree(base + 640 * 1024, PhysMem::kBiosAreaEnd - 640 * 1024);

  // Reserve every boot module so the client can use them later (§3.2: the
  // library "automatically locates all of the boot modules loaded with the
  // kernel and reserves the physical memory in which they are located").
  for (const BootModule& module : info_.modules) {
    lmm_.RemoveFree(base + module.start, module.end - module.start);
  }
}

void KernelEnv::IrqRegister(int irq, IrqHandler handler) {
  OSKIT_ASSERT(irq >= 0 && irq < Pic::kIrqLines);
  irq_handlers_[irq] = std::move(handler);
  machine_->pic().Unmask(irq);
}

void KernelEnv::IrqUnregister(int irq) {
  OSKIT_ASSERT(irq >= 0 && irq < Pic::kIrqLines);
  machine_->pic().Mask(irq);
  irq_handlers_[irq] = nullptr;
}

void KernelEnv::SetTrapHandler(uint32_t vector, Cpu::Handler handler) {
  machine_->cpu().SetVector(vector, std::move(handler));
}

void KernelEnv::SetTimer(uint32_t hz, IrqHandler handler) {
  timer_handler_ = std::move(handler);
  machine_->pic().Unmask(Pit::kIrq);
  machine_->pit().Start(hz);
}

void KernelEnv::StopTimer() {
  machine_->pit().Stop();
  machine_->pic().Mask(Pit::kIrq);
  timer_handler_ = nullptr;
}

void* KernelEnv::MemAlloc(size_t size, uint32_t flags) {
  return lmm_.Alloc(size, flags);
}

void* KernelEnv::MemAllocAligned(size_t size, uint32_t flags, unsigned align_bits) {
  return lmm_.AllocAligned(size, flags, align_bits, 0);
}

void KernelEnv::MemFree(void* ptr, size_t size) { lmm_.Free(ptr, size); }

Fiber* KernelEnv::Boot(MainFn main) {
  return sim().Spawn(machine_->name() + "/main", [this, main = std::move(main)] {
    machine_->cpu().EnableInterrupts();
    // Parse the MultiBoot command line into argv, C style.
    std::vector<std::string> args;
    args.push_back(machine_->name());
    const std::string& cmdline = info_.cmdline;
    size_t pos = 0;
    while (pos < cmdline.size()) {
      while (pos < cmdline.size() && cmdline[pos] == ' ') {
        ++pos;
      }
      size_t end = cmdline.find(' ', pos);
      if (end == std::string::npos) {
        end = cmdline.size();
      }
      if (end > pos) {
        args.push_back(cmdline.substr(pos, end - pos));
      }
      pos = end;
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    exit_code_ = main(static_cast<int>(args.size()), argv.data());
    exited_ = true;
  });
}

std::string KernelEnv::FormatTrapFrame(const TrapFrame& frame) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "trap %u, error=%#010x\n"
                "pc=%#018llx sp=%#018llx flags=%#010llx\n"
                "r0=%#llx r1=%#llx r2=%#llx r3=%#llx\n"
                "r4=%#llx r5=%#llx r6=%#llx r7=%#llx",
                frame.trapno, frame.error_code,
                static_cast<unsigned long long>(frame.pc),
                static_cast<unsigned long long>(frame.sp),
                static_cast<unsigned long long>(frame.flags),
                static_cast<unsigned long long>(frame.gprs[0]),
                static_cast<unsigned long long>(frame.gprs[1]),
                static_cast<unsigned long long>(frame.gprs[2]),
                static_cast<unsigned long long>(frame.gprs[3]),
                static_cast<unsigned long long>(frame.gprs[4]),
                static_cast<unsigned long long>(frame.gprs[5]),
                static_cast<unsigned long long>(frame.gprs[6]),
                static_cast<unsigned long long>(frame.gprs[7]));
  return buf;
}

}  // namespace oskit
