#include "src/kern/kmon.h"

#include <cstdarg>

#include "src/libc/format.h"
#include "src/libc/string.h"

namespace oskit {

namespace {

// Parses "<hex-or-dec> [<hex-or-dec>]" command arguments.
bool ParseNumbers(const std::string& args, uint64_t* first, uint64_t* second) {
  const char* p = args.c_str();
  const char* end = nullptr;
  *first = static_cast<uint64_t>(libc::Strtoul(p, &end, 0));
  if (end == p) {
    return false;
  }
  if (second != nullptr) {
    p = end;
    const char* end2 = nullptr;
    uint64_t v = static_cast<uint64_t>(libc::Strtoul(p, &end2, 0));
    if (end2 != p) {
      *second = v;
    }
  }
  return true;
}

}  // namespace

void KernelMonitor::Print(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  libc::Vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  for (const char* p = buf; *p != '\0'; ++p) {
    console_->Putchar(*p);
  }
}

std::string KernelMonitor::ReadLine() {
  std::string line;
  for (;;) {
    int c = console_->Getchar();
    if (c == '\r' || c == '\n') {
      console_->Putchar('\n');
      return line;
    }
    if (c == 0x7f || c == '\b') {
      if (!line.empty()) {
        line.pop_back();
        Print("\b \b");
      }
      continue;
    }
    line.push_back(static_cast<char>(c));
    console_->Putchar(c);  // echo
  }
}

void KernelMonitor::AttachDefaultTraps() {
  auto hook = [this](TrapFrame& frame) -> bool {
    Enter(frame);
    return true;
  };
  Cpu& cpu = kernel_->machine().cpu();
  cpu.SetVector(kTrapBreakpoint, hook);
  cpu.SetVector(kTrapDebug, hook);
  cpu.SetVector(kTrapDivide, hook);
  cpu.SetVector(kTrapGeneralProtection, hook);
  cpu.SetVector(kTrapPageFault, hook);
}

void KernelMonitor::CmdRegs(const TrapFrame& frame) {
  Print("trap %u err=%#x\n", frame.trapno, frame.error_code);
  Print("pc=%#llx sp=%#llx flags=%#llx\n",
        static_cast<unsigned long long>(frame.pc),
        static_cast<unsigned long long>(frame.sp),
        static_cast<unsigned long long>(frame.flags));
  for (int i = 0; i < 8; i += 2) {
    Print("r%d=%#llx r%d=%#llx\n", i,
          static_cast<unsigned long long>(frame.gprs[i]), i + 1,
          static_cast<unsigned long long>(frame.gprs[i + 1]));
  }
}

void KernelMonitor::CmdMem(const std::string& args) {
  uint64_t addr = 0;
  uint64_t len = 16;
  if (!ParseNumbers(args, &addr, &len)) {
    Print("usage: m <addr> [len]\n");
    return;
  }
  PhysMem& phys = kernel_->machine().phys();
  // Wrap-safe: `addr + len` can overflow and sneak past a naive bound.
  if (addr >= phys.size() || len > phys.size() - addr) {
    Print("out of range\n");
    return;
  }
  const auto* p = static_cast<const uint8_t*>(phys.PtrAt(addr));
  for (uint64_t i = 0; i < len; i += 16) {
    Print("%08llx:", static_cast<unsigned long long>(addr + i));
    for (uint64_t j = i; j < i + 16 && j < len; ++j) {
      Print(" %02x", p[j]);
    }
    Print("\n");
  }
}

void KernelMonitor::CmdWrite(const std::string& args) {
  uint64_t addr = 0;
  uint64_t value = ~uint64_t{0};
  if (!ParseNumbers(args, &addr, &value) || value > 0xff) {
    Print("usage: w <addr> <byte>\n");
    return;
  }
  PhysMem& phys = kernel_->machine().phys();
  if (addr >= phys.size()) {
    Print("out of range\n");
    return;
  }
  *static_cast<uint8_t*>(phys.PtrAt(addr)) = static_cast<uint8_t>(value);
  Print("ok\n");
}

void KernelMonitor::CmdTranslate(const std::string& args) {
  if (page_dir_ == nullptr) {
    Print("no page directory attached\n");
    return;
  }
  uint64_t va = 0;
  if (!ParseNumbers(args, &va, nullptr)) {
    Print("usage: t <vaddr>\n");
    return;
  }
  uint32_t pa = 0;
  uint32_t flags = 0;
  Error err = page_dir_->Translate(static_cast<uint32_t>(va), &pa, &flags);
  if (!Ok(err)) {
    Print("not mapped\n");
    return;
  }
  Print("va %#llx -> pa %#x%s%s\n", static_cast<unsigned long long>(va), pa,
        (flags & kPteWritable) != 0 ? " rw" : " ro",
        (flags & kPteUser) != 0 ? " user" : " kernel");
}

void KernelMonitor::CmdCounters(const std::string& args) {
  trace::CounterRegistry& registry = kernel_->trace().registry;
  size_t shown = 0;
  registry.ForEach(
      [this, &shown](const char* name, uint64_t value, bool gauge) {
        Print("%-32s %12llu%s\n", name, static_cast<unsigned long long>(value),
              gauge ? " (gauge)" : "");
        ++shown;
      },
      args);
  if (shown == 0) {
    Print(args.empty() ? "no counters registered\n"
                       : "no counters match that prefix\n");
  }
}

void KernelMonitor::CmdTrace(const std::string& args) {
  trace::FlightRecorder& recorder = kernel_->trace().recorder;
  if (args == "dump") {
    if (recorder.size() == 0) {
      Print("trace ring empty\n");
      return;
    }
    Print("trace: %llu events (%llu recorded total)\n",
          static_cast<unsigned long long>(recorder.size()),
          static_cast<unsigned long long>(recorder.total_recorded()));
    char line[128];
    recorder.ForEach([this, &line](const trace::TraceEvent& event) {
      trace::FlightRecorder::FormatEvent(event, line, sizeof(line));
      Print("%s\n", line);
    });
  } else if (args == "clear") {
    recorder.Clear();
    Print("trace ring cleared\n");
  } else {
    Print("usage: trace dump | trace clear\n");
  }
}

void KernelMonitor::CmdHot() {
  trace::SpanTracker& spans = kernel_->trace().spans;
  spans.DumpHot([this](const char* line) { Print("%s\n", line); });
  if (spans.depth() > 0) {
    Print("open spans (innermost last):\n");
    spans.ForEachOpen([this](const trace::SpanSite* site, uint64_t start_ns,
                             uint64_t child_ns) {
      Print("  OPEN %-26s started=%llu child=%llu\n", site->name(),
            static_cast<unsigned long long>(start_ns),
            static_cast<unsigned long long>(child_ns));
    });
  }
}

void KernelMonitor::CmdFault(const std::string& args) {
  fault::FaultEnv& env = kernel_->fault();
  if (args.empty()) {
    Print("fault env seed=%llu total_fires=%llu\n",
          static_cast<unsigned long long>(env.seed()),
          static_cast<unsigned long long>(env.total_fires()));
    size_t shown = 0;
    env.ForEachSite([this, &shown](const char* site, const fault::FaultSpec& spec,
                                   bool armed, uint64_t calls, uint64_t fires) {
      Print("%-24s %s pct=%u nth=%llu calls=%llu fires=%llu\n", site,
            armed ? "armed   " : "disarmed", spec.probability_percent,
            static_cast<unsigned long long>(spec.nth_call),
            static_cast<unsigned long long>(calls),
            static_cast<unsigned long long>(fires));
      ++shown;
    });
    if (shown == 0) {
      Print("no fault sites touched yet\n");
    }
    return;
  }
  size_t space = args.find(' ');
  std::string sub = args.substr(0, space);
  std::string rest = space == std::string::npos ? "" : args.substr(space + 1);
  if (sub == "arm") {
    size_t sp2 = rest.find(' ');
    std::string site = rest.substr(0, sp2);
    std::string nums = sp2 == std::string::npos ? "" : rest.substr(sp2 + 1);
    uint64_t pct = 0;
    uint64_t nth = 0;
    if (site.empty() || !ParseNumbers(nums, &pct, &nth) || pct > 100) {
      Print("usage: fault arm <site> <pct> [nth]\n");
      return;
    }
    fault::FaultSpec spec;
    spec.probability_percent = static_cast<uint32_t>(pct);
    spec.nth_call = nth;
    env.Arm(site, spec);
    Print("armed %s\n", site.c_str());
  } else if (sub == "disarm") {
    if (rest == "all") {
      env.DisarmAll();
      Print("all sites disarmed\n");
    } else if (!rest.empty()) {
      env.Disarm(rest);
      Print("disarmed %s\n", rest.c_str());
    } else {
      Print("usage: fault disarm <site>|all\n");
    }
  } else if (sub == "seed") {
    uint64_t seed = 0;
    if (!ParseNumbers(rest, &seed, nullptr)) {
      Print("usage: fault seed <n>\n");
      return;
    }
    env.Reseed(seed);
    Print("reseeded to %llu\n", static_cast<unsigned long long>(seed));
  } else {
    Print("usage: fault | fault arm <site> <pct> [nth] | "
          "fault disarm <site>|all | fault seed <n>\n");
  }
}

void KernelMonitor::CmdNicMit(const std::string& args) {
  const auto& nics = kernel_->machine().nics();
  if (nics.empty()) {
    Print("no NICs on this machine\n");
    return;
  }
  if (args.empty()) {
    size_t idx = 0;
    for (const auto& nic : nics) {
      const NicHw::RxMitigation& mit = nic->rx_mitigation();
      Print("nic%llu: threshold=%llu holdoff_us=%llu ring_fallback=%llu "
            "frames=%llu irqs=%llu\n",
            static_cast<unsigned long long>(idx++),
            static_cast<unsigned long long>(mit.frame_threshold),
            static_cast<unsigned long long>(mit.holdoff_ns / 1000),
            static_cast<unsigned long long>(NicHw::kRxRingFallback),
            static_cast<unsigned long long>(nic->rx_coalesce_frames_counter()),
            static_cast<unsigned long long>(nic->rx_coalesce_irqs_counter()));
    }
    return;
  }
  // nicmit <idx> <threshold> <holdoff_us> — three numbers, parsed by hand
  // (ParseNumbers stops at two).  Strtoul negates a signed number and
  // holdoff_us * 1000 can wrap, so both are rejected, never programmed.
  uint64_t v[3] = {};
  const char* end = args.c_str();
  bool ok = args.find_first_of("+-") == std::string::npos;
  for (uint64_t& n : v) {
    const char* p = end;
    n = libc::Strtoul(p, &end, 0);
    ok = ok && end != p;
  }
  const uint64_t idx = v[0], threshold = v[1], holdoff_us = v[2];
  if (!ok || threshold < 1 || holdoff_us > ~uint64_t{0} / 1000) {
    Print("usage: nicmit | nicmit <idx> <threshold> <holdoff_us>\n");
    return;
  }
  if (idx >= nics.size()) {
    Print("no such NIC\n");
    return;
  }
  NicHw::RxMitigation mit = nics[idx]->rx_mitigation();
  mit.frame_threshold = threshold;
  mit.holdoff_ns = holdoff_us * 1000;
  nics[idx]->SetRxMitigation(mit);
  Print("nic%llu: threshold=%llu holdoff_us=%llu\n",
        static_cast<unsigned long long>(idx),
        static_cast<unsigned long long>(threshold),
        static_cast<unsigned long long>(holdoff_us));
}

void KernelMonitor::CmdNetstat() {
  if (!netstat_) {
    Print("no network stack attached\n");
    return;
  }
  netstat_([this](const char* line) { Print("%s\n", line); });
}

void KernelMonitor::CmdTenants() {
  if (!tenants_) {
    Print("no principal registry attached\n");
    return;
  }
  tenants_([this](const char* line) { Print("%s\n", line); });
}

void KernelMonitor::CmdMon() {
  MemMonitor* mon = kernel_->memmon();
  if (mon == nullptr) {
    Print("memory monitor not enabled\n");
    return;
  }
  Print("mon: enabled enforce=%s pages: monitor=%llu kernel=%llu "
        "component=%llu\n",
        mon->enforcing() ? "on" : "OFF (ablation)",
        static_cast<unsigned long long>(
            mon->PageCount(PageProt::kMonitorPrivate)),
        static_cast<unsigned long long>(
            mon->PageCount(PageProt::kKernelWritable)),
        static_cast<unsigned long long>(
            mon->PageCount(PageProt::kComponentWritable)));
  const MemMonitor::Counters& c = mon->counters();
  Print("violations: raised=%llu caught=%llu store=%llu load=%llu "
        "dma=%llu pte=%llu\n",
        static_cast<unsigned long long>(c.raised.value()),
        static_cast<unsigned long long>(
            kernel_->trace().registry.Value("mon.violation.caught")),
        static_cast<unsigned long long>(c.store_violations.value()),
        static_cast<unsigned long long>(c.load_violations.value()),
        static_cast<unsigned long long>(c.dma_violations.value()),
        static_cast<unsigned long long>(c.pte_violations.value()));
  Print("gate: protect=%llu store=%llu domains_killed=%llu\n",
        static_cast<unsigned long long>(c.calls_protect.value()),
        static_cast<unsigned long long>(c.calls_store.value()),
        static_cast<unsigned long long>(c.domains_killed.value()));
  size_t shown = 0;
  mon->ForEachViolation([this, &shown](const MemMonitor::Violation& v) {
    Print("  #%llu domain=%u addr=%#llx access=%s prot=%s\n",
          static_cast<unsigned long long>(v.seq), v.domain,
          static_cast<unsigned long long>(v.addr), MemAccessName(v.access),
          PageProtName(v.prot));
    ++shown;
  });
  if (shown == 0) {
    Print("no violations recorded\n");
  }
}

void KernelMonitor::CmdAio() {
  // The async-storage slice of the counter registry: the stackable layers
  // (aio.*), the IDE glue's native ring, and the journal's commit path.
  trace::CounterRegistry& registry = kernel_->trace().registry;
  size_t shown = 0;
  for (const char* prefix : {"aio.", "glue.ide.ring", "fs.journal"}) {
    registry.ForEach(
        [this, &shown](const char* name, uint64_t value, bool gauge) {
          Print("%-32s %12llu%s\n", name,
                static_cast<unsigned long long>(value), gauge ? " (gauge)" : "");
          ++shown;
        },
        prefix);
  }
  if (shown == 0) {
    Print("no async-storage counters registered\n");
  }
  if (aio_) {
    aio_([this](const char* line) { Print("%s\n", line); });
  }
}

void KernelMonitor::CmdHelp() {
  Print("kmon commands: r regs | m addr [len] | w addr byte | t vaddr | "
        "counters [prefix] | trace dump|clear | hot | "
        "fault [arm|disarm|seed] | "
        "nicmit [idx threshold holdoff_us] | netstat | tenants | mon | "
        "aio | s step | c continue | halt | help\n");
}

void KernelMonitor::Enter(TrapFrame& frame) {
  step_requested_ = false;
  Print("\nkmon: stopped at trap %u (pc=%#llx) — 'help' for commands\n",
        frame.trapno, static_cast<unsigned long long>(frame.pc));
  for (;;) {
    Print("kmon> ");
    std::string line = ReadLine();
    // Split command word / arguments.
    size_t space = line.find(' ');
    std::string cmd = line.substr(0, space);
    std::string args = space == std::string::npos ? "" : line.substr(space + 1);
    if (cmd.empty()) {
      continue;
    }
    ++commands_handled_;
    if (cmd == "r") {
      CmdRegs(frame);
    } else if (cmd == "m") {
      CmdMem(args);
    } else if (cmd == "w") {
      CmdWrite(args);
    } else if (cmd == "t") {
      CmdTranslate(args);
    } else if (cmd == "counters") {
      CmdCounters(args);
    } else if (cmd == "trace") {
      CmdTrace(args);
    } else if (cmd == "hot") {
      CmdHot();
    } else if (cmd == "fault") {
      CmdFault(args);
    } else if (cmd == "nicmit") {
      CmdNicMit(args);
    } else if (cmd == "netstat") {
      CmdNetstat();
    } else if (cmd == "tenants") {
      CmdTenants();
    } else if (cmd == "mon") {
      CmdMon();
    } else if (cmd == "aio") {
      CmdAio();
    } else if (cmd == "s") {
      step_requested_ = true;
      return;
    } else if (cmd == "c") {
      return;
    } else if (cmd == "halt") {
      halted_ = true;
      Print("halted\n");
      return;
    } else if (cmd == "help") {
      CmdHelp();
    } else {
      Print("unknown command '%s'\n", cmd.c_str());
    }
  }
}

}  // namespace oskit
