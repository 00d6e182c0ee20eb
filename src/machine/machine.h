// A simulated PC: the composition of CPU, PIC, PIT, UARTs, physical memory,
// and attachable NIC/disk devices, sharing one world's clock and scheduler.
//
// This plays the role of the Pentium Pro test machines in the paper's §5
// evaluation: benchmarks build a world with two Machines on one shared
// segment (a VirtualSwitch built as a hub), boot an OSKit-style kernel on
// each, and run workloads on fibers that block through OSKit sleep records.

#ifndef OSKIT_SRC_MACHINE_MACHINE_H_
#define OSKIT_SRC_MACHINE_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/machine/cpu.h"
#include "src/machine/disk.h"
#include "src/machine/nic.h"
#include "src/machine/physmem.h"
#include "src/machine/pic.h"
#include "src/machine/pit.h"
#include "src/machine/simulation.h"
#include "src/machine/uart.h"

namespace oskit {

class Machine {
 public:
  static constexpr size_t kMemBytes = 32 * 1024 * 1024;

  struct Config {
    std::string name = "pc0";
  };

  Machine(Simulation* sim, const Config& config)
      : sim_(sim),
        name_(config.name),
        phys_(kMemBytes),
        cpu_(),
        pic_(&cpu_),
        pit_(&sim->clock(), &pic_),
        console_uart_(&pic_, /*irq=*/4),
        debug_uart_(&pic_, /*irq=*/3) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const std::string& name() const { return name_; }
  Simulation& sim() { return *sim_; }
  SimClock& clock() { return sim_->clock(); }
  PhysMem& phys() { return phys_; }
  Cpu& cpu() { return cpu_; }
  Pic& pic() { return pic_; }
  Pit& pit() { return pit_; }
  Uart& console_uart() { return console_uart_; }
  Uart& debug_uart() { return debug_uart_; }

  NicHw* AddNic(VirtualSwitch* fabric, const EtherAddr& mac,
                int irq = NicHw::kDefaultIrq) {
    nics_.push_back(
        std::make_unique<NicHw>(fabric, &pic_, &sim_->clock(), mac, irq));
    return nics_.back().get();
  }

  DiskHw* AddDisk(uint64_t sector_count, int irq = DiskHw::kDefaultIrq) {
    disks_.push_back(std::make_unique<DiskHw>(&sim_->clock(), &pic_, sector_count, irq));
    return disks_.back().get();
  }

  const std::vector<std::unique_ptr<NicHw>>& nics() const { return nics_; }
  const std::vector<std::unique_ptr<DiskHw>>& disks() const { return disks_; }

 private:
  Simulation* sim_;
  std::string name_;
  PhysMem phys_;
  Cpu cpu_;
  Pic pic_;
  Pit pit_;
  Uart console_uart_;
  Uart debug_uart_;
  std::vector<std::unique_ptr<NicHw>> nics_;
  std::vector<std::unique_ptr<DiskHw>> disks_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_MACHINE_H_
