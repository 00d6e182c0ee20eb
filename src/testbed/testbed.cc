#include "src/testbed/testbed.h"

#include "src/base/panic.h"
#include "src/libc/format.h"

namespace oskit::testbed {

InetAddr HostAddr(int index) { return MakeInetAddr(10, 0, 0, static_cast<uint8_t>(index + 1)); }

ComPtr<Socket> Host::MakeSocket(SockType type) {
  ComPtr<Socket> socket;
  Error err = socket_factory->Create(SockDomain::kInet, type, socket.Receive());
  OSKIT_ASSERT_MSG(Ok(err), "socket creation failed");
  return socket;
}

World::World(const EthernetWire::Config& wire_config, fault::FaultEnv* fault)
    : fabric_(&sim_.clock(), wire_config, &trace_),
      fault_(fault::ResolveFaultEnv(fault)) {}

World::World(const VirtualSwitch::Config& switch_config, fault::FaultEnv* fault)
    : fabric_(&sim_.clock(), switch_config, &trace_),
      fault_(fault::ResolveFaultEnv(fault)) {}

World::~World() {
  // Stacks reference machines/kernels; tear down in reverse order.
  for (auto it = hosts_.rbegin(); it != hosts_.rend(); ++it) {
    Host& host = **it;
    host.socket_factory.Reset();
    host.linux_stack.reset();
    host.bsd_driver.reset();
    host.stack.reset();
  }
}

Host& World::AddHost(const std::string& name, NetConfig config) {
  auto host = std::make_unique<Host>();
  int index = static_cast<int>(hosts_.size());
  host->config = config;
  host->addr = HostAddr(index);

  host->machine = std::make_unique<Machine>(&sim_, Machine::Config{name});

  EtherAddr mac{{0x02, 0x00, 0x00, 0x00, 0x00, static_cast<uint8_t>(index + 1)}};
  NicHw* nic = host->machine->AddNic(&fabric_, mac);

  // Boot: MultiBoot load (no modules needed here) + kernel support bring-up.
  BootLoader loader(&host->machine->phys());
  MultiBootInfo info = loader.Load("testbed");
  host->kernel = std::make_unique<KernelEnv>(host->machine.get(), info,
                                             KernelEnv::SleepMode::kFiber,
                                             &host->trace, fault_);
  host->machine->cpu().EnableInterrupts();
  host->fdev = DefaultFdevEnv(host->kernel.get());

  InetAddr netmask = MakeInetAddr(255, 255, 255, 0);

  switch (config) {
    case NetConfig::kOskit:
    case NetConfig::kOskitNapi: {
      // §5 initialization sequence: init Linux ethernet drivers, probe,
      // init the FreeBSD stack, bind, ifconfig.
      linuxdev::InitLinuxEthernet(host->fdev, host->machine.get(), &host->registry);
      host->stack = std::make_unique<net::NetStack>(&host->kernel->sleep_env(),
                                                    &sim_.clock(), &host->trace);
      host->stack->SetFaultEnv(fault_);
      auto devices = host->registry.LookupByInterface(EtherDev::kIid);
      OSKIT_ASSERT_MSG(!devices.empty(), "no ethernet devices probed");
      host->ether_dev = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());
      if (config == NetConfig::kOskitNapi) {
        // Program the NIC's mitigation registers (raise after 8 pending
        // frames or 1 ms, whichever first) and switch the glue to budgeted
        // polled dispatch.  The driver must be configured before Open so the
        // very first IRQ already goes through the poll path.
        NicHw::RxMitigation mit;
        mit.frame_threshold = 8;
        mit.holdoff_ns = 1 * kNsPerMs;
        nic->SetRxMitigation(mit);
        host->ether_dev->EnableRxPoll();
        // Coalescing parks up to a holdoff of traffic per batch on each
        // side; at 100 Mbps that latency pushes the bandwidth-delay product
        // past the 32 KB ttcp-era default, so open the window to (near) the
        // 16-bit advertised-window cap to keep the wire saturated.
        host->stack->SetDefaultSockBuf(60 * 1024);
      }
      int ifindex = -1;
      Error err = host->stack->OpenEtherIf(host->ether_dev, &ifindex);
      OSKIT_ASSERT_MSG(Ok(err), "OpenEtherIf failed");
      host->stack->IfConfig(ifindex, host->addr, netmask);
      host->socket_factory = host->stack->CreateSocketFactory();
      break;
    }
    case NetConfig::kNativeBsd: {
      host->stack = std::make_unique<net::NetStack>(&host->kernel->sleep_env(),
                                                    &sim_.clock(), &host->trace);
      host->stack->SetFaultEnv(fault_);
      host->bsd_driver = std::make_unique<freebsddev::BsdEtherDriver>(
          host->fdev, nic, host->stack.get());
      Error err = host->bsd_driver->Attach();
      OSKIT_ASSERT_MSG(Ok(err), "BSD driver attach failed");
      host->stack->IfConfig(0, host->addr, netmask);
      host->socket_factory = host->stack->CreateSocketFactory();
      break;
    }
    case NetConfig::kNativeLinux: {
      // Native Linux: the same Linux driver core, but bound directly to the
      // skbuff-native stack — no COM, no conversion.
      host->linux_dev = std::make_unique<linuxdev::linux_device>();
      linuxdev::linux_device* dev = host->linux_dev.get();
      oskit::libc::Snprintf(dev->name, sizeof(dev->name), "eth0");
      dev->kenv.kmalloc = +[](void* ctx, size_t size) -> void* {
        auto* kernel = static_cast<KernelEnv*>(ctx);
        return kernel->MemAlloc(size, kLmmFlag16Mb);
      };
      dev->kenv.kfree = +[](void* ctx, void* ptr, size_t size) {
        static_cast<KernelEnv*>(ctx)->MemFree(ptr, size);
      };
      dev->kenv.ctx = host->kernel.get();
      linuxdev::simnic_probe(dev, nic);
      host->linux_stack = std::make_unique<net::linuxstack::LinuxNetStack>(
          &host->kernel->sleep_env(), &sim_.clock(), dev, &host->trace);
      host->kernel->IrqRegister(dev->irq, [dev] { linuxdev::simnic_interrupt(dev); });
      host->linux_stack->IfConfig(host->addr, netmask);
      host->socket_factory = host->linux_stack->CreateSocketFactory();
      break;
    }
  }

  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

void World::RunToCompletion(SimTime deadline) {
  Simulation::RunResult result = sim_.Run(deadline);
  OSKIT_ASSERT_MSG(result == Simulation::RunResult::kAllDone,
                   "simulation deadlocked or hit the deadline");
}

}  // namespace oskit::testbed
