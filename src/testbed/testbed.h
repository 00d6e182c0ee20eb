// Test/benchmark world builder.
//
// Assembles the §5 experimental setup: simulated PCs on one Ethernet
// segment (or, for scale-out runs, one switch), each booted through the
// kernel support library, with the network components bound in one of the
// evaluation's configurations:
//
//   kOskit      — FreeBSD-idiom stack + Linux-idiom driver, joined through
//                 COM NetIo/BufIo glue (the paper's OSKit row);
//   kNativeBsd  — the same stack bound to the BSD-idiom native driver with
//                 no COM boundary (the paper's "FreeBSD" baseline row);
//   kNativeLinux— the Linux-idiom baseline stack (contiguous skbuffs end to
//                 end) bound directly to the Linux driver core (the paper's
//                 "Linux" baseline row);
//   kOskitNapi  — the kOskit binding with RX interrupt mitigation programmed
//                 on the NIC (threshold 8 frames / 1 ms holdoff) and the
//                 budgeted polled-RX dispatch enabled in the glue.

#ifndef OSKIT_SRC_TESTBED_TESTBED_H_
#define OSKIT_SRC_TESTBED_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dev/fdev/fdev.h"
#include "src/dev/freebsd/freebsd_ether.h"
#include "src/dev/linux/linux_glue.h"
#include "src/kern/kernel.h"
#include "src/machine/machine.h"
#include "src/machine/switch.h"
#include "src/net/linux/linux_stack.h"
#include "src/net/stack.h"

namespace oskit::testbed {

enum class NetConfig {
  kOskit,
  kNativeBsd,
  kNativeLinux,
  kOskitNapi,
};

// One simulated PC with a kernel environment and a bound network stack.
struct Host {
  // Per-host observability environment: every component on this host reports
  // into this registry/recorder, so benchmarks can read per-sender counters.
  // First member so it outlives everything that registers with it.
  trace::TraceEnv trace;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<KernelEnv> kernel;
  FdevEnv fdev;
  DeviceRegistry registry;
  NetConfig config = NetConfig::kOskit;
  InetAddr addr;

  // BSD-idiom stack (kOskit / kNativeBsd).
  std::unique_ptr<net::NetStack> stack;
  // The Linux driver glue the kOskit stack is bound through (held by
  // `registry`); null in the native configurations.
  linuxdev::LinuxEtherDev* ether_dev = nullptr;
  std::unique_ptr<freebsddev::BsdEtherDriver> bsd_driver;
  ComPtr<SocketFactory> socket_factory;

  // Linux-idiom stack (kNativeLinux).
  std::unique_ptr<linuxdev::linux_device> linux_dev;
  std::unique_ptr<net::linuxstack::LinuxNetStack> linux_stack;

  // Convenience: make a stream/dgram socket on whichever stack is bound.
  ComPtr<Socket> MakeSocket(SockType type);
};

class World {
 public:
  // The paper's shared segment: every AddHost NIC attaches to a hub, one
  // collision domain (src/machine/switch.h).  `fault` is the
  // fault-injection environment every host's kernel, devices and stack bind
  // to; null binds the process-global default.  A campaign passes one
  // per-seed env and arms sites on it before/while running.
  explicit World(const EthernetWire::Config& wire_config = {},
                 fault::FaultEnv* fault = nullptr);
  // Switched fabric: every AddHost NIC gets its own port on a learning
  // switch.  This is the scale-out topology the C10k benchmark uses.
  explicit World(const VirtualSwitch::Config& switch_config,
                 fault::FaultEnv* fault = nullptr);
  ~World();

  Simulation& sim() { return sim_; }
  // The fabric hosts attach to, hub or switch.
  VirtualSwitch& fabric() { return fabric_; }
  // The fabric's own observability environment: its switch.* counters
  // report here, apart from every host and from other worlds.
  trace::TraceEnv& trace() { return trace_; }

  // Adds a host with one NIC attached to the segment, books it through the
  // loader/kernel-support path, and binds the requested network stack.
  // The host index doubles as the last MAC/IP octet (10.0.0.<index+1>).
  Host& AddHost(const std::string& name, NetConfig config);

  Host& host(size_t i) { return *hosts_[i]; }
  size_t host_count() const { return hosts_.size(); }

  // Runs the world until all fibers finish; panics on deadlock or when the
  // simulated-time deadline passes (default: 10 simulated minutes).
  void RunToCompletion(SimTime deadline = 600 * kNsPerSec);

 private:
  Simulation sim_;
  trace::TraceEnv trace_;  // outlives the fabric's counter binding
  VirtualSwitch fabric_;
  fault::FaultEnv* fault_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

InetAddr HostAddr(int index);

}  // namespace oskit::testbed

#endif  // OSKIT_SRC_TESTBED_TESTBED_H_
