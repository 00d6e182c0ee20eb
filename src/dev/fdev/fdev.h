// Device-driver framework (paper §3.6) and the driver execution
// environment.
//
// FdevEnv is the "osenv": the set of services an encapsulated driver's glue
// code may ask of the client OS — memory typed for DMA, interrupt
// attachment, timers, and sleep records.  Every entry has a default
// implementation bound to the kernel support library, and every entry can be
// overridden by the client (§4.2.1's f_devmemalloc pattern: "A default
// implementation of this function is provided ... but this default can
// easily be overridden by the client OS").  The services are required, not
// optional: an env starts as DefaultFdevEnv, a client replaces entries but
// never clears one, and a driver checks the ones it uses once at
// construction.
//
// DeviceRegistry is fdev_probe / fdev_device_lookup: drivers register the
// devices they find; clients look them up by the COM interface they need.

#ifndef OSKIT_SRC_DEV_FDEV_FDEV_H_
#define OSKIT_SRC_DEV_FDEV_FDEV_H_

#include <functional>
#include <vector>

#include "src/base/panic.h"
#include "src/com/device.h"
#include "src/kern/kernel.h"
#include "src/sleep/sleep.h"

namespace oskit {

struct FdevEnv {
  // Memory flags.
  static constexpr uint32_t kDmaReachable = 1;  // must sit below 16 MB

  void* (*mem_alloc)(void* ctx, size_t size, uint32_t flags) = nullptr;
  void (*mem_free)(void* ctx, void* ptr, size_t size) = nullptr;

  // Interrupt management.  The handler runs at interrupt level.
  void (*irq_attach)(void* ctx, int irq, std::function<void()> handler) = nullptr;
  void (*irq_detach)(void* ctx, int irq) = nullptr;

  // One-shot timers, for driver watchdogs: `fn` runs at interrupt level
  // after `ns`.  timer_start returns a token for timer_cancel; cancelling
  // an already-fired timer is a harmless no-op returning false.
  void* (*timer_start)(void* ctx, uint64_t ns, std::function<void()> fn) = nullptr;
  bool (*timer_cancel)(void* ctx, void* token) = nullptr;

  // Blocking: the one primitive (§4.7.6).
  SleepEnv* sleep_env = nullptr;

  // Observability environment the glue reports into (src/trace); required.
  trace::TraceEnv* trace = nullptr;

  // Fault-injection environment the glue probes (src/fault); null: nothing
  // armed.
  fault::FaultEnv* fault = nullptr;

  void* ctx = nullptr;
};

// The default environment: LMM memory, KernelEnv IRQ routing, the machine
// clock, and the kernel's sleep, trace and fault environments.
FdevEnv DefaultFdevEnv(KernelEnv* kernel);

// A driver's one check of the timer services it arms watchdogs and polls
// with, as trace::Required is for the trace environment.
inline const FdevEnv& RequireTimers(const FdevEnv& env) {
  OSKIT_ASSERT_MSG(env.timer_start && env.timer_cancel, "no timer service");
  return env;
}

class DeviceRegistry {
 public:
  DeviceRegistry() = default;
  DeviceRegistry(const DeviceRegistry&) = delete;
  DeviceRegistry& operator=(const DeviceRegistry&) = delete;

  void Register(ComPtr<Device> device) { devices_.push_back(std::move(device)); }

  size_t count() const { return devices_.size(); }

  // All devices exposing the interface `iid` (fdev_device_lookup).
  std::vector<ComPtr<Device>> LookupByInterface(const Guid& iid) const;

  // First device whose DeviceInfo::name matches.
  ComPtr<Device> LookupByName(const char* name) const;

 private:
  std::vector<ComPtr<Device>> devices_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_DEV_FDEV_FDEV_H_
