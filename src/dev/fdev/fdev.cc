#include "src/dev/fdev/fdev.h"

#include <cstring>

namespace oskit {
namespace {

void* DefaultMemAlloc(void* ctx, size_t size, uint32_t flags) {
  auto* kernel = static_cast<KernelEnv*>(ctx);
  uint32_t lmm_flags = (flags & FdevEnv::kDmaReachable) != 0 ? kLmmFlag16Mb : 0;
  return kernel->MemAlloc(size, lmm_flags);
}

void DefaultMemFree(void* ctx, void* ptr, size_t size) {
  static_cast<KernelEnv*>(ctx)->MemFree(ptr, size);
}

void DefaultIrqAttach(void* ctx, int irq, std::function<void()> handler) {
  static_cast<KernelEnv*>(ctx)->IrqRegister(irq, std::move(handler));
}

void DefaultIrqDetach(void* ctx, int irq) {
  static_cast<KernelEnv*>(ctx)->IrqUnregister(irq);
}

// Timer tokens are simulation event ids; kInvalidEvent is 0, so a null
// token can never collide with a live timer.
void* DefaultTimerStart(void* ctx, uint64_t ns, std::function<void()> fn) {
  SimClock& clock = static_cast<KernelEnv*>(ctx)->machine().clock();
  SimClock::EventId id = clock.ScheduleAfter(ns, std::move(fn));
  return reinterpret_cast<void*>(static_cast<uintptr_t>(id));
}

bool DefaultTimerCancel(void* ctx, void* token) {
  SimClock& clock = static_cast<KernelEnv*>(ctx)->machine().clock();
  auto id = static_cast<SimClock::EventId>(reinterpret_cast<uintptr_t>(token));
  return id != SimClock::kInvalidEvent && clock.Cancel(id);
}

}  // namespace

FdevEnv DefaultFdevEnv(KernelEnv* kernel) {
  FdevEnv env;
  env.mem_alloc = &DefaultMemAlloc;
  env.mem_free = &DefaultMemFree;
  env.irq_attach = &DefaultIrqAttach;
  env.irq_detach = &DefaultIrqDetach;
  env.timer_start = &DefaultTimerStart;
  env.timer_cancel = &DefaultTimerCancel;
  env.sleep_env = &kernel->sleep_env();
  env.trace = &kernel->trace();
  env.fault = &kernel->fault();
  env.ctx = kernel;
  return env;
}

std::vector<ComPtr<Device>> DeviceRegistry::LookupByInterface(const Guid& iid) const {
  std::vector<ComPtr<Device>> found;
  for (const ComPtr<Device>& device : devices_) {
    void* probe = nullptr;
    if (Ok(device->Query(iid, &probe))) {
      static_cast<IUnknown*>(probe)->Release();
      found.push_back(device);
    }
  }
  return found;
}

ComPtr<Device> DeviceRegistry::LookupByName(const char* name) const {
  for (const ComPtr<Device>& device : devices_) {
    DeviceInfo info;
    if (Ok(device->GetInfo(&info)) && std::strcmp(info.name, name) == 0) {
      return device;
    }
  }
  return ComPtr<Device>();
}

}  // namespace oskit
