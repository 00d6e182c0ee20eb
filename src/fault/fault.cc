#include "src/fault/fault.h"

namespace oskit::fault {

FaultEnv::FaultEnv(uint64_t seed) : seed_(seed), rng_(seed) {}

FaultEnv::~FaultEnv() { UnregisterAll(); }

void FaultEnv::Reseed(uint64_t seed) {
  seed_ = seed;
  rng_ = Rng(seed);
  total_fires_ = 0;
  for (auto& [name, site] : sites_) {
    site.calls = 0;
    site.fires.Reset();
  }
}

void FaultEnv::Arm(const std::string& site_name, const FaultSpec& spec) {
  Site& site = sites_[site_name];
  site.spec = spec;
  if (!site.armed) {
    site.armed = true;
    ++armed_count_;
  }
  if (trace_ != nullptr && !site.registered) {
    RegisterSite(site_name, &site);
  }
}

void FaultEnv::Disarm(const std::string& site_name) {
  auto it = sites_.find(site_name);
  if (it != sites_.end() && it->second.armed) {
    it->second.armed = false;
    --armed_count_;
  }
}

void FaultEnv::DisarmAll() {
  for (auto& [name, site] : sites_) {
    site.armed = false;
  }
  armed_count_ = 0;
}

bool FaultEnv::armed(const std::string& site_name) const {
  auto it = sites_.find(site_name);
  return it != sites_.end() && it->second.armed;
}

bool FaultEnv::ShouldFail(const char* site_name) {
  auto it = sites_.find(site_name);
  if (it == sites_.end() || !it->second.armed) {
    return false;
  }
  Site& site = it->second;
  ++site.calls;
  if (site.fires >= site.spec.max_fires) {
    return false;
  }
  bool fire = site.spec.nth_call != 0 && site.calls == site.spec.nth_call;
  if (!fire && site.spec.probability_percent != 0) {
    fire = rng_.Percent(site.spec.probability_percent);
  }
  if (!fire) {
    return false;
  }
  ++site.fires;
  ++total_fires_;
  if (trace_ != nullptr) {
    trace_->recorder.Record(trace::EventType::kMark, it->first.c_str(),
                            site.calls, site.fires);
  }
  return true;
}

uint64_t FaultEnv::SiteArg(const char* site_name) const {
  auto it = sites_.find(site_name);
  if (it == sites_.end() || !it->second.armed) {
    return 0;
  }
  return it->second.spec.arg;
}

uint64_t FaultEnv::calls(const std::string& site_name) const {
  auto it = sites_.find(site_name);
  return it == sites_.end() ? 0 : it->second.calls;
}

uint64_t FaultEnv::fires(const std::string& site_name) const {
  auto it = sites_.find(site_name);
  return it == sites_.end() ? 0 : it->second.fires.value();
}

void FaultEnv::BindTrace(trace::TraceEnv* env) {
  UnregisterAll();
  trace_ = env;
  if (trace_ != nullptr) {
    for (auto& [name, site] : sites_) {
      RegisterSite(name, &site);
    }
  }
}

void FaultEnv::ForEachSite(
    const std::function<void(const char* site, const FaultSpec& spec,
                             bool armed, uint64_t calls, uint64_t fires)>& fn)
    const {
  for (const auto& [name, site] : sites_) {
    fn(name.c_str(), site.spec, site.armed, site.calls, site.fires.value());
  }
}

void FaultEnv::RegisterSite(const std::string& name, Site* site) {
  trace_->registry.Register("fault." + name, &site->fires);
  site->registered = true;
}

void FaultEnv::UnregisterAll() {
  if (trace_ == nullptr) {
    return;
  }
  for (auto& [name, site] : sites_) {
    if (site.registered) {
      trace_->registry.Unregister("fault." + name, &site.fires);
      site.registered = false;
    }
  }
}

}  // namespace oskit::fault
