#include "src/trace/trace_com.h"

#include <cstring>

namespace oskit::trace {

Error TraceComponent::GetCount(size_t* out_count) {
  *out_count = env_->registry.size();
  return Error::kOk;
}

Error TraceComponent::GetCounter(size_t index, CounterInfo* out_info) {
  size_t i = 0;
  bool found = false;
  env_->registry.ForEach([&](const char* name, uint64_t value, bool gauge) {
    if (i++ == index) {
      out_info->name = name;
      out_info->value = value;
      out_info->gauge = gauge;
      found = true;
    }
  });
  return found ? Error::kOk : Error::kInval;
}

Error TraceComponent::Lookup(const char* name, uint64_t* out_value) {
  if (!env_->registry.Has(name)) {
    *out_value = 0;
    return Error::kNoEnt;
  }
  *out_value = env_->registry.Value(name);
  return Error::kOk;
}

Error TraceComponent::Reset() {
  env_->registry.ResetAll();
  return Error::kOk;
}

Error TraceComponent::GetEventCount(size_t* out_count) {
  *out_count = env_->recorder.size();
  return Error::kOk;
}

Error TraceComponent::Read(size_t index, TraceRecord* out_record) {
  if (index >= env_->recorder.size()) {
    return Error::kInval;
  }
  const TraceEvent& event = env_->recorder.At(index);
  out_record->seq = event.seq;
  out_record->time = event.time;
  out_record->type = static_cast<uint32_t>(event.type);
  out_record->type_name = EventTypeName(event.type);
  out_record->tag = event.tag;
  out_record->arg0 = event.arg0;
  out_record->arg1 = event.arg1;
  return Error::kOk;
}

Error TraceComponent::GetTotalRecorded(uint64_t* out_total) {
  *out_total = env_->recorder.total_recorded();
  return Error::kOk;
}

Error TraceComponent::Clear() {
  env_->recorder.Clear();
  return Error::kOk;
}

TraceComponent* CreateTraceComponent(TraceEnv* env) {
  return new TraceComponent(env);  // born referenced
}

}  // namespace oskit::trace
