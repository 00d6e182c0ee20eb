// The concrete COM object exporting a TraceEnv through the CounterSet and
// TraceLog interfaces (src/com/trace.h).  Client kernels bind it like any
// other component: Query moves between the two faces, AddRef/Release manage
// lifetime.  The object references the environment, not a copy — reads are
// always live.

#ifndef OSKIT_SRC_TRACE_TRACE_COM_H_
#define OSKIT_SRC_TRACE_TRACE_COM_H_

#include "src/com/trace.h"
#include "src/trace/trace.h"

namespace oskit::trace {

class TraceComponent final
    : public ComObject<TraceComponent, CounterSet, TraceLog> {
 public:
  // The environment must outlive the component.
  explicit TraceComponent(TraceEnv* env) : env_(Required(env)) {}

  // CounterSet
  Error GetCount(size_t* out_count) override;
  Error GetCounter(size_t index, CounterInfo* out_info) override;
  Error Lookup(const char* name, uint64_t* out_value) override;
  Error Reset() override;

  // TraceLog
  Error GetEventCount(size_t* out_count) override;
  Error Read(size_t index, TraceRecord* out_record) override;
  Error GetTotalRecorded(uint64_t* out_total) override;
  Error Clear() override;

  TraceEnv* env() { return env_; }

 private:
  friend class RefCounted<TraceComponent>;
  ~TraceComponent() = default;

  TraceEnv* env_;
};

// Factory: returns a new reference, COM style.
TraceComponent* CreateTraceComponent(TraceEnv* env);

}  // namespace oskit::trace

#endif  // OSKIT_SRC_TRACE_TRACE_COM_H_
