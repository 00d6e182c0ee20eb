// Deterministic fault injection for the simulated platform and the glue
// layers above it.
//
// The paper argues that encapsulated legacy components keep working when
// dropped into a foreign execution environment; this component exists to
// test the unhappy half of that claim.  A FaultEnv is a seedable registry
// of named fault *sites* ("disk.read.error", "nic.rx.corrupt",
// "lmm.alloc", ...).  Instrumented components probe their site on the hot
// path with ShouldFail(); a campaign or test arms sites with a trigger
// spec — fire with probability p%, fire on exactly the nth call, or both —
// and the component then simulates the corresponding hardware or resource
// failure (error status, dropped frame, flipped byte, stuck completion,
// nullptr return).
//
// The owner rule is the trace environment's (src/trace/trace.h): the
// kernel (KernelEnv) owns a FaultEnv unless its client hands it one, and
// binds its devices to it.  A component whose FaultEnv nobody bound holds
// null, which means nothing is armed; every probe goes through ShouldFail
// below, so an unarmed or unbound site costs one test.  All randomness
// comes from the environment's own seeded Rng — a campaign seed reproduces
// the exact fault schedule, byte corruption choices included.  Every fire bumps a "fault.<site>" counter in the bound trace
// registry and drops a kMark event in the flight recorder, so recovery
// counters can be correlated against injected causes in one snapshot.

#ifndef OSKIT_SRC_FAULT_FAULT_H_
#define OSKIT_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/base/random.h"
#include "src/trace/trace.h"

namespace oskit::fault {

// How an armed site decides to fire.  Either trigger may be used alone or
// both together (nth-call fires deterministically; the probability applies
// to every other call).
struct FaultSpec {
  uint32_t probability_percent = 0;  // 0 = never by chance
  uint64_t nth_call = 0;             // 1-based; 0 = no call-count trigger
  uint64_t max_fires = ~uint64_t{0}; // stop firing after this many
  uint64_t arg = 0;  // site-specific parameter (delay multiplier, skew %)
};

class FaultEnv {
 public:
  explicit FaultEnv(uint64_t seed = 1);
  ~FaultEnv();
  FaultEnv(const FaultEnv&) = delete;
  FaultEnv& operator=(const FaultEnv&) = delete;

  // Restarts the deterministic schedule: reseeds the Rng and zeroes every
  // site's call/fire history (arming is preserved).
  void Reseed(uint64_t seed);
  uint64_t seed() const { return seed_; }

  void Arm(const std::string& site, const FaultSpec& spec);
  void Disarm(const std::string& site);
  void DisarmAll();
  bool armed(const std::string& site) const;

  // Whether any site is armed: the probe's fast-path test.
  bool any_armed() const { return armed_count_ != 0; }
  // Counts the call and reports whether the site's trigger fired.
  // Components probe through fault::ShouldFail below.
  bool ShouldFail(const char* site);

  // The armed spec's site parameter (0 when not armed).
  uint64_t SiteArg(const char* site) const;

  uint64_t calls(const std::string& site) const;
  uint64_t fires(const std::string& site) const;
  uint64_t total_fires() const { return total_fires_; }

  // Shared deterministic randomness for fault *content* decisions (which
  // byte to corrupt, how long to stall) so they replay with the schedule.
  Rng& rng() { return rng_; }

  // Reports fires into `env`'s registry (as "fault.<site>") and flight
  // recorder (kMark events tagged with the site name).  Null unbinds:
  // fires are then counted only here.
  void BindTrace(trace::TraceEnv* env);

  // Deterministic (name-sorted) iteration over every site ever armed.
  void ForEachSite(
      const std::function<void(const char* site, const FaultSpec& spec,
                               bool armed, uint64_t calls, uint64_t fires)>& fn)
      const;

 private:
  struct Site {
    FaultSpec spec;
    bool armed = false;
    uint64_t calls = 0;
    trace::Counter fires;  // registered as "fault.<site>"
    bool registered = false;
  };

  void RegisterSite(const std::string& name, Site* site);
  void UnregisterAll();

  uint64_t seed_;
  Rng rng_;
  uint64_t armed_count_ = 0;
  uint64_t total_fires_ = 0;
  // node-based: Site addresses and key c_str()s stay stable for the
  // registry and the flight recorder's static-tag contract.
  std::map<std::string, Site> sites_;
  trace::TraceEnv* trace_ = nullptr;
};

// The hot-path probe: whether `site` fires in `env`.  A null env (nobody
// bound one) and an env with nothing armed both answer false at once.
inline bool ShouldFail(FaultEnv* env, const char* site) {
  return env != nullptr && env->any_armed() && env->ShouldFail(site);
}

// Binds `env`, when there is one, to `trace` (null `trace` unbinds it).
inline void BindTrace(FaultEnv* env, trace::TraceEnv* trace) {
  if (env != nullptr) {
    env->BindTrace(trace);
  }
}

}  // namespace oskit::fault

#endif  // OSKIT_SRC_FAULT_FAULT_H_
