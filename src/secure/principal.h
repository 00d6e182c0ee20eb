// Principals, per-principal resource budgets, and the quota accountant
// behind the §3.8 security wrappers.
//
// The paper's security-wrapper case study interposes permission checks at
// COM interface granularity.  This subsystem supplies the *subject* side of
// that story: a Principal names a tenant, carries an ACL and a Budget (one
// limit per Resource), and keeps charge/credit books that the wrappers in
// src/secure/wrap_*.cc and the in-stack degradation hooks (src/net SYN
// admission + RX shed, src/fs journal-txn admission) debit at every call
// boundary.  Denial is always an error return — kQuotaExceeded from a COM
// wrapper, a counted shed inside the stack — never a panic and never a
// silent drop.
//
// Observability follows the repo convention: every principal registers its
// per-resource gauges under the SAME dotted names (sec.quota.charged.<res>,
// sec.quota.denied.<res>), so the trace registry reports the tenant-wide sum
// while kmon's `tenants` command and the benches read the per-principal
// figures through the registry object.

#ifndef OSKIT_SRC_SECURE_PRINCIPAL_H_
#define OSKIT_SRC_SECURE_PRINCIPAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/error.h"
#include "src/trace/trace.h"

namespace oskit::secure {

// Resources a tenant can hold.  Each maps to one charged gauge and one
// denied counter per principal.
enum class Resource : uint32_t {
  kSockets = 0,       // live Socket objects (created + accepted)
  kPorts,             // bound PCB endpoints (ephemeral or explicit)
  kMbufBytes,         // RX bytes parked in socket buffers
  kMemBytes,          // LMM/AMM/BufIo-map allocation bytes
  kFsBlocks,          // FFS blocks owned (512-byte st_blocks units)
  kOpenFiles,         // live wrapped File/Dir objects
  kSelectorRegs,      // NetSelector registrations
  kJournalTxns,       // metadata ops in the open journal transaction
  kCount,
};

constexpr size_t kResourceCount = static_cast<size_t>(Resource::kCount);

// Short dotted-name suffix ("sockets", "mbuf_bytes", ...).
const char* ResourceName(Resource r);

// Per-resource limits.  Defaults to unlimited; a campaign builds budgets
// with designated initializers and leaves the rest open.
struct Budget {
  static constexpr uint64_t kUnlimited = ~uint64_t{0};
  uint64_t limit[kResourceCount] = {
      kUnlimited, kUnlimited, kUnlimited, kUnlimited,
      kUnlimited, kUnlimited, kUnlimited, kUnlimited,
  };

  Budget& Set(Resource r, uint64_t n) {
    limit[static_cast<size_t>(r)] = n;
    return *this;
  }
  uint64_t Get(Resource r) const { return limit[static_cast<size_t>(r)]; }
};

// Coarse capability bits checked by the wrappers before any quota math.
struct Acl {
  bool allow_net = true;        // may create sockets / selectors
  bool allow_fs = true;         // may touch the filesystem at all
  bool allow_fs_write = true;   // may mutate the filesystem
  bool allow_blkio_write = true;  // may write through a raw BlkIo wrapper
};

// The Unix identity the filesystem wrapper checks mode bits against (the
// paper's §3.8 file server).  The default is the superuser, which consults
// no mode bits at all.
struct UnixIdentity {
  uint32_t uid = 0;
  uint32_t gid = 0;
  bool superuser = true;
};

class PrincipalRegistry;

// One tenant.  Created and owned by a PrincipalRegistry; wrappers hold a
// raw pointer (the registry outlives every wrapped object graph).
class Principal {
 public:
  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }
  const Acl& acl() const { return acl_; }
  const Budget& budget() const { return budget_; }
  const UnixIdentity& unix_id() const { return unix_id_; }

  // Debits `n` units of `r`.  Over budget: nothing is charged, the denial
  // counter bumps, and kQuotaExceeded comes back for the wrapper to return.
  // A killed principal (its domain was contained by the memory monitor) is
  // denied everything: kAccess, with the denial counted — one choke point
  // that deprivileges the whole wrapper surface.
  Error Charge(Resource r, uint64_t n);

  // True once the memory monitor killed this principal's domain (see
  // PrincipalRegistry::KillByDomain).  Kill is one-way.
  bool killed() const { return killed_; }

  // Charge that may run past the limit (post-hoc reconciliation, e.g. FFS
  // metadata blocks discovered only after the operation).  Never fails.
  void ForceCharge(Resource r, uint64_t n);

  // Credits `n` units back.  Clamped at zero so a stray double-credit can
  // not wrap the gauge; the balance property test pins exact symmetry.
  void Credit(Resource r, uint64_t n);

  // Counts a refusal that did not go through Charge (ACL denials, batched
  // admission with zero headroom), so every refused call stays visible in
  // sec.quota.denied.<res>.
  void CountDenial(Resource r) { ++denied_[static_cast<size_t>(r)]; }

  uint64_t charged(Resource r) const {
    return charged_[static_cast<size_t>(r)].value();
  }
  uint64_t denied(Resource r) const {
    return denied_[static_cast<size_t>(r)].value();
  }
  uint64_t denied_total() const;

 private:
  friend class PrincipalRegistry;
  friend struct std::default_delete<Principal>;  // registry's unique_ptr
  Principal(uint32_t id, std::string name, const Budget& budget, const Acl& acl,
            const UnixIdentity& unix_id, trace::TraceEnv* trace);
  ~Principal();
  Principal(const Principal&) = delete;
  Principal& operator=(const Principal&) = delete;

  uint32_t id_;
  std::string name_;
  Budget budget_;
  Acl acl_;
  UnixIdentity unix_id_;
  bool killed_ = false;
  trace::Counter charged_[kResourceCount];  // gauges
  trace::Counter denied_[kResourceCount];
  trace::CounterBlock binding_;
};

// Owns the principals of one protection domain (typically one simulated
// host).  Also carries the "current principal" used by enforcement points
// that sit below the COM boundary and cannot be handed a subject per call
// (the FFS journal admission hook): wrappers bracket delegated calls with a
// ScopedPrincipal.  Safe under the §4.7.4 concurrency model — at most one
// thread of control inside a component at a time — as long as the bracketed
// call cannot block (true for MemBlkIo-backed filesystems).
class PrincipalRegistry {
 public:
  // `trace` is where per-principal counters register; null binds the
  // process-global default environment.
  explicit PrincipalRegistry(trace::TraceEnv* trace = nullptr);
  ~PrincipalRegistry();
  PrincipalRegistry(const PrincipalRegistry&) = delete;
  PrincipalRegistry& operator=(const PrincipalRegistry&) = delete;

  Principal* Create(const std::string& name, const Budget& budget = {},
                    const Acl& acl = {}, const UnixIdentity& unix_id = {});

  Principal* Find(const std::string& name);
  Principal* FindById(uint32_t id);
  size_t size() const { return principals_.size(); }
  Principal* at(size_t i) { return principals_[i].get(); }

  // Marks the principal whose id matches the monitor domain as killed —
  // every wrapper Charge from then on is a counted kAccess denial.  The
  // memory-monitor kill hook (secure::AttachMonitor) calls this; unknown
  // ids are ignored, killing twice is idempotent.
  void KillByDomain(uint32_t domain);

  // Sum of denied charges across principals.
  uint64_t TotalDenied() const;

  Principal* current() const { return current_; }

  // kmon `tenants`: one formatted line per emit() call — every principal's
  // budgets, live charges, and denial counts.
  void Tenants(const std::function<void(const char*)>& emit) const;

 private:
  friend class ScopedPrincipal;
  trace::TraceEnv* trace_;
  std::vector<std::unique_ptr<Principal>> principals_;
  uint32_t next_id_ = 1;
  Principal* current_ = nullptr;
};

// RAII current-principal bracket (see PrincipalRegistry).  Nests.
class ScopedPrincipal {
 public:
  ScopedPrincipal(PrincipalRegistry* registry, Principal* p)
      : registry_(registry), prev_(registry->current_) {
    registry_->current_ = p;
  }
  ~ScopedPrincipal() { registry_->current_ = prev_; }
  ScopedPrincipal(const ScopedPrincipal&) = delete;
  ScopedPrincipal& operator=(const ScopedPrincipal&) = delete;

 private:
  PrincipalRegistry* registry_;
  Principal* prev_;
};

}  // namespace oskit::secure

#endif  // OSKIT_SRC_SECURE_PRINCIPAL_H_
