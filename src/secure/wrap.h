// The §3.8 COM interposers: uniform security wrappers for the high-value
// interfaces, enforcing ACLs and per-principal quotas at call boundaries.
//
// Every wrapper follows the same delegation contract, owned by the one
// Interposer base (src/secure/interposer.h):
//
//   * delegation goes through an owned reference on the inner object;
//   * Query exposes exactly the interfaces the wrapper interposes on —
//     unknown GUIDs return kNoInterface and are NEVER forwarded to the
//     inner object (a forwarded extension interface would hand the caller
//     an unwrapped path around the checks);
//   * a wrapper passed back in as a peer argument (a Rename destination, a
//     socket handed to a selector) is unwrapped before the inner call;
//   * objects returned by wrapped methods (accepted sockets, Lookup/Create
//     results) come back wrapped under the same principal, so protection
//     follows every traversal;
//   * denial is an error return — kAccess for ACL, kQuotaExceeded for
//     budget — never a panic, and every denial is counted on the principal.
//
// Charges are symmetric: whatever a wrapper charges at creation/registration
// it credits at release/teardown, so a tenant's sec.quota.charged.* gauges
// drain to zero when its object graph dies (the balance property test and
// the tenant campaign's leak check pin this).

#ifndef OSKIT_SRC_SECURE_WRAP_H_
#define OSKIT_SRC_SECURE_WRAP_H_

#include <cstddef>
#include <unordered_map>

#include "src/amm/amm.h"
#include "src/com/bufio.h"
#include "src/com/filesystem.h"
#include "src/com/netselector.h"
#include "src/com/socket.h"
#include "src/fs/ffs.h"
#include "src/lmm/lmm.h"
#include "src/machine/memmon.h"
#include "src/net/stack.h"
#include "src/secure/principal.h"

namespace oskit::secure {

// The per-host accountant behind the network wrappers: implements the
// stack's SoAccounting degradation hooks (SYN admission, RX mbuf charge/
// shed) and owns the inner-Socket -> Principal attribution map the socket
// wrappers maintain.  Install with stack->SetAccounting(&guard); the guard
// and its PrincipalRegistry must outlive the stack's connections.
class NetGuard final : public net::SoAccounting {
 public:
  explicit NetGuard(PrincipalRegistry* registry) : registry_(registry) {}

  // net::SoAccounting
  bool AdmitSyn(Socket* listener) override;
  bool ChargeRx(Socket* owner, void** tag, size_t bytes) override;
  void CreditRx(void* tag, size_t bytes) override;

  // Wrapper plumbing: attribution of inner sockets to principals.
  void RegisterSocket(Socket* inner, Principal* p) { owners_[inner] = p; }
  void UnregisterSocket(Socket* inner) { owners_.erase(inner); }
  Principal* OwnerOf(Socket* inner) const;

  PrincipalRegistry* registry() const { return registry_; }

 private:
  PrincipalRegistry* registry_;
  std::unordered_map<Socket*, Principal*> owners_;
};

// Socket factory wrapper: Create charges Resource::kSockets against `p`
// (ACL allow_net gates it entirely) and returns sockets that keep charging
// under p — ports on connect, child sockets on accept — and credit
// everything back on release.
ComPtr<SocketFactory> MakeSecureSocketFactory(ComPtr<SocketFactory> inner,
                                              Principal* p, NetGuard* guard);

// Selector wrapper: Add charges Resource::kSelectorRegs, Remove/teardown
// credits; harvested events are rewritten to reference the wrapped sockets
// the tenant registered, never the inner objects.
ComPtr<NetSelector> MakeSecureSelector(ComPtr<NetSelector> inner,
                                       Principal* p);

// Filesystem wrapper (the §3.8 per-component checks): one wrapper class for
// files and directories, answering Dir only for directories.  The ACL and,
// for a principal with a non-superuser UnixIdentity, the Unix mode bits of
// each object admit every call.  Live File/Dir wrappers charge
// Resource::kOpenFiles,
// data growth charges Resource::kFsBlocks (512-byte st_blocks units,
// estimated before the op for the denial path and reconciled against the
// real stat delta after), Unlink/Rmdir/shrink credit back.  Delegated calls
// are bracketed with ScopedPrincipal so the FFS journal-admission hook can
// bill the right tenant.  `registry` must outlive the wrapped graph.
ComPtr<FileSystem> MakeSecureFs(ComPtr<FileSystem> inner, Principal* p,
                                PrincipalRegistry* registry);

// BlkIo/BufIo wrapper: ACL-gates writes and BufIo mappings (a mapping is
// writable) on allow_blkio_write, and charges Resource::kMemBytes for
// mappings (credited at Unmap/teardown).
// The returned object exposes BufIo via Query iff the inner object does.
ComPtr<BlkIo> MakeSecureBufIo(ComPtr<BlkIo> inner, Principal* p);

// Installs the journal-transaction admission hooks on an FFS mount: each
// metadata op charges Resource::kJournalTxns against the registry's current
// principal BEFORE its intent blocks join the open transaction (denial
// aborts the op with kQuotaExceeded), and commits credit the charges back.
void InstallJournalAdmission(fs::Offs* fs, PrincipalRegistry* registry);

// ---------------------------------------------------------------------------
// Nested-kernel deprivilege glue (src/machine/memmon.h)
// ---------------------------------------------------------------------------

// Wires the monitor's domain-kill hook to the registry: when the monitor
// contains a domain, the matching principal (domain id == principal id) is
// marked killed and every wrapper Charge from then on is a counted kAccess
// denial — the COM surface and the memory system revoke together.
void AttachMonitor(PrincipalRegistry* registry, MemMonitor* mon);

// The deprivileged view a wrapped component stores physical memory
// through: component-writable pages only, attributed to `p`'s domain.
MemDomain DomainView(MemMonitor* mon, const Principal* p);

// ---------------------------------------------------------------------------
// Allocator wrappers (not COM: the LMM/AMM are plain components)
// ---------------------------------------------------------------------------

// Charges Resource::kMemBytes per allocated byte; a quota denial returns
// nullptr exactly as pool exhaustion would (and is counted on the
// principal, unlike exhaustion).
//
// With a memory monitor attached (the second constructor), allocations
// come back deprivileged: every page fully covered by the block is flipped
// to component-writable through the MonitorCall gate so the tenant's
// MemDomain view can store there, and Free flips it back to
// kernel-writable before the memory returns to the pool — a freed page is
// never left writable by a dead tenant.
class SecureLmm {
 public:
  SecureLmm(Lmm* inner, Principal* p) : inner_(inner), principal_(p) {}
  SecureLmm(Lmm* inner, Principal* p, MemMonitor* mon, PhysMem* phys)
      : inner_(inner), principal_(p), mon_(mon), phys_(phys) {}

  void* Alloc(size_t size, uint32_t flags);
  void* AllocAligned(size_t size, uint32_t flags, unsigned align_bits,
                     uintptr_t align_ofs);
  void Free(void* block, size_t size);

  Lmm* inner() { return inner_; }

 private:
  void FlipPages(void* block, size_t size, PageProt prot);

  Lmm* inner_;
  Principal* principal_;
  MemMonitor* mon_ = nullptr;
  PhysMem* phys_ = nullptr;
};

// Charges Resource::kMemBytes per mapped byte; denial surfaces as
// kQuotaExceeded (distinguishable from the map-full kNoSpace).
class SecureAmm {
 public:
  SecureAmm(Amm* inner, Principal* p) : inner_(inner), principal_(p) {}

  Error Allocate(uint64_t* inout_addr, uint64_t size, uint32_t flags,
                 unsigned align_bits = 0,
                 uint64_t upper_bound = ~uint64_t{0});
  Error Deallocate(uint64_t addr, uint64_t size);

  Amm* inner() { return inner_; }

 private:
  Amm* inner_;
  Principal* principal_;
};

}  // namespace oskit::secure

#endif  // OSKIT_SRC_SECURE_WRAP_H_
