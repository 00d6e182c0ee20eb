#include "src/secure/principal.h"

#include <cstdio>
#include <cstring>

namespace oskit::secure {

const char* ResourceName(Resource r) {
  switch (r) {
    case Resource::kSockets:
      return "sockets";
    case Resource::kPorts:
      return "ports";
    case Resource::kMbufBytes:
      return "mbuf_bytes";
    case Resource::kMemBytes:
      return "mem_bytes";
    case Resource::kFsBlocks:
      return "fs_blocks";
    case Resource::kOpenFiles:
      return "open_files";
    case Resource::kSelectorRegs:
      return "selector_regs";
    case Resource::kJournalTxns:
      return "journal_txns";
    case Resource::kCount:
      break;
  }
  return "unknown";
}

namespace {

// Registry names are shared by every principal (the registry sums same-name
// instances); built once since CounterBlock keeps the char pointers.
struct QuotaNames {
  std::string charged[kResourceCount];
  std::string denied[kResourceCount];
  QuotaNames() {
    for (size_t i = 0; i < kResourceCount; ++i) {
      const char* res = ResourceName(static_cast<Resource>(i));
      charged[i] = std::string("sec.quota.charged.") + res;
      denied[i] = std::string("sec.quota.denied.") + res;
    }
  }
};

const QuotaNames& Names() {
  static QuotaNames names;
  return names;
}

}  // namespace

Principal::Principal(uint32_t id, std::string name, const Budget& budget,
                     const Acl& acl, const UnixIdentity& unix_id,
                     trace::TraceEnv* trace)
    : id_(id), name_(std::move(name)), budget_(budget), acl_(acl),
      unix_id_(unix_id) {
  std::initializer_list<trace::CounterBlock::Item> items = {
      {Names().charged[0].c_str(), &charged_[0], /*gauge=*/true},
      {Names().charged[1].c_str(), &charged_[1], /*gauge=*/true},
      {Names().charged[2].c_str(), &charged_[2], /*gauge=*/true},
      {Names().charged[3].c_str(), &charged_[3], /*gauge=*/true},
      {Names().charged[4].c_str(), &charged_[4], /*gauge=*/true},
      {Names().charged[5].c_str(), &charged_[5], /*gauge=*/true},
      {Names().charged[6].c_str(), &charged_[6], /*gauge=*/true},
      {Names().charged[7].c_str(), &charged_[7], /*gauge=*/true},
      {Names().denied[0].c_str(), &denied_[0]},
      {Names().denied[1].c_str(), &denied_[1]},
      {Names().denied[2].c_str(), &denied_[2]},
      {Names().denied[3].c_str(), &denied_[3]},
      {Names().denied[4].c_str(), &denied_[4]},
      {Names().denied[5].c_str(), &denied_[5]},
      {Names().denied[6].c_str(), &denied_[6]},
      {Names().denied[7].c_str(), &denied_[7]},
  };
  static_assert(kResourceCount == 8, "update the counter item list");
  binding_.Bind(&trace::ResolveTraceEnv(trace)->registry, items);
}

Principal::~Principal() = default;

Error Principal::Charge(Resource r, uint64_t n) {
  size_t i = static_cast<size_t>(r);
  if (killed_) {
    ++denied_[i];
    return Error::kAccess;
  }
  if (charged_[i].value() + n > budget_.limit[i]) {
    ++denied_[i];
    return Error::kQuotaExceeded;
  }
  charged_[i] += n;
  return Error::kOk;
}

void Principal::ForceCharge(Resource r, uint64_t n) {
  charged_[static_cast<size_t>(r)] += n;
}

void Principal::Credit(Resource r, uint64_t n) {
  size_t i = static_cast<size_t>(r);
  uint64_t cur = charged_[i].value();
  charged_[i] -= (n < cur ? n : cur);
}

uint64_t Principal::denied_total() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kResourceCount; ++i) {
    total += denied_[i].value();
  }
  return total;
}

PrincipalRegistry::PrincipalRegistry(trace::TraceEnv* trace)
    : trace_(trace::ResolveTraceEnv(trace)) {}

PrincipalRegistry::~PrincipalRegistry() = default;

Principal* PrincipalRegistry::Create(const std::string& name,
                                     const Budget& budget, const Acl& acl,
                                     const UnixIdentity& unix_id) {
  principals_.emplace_back(
      new Principal(next_id_++, name, budget, acl, unix_id, trace_));
  return principals_.back().get();
}

Principal* PrincipalRegistry::Find(const std::string& name) {
  for (auto& p : principals_) {
    if (p->name() == name) {
      return p.get();
    }
  }
  return nullptr;
}

Principal* PrincipalRegistry::FindById(uint32_t id) {
  for (auto& p : principals_) {
    if (p->id() == id) {
      return p.get();
    }
  }
  return nullptr;
}

void PrincipalRegistry::KillByDomain(uint32_t domain) {
  Principal* p = FindById(domain);
  if (p != nullptr) {
    p->killed_ = true;
  }
}

uint64_t PrincipalRegistry::TotalDenied() const {
  uint64_t total = 0;
  for (const auto& p : principals_) {
    total += p->denied_total();
  }
  return total;
}

void PrincipalRegistry::Tenants(
    const std::function<void(const char*)>& emit) const {
  char line[160];
  std::snprintf(line, sizeof(line), "tenants: %zu principal(s)",
                principals_.size());
  emit(line);
  for (const auto& p : principals_) {
    std::snprintf(line, sizeof(line),
                  "  principal %u \"%s\" denied_total=%llu%s", p->id(),
                  p->name().c_str(),
                  static_cast<unsigned long long>(p->denied_total()),
                  p->killed() ? " KILLED" : "");
    emit(line);
    for (size_t i = 0; i < kResourceCount; ++i) {
      Resource r = static_cast<Resource>(i);
      uint64_t limit = p->budget().Get(r);
      if (limit == Budget::kUnlimited && p->charged(r) == 0 &&
          p->denied(r) == 0) {
        continue;  // nothing to say about an untouched open resource
      }
      if (limit == Budget::kUnlimited) {
        std::snprintf(line, sizeof(line),
                      "    %-14s charged=%llu limit=unlimited denied=%llu",
                      ResourceName(r),
                      static_cast<unsigned long long>(p->charged(r)),
                      static_cast<unsigned long long>(p->denied(r)));
      } else {
        std::snprintf(line, sizeof(line),
                      "    %-14s charged=%llu limit=%llu denied=%llu",
                      ResourceName(r),
                      static_cast<unsigned long long>(p->charged(r)),
                      static_cast<unsigned long long>(limit),
                      static_cast<unsigned long long>(p->denied(r)));
      }
      emit(line);
    }
  }
}

}  // namespace oskit::secure
