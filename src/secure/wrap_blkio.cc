// Raw-device security wrapper: BlkIo always, BufIo iff the inner object
// grants it (the §4.4.2 discovery idiom survives wrapping — the wrapper
// probes once and mirrors the answer, it never forwards unknown GUIDs).
//
// Writes are ACL-gated (allow_blkio_write), and so are BufIo mappings,
// which hand out a writable pointer into the device; mappings charge
// Resource::kMemBytes per pinned byte, credited at Unmap — and any
// mapping the client leaks is credited at the wrapper's last Release so
// the books still balance.

#include <utility>

#include "src/secure/interposer.h"
#include "src/secure/wrap.h"

namespace oskit::secure {

namespace {

class SecureBufIo final : public Interposer<SecureBufIo, BlkIo, BufIo> {
 public:
  SecureBufIo(ComPtr<BlkIo> inner, Principal* p)
      : Interposer(std::move(inner)), principal_(p) {}

  void OnLastRelease() {
    if (map_charged_ > 0) {
      principal_->Credit(Resource::kMemBytes, map_charged_);
      map_charged_ = 0;
    }
  }

  // BlkIo
  uint32_t GetBlockSize() override { return inner()->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount,
             size_t* out_actual) override {
    return inner()->Read(buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    return MayWrite() ? inner()->Write(buf, offset, amount, out_actual)
                      : Error::kAccess;
  }
  Error GetSize(off_t64* out_size) override { return inner()->GetSize(out_size); }
  Error SetSize(off_t64 new_size) override {
    return MayWrite() ? inner()->SetSize(new_size) : Error::kAccess;
  }

  // BufIo, reachable via Query only when the inner object has it (so buf()
  // is never null here).  A mapping is writable, so it needs write access.
  Error Map(void** out_addr, off_t64 offset, size_t amount) override {
    *out_addr = nullptr;
    if (!MayWrite()) {
      return Error::kAccess;
    }
    Error err = principal_->Charge(Resource::kMemBytes, amount);
    if (!Ok(err)) {
      return err;
    }
    err = buf()->Map(out_addr, offset, amount);
    if (!Ok(err)) {
      principal_->Credit(Resource::kMemBytes, amount);
      return err;
    }
    map_charged_ += amount;
    return Error::kOk;
  }

  Error Unmap(void* addr, off_t64 offset, size_t amount) override {
    Error err = buf()->Unmap(addr, offset, amount);
    if (Ok(err)) {
      size_t n = amount < map_charged_ ? amount : map_charged_;
      principal_->Credit(Resource::kMemBytes, n);
      map_charged_ -= n;
    }
    return err;
  }

  Error Wire() override { return buf()->Wire(); }
  Error Unwire() override { return buf()->Unwire(); }

 private:
  BufIo* buf() const { return ext<BufIo>(); }

  // True when the principal may write the device; a refusal is counted.
  bool MayWrite() {
    if (!principal_->acl().allow_blkio_write) {
      principal_->CountDenial(Resource::kMemBytes);
    }
    return principal_->acl().allow_blkio_write;
  }

  Principal* principal_;
  size_t map_charged_ = 0;  // bytes currently pinned through this wrapper
};

}  // namespace

ComPtr<BlkIo> MakeSecureBufIo(ComPtr<BlkIo> inner, Principal* p) {
  return ComPtr<BlkIo>(new SecureBufIo(std::move(inner), p));
}

}  // namespace oskit::secure
