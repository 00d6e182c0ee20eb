// Filesystem security wrapper and the FFS journal-admission hook.
//
// One wrapper class, TenantNode, serves files and directories alike: it
// answers Dir only when the inner object is a directory, and Lookup/Create
// results come back as TenantNodes of the same graph.  Every guarded call
// first passes one admission step (Admit):
//
//   ACL        allow_fs_write gates every call that needs the write bit
//   Unix mode  for a principal with a non-superuser identity, the owner,
//              group or other triplet of the object's mode must grant the
//              bit: read for Read/ReadDir, search for Lookup, write for
//              every mutation (and on a wrapped Rename destination too) —
//              the paper's §3.8 per-component check.  The superuser, every
//              principal's default, consults no mode bits.
//
// Charge points and their symmetric credits:
//
//   kOpenFiles    GetRoot / Lookup / Create (one per    wrapper's last Release
//                 live wrapped File/Dir)
//   kFsBlocks     data growth (Write/SetSize, charged   shrink, Unlink/Rmdir
//                 as 512-byte st_blocks units) plus a
//                 flat name unit per Create/Mkdir
//   kJournalTxns  each metadata op admitted into the    every transaction
//                 open journal transaction              settle in Sync
//
// Block accounting is estimate-then-reconcile: the wrapper charges a
// conservative growth estimate BEFORE delegating (that is the denial point —
// a tenant at its disk budget gets kQuotaExceeded before the filesystem
// mutates anything), then corrects the books against the real st_blocks
// delta afterwards (indirect blocks make growth slightly unpredictable).
// Per-inode charges live in a books map shared by the whole wrapped graph,
// so Unlink can credit exactly what this tenant's writes charged.
//
// Every delegated call that can reach NoteMetaOp runs under ScopedPrincipal,
// which is how the journal-admission hook below knows whom to bill.

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/secure/interposer.h"
#include "src/secure/wrap.h"

namespace oskit::secure {

namespace {

// The mode bit each guarded call needs (within one rwx triplet).
constexpr uint32_t kModeRead = 4;
constexpr uint32_t kModeWrite = 2;
constexpr uint32_t kModeSearch = 1;

// Books shared by every wrapper in one MakeSecureFs graph.
struct FsBooks {
  PrincipalRegistry* registry;
  Principal* principal;
  // ino -> kFsBlocks units this tenant has charged for that inode
  // (st_blocks growth plus the flat Create/Mkdir name unit).
  std::unordered_map<uint64_t, uint64_t> blocks;
};

using FsBooksPtr = std::shared_ptr<FsBooks>;

class TenantNode final : public Interposer<TenantNode, File, Dir> {
 public:
  TenantNode(ComPtr<File> inner, FsBooksPtr books, uint64_t ino)
      : Interposer(std::move(inner)), books_(std::move(books)), ino_(ino) {}

  void OnLastRelease() { books_->principal->Credit(Resource::kOpenFiles, 1); }

  // File surface (directories answer it too: reads and writes are the inner
  // filesystem's error to report, but admission still gates them).
  Error Read(void* buf, uint64_t offset, size_t amount,
             size_t* out_actual) override {
    *out_actual = 0;
    Error err = Admit(kModeRead);
    return Ok(err) ? inner()->Read(buf, offset, amount, out_actual) : err;
  }
  Error Write(const void* buf, uint64_t offset, size_t amount,
              size_t* out_actual) override {
    *out_actual = 0;
    uint64_t end = offset + amount;
    return Grow(
        [&](const FileStat& before) {
          uint64_t have = before.blocks * 512;
          return end > have ? (end - have + 511) / 512 : 0;
        },
        [&] { return inner()->Write(buf, offset, amount, out_actual); });
  }
  Error GetStat(FileStat* out_stat) override { return inner()->GetStat(out_stat); }
  Error SetSize(uint64_t new_size) override {
    return Grow(
        [&](const FileStat& before) {
          uint64_t new_units = (new_size + 511) / 512;
          return new_units > before.blocks ? new_units - before.blocks : 0;
        },
        [&] { return inner()->SetSize(new_size); });
  }
  Error Sync() override {
    ScopedPrincipal scope(books_->registry, books_->principal);
    return inner()->Sync();
  }

  // Dir surface (reachable only through Query, so only when dir() exists)
  Error Lookup(const char* name, File** out_file) override {
    *out_file = nullptr;
    Principal* p = books_->principal;
    Error err = Admit(kModeSearch);
    if (Ok(err)) {
      err = p->Charge(Resource::kOpenFiles, 1);
    }
    if (!Ok(err)) {
      return err;
    }
    ComPtr<File> child;
    err = dir()->Lookup(name, child.Receive());
    if (!Ok(err)) {
      p->Credit(Resource::kOpenFiles, 1);
      return err;
    }
    FileStat st{};
    child->GetStat(&st);  // best effort; an ino of 0 never books blocks
    *out_file = new TenantNode(std::move(child), books_, st.ino);
    return Error::kOk;
  }

  Error Create(const char* name, uint32_t mode, File** out_file) override {
    *out_file = nullptr;
    Principal* p = books_->principal;
    Error err = Admit(kModeWrite);
    if (Ok(err)) {
      err = p->Charge(Resource::kOpenFiles, 1);
    }
    if (!Ok(err)) {
      return err;
    }
    // Flat one-unit name charge: the entry the file occupies in its parent.
    err = p->Charge(Resource::kFsBlocks, 1);
    if (!Ok(err)) {
      p->Credit(Resource::kOpenFiles, 1);
      return err;
    }
    ComPtr<File> child;
    {
      ScopedPrincipal scope(books_->registry, p);
      err = dir()->Create(name, mode, child.Receive());
    }
    if (!Ok(err)) {
      p->Credit(Resource::kOpenFiles, 1);
      p->Credit(Resource::kFsBlocks, 1);
      return err;
    }
    FileStat st{};
    child->GetStat(&st);
    if (st.blocks > 0) {
      p->ForceCharge(Resource::kFsBlocks, st.blocks);
    }
    books_->blocks[st.ino] = 1 + st.blocks;
    *out_file = new TenantNode(std::move(child), books_, st.ino);
    return Error::kOk;
  }

  Error Mkdir(const char* name, uint32_t mode) override {
    Principal* p = books_->principal;
    Error err = Admit(kModeWrite);
    if (Ok(err)) {
      err = p->Charge(Resource::kFsBlocks, 1);  // the name unit
    }
    if (!Ok(err)) {
      return err;
    }
    {
      ScopedPrincipal scope(books_->registry, p);
      err = dir()->Mkdir(name, mode);
    }
    if (!Ok(err)) {
      p->Credit(Resource::kFsBlocks, 1);
      return err;
    }
    // No handle comes back from Mkdir: stat the child to book its blocks.
    ComPtr<File> child;
    if (Ok(dir()->Lookup(name, child.Receive()))) {
      FileStat st{};
      if (Ok(child->GetStat(&st))) {
        if (st.blocks > 0) {
          p->ForceCharge(Resource::kFsBlocks, st.blocks);
        }
        books_->blocks[st.ino] = 1 + st.blocks;
      }
    }
    return Error::kOk;
  }

  Error Unlink(const char* name) override { return RemoveEntry(name, false); }
  Error Rmdir(const char* name) override { return RemoveEntry(name, true); }

  Error Rename(const char* old_name, Dir* new_dir,
               const char* new_name) override {
    // A destination from a wrapped graph must admit the new entry too, and
    // the inner filesystem needs its own Dir object.
    TenantNode* dest = Unwrap(new_dir);
    Error err = Admit(kModeWrite);
    if (Ok(err) && dest != nullptr) {
      err = dest->CheckMode(kModeWrite);
    }
    if (!Ok(err)) {
      return err;
    }
    ScopedPrincipal scope(books_->registry, books_->principal);
    return dir()->Rename(old_name, dest != nullptr ? dest->dir() : new_dir,
                         new_name);
  }

  Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                size_t* out_count) override {
    *out_count = 0;
    Error err = Admit(kModeRead);
    return Ok(err) ? dir()->ReadDir(inout_offset, entries, capacity, out_count)
                   : err;
  }

 private:
  Dir* dir() const { return ext<Dir>(); }

  // The one admission step in front of every guarded call: the ACL, then
  // the Unix mode bits.
  Error Admit(uint32_t bit) {
    Principal* p = books_->principal;
    if (bit == kModeWrite && !p->acl().allow_fs_write) {
      p->CountDenial(Resource::kFsBlocks);
      return Error::kAccess;
    }
    return CheckMode(bit);
  }

  Error CheckMode(uint32_t bit) {
    Principal* p = books_->principal;
    const UnixIdentity& who = p->unix_id();
    if (who.superuser) {
      return Error::kOk;
    }
    FileStat st{};
    Error err = inner()->GetStat(&st);
    if (!Ok(err)) {
      return err;
    }
    uint32_t shift = who.uid == st.uid ? 6 : who.gid == st.gid ? 3 : 0;
    if (((st.mode >> shift) & bit) != 0) {
      return Error::kOk;
    }
    p->CountDenial(bit == kModeWrite ? Resource::kFsBlocks
                                     : Resource::kOpenFiles);
    return Error::kAccess;
  }

  // Write/SetSize: charges `estimate(before)` blocks ahead of `op`, then
  // reconciles against the real st_blocks delta.
  template <typename Estimate, typename Op>
  Error Grow(Estimate estimate_of, Op op) {
    Principal* p = books_->principal;
    Error err = Admit(kModeWrite);
    if (!Ok(err)) {
      return err;
    }
    FileStat before{};
    err = inner()->GetStat(&before);
    if (!Ok(err)) {
      return err;
    }
    uint64_t estimate = estimate_of(before);
    if (estimate > 0) {
      err = p->Charge(Resource::kFsBlocks, estimate);
      if (!Ok(err)) {
        return err;
      }
    }
    {
      ScopedPrincipal scope(books_->registry, p);
      err = op();
    }
    Reconcile(before.blocks, estimate);
    return err;
  }

  void Reconcile(uint64_t before_blocks, uint64_t estimate) {
    FileStat after{};
    uint64_t after_blocks = before_blocks;
    if (Ok(inner()->GetStat(&after))) {
      after_blocks = after.blocks;
    }
    Principal* p = books_->principal;
    if (after_blocks >= before_blocks) {
      uint64_t delta = after_blocks - before_blocks;
      if (delta > estimate) {
        p->ForceCharge(Resource::kFsBlocks, delta - estimate);
      } else {
        p->Credit(Resource::kFsBlocks, estimate - delta);
      }
      if (delta > 0) {
        books_->blocks[ino_] += delta;
      }
      return;
    }
    // Shrink: the estimate was never used, and freed blocks are credited —
    // but only up to what this tenant actually charged for the inode.
    uint64_t freed = before_blocks - after_blocks;
    p->Credit(Resource::kFsBlocks, estimate);
    auto it = books_->blocks.find(ino_);
    if (it != books_->blocks.end()) {
      uint64_t credit = freed < it->second ? freed : it->second;
      p->Credit(Resource::kFsBlocks, credit);
      it->second -= credit;
    }
  }

  Error RemoveEntry(const char* name, bool is_dir) {
    Principal* p = books_->principal;
    Error err = Admit(kModeWrite);
    if (!Ok(err)) {
      return err;
    }
    // The inode number must be captured before the entry disappears.
    uint64_t ino = 0;
    {
      ComPtr<File> child;
      if (Ok(dir()->Lookup(name, child.Receive()))) {
        FileStat st{};
        if (Ok(child->GetStat(&st))) {
          ino = st.ino;
        }
      }
    }
    {
      ScopedPrincipal scope(books_->registry, p);
      err = is_dir ? dir()->Rmdir(name) : dir()->Unlink(name);
    }
    if (Ok(err) && ino != 0) {
      auto it = books_->blocks.find(ino);
      if (it != books_->blocks.end()) {
        p->Credit(Resource::kFsBlocks, it->second);
        books_->blocks.erase(it);
      }
    }
    return err;
  }

  FsBooksPtr books_;
  uint64_t ino_;
};

class TenantFs final : public Interposer<TenantFs, FileSystem> {
 public:
  TenantFs(ComPtr<FileSystem> inner, FsBooksPtr books)
      : Interposer(std::move(inner)), books_(std::move(books)) {}

  Error GetRoot(Dir** out_root) override {
    *out_root = nullptr;
    Principal* p = books_->principal;
    if (!p->acl().allow_fs) {
      p->CountDenial(Resource::kOpenFiles);
      return Error::kAccess;
    }
    Error err = p->Charge(Resource::kOpenFiles, 1);
    if (!Ok(err)) {
      return err;
    }
    ComPtr<Dir> root;
    err = inner()->GetRoot(root.Receive());
    if (!Ok(err)) {
      p->Credit(Resource::kOpenFiles, 1);
      return err;
    }
    FileStat st{};
    root->GetStat(&st);
    *out_root = new TenantNode(ComPtr<File>(root.Detach()), books_, st.ino);
    return Error::kOk;
  }

  Error StatFs(FsStat* out_stat) override { return inner()->StatFs(out_stat); }

  Error Sync() override {
    ScopedPrincipal scope(books_->registry, books_->principal);
    return inner()->Sync();
  }

  Error Unmount() override {
    // Unmounting invalidates every other tenant's handles: administrative,
    // not a tenant operation.
    if (!books_->principal->acl().allow_fs_write) {
      books_->principal->CountDenial(Resource::kOpenFiles);
      return Error::kAccess;
    }
    return inner()->Unmount();
  }

 private:
  FsBooksPtr books_;
};

}  // namespace

ComPtr<FileSystem> MakeSecureFs(ComPtr<FileSystem> inner, Principal* p,
                                PrincipalRegistry* registry) {
  auto books = std::make_shared<FsBooks>();
  books->registry = registry;
  books->principal = p;
  return ComPtr<FileSystem>(new TenantFs(std::move(inner), std::move(books)));
}

void InstallJournalAdmission(fs::Offs* fs, PrincipalRegistry* registry) {
  // Outstanding per-op charges, credited wholesale at each txn settle.
  auto outstanding = std::make_shared<std::vector<Principal*>>();
  fs->SetMetaHooks(
      [registry, outstanding]() -> Error {
        Principal* p = registry->current();
        if (p == nullptr) {
          return Error::kOk;  // unattributed callers are never billed
        }
        Error err = p->Charge(Resource::kJournalTxns, 1);
        if (!Ok(err)) {
          return err;  // aborts the metadata op before it joins the txn
        }
        outstanding->push_back(p);
        return Error::kOk;
      },
      [outstanding]() {
        for (Principal* p : *outstanding) {
          p->Credit(Resource::kJournalTxns, 1);
        }
        outstanding->clear();
      });
}

}  // namespace oskit::secure
