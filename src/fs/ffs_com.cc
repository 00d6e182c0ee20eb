// COM File/Dir wrappers over the offs core: the VFS-granularity interface
// (single pathname components) of §3.8.

#include <cstring>
#include <vector>

#include "src/base/panic.h"
#include "src/com/bufio.h"
#include "src/fs/ffs.h"
#include "src/libc/string.h"

namespace oskit::fs {

namespace {

bool ValidComponent(const char* name) {
  if (name == nullptr || name[0] == '\0') {
    return false;
  }
  if (libc::Strlen(name) > kMaxNameLen) {
    return false;
  }
  return libc::Strchr(name, '/') == nullptr;
}

void FillStat(uint64_t ino, const DiskInode& inode, FileStat* out) {
  out->ino = ino;
  out->type = (inode.mode & kModeTypeMask) == kModeDirectory ? FileType::kDirectory
                                                             : FileType::kRegular;
  out->mode = inode.mode & 0777;
  out->nlink = inode.nlink;
  out->size = inode.size;
  out->blocks = static_cast<uint64_t>(inode.blocks) * (kBlockSize / 512);
  out->uid = inode.uid;
  out->gid = inode.gid;
  out->mtime = inode.mtime;
}

class OffsDir;

File* WrapInode(const ComPtr<Offs>& fs, uint64_t ino, uint16_t mode);

// Shared all-zero block backing file holes in a Vectors() view: a hole has
// no disk block to pin, so every hole segment points here.
const uint8_t* ZeroBlock() {
  static const uint8_t kZeros[kBlockSize] = {};
  return kZeros;
}

// BufIoVec tear-off over a regular file — the sendfile source.  Vectors()
// maps the byte range through BMap and pins each covered block in the block
// cache (BlockCache::GetRef), handing out pointers directly into the cache's
// own storage; the network stack grafts those pointers into external-storage
// mbufs and the bytes reach the wire without ever being copied.  The pin is
// dropped by UnmapVectors once TCP has acknowledged delivery.
class FileVec final : public ComObject<FileVec, BufIoVec, BufIo, BlkIo> {
 public:
  FileVec(ComPtr<Offs> fs, uint64_t ino) : fs_(std::move(fs)), ino_(ino) {}

  // BlkIo surface (byte-granular: a file has no device alignment demands).
  uint32_t GetBlockSize() override { return 1; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    return fs_->FileReadAt(ino_, buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    return fs_->FileWriteAt(ino_, buf, offset, amount, out_actual);
  }
  Error GetSize(off_t64* out_size) override {
    DiskInode inode;
    Error err = fs_->ReadInode(ino_, &inode);
    if (!Ok(err)) {
      return err;
    }
    *out_size = inode.size;
    return Error::kOk;
  }
  // BufIo surface.  A file's bytes are scattered across cache blocks, so a
  // single contiguous Map is only honest within one block — callers wanting
  // more use Vectors; kNotImpl keeps them on that path.
  Error Map(void**, off_t64, size_t) override { return Error::kNotImpl; }
  Error Unmap(void*, off_t64, size_t) override { return Error::kInval; }

  // BufIoVec surface.
  Error Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset,
                size_t amount, size_t* out_count) override {
    *out_count = 0;
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    DiskInode inode;
    Error err = fs_->ReadInode(ino_, &inode);
    if (!Ok(err)) {
      return err;
    }
    err = CheckWindow(inode.size, offset, amount);
    if (!Ok(err)) {
      return err;
    }
    if (amount == 0) {
      return Error::kOk;
    }
    uint32_t first_fb = static_cast<uint32_t>(offset / kBlockSize);
    uint32_t last_fb = static_cast<uint32_t>((offset + amount - 1) / kBlockSize);
    if (static_cast<size_t>(last_fb - first_fb) + 1 > cap) {
      return Error::kNotImpl;  // range needs more pieces than the caller holds
    }
    // The pin stays local until it is complete: a cache miss below blocks
    // this fiber, and another may unmap a view of this object meanwhile.
    Pin pin{offset, amount, /*live=*/true, {}};
    if (Pin* spare = Spare()) {
      pin.blocks.swap(spare->blocks);
    }
    size_t produced = 0;
    uint64_t cur = offset;
    size_t remaining = amount;
    for (uint32_t fb = first_fb; fb <= last_fb; ++fb) {
      uint32_t disk_block = 0;
      err = fs_->BMap(ino_, &inode, fb, /*alloc=*/false, &disk_block);
      if (Ok(err)) {
        size_t in_block = static_cast<size_t>(cur % kBlockSize);
        size_t take = kBlockSize - in_block;
        if (take > remaining) {
          take = remaining;
        }
        const uint8_t* data = nullptr;
        if (disk_block == 0) {
          data = ZeroBlock();  // hole: nothing on disk to pin
        } else {
          err = fs_->cache().GetRef(disk_block, &data);
          if (Ok(err)) {
            pin.blocks.push_back(disk_block);
          }
        }
        if (Ok(err)) {
          out_segs[produced++] = {data + in_block, take};
          cur += take;
          remaining -= take;
        }
      }
      if (!Ok(err)) {
        for (uint32_t pinned : pin.blocks) {
          fs_->cache().PutRef(pinned);
        }
        return err;
      }
    }
    if (Pin* spare = Spare()) {
      *spare = std::move(pin);
    } else {
      pins_.push_back(std::move(pin));
    }
    *out_count = produced;
    return Error::kOk;
  }

  Error UnmapVectors(off_t64 offset, size_t amount) override {
    for (Pin& pin : pins_) {
      if (pin.live && pin.offset == offset && pin.amount == amount) {
        for (uint32_t block : pin.blocks) {
          fs_->cache().PutRef(block);
        }
        pin.blocks.clear();
        pin.live = false;
        return Error::kOk;
      }
    }
    return Error::kInval;
  }

 private:
  friend class RefCounted<FileVec>;
  ~FileVec() {
    // A dropped object releases whatever its clients forgot to.
    for (const Pin& pin : pins_) {
      for (uint32_t block : pin.blocks) {
        fs_->cache().PutRef(block);
      }
    }
  }

  // A view, or once unmapped (not live, no blocks) a slot whose block list
  // keeps its capacity for the next view: a warm Vectors/UnmapVectors pair
  // does not allocate.
  struct Pin {
    off_t64 offset;
    size_t amount;
    bool live;
    std::vector<uint32_t> blocks;
  };

  Pin* Spare() {
    for (Pin& pin : pins_) {
      if (!pin.live) {
        return &pin;
      }
    }
    return nullptr;
  }

  ComPtr<Offs> fs_;
  uint64_t ino_;
  std::vector<Pin> pins_;
};

class OffsFile final : public ComObject<OffsFile, File> {
 public:
  OffsFile(ComPtr<Offs> fs, uint64_t ino) : fs_(std::move(fs)), ino_(ino) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == BufIo::kIid || iid == BufIoVec::kIid) {
      // Zero-copy capability, granted as a tear-off (§4.4.2 evolution: File
      // consumers never see it; sendfile consumers Query for it).
      *out = static_cast<BufIoVec*>(new FileVec(fs_, ino_));
      return Error::kOk;
    }
    return ComObject::Query(iid, out);
  }

  Error Read(void* buf, uint64_t offset, size_t amount, size_t* out_actual) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    return fs_->FileReadAt(ino_, buf, offset, amount, out_actual);
  }

  Error Write(const void* buf, uint64_t offset, size_t amount,
              size_t* out_actual) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    return fs_->FileWriteAt(ino_, buf, offset, amount, out_actual);
  }

  Error GetStat(FileStat* out_stat) override {
    DiskInode inode;
    Error err = fs_->ReadInode(ino_, &inode);
    if (!Ok(err)) {
      return err;
    }
    FillStat(ino_, inode, out_stat);
    return Error::kOk;
  }

  Error SetSize(uint64_t new_size) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    Error err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    return fs_->FileTruncate(ino_, new_size);
  }

  Error Sync() override { return fs_->Sync(); }

 private:
  friend class RefCounted<OffsFile>;
  ~OffsFile() = default;

  ComPtr<Offs> fs_;
  uint64_t ino_;
};

class OffsDir final : public ComObject<OffsDir, Dir, File> {
 public:
  OffsDir(ComPtr<Offs> fs, uint64_t ino) : fs_(std::move(fs)), ino_(ino) {}

  // File surface on a directory object (Read/Write/SetSize: Dir's kIsDir).
  Error GetStat(FileStat* out_stat) override {
    DiskInode inode;
    Error err = fs_->ReadInode(ino_, &inode);
    if (!Ok(err)) {
      return err;
    }
    FillStat(ino_, inode, out_stat);
    return Error::kOk;
  }
  Error Sync() override { return fs_->Sync(); }

  // Dir surface.
  Error Lookup(const char* name, File** out_file) override {
    *out_file = nullptr;
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(name)) {
      return Error::kInval;
    }
    uint64_t target = 0;
    Error err = fs_->DirLookup(ino_, name, &target);
    if (!Ok(err)) {
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(target, &inode);
    if (!Ok(err)) {
      return err;
    }
    *out_file = WrapInode(fs_, target, inode.mode);
    return Error::kOk;
  }

  Error Create(const char* name, uint32_t mode, File** out_file) override {
    *out_file = nullptr;
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(name) || libc::Strcmp(name, ".") == 0 ||
        libc::Strcmp(name, "..") == 0) {
      return Error::kInval;
    }
    uint64_t existing = 0;
    if (Ok(fs_->DirLookup(ino_, name, &existing))) {
      return Error::kExist;
    }
    Error err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    uint64_t ino = 0;
    err = fs_->AllocInode(kModeRegular | (mode & 0777), &ino);
    if (!Ok(err)) {
      return err;
    }
    err = fs_->DirAdd(ino_, name, ino, kModeRegular);
    if (!Ok(err)) {
      fs_->FreeInode(ino);
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    inode.nlink = 1;
    err = fs_->WriteInode(ino, inode);
    if (!Ok(err)) {
      return err;
    }
    *out_file = new OffsFile(fs_, ino);
    return Error::kOk;
  }

  Error Mkdir(const char* name, uint32_t mode) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(name) || libc::Strcmp(name, ".") == 0 ||
        libc::Strcmp(name, "..") == 0) {
      return Error::kInval;
    }
    uint64_t existing = 0;
    if (Ok(fs_->DirLookup(ino_, name, &existing))) {
      return Error::kExist;
    }
    Error err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    uint64_t ino = 0;
    err = fs_->AllocInode(kModeDirectory | (mode & 0777), &ino);
    if (!Ok(err)) {
      return err;
    }
    // Seed "." and "..".
    err = fs_->DirAdd(ino, ".", ino, kModeDirectory);
    if (Ok(err)) {
      err = fs_->DirAdd(ino, "..", ino_, kModeDirectory);
    }
    if (Ok(err)) {
      err = fs_->DirAdd(ino_, name, ino, kModeDirectory);
    }
    if (!Ok(err)) {
      fs_->FreeInode(ino);
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    inode.nlink = 2;  // "." plus the parent's entry
    err = fs_->WriteInode(ino, inode);
    if (!Ok(err)) {
      return err;
    }
    // Parent gains a link from the child's "..".
    DiskInode parent;
    err = fs_->ReadInode(ino_, &parent);
    if (!Ok(err)) {
      return err;
    }
    parent.nlink += 1;
    return fs_->WriteInode(ino_, parent);
  }

  Error Unlink(const char* name) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(name)) {
      return Error::kInval;
    }
    uint64_t ino = 0;
    Error err = fs_->DirLookup(ino_, name, &ino);
    if (!Ok(err)) {
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    if ((inode.mode & kModeTypeMask) == kModeDirectory) {
      return Error::kIsDir;
    }
    err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    err = fs_->DirRemove(ino_, name);
    if (!Ok(err)) {
      return err;
    }
    if (inode.nlink <= 1) {
      return fs_->FreeInode(ino);
    }
    inode.nlink -= 1;
    return fs_->WriteInode(ino, inode);
  }

  Error Rmdir(const char* name) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(name) || libc::Strcmp(name, ".") == 0 ||
        libc::Strcmp(name, "..") == 0) {
      return Error::kInval;
    }
    uint64_t ino = 0;
    Error err = fs_->DirLookup(ino_, name, &ino);
    if (!Ok(err)) {
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    if ((inode.mode & kModeTypeMask) != kModeDirectory) {
      return Error::kNotDir;
    }
    bool empty = false;
    err = fs_->DirIsEmpty(ino, &empty);
    if (!Ok(err)) {
      return err;
    }
    if (!empty) {
      return Error::kNotEmpty;
    }
    err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    err = fs_->DirRemove(ino_, name);
    if (!Ok(err)) {
      return err;
    }
    err = fs_->FreeInode(ino);
    if (!Ok(err)) {
      return err;
    }
    DiskInode parent;
    err = fs_->ReadInode(ino_, &parent);
    if (!Ok(err)) {
      return err;
    }
    parent.nlink -= 1;  // the child's ".." is gone
    return fs_->WriteInode(ino_, parent);
  }

  Error Rename(const char* old_name, Dir* new_dir, const char* new_name) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    if (!ValidComponent(old_name) || !ValidComponent(new_name)) {
      return Error::kInval;
    }
    // The destination may be any Dir implementation (a wrapper, another
    // filesystem's directory): only an OffsDir of this mount qualifies.
    auto* dest = dynamic_cast<OffsDir*>(new_dir);
    if (dest == nullptr || dest->fs_.get() != fs_.get()) {
      return Error::kXDev;
    }
    uint64_t ino = 0;
    Error err = fs_->DirLookup(ino_, old_name, &ino);
    if (!Ok(err)) {
      return err;
    }
    uint64_t existing = 0;
    if (Ok(fs_->DirLookup(dest->ino_, new_name, &existing))) {
      return Error::kExist;
    }
    err = fs_->NoteMetaOp();
    if (!Ok(err)) {
      return err;
    }
    DiskInode inode;
    err = fs_->ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    uint16_t type = inode.mode & kModeTypeMask;
    if (type == kModeDirectory) {
      // A directory must not become its own ancestor (POSIX EINVAL):
      // climb the destination's ".." chain looking for the moving inode.
      uint64_t walk = dest->ino_;
      for (int depth = 0; depth < 1024; ++depth) {
        if (walk == ino) {
          return Error::kInval;
        }
        if (walk == kRootIno) {
          break;
        }
        uint64_t parent = 0;
        err = fs_->DirLookup(walk, "..", &parent);
        if (!Ok(err)) {
          return err;
        }
        walk = parent;
      }
    }
    err = fs_->DirAdd(dest->ino_, new_name, ino, type);
    if (!Ok(err)) {
      return err;
    }
    err = fs_->DirRemove(ino_, old_name);
    if (!Ok(err)) {
      return err;
    }
    if (type == kModeDirectory && dest->ino_ != ino_) {
      // Fix "..", and the parents' link counts.
      err = fs_->DirRemove(ino, "..");
      if (Ok(err)) {
        err = fs_->DirAdd(ino, "..", dest->ino_, kModeDirectory);
      }
      if (!Ok(err)) {
        return err;
      }
      DiskInode old_parent;
      err = fs_->ReadInode(ino_, &old_parent);
      if (!Ok(err)) {
        return err;
      }
      old_parent.nlink -= 1;
      err = fs_->WriteInode(ino_, old_parent);
      if (!Ok(err)) {
        return err;
      }
      DiskInode new_parent;
      err = fs_->ReadInode(dest->ino_, &new_parent);
      if (!Ok(err)) {
        return err;
      }
      new_parent.nlink += 1;
      err = fs_->WriteInode(dest->ino_, new_parent);
      if (!Ok(err)) {
        return err;
      }
    }
    return Error::kOk;
  }

  Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                size_t* out_count) override {
    if (fs_->unmounted()) {
      return Error::kBadF;
    }
    return fs_->DirRead(ino_, inout_offset, entries, capacity, out_count);
  }

 private:
  friend class RefCounted<OffsDir>;
  ~OffsDir() = default;

  ComPtr<Offs> fs_;
  uint64_t ino_;
};

File* WrapInode(const ComPtr<Offs>& fs, uint64_t ino, uint16_t mode) {
  if ((mode & kModeTypeMask) == kModeDirectory) {
    return new OffsDir(fs, ino);
  }
  return new OffsFile(fs, ino);
}

}  // namespace

Error Offs::GetRoot(Dir** out_root) {
  *out_root = nullptr;
  if (unmounted_) {
    return Error::kBadF;
  }
  *out_root = new OffsDir(ComPtr<Offs>::Retain(this), kRootIno);
  return Error::kOk;
}

}  // namespace oskit::fs
