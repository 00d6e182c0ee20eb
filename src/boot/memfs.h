// In-memory filesystem, and the boot-module filesystem built on it (§6.2.2).
//
// The paper's bmod facility gives a kernel "a simple RAM-disk file system
// accessible immediately upon bootstrap through POSIX's standard
// open/close/read/write interfaces" — Fluke's first user program, ML/OS's
// heap image, and Java/PC's .class files all loaded this way.  MemFs is that
// filesystem: a full read-write tree exposing the standard COM FileSystem /
// Dir / File interfaces, with BuildBmodFs() pre-populating it from the boot
// modules the loader placed in physical memory.

#ifndef OSKIT_SRC_BOOT_MEMFS_H_
#define OSKIT_SRC_BOOT_MEMFS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/boot/multiboot.h"
#include "src/com/filesystem.h"

namespace oskit {

namespace memfs_internal {

struct Node {
  FileType type = FileType::kRegular;
  uint64_t ino = 0;
  uint32_t mode = 0644;
  uint32_t nlink = 1;
  uint64_t mtime = 0;
  std::vector<uint8_t> data;                             // regular files
  std::map<std::string, std::shared_ptr<Node>> children; // directories
  std::weak_ptr<Node> parent;                            // for ".."
};

}  // namespace memfs_internal

class MemFs final : public ComObject<MemFs, FileSystem> {
 public:
  // An empty filesystem with a root directory.
  static ComPtr<MemFs> Create();

  // A filesystem with one file per boot module, named by the first word of
  // the module string (§3.1).  Module contents are copied out of simulated
  // physical memory.
  static ComPtr<MemFs> BuildBmodFs(PhysMem* phys, const MultiBootInfo& info);

  // FileSystem
  Error GetRoot(Dir** out_root) override;
  Error StatFs(FsStat* out_stat) override;
  Error Sync() override { return Error::kOk; }
  Error Unmount() override;

 private:
  friend class RefCounted<MemFs>;
  friend class MemFsFile;
  friend class MemFsDir;

  MemFs();
  ~MemFs() = default;

  uint64_t NextIno() { return next_ino_++; }

  std::shared_ptr<memfs_internal::Node> root_;
  uint64_t next_ino_ = 2;
  bool unmounted_ = false;
};

}  // namespace oskit

#endif  // OSKIT_SRC_BOOT_MEMFS_H_
