// File system COM interfaces (§3.8).
//
// The granularity deliberately mirrors the Unix VFS layer: Dir::Lookup takes
// a SINGLE pathname component, never a path.  The paper's secure-fileserver
// case study depends on exactly this — a security wrapper interposes on each
// component lookup to do permission checking while the fileserver's own
// external interface accepts full paths.

#ifndef OSKIT_SRC_COM_FILESYSTEM_H_
#define OSKIT_SRC_COM_FILESYSTEM_H_

#include <cstddef>
#include <cstdint>

#include "src/com/iunknown.h"

namespace oskit {

enum class FileType : uint32_t {
  kRegular = 1,
  kDirectory = 2,
};

// Subset of struct stat the components exchange.  Conversions between a
// donor OS's native stat layout and this one happen in glue code (§4.7.2).
struct FileStat {
  uint64_t ino = 0;
  FileType type = FileType::kRegular;
  uint32_t mode = 0;  // permission bits, 0o777 mask
  uint32_t nlink = 0;
  uint64_t size = 0;
  uint64_t blocks = 0;  // 512-byte units, like st_blocks
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t mtime = 0;  // simulated-clock ticks
};

struct FsStat {
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  uint64_t total_inodes = 0;
  uint64_t free_inodes = 0;
};

struct DirEntry {
  uint64_t ino = 0;
  FileType type = FileType::kRegular;
  char name[60] = {};
};

class File : public IUnknown {
 public:
  static constexpr Guid kIid = MakeGuid(0x3e9c2d10, 0x0df4, 0x11d0, 0xa6, 0xbe, 0x00,
                                        0xa0, 0xc9, 0x0a, 0x5f, 0x31);

  virtual Error Read(void* buf, uint64_t offset, size_t amount, size_t* out_actual) = 0;
  virtual Error Write(const void* buf, uint64_t offset, size_t amount,
                      size_t* out_actual) = 0;
  virtual Error GetStat(FileStat* out_stat) = 0;
  virtual Error SetSize(uint64_t new_size) = 0;
  virtual Error Sync() = 0;

 protected:
  ~File() = default;
};

class Dir : public File {
 public:
  static constexpr Guid kIid = MakeGuid(0x3e9c2d11, 0x0df4, 0x11d0, 0xa6, 0xbe, 0x00,
                                        0xa0, 0xc9, 0x0a, 0x5f, 0x31);

  // Looks up ONE pathname component (no '/' allowed).  "." and ".." work.
  // On success returns the object as a File; callers Query for Dir when they
  // need directory operations (safe downcast, §4.4.2).
  virtual Error Lookup(const char* name, File** out_file) = 0;

  // Creates a regular file.  kExist if the name is taken.
  virtual Error Create(const char* name, uint32_t mode, File** out_file) = 0;

  virtual Error Mkdir(const char* name, uint32_t mode) = 0;
  virtual Error Unlink(const char* name) = 0;
  virtual Error Rmdir(const char* name) = 0;
  virtual Error Rename(const char* old_name, Dir* new_dir, const char* new_name) = 0;

  // Reads directory entries starting at *inout_offset (an opaque cursor).
  // Fills at most `capacity` entries; *out_count == 0 signals end.
  virtual Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                        size_t* out_count) = 0;

  // A directory's bytes are not file data: the File surface refuses them.
  Error Read(void*, uint64_t, size_t, size_t* out_actual) override {
    *out_actual = 0;
    return Error::kIsDir;
  }
  Error Write(const void*, uint64_t, size_t, size_t* out_actual) override {
    *out_actual = 0;
    return Error::kIsDir;
  }
  Error SetSize(uint64_t) override { return Error::kIsDir; }

 protected:
  ~Dir() = default;
};

class FileSystem : public IUnknown {
 public:
  static constexpr Guid kIid = MakeGuid(0x3e9c2d12, 0x0df4, 0x11d0, 0xa6, 0xbe, 0x00,
                                        0xa0, 0xc9, 0x0a, 0x5f, 0x31);

  virtual Error GetRoot(Dir** out_root) = 0;
  virtual Error StatFs(FsStat* out_stat) = 0;
  virtual Error Sync() = 0;

  // Detaches from the underlying BlkIo after flushing.  All Files/Dirs
  // obtained from this filesystem become invalid.
  virtual Error Unmount() = 0;

 protected:
  ~FileSystem() = default;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_FILESYSTEM_H_
