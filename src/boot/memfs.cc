#include "src/boot/memfs.h"

#include <unistd.h>

#include <cstring>
#include <new>

#include "src/base/panic.h"
#include "src/com/blkio.h"

namespace oskit {

using memfs_internal::Node;

namespace {

bool ValidName(const char* name) {
  if (name == nullptr || name[0] == '\0') {
    return false;
  }
  if (std::strchr(name, '/') != nullptr) {
    return false;  // single pathname components only (§3.8)
  }
  return std::strlen(name) < sizeof(DirEntry{}.name);
}

void FillStat(const Node& node, FileStat* out) {
  out->ino = node.ino;
  out->type = node.type;
  out->mode = node.mode;
  out->nlink = node.nlink;
  out->size = node.data.size();
  out->blocks = (node.data.size() + 511) / 512;
  out->mtime = node.mtime;
}

// Grows or shrinks a file's bytes, zero-filling a grow.  False, with nothing
// changed, for a size this RAM filesystem cannot hold: more than the host's
// memory, or an allocation the host refuses.
bool ResizeData(Node* node, uint64_t size) {
  static const uint64_t kHostBytes =
      static_cast<uint64_t>(sysconf(_SC_PHYS_PAGES)) * sysconf(_SC_PAGESIZE);
  if (size > kHostBytes) {
    return false;
  }
  try {
    node->data.resize(size, 0);
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// COM wrappers.  A wrapper holds a strong reference to the filesystem and a
// shared_ptr to its node, so files stay readable after unlink (POSIX
// "deleted but open" semantics).
// ---------------------------------------------------------------------------

class MemFsFile final : public ComObject<MemFsFile, File> {
 public:
  MemFsFile(ComPtr<MemFs> fs, std::shared_ptr<Node> node)
      : fs_(std::move(fs)), node_(std::move(node)) {}

  Error Read(void* buf, uint64_t offset, size_t amount, size_t* out_actual) override {
    *out_actual = 0;
    if (node_->type != FileType::kRegular) {
      return Error::kIsDir;
    }
    if (offset >= node_->data.size()) {
      return Error::kOk;  // EOF
    }
    Error err = ClampRange(node_->data.size(), offset, &amount);
    if (!Ok(err)) {
      return err;
    }
    std::memcpy(buf, node_->data.data() + offset, amount);
    *out_actual = amount;
    return Error::kOk;
  }

  Error Write(const void* buf, uint64_t offset, size_t amount,
              size_t* out_actual) override {
    *out_actual = 0;
    if (node_->type != FileType::kRegular) {
      return Error::kIsDir;
    }
    // A write grows the file, so only a wrapping range is refused.
    Error err = ClampRange(~uint64_t{0}, offset, &amount);
    if (!Ok(err)) {
      return err;
    }
    if (offset + amount > node_->data.size() &&
        !ResizeData(node_.get(), offset + amount)) {
      return Error::kNoMem;
    }
    std::memcpy(node_->data.data() + offset, buf, amount);
    node_->mtime += 1;
    *out_actual = amount;
    return Error::kOk;
  }

  Error GetStat(FileStat* out_stat) override {
    FillStat(*node_, out_stat);
    return Error::kOk;
  }

  Error SetSize(uint64_t new_size) override {
    if (node_->type != FileType::kRegular) {
      return Error::kIsDir;
    }
    if (!ResizeData(node_.get(), new_size)) {
      return Error::kNoMem;
    }
    node_->mtime += 1;
    return Error::kOk;
  }

  Error Sync() override { return Error::kOk; }

 private:
  ~MemFsFile() = default;
  friend class RefCounted<MemFsFile>;

  ComPtr<MemFs> fs_;
  std::shared_ptr<Node> node_;
};

class MemFsDir final : public ComObject<MemFsDir, Dir, File> {
 public:
  MemFsDir(ComPtr<MemFs> fs, std::shared_ptr<Node> node)
      : fs_(std::move(fs)), node_(std::move(node)) {}

  // File methods on a directory (Read/Write/SetSize: Dir's kIsDir).
  Error GetStat(FileStat* out_stat) override {
    FillStat(*node_, out_stat);
    return Error::kOk;
  }
  Error Sync() override { return Error::kOk; }

  // Dir methods.
  Error Lookup(const char* name, File** out_file) override {
    *out_file = nullptr;
    std::shared_ptr<Node> target;
    if (name != nullptr && std::strcmp(name, ".") == 0) {
      target = node_;
    } else if (name != nullptr && std::strcmp(name, "..") == 0) {
      target = node_->parent.lock();
      if (target == nullptr) {
        target = node_;  // root's parent is root
      }
    } else {
      if (!ValidName(name)) {
        return Error::kInval;
      }
      auto it = node_->children.find(name);
      if (it == node_->children.end()) {
        return Error::kNoEnt;
      }
      target = it->second;
    }
    *out_file = WrapNode(fs_, std::move(target));
    return Error::kOk;
  }

  Error Create(const char* name, uint32_t mode, File** out_file) override {
    *out_file = nullptr;
    if (!ValidName(name) || std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) {
      return Error::kInval;
    }
    if (node_->children.count(name) > 0) {
      return Error::kExist;
    }
    auto child = std::make_shared<Node>();
    child->type = FileType::kRegular;
    child->ino = fs_->NextIno();
    child->mode = mode & 0777;
    child->parent = node_;
    node_->children.emplace(name, child);
    node_->mtime += 1;
    *out_file = WrapNode(fs_, std::move(child));
    return Error::kOk;
  }

  Error Mkdir(const char* name, uint32_t mode) override {
    if (!ValidName(name) || std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) {
      return Error::kInval;
    }
    if (node_->children.count(name) > 0) {
      return Error::kExist;
    }
    auto child = std::make_shared<Node>();
    child->type = FileType::kDirectory;
    child->ino = fs_->NextIno();
    child->mode = mode & 0777;
    child->nlink = 2;
    child->parent = node_;
    node_->children.emplace(name, child);
    node_->mtime += 1;
    return Error::kOk;
  }

  Error Unlink(const char* name) override {
    if (!ValidName(name)) {
      return Error::kInval;
    }
    auto it = node_->children.find(name);
    if (it == node_->children.end()) {
      return Error::kNoEnt;
    }
    if (it->second->type == FileType::kDirectory) {
      return Error::kIsDir;
    }
    node_->children.erase(it);
    node_->mtime += 1;
    return Error::kOk;
  }

  Error Rmdir(const char* name) override {
    if (!ValidName(name)) {
      return Error::kInval;
    }
    auto it = node_->children.find(name);
    if (it == node_->children.end()) {
      return Error::kNoEnt;
    }
    if (it->second->type != FileType::kDirectory) {
      return Error::kNotDir;
    }
    if (!it->second->children.empty()) {
      return Error::kNotEmpty;
    }
    node_->children.erase(it);
    node_->mtime += 1;
    return Error::kOk;
  }

  Error Rename(const char* old_name, Dir* new_dir, const char* new_name) override {
    if (!ValidName(old_name) || !ValidName(new_name)) {
      return Error::kInval;
    }
    auto* dest = static_cast<MemFsDir*>(new_dir);
    if (dest->fs_.get() != fs_.get()) {
      return Error::kXDev;
    }
    auto it = node_->children.find(old_name);
    if (it == node_->children.end()) {
      return Error::kNoEnt;
    }
    if (dest->node_->children.count(new_name) > 0) {
      return Error::kExist;
    }
    std::shared_ptr<Node> moving = it->second;
    // A directory must not become its own ancestor (POSIX EINVAL).
    if (moving->type == FileType::kDirectory) {
      for (std::shared_ptr<Node> walk = dest->node_; walk != nullptr;
           walk = walk->parent.lock()) {
        if (walk == moving) {
          return Error::kInval;
        }
      }
    }
    node_->children.erase(it);
    moving->parent = dest->node_;
    dest->node_->children.emplace(new_name, std::move(moving));
    node_->mtime += 1;
    dest->node_->mtime += 1;
    return Error::kOk;
  }

  Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                size_t* out_count) override {
    *out_count = 0;
    uint64_t index = 0;
    for (const auto& [name, child] : node_->children) {
      if (index++ < *inout_offset) {
        continue;
      }
      if (*out_count == capacity) {
        break;
      }
      DirEntry& e = entries[*out_count];
      e.ino = child->ino;
      e.type = child->type;
      std::strncpy(e.name, name.c_str(), sizeof(e.name) - 1);
      e.name[sizeof(e.name) - 1] = '\0';
      ++*out_count;
      *inout_offset = index;
    }
    return Error::kOk;
  }

  // Wraps a node in the appropriate COM object, returned as File*.
  static File* WrapNode(const ComPtr<MemFs>& fs, std::shared_ptr<Node> node) {
    if (node->type == FileType::kDirectory) {
      return new MemFsDir(fs, std::move(node));
    }
    return new MemFsFile(fs, std::move(node));
  }

 private:
  ~MemFsDir() = default;
  friend class RefCounted<MemFsDir>;

  ComPtr<MemFs> fs_;
  std::shared_ptr<Node> node_;
};

// ---------------------------------------------------------------------------
// MemFs proper.
// ---------------------------------------------------------------------------

MemFs::MemFs() {
  root_ = std::make_shared<Node>();
  root_->type = FileType::kDirectory;
  root_->ino = 1;
  root_->mode = 0755;
  root_->nlink = 2;
}

ComPtr<MemFs> MemFs::Create() { return ComPtr<MemFs>(new MemFs()); }

ComPtr<MemFs> MemFs::BuildBmodFs(PhysMem* phys, const MultiBootInfo& info) {
  auto fs = Create();
  for (const BootModule& module : info.modules) {
    std::string name = BootModuleName(module);
    auto node = std::make_shared<Node>();
    node->type = FileType::kRegular;
    node->ino = fs->NextIno();
    node->mode = 0644;
    node->parent = fs->root_;
    size_t size = module.end - module.start;
    const auto* data = static_cast<const uint8_t*>(phys->PtrAt(module.start));
    node->data.assign(data, data + size);
    fs->root_->children.emplace(std::move(name), std::move(node));
  }
  return fs;
}

Error MemFs::GetRoot(Dir** out_root) {
  *out_root = nullptr;
  if (unmounted_) {
    return Error::kBadF;
  }
  *out_root = new MemFsDir(ComPtr<MemFs>::Retain(this), root_);
  return Error::kOk;
}

Error MemFs::StatFs(FsStat* out_stat) {
  *out_stat = FsStat{};
  out_stat->block_size = 1;
  out_stat->total_inodes = next_ino_ - 1;
  return Error::kOk;
}

Error MemFs::Unmount() {
  unmounted_ = true;
  return Error::kOk;
}

}  // namespace oskit
