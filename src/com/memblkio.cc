#include "src/com/memblkio.h"

#include <cstring>

namespace oskit {

MemBlkIo::MemBlkIo(size_t size, uint32_t block_size)
    : store_(size), block_size_(block_size) {
  OSKIT_ASSERT(block_size >= 1);
}

ComPtr<MemBlkIo> MemBlkIo::Create(size_t size, uint32_t block_size) {
  return ComPtr<MemBlkIo>(new MemBlkIo(size, block_size));
}

ComPtr<MemBlkIo> MemBlkIo::CreateFrom(const void* data, size_t size,
                                      uint32_t block_size) {
  auto io = Create(size, block_size);
  if (size != 0) {
    std::memcpy(io->store_.MarkWritten(0, size), data, size);
  }
  return io;
}

ComPtr<MemBlkIo> MemBlkIo::CreateFrom(const SparseImage& image, size_t size,
                                      uint32_t block_size) {
  OSKIT_ASSERT_MSG(size <= image.size(), "copy past the end of the image");
  auto io = Create(size, block_size);
  image.written().ForEachRun(size, [&](size_t offset, size_t len) {
    std::memcpy(io->store_.MarkWritten(offset, len), image.data() + offset, len);
  });
  return io;
}

Error MemBlkIo::Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(size(), offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  if (amount != 0) {  // a size-0 object has no mapping: never copy through null
    std::memcpy(buf, store_.data() + offset, amount);
  }
  *out_actual = amount;
  return Error::kOk;
}

Error MemBlkIo::Write(const void* buf, off_t64 offset, size_t amount,
                      size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(size(), offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  if (amount != 0) {
    std::memcpy(store_.MarkWritten(offset, amount), buf, amount);
  }
  *out_actual = amount;
  return Error::kOk;
}

Error MemBlkIo::GetSize(off_t64* out_size) {
  *out_size = size();
  return Error::kOk;
}

Error MemBlkIo::SetSize(off_t64 new_size) {
  if (maps_outstanding_ != 0) {
    // Resizing would invalidate mapped pointers.
    return Error::kBusy;
  }
  return store_.Resize(new_size) ? Error::kOk : Error::kNoMem;
}

Error MemBlkIo::Map(void** out_addr, off_t64 offset, size_t amount) {
  Error err = CheckWindow(size(), offset, amount);
  if (!Ok(err)) {
    return err;
  }
  ++maps_outstanding_;
  *out_addr = store_.MarkWritten(offset, amount);
  return Error::kOk;
}

Error MemBlkIo::Unmap(void* addr, off_t64 offset, size_t amount) {
  OSKIT_ASSERT_MSG(maps_outstanding_ > 0, "Unmap without Map");
  --maps_outstanding_;
  return Error::kOk;
}

}  // namespace oskit
