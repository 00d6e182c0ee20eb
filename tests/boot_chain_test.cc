// Boot-chain integration: the full path a real OSKit-based boot takes.
//
//   mkfs a disk image -> install an SXF "kernel" + a KVM program into the
//   filesystem -> partition a simulated disk and copy the image in ->
//   boot: fsread (the independent boot-time reader) pulls the kernel out
//   of the filesystem, exec validates and loads it, the payload runs.
//
// This crosses diskpart + fs + fsread + exec + boot + vm + the encapsulated
// IDE driver in one flow — the §6.1.5 "specialized kernels to boot other
// kernels" scenario.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dev/linux/linux_ide.h"
#include "src/diskpart/diskpart.h"
#include "src/exec/sxf.h"
#include "src/fs/ffs.h"
#include "src/com/memblkio.h"
#include "src/fsread/fsread.h"
#include "src/testbed/testbed.h"
#include "src/vm/kvm.h"

namespace oskit {
namespace {

TEST(BootChainTest, DiskToRunningProgram) {
  trace::TraceEnv tenv;
  Simulation sim;
  Machine machine(&sim, Machine::Config{.name = "bootpc"});
  machine.AddDisk(16 * 1024 * 1024 / 512);
  KernelEnv kernel(&machine, MultiBootInfo{});
  machine.cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(&kernel);

  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev, &machine, &registry));
  auto hda_dev = registry.LookupByName("hda");
  ComPtr<BlkIo> hda = ComPtr<BlkIo>::FromQuery(hda_dev.get());
  ASSERT_TRUE(hda);

  bool program_ran = false;
  int64_t program_result = 0;

  sim.Spawn("bootpc/boot", [&] {
    // ---- "Install" phase: partition, format, populate ----
    std::vector<Partition> layout = {
        {.start_sector = 64, .sector_count = 16 * 1024 * 1024 / 512 - 64,
         .type = kPartTypeOskitFs, .bootable = true},
    };
    ASSERT_EQ(Error::kOk, WriteMbr(hda.get(), layout));
    std::vector<Partition> found;
    ASSERT_EQ(Error::kOk, ReadPartitions(hda.get(), &found));
    ASSERT_EQ(1u, found.size());
    ASSERT_TRUE(found[0].bootable);
    ComPtr<BlkIo> part = MakePartitionView(hda.get(), found[0]);

    ASSERT_EQ(Error::kOk, fs::Mkfs(part.get()));
    {
      FileSystem* raw = nullptr;
      ASSERT_EQ(Error::kOk, fs::Offs::Mount(part.get(), {.trace = &tenv}, &raw));
      ComPtr<FileSystem> filesystem(raw);
      ComPtr<Dir> root;
      filesystem->GetRoot(root.Receive());
      ASSERT_EQ(Error::kOk, root->Mkdir("boot", 0755));
      ComPtr<File> bootf;
      ASSERT_EQ(Error::kOk, root->Lookup("boot", bootf.Receive()));
      ComPtr<Dir> boot = ComPtr<Dir>::FromQuery(bootf.get());

      // The "kernel": a KVM program packaged as an SXF code segment.
      std::vector<uint8_t> bytecode;
      std::string asm_err;
      ASSERT_EQ(Error::kOk, vm::Assemble(
                                "push 6\n"
                                "push 7\n"
                                "mul\n"
                                "gstore 0\n"
                                "halt\n",
                                &bytecode, &asm_err))
          << asm_err;
      std::vector<exec::BuildSegment> segments;
      segments.push_back({exec::SegmentType::kCode, 0, 0, bytecode});
      segments.push_back({exec::SegmentType::kBss, 0x1000, 0x100, {}});
      std::vector<uint8_t> image = exec::Build(/*entry=*/0, segments);

      ComPtr<File> kfile;
      ASSERT_EQ(Error::kOk, boot->Create("kernel.sxf", 0755, kfile.Receive()));
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, kfile->Write(image.data(), 0, image.size(), &actual));
      ASSERT_EQ(image.size(), actual);
      kfile.Reset();
      boot.Reset();
      bootf.Reset();
      root.Reset();
      ASSERT_EQ(Error::kOk, filesystem->Unmount());
    }

    // ---- "Boot" phase: fsread + exec, no filesystem component linked ----
    // (fsread walks the on-disk format independently, as a boot loader
    // that cannot afford the full component would.)
    std::vector<uint8_t> image;
    ASSERT_EQ(Error::kOk,
              fsread::ReadFile(part.get(), "/boot/kernel.sxf", &image));

    exec::ImageInfo info;
    ASSERT_EQ(Error::kOk, exec::Parse(image.data(), image.size(), &info));
    std::vector<uint8_t> memory(info.mem_size);
    ASSERT_EQ(Error::kOk, exec::Load(image.data(), image.size(), memory.data(),
                                     memory.size(), &info));

    // The loaded code segment is KVM bytecode; run it.
    const exec::Segment& code = info.segments[0];
    std::vector<uint8_t> program(memory.begin() + code.mem_offset,
                                 memory.begin() + code.mem_offset + code.file_size);
    vm::Vm machine_vm(std::move(program), nullptr);
    ASSERT_EQ(Error::kOk, machine_vm.Verify());
    machine_vm.SpawnThread(info.entry);
    ASSERT_EQ(Error::kOk, machine_vm.Run(100000));
    program_result = machine_vm.global(0);
    program_ran = true;
  });

  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_TRUE(program_ran);
  EXPECT_EQ(42, program_result);
}

TEST(BootChainTest, CorruptKernelImageIsRejectedBeforeRunning) {
  // Same flow, but a bit flip on disk must be caught by the SXF checksum.
  trace::TraceEnv tenv;
  auto disk = MemBlkIo::Create(8 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  FileSystem* raw = nullptr;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, &raw));
  ComPtr<FileSystem> filesystem(raw);
  ComPtr<Dir> root;
  filesystem->GetRoot(root.Receive());

  std::vector<uint8_t> bytecode;
  std::string asm_err;
  ASSERT_EQ(Error::kOk, vm::Assemble("halt\n", &bytecode, &asm_err));
  std::vector<uint8_t> image =
      exec::Build(0, {{exec::SegmentType::kCode, 0, 0, bytecode}});
  image[image.size() - 1] ^= 0x40;  // the flip

  ComPtr<File> kfile;
  ASSERT_EQ(Error::kOk, root->Create("kernel.sxf", 0755, kfile.Receive()));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, kfile->Write(image.data(), 0, image.size(), &actual));
  kfile.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, filesystem->Unmount());

  std::vector<uint8_t> loaded;
  ASSERT_EQ(Error::kOk, fsread::ReadFile(disk.get(), "/kernel.sxf", &loaded));
  exec::ImageInfo info;
  EXPECT_EQ(Error::kCorrupt, exec::Parse(loaded.data(), loaded.size(), &info));
}

}  // namespace
}  // namespace oskit
