// fileserver — the secure file server case study (§3.8).
//
// "The OSKit interface accepts only single pathname components, allowing the
// security wrapping code to do appropriate permission checking.  The
// fileserver itself, however, exports an interface accepting full pathnames,
// providing efficiency where it matters."
//
// A simulated PC assembles the full storage stack from separable components
// bound at run time (§4.2.2): simulated IDE disk -> encapsulated Linux IDE
// driver (BlkIo) -> MBR partition view -> offs filesystem -> per-uid
// security wrapper (secure::MakeSecureFs under a principal that carries the
// caller's Unix identity).  A second PC talks to it over TCP with a trivial
// full-pathname protocol:  "<uid> GET <path>\n" -> contents or an error.

#include <cstdio>
#include <sstream>
#include <string>

#include "src/diskpart/diskpart.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/libc/posix.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

constexpr uint16_t kPort = 9000;

// Serves one request line through the caller's wrapped view of the
// filesystem: one principal per uid, carrying that uid's Unix identity.
std::string HandleRequest(secure::PrincipalRegistry* principals,
                          const ComPtr<FileSystem>& filesystem,
                          const std::string& line) {
  std::istringstream in(line);
  uint32_t uid = 0;
  std::string verb;
  std::string path;
  in >> uid >> verb >> path;
  if (verb != "GET" || path.empty() || path[0] != '/') {
    return "ERR bad request\n";
  }
  std::string name = "uid" + std::to_string(uid);
  secure::Principal* who = principals->Find(name);
  if (who == nullptr) {
    who = principals->Create(name, {}, {},
                             {.uid = uid, .gid = uid, .superuser = false});
  }
  // Path walking below goes one component at a time through the checked
  // Dir the wrapper hands out.
  ComPtr<FileSystem> view = secure::MakeSecureFs(filesystem, who, principals);
  ComPtr<Dir> root;
  Error err = view->GetRoot(root.Receive());
  if (!Ok(err)) {
    return std::string("ERR ") + ErrorName(err) + "\n";
  }
  libc::PosixIo posix;
  posix.SetRoot(std::move(root));
  int fd = posix.Open(path.c_str(), libc::kORdOnly);
  if (fd < 0) {
    return std::string("ERR ") + ErrorName(static_cast<Error>(-fd)) + "\n";
  }
  std::string contents = "OK ";
  char buf[512];
  long n;
  while ((n = posix.Read(fd, buf, sizeof(buf))) > 0) {
    contents.append(buf, static_cast<size_t>(n));
  }
  posix.Close(fd);
  if (n < 0) {
    // The security wrapper denies at the Read itself (the open only walked
    // the path); report the denial, not a truncated success.
    return std::string("ERR ") + ErrorName(static_cast<Error>(-n)) + "\n";
  }
  contents.push_back('\n');
  return contents;
}

}  // namespace

int main() {
  World world;
  Host& server = world.AddHost("filesrv", NetConfig::kOskit);
  Host& client = world.AddHost("client", NetConfig::kOskit);

  // Give the server a disk with an MBR and one offs partition, built the
  // honest way: partition the raw disk, format through the partition view.
  server.machine->AddDisk(24 * 1024 * 1024 / 512);
  DeviceRegistry disk_registry;
  linuxdev::InitLinuxIde(server.fdev, server.machine.get(), &disk_registry);
  auto hda_dev = disk_registry.LookupByName("hda");
  ComPtr<BlkIo> hda = ComPtr<BlkIo>::FromQuery(hda_dev.get());

  int requests_served = 0;

  world.sim().Spawn("filesrv/main", [&] {
    // --- storage bring-up ---
    std::vector<Partition> layout = {
        {.start_sector = 64,
         .sector_count = 24 * 1024 * 1024 / 512 - 64,
         .type = kPartTypeOskitFs},
    };
    OSKIT_ASSERT(Ok(WriteMbr(hda.get(), layout)));
    std::vector<Partition> found;
    OSKIT_ASSERT(Ok(ReadPartitions(hda.get(), &found)));
    ComPtr<BlkIo> part = MakePartitionView(hda.get(), found[0]);
    OSKIT_ASSERT(Ok(fs::Mkfs(part.get())));
    FileSystem* raw_fs = nullptr;
    OSKIT_ASSERT(Ok(fs::Offs::Mount(part.get(), &raw_fs)));
    ComPtr<FileSystem> filesystem(raw_fs);
    ComPtr<Dir> root;
    filesystem->GetRoot(root.Receive());

    // Populate: a public file and alice's private file (uid 1000).
    {
      ComPtr<File> f;
      OSKIT_ASSERT(Ok(root->Create("motd", 0644, f.Receive())));
      size_t n;
      f->Write("welcome, anyone", 0, 15, &n);
      ComPtr<File> p;
      OSKIT_ASSERT(Ok(root->Create("diary", 0600, p.Receive())));
      p->Write("alice's secrets", 0, 15, &n);
      // chown diary to alice by rewriting the inode's uid via stat trick:
      // offs keeps uid in the inode; the COM surface has no chown, so write
      // it directly through the component's open implementation (§4.6).
      auto* offs = static_cast<fs::Offs*>(raw_fs);
      FileStat st;
      p->GetStat(&st);
      fs::DiskInode inode;
      OSKIT_ASSERT(Ok(offs->ReadInode(st.ino, &inode)));
      inode.uid = 1000;
      inode.gid = 1000;
      OSKIT_ASSERT(Ok(offs->WriteInode(st.ino, inode)));
    }

    secure::PrincipalRegistry principals(&server.trace);

    // --- the network half: full pathnames on the wire, components inside ---
    ComPtr<Socket> listener = server.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(listener->Bind(SockAddr{kInetAny, kPort})));
    OSKIT_ASSERT(Ok(listener->Listen(4)));
    for (int i = 0; i < 4; ++i) {
      SockAddr peer;
      ComPtr<Socket> conn;
      OSKIT_ASSERT(Ok(listener->Accept(&peer, conn.Receive())));
      std::string line;
      char c;
      size_t n = 0;
      while (Ok(conn->Recv(&c, 1, &n)) && n == 1 && c != '\n') {
        line.push_back(c);
      }
      std::string reply = HandleRequest(&principals, filesystem, line);
      size_t sent = 0;
      conn->Send(reply.data(), reply.size(), &sent);
      conn->Shutdown(SockShutdown::kWrite);
      ++requests_served;
    }
    std::printf("filesrv: %zu principals, %llu denials\n", principals.size(),
                static_cast<unsigned long long>(principals.TotalDenied()));
    root.Reset();
    OSKIT_ASSERT(Ok(filesystem->Unmount()));
    fs::FsckReport report = fs::Fsck(part.get());
    std::printf("filesrv: fsck after unmount: %s\n",
                report.consistent ? "clean" : "INCONSISTENT");
  });

  world.sim().Spawn("client/main", [&] {
    auto request = [&](const std::string& line) -> std::string {
      // The server spends a while in disk bring-up before it listens;
      // retry until the listener exists (a RST means "not yet").
      ComPtr<Socket> conn;
      for (;;) {
        conn = client.MakeSocket(SockType::kStream);
        if (Ok(conn->Connect(SockAddr{server.addr, kPort}))) {
          break;
        }
        world.sim().SleepFor(10 * kNsPerMs);
      }
      size_t n = 0;
      conn->Send(line.data(), line.size(), &n);
      std::string reply;
      char buf[256];
      while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
        reply.append(buf, n);
      }
      return reply;
    };
    struct Case {
      const char* line;
      const char* expect_prefix;
    };
    const Case cases[] = {
        {"2000 GET /motd\n", "OK welcome"},       // world-readable
        {"2000 GET /diary\n", "ERR EACCES"},      // bob can't read alice's
        {"1000 GET /diary\n", "OK alice's"},      // alice can
        {"1000 GET /missing\n", "ERR ENOENT"},
    };
    for (const Case& test : cases) {
      std::string reply = request(test.line);
      bool ok = reply.rfind(test.expect_prefix, 0) == 0;
      std::printf("client: %-22s -> %s%s", test.line,
                  ok ? "" : "[UNEXPECTED] ", reply.c_str());
      fflush(stdout);
      OSKIT_ASSERT_MSG(ok, "fileserver policy mismatch");
    }
  });

  world.RunToCompletion();
  std::printf("fileserver: served %d requests with per-component permission "
              "checks\n", requests_served);
  return 0;
}
