// AIO campaign: the async completion-ring and stackable-storage benchmark.
//
// Four legs, each with in-campaign acceptance checks (any miss is a FAIL
// and a nonzero exit) plus a BENCH_aio.json report for the regression gate:
//
//   queue depth   256 adjacent sector writes pushed through the IDE glue's
//                 native BlkIoRing at submission depths 1..32.  The
//                 LBA-sorting scheduler merges each batch into one
//                 controller round-trip, so requests-per-block must fall
//                 from 1.0 at depth 1 toward 1/depth, and the fixed
//                 per-request overhead (DiskHw charges a 100 us "seek" per
//                 request) makes deep submission measurably faster.
//
//   journal ring  a journaled FFS mounted directly on the IDE device runs a
//                 metadata workload.  JournalWriter finds the device's ring
//                 the §4.4.2 way (Query for BlkIoRing), so commit-image
//                 batches must show up in glue.ide.ring.sqes — the proof
//                 that transactions ride the async path end to end.
//
//   stack matrix  every composition of the stripe / checksum / cache blkio
//                 layers (and the plain mount) gets two trials: mkfs +
//                 metadata workload + fsck must stay consistent, and a
//                 scribble pass (one flipped byte in every raw 4 KiB block
//                 under the stack) must be DETECTED (read returns an error)
//                 whenever a checksum layer is present and must corrupt
//                 silently on the plain device — the ablation that proves
//                 the detector has teeth.
//
//   sendfile      the HTTP server serves a 64 KiB static file 16 times over
//                 one keep-alive connection, once on the stack's own
//                 sockets (sendfile) and once through the §3.8 secure
//                 wrappers, whose sockets grant no SocketZeroCopy (the
//                 copied read+send path).  Header bytes are identical in
//                 both runs, so copied-bytes-per-body-byte is computed
//                 exactly: it must be 0.000 with sendfile (every body byte
//                 reached the wire through BufIoVec segments,
//                 counter-verified) and 1.000 on the copy path.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/stack.h"
#include "src/com/aio.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_glue.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/http/http.h"
#include "src/http/server.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

std::map<std::string, int> g_failures;  // per leg
uint64_t g_seed_base = 0;  // shifts deterministic patterns onto another stream

void Fail(const char* leg, const char* what) {
  std::printf("FAIL: %s: %s\n", leg, what);
  ++g_failures[leg];
}

// The kernel's registry: its IDE glue reports there.
uint64_t Ambient(KernelEnv& kernel, const char* name) {
  return kernel.trace().registry.Value(name);
}

// ---------------------------------------------------------------------------
// Leg 1: queue-depth sweep on the IDE glue's native ring.
// ---------------------------------------------------------------------------

constexpr size_t kSweepBlocks = 256;  // 512-byte sectors written per depth

struct DepthPoint {
  size_t depth = 0;
  double requests_per_block = 0;
  double ns_per_block = 0;
};

DepthPoint RunDepth(size_t depth) {
  DepthPoint point;
  point.depth = depth;

  Simulation sim;
  auto machine = std::make_unique<Machine>(&sim, Machine::Config{});
  auto kernel = std::make_unique<KernelEnv>(machine.get(), MultiBootInfo{});
  machine->cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(kernel.get());
  machine->AddDisk(kSweepBlocks + 64);
  DeviceRegistry registry;
  if (!Ok(linuxdev::InitLinuxIde(fdev, machine.get(), &registry))) {
    Fail("queue_depth", "IDE probe failed");
    return point;
  }
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIoRing> ring = ComPtr<BlkIoRing>::FromQuery(device.get());
  if (!ring) {
    Fail("queue_depth", "IDE device does not grant BlkIoRing");
    return point;
  }
  auto* ide = static_cast<linuxdev::LinuxIdeDev*>(device.get());

  std::vector<uint8_t> data(kSweepBlocks * 512);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = bench::PatternByte(depth + g_seed_base, i);
  }

  uint64_t issued_before = 0;
  bool done = false;
  sim.Spawn("sweep", [&] {
    issued_before = ide->drive().requests_issued;
    size_t next = 0;
    while (next < kSweepBlocks) {
      size_t batch = std::min(depth, kSweepBlocks - next);
      std::vector<AioSqe> sqes(batch);
      for (size_t i = 0; i < batch; ++i) {
        size_t blk = next + i;
        sqes[i] = {AioOp::kWrite, data.data() + blk * 512,
                   static_cast<off_t64>(blk) * 512, 512, blk};
      }
      size_t submitted = 0;
      while (submitted < batch) {
        size_t accepted = 0;
        if (!Ok(ring->Submit(sqes.data() + submitted, batch - submitted,
                             &accepted))) {
          Fail("queue_depth", "Submit failed");
          return;
        }
        AioCqe cqes[64];
        size_t got = 0;
        if (!Ok(ring->Reap(cqes, 64, &got))) {
          Fail("queue_depth", "Reap failed");
          return;
        }
        for (size_t i = 0; i < got; ++i) {
          if (!Ok(cqes[i].status) || cqes[i].actual != 512) {
            Fail("queue_depth", "a CQE completed with an error");
            return;
          }
        }
        if (accepted == 0 && got == 0) {
          Fail("queue_depth", "ring made no progress");
          return;
        }
        submitted += accepted;
      }
      while (ring->Occupancy() > 0) {
        AioCqe cqes[64];
        size_t got = 0;
        if (!Ok(ring->Reap(cqes, 64, &got)) || got == 0) {
          Fail("queue_depth", "drain Reap failed");
          return;
        }
      }
      next += batch;
    }
    done = true;
  });
  if (sim.Run(600 * kNsPerSec) != Simulation::RunResult::kAllDone || !done) {
    Fail("queue_depth", "sweep fiber did not finish");
    return point;
  }

  uint64_t requests = ide->drive().requests_issued - issued_before;
  point.requests_per_block =
      static_cast<double>(requests) / static_cast<double>(kSweepBlocks);
  point.ns_per_block = static_cast<double>(sim.clock().Now()) /
                       static_cast<double>(kSweepBlocks);
  return point;
}

// ---------------------------------------------------------------------------
// Leg 2: journal commits ride the native ring.
// ---------------------------------------------------------------------------

struct JournalRing {
  uint64_t ring_sqes = 0;    // SQEs the IDE ring executed for the workload
  uint64_t ring_merges = 0;  // adjacent-run merges among them
  uint64_t commits = 0;      // journal transactions committed
};

JournalRing RunJournalRing() {
  JournalRing result;
  Simulation sim;
  auto machine = std::make_unique<Machine>(&sim, Machine::Config{});
  auto kernel = std::make_unique<KernelEnv>(machine.get(), MultiBootInfo{});
  machine->cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(kernel.get());
  machine->AddDisk(16 * 1024);  // 8 MiB
  DeviceRegistry registry;
  if (!Ok(linuxdev::InitLinuxIde(fdev, machine.get(), &registry))) {
    Fail("journal_ring", "IDE probe failed");
    return result;
  }
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());

  trace::TraceEnv tenv;
  uint64_t sqes_before = Ambient(*kernel, "glue.ide.ring.sqes");
  uint64_t merges_before = Ambient(*kernel, "glue.ide.ring.merges");
  bool done = false;
  sim.Spawn("journal", [&] {
    if (!Ok(fs::Mkfs(blkio.get()))) {
      Fail("journal_ring", "mkfs failed");
      return;
    }
    fs::MountOptions mo;
    mo.trace = &tenv;
    ComPtr<FileSystem> fs;
    if (!Ok(fs::Offs::Mount(blkio.get(), mo, fs.Receive()))) {
      Fail("journal_ring", "mount failed");
      return;
    }
    ComPtr<Dir> root;
    fs->GetRoot(root.Receive());
    for (int i = 0; i < 24; ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "f%02d", i);
      ComPtr<File> f;
      if (!Ok(root->Create(name, 0644, f.Receive()))) {
        Fail("journal_ring", "create failed");
        return;
      }
      std::string content(2048, '\0');
      for (size_t j = 0; j < content.size(); ++j) {
        content[j] = static_cast<char>(bench::PatternByte(i + g_seed_base, j));
      }
      size_t n = 0;
      if (!Ok(f->Write(content.data(), 0, content.size(), &n)) ||
          n != content.size()) {
        Fail("journal_ring", "write failed");
        return;
      }
      if (i % 4 == 3 && !Ok(fs->Sync())) {
        Fail("journal_ring", "sync failed");
        return;
      }
    }
    root.Reset();
    // Snapshot while the mount (and its fs.journal.* bindings) is alive.
    result.commits = tenv.registry.Value("fs.journal.commits");
    if (!Ok(fs->Unmount())) {
      Fail("journal_ring", "unmount failed");
      return;
    }
    done = true;
  });
  if (sim.Run(600 * kNsPerSec) != Simulation::RunResult::kAllDone || !done) {
    Fail("journal_ring", "workload did not finish");
    return result;
  }

  result.ring_sqes = Ambient(*kernel, "glue.ide.ring.sqes") - sqes_before;
  result.ring_merges = Ambient(*kernel, "glue.ide.ring.merges") - merges_before;
  if (result.commits == 0) {
    Fail("journal_ring", "workload committed no journal transactions");
  }
  if (result.ring_sqes == 0) {
    Fail("journal_ring",
         "journal commits issued no ring SQEs (writer fell back to sync)");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Leg 3: the stack-composition matrix.
// ---------------------------------------------------------------------------

struct MatrixTotals {
  uint64_t compositions = 0;
  uint64_t fsck_consistent = 0;
  uint64_t detecting_stacks = 0;  // checksum stacks that caught the scribble
  uint64_t silent_stacks = 0;     // stacks that let it through undetected
  uint64_t flush_propagated = 0;  // stripe stacks whose Flush reached members
};

void RunMatrixComposition(const std::string& spec, MatrixTotals* totals) {
  const char* label = spec.empty() ? "plain" : spec.c_str();
  ++totals->compositions;

  // Trial A: the filesystem over the stack stays consistent.
  {
    trace::TraceEnv tenv;
    auto base = MemBlkIo::Create(4 * 1024 * 1024, 512);
    ComPtr<BlkIo> top =
        bench::ApplyStack(ComPtr<BlkIo>::FromQuery(base.get()), spec, &tenv);
    bool ok = Ok(fs::Mkfs(top.get()));
    if (ok) {
      fs::MountOptions mo;
      mo.trace = &tenv;
      ComPtr<FileSystem> fs;
      ok = Ok(fs::Offs::Mount(top.get(), mo, fs.Receive()));
      if (ok) {
        ComPtr<Dir> root;
        fs->GetRoot(root.Receive());
        ok = Ok(root->Mkdir("d", 0755));
        for (int i = 0; ok && i < 24; ++i) {
          char name[16];
          std::snprintf(name, sizeof(name), "f%02d", i);
          ComPtr<File> f;
          ok = Ok(root->Create(name, 0644, f.Receive()));
          if (!ok) {
            break;
          }
          std::string content(1024 + i * 97, '\0');
          for (size_t j = 0; j < content.size(); ++j) {
            content[j] =
                static_cast<char>(bench::PatternByte(i + g_seed_base, j));
          }
          size_t n = 0;
          ok = Ok(f->Write(content.data(), 0, content.size(), &n)) &&
               n == content.size();
          if (ok) {
            std::string readback(content.size(), '\0');
            ok = Ok(f->Read(readback.data(), 0, readback.size(), &n)) &&
                 n == readback.size() && readback == content;
          }
        }
        ok = ok && Ok(fs->Sync());
        root.Reset();
        ok = ok && Ok(fs->Unmount());
      }
    }
    if (ok) {
      fs::FsckReport report = fs::Fsck(top.get());
      ok = report.superblock_valid && report.problems.empty();
      if (!ok) {
        std::printf("  [%s] fsck: %zu problems\n", label,
                    report.problems.size());
      }
    }
    if (ok) {
      ++totals->fsck_consistent;
    } else {
      Fail("stack_matrix", label);
    }
  }

  // Trial B: a scribble under the stack.  Write half a MiB through the top,
  // flush it down, flip one byte in every raw 4 KiB block, read it back.
  {
    trace::TraceEnv tenv;
    auto base = MemBlkIo::Create(2 * 1024 * 1024, 512);
    ComPtr<BlkIo> top =
        bench::ApplyStack(ComPtr<BlkIo>::FromQuery(base.get()), spec, &tenv);
    constexpr size_t kChunk = 4096;
    constexpr size_t kSpan = 512 * 1024;
    std::vector<uint8_t> chunk(kChunk);
    bool ok = true;
    for (size_t off = 0; ok && off < kSpan; off += kChunk) {
      for (size_t j = 0; j < kChunk; ++j) {
        chunk[j] = bench::PatternByte(7 + g_seed_base, off + j);
      }
      size_t n = 0;
      ok = Ok(top->Write(chunk.data(), off, kChunk, &n)) && n == kChunk;
    }
    ComPtr<BlkIoBarrier> barrier = ComPtr<BlkIoBarrier>::FromQuery(top.get());
    ok = ok && barrier && Ok(barrier->Flush());
    if (!ok) {
      Fail("stack_matrix", "scribble trial could not write+flush the span");
      return;
    }
    if (spec.find("stripe") != std::string::npos) {
      if (tenv.registry.Value("aio.stripe.flushes") > 0) {
        ++totals->flush_propagated;
      } else {
        Fail("stack_matrix", "Flush never reached the stripe layer");
      }
    }
    for (size_t raw = 0; raw + kChunk <= base->size(); raw += kChunk) {
      base->data()[raw + 123] ^= 0xa5;
    }
    size_t detected = 0;
    size_t silent = 0;
    for (size_t off = 0; off < kSpan; off += kChunk) {
      size_t n = 0;
      Error err = top->Read(chunk.data(), off, kChunk, &n);
      if (!Ok(err)) {
        ++detected;
        continue;
      }
      for (size_t j = 0; j < kChunk; ++j) {
        if (chunk[j] != bench::PatternByte(7 + g_seed_base, off + j)) {
          ++silent;
          break;
        }
      }
    }
    bool has_checksum = spec.find("checksum") != std::string::npos;
    if (has_checksum) {
      if (detected > 0 && silent == 0) {
        ++totals->detecting_stacks;
      } else {
        Fail("stack_matrix",
             "a checksummed stack let a scribble through unverified");
      }
    } else {
      if (silent > 0 && detected == 0) {
        ++totals->silent_stacks;  // ablation: no detector, silent corruption
      } else {
        Fail("stack_matrix",
             "the plain stack unexpectedly detected the scribble");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Leg 4: sendfile vs the copy path of a secure-wrapped server.
// ---------------------------------------------------------------------------

constexpr uint16_t kPort = 8080;
constexpr size_t kBodyBytes = 64 * 1024;
constexpr int kGets = 16;

struct HttpRun {
  bool ok = false;
  uint64_t copied = 0;             // net.tx.copied_bytes
  uint64_t sendfile_bytes = 0;     // net.tx.sendfile_bytes
  uint64_t fallback_bytes = 0;     // net.tx.sendfile_fallback_bytes
  uint64_t sendfile_responses = 0;
};

bool Exchange(const ComPtr<Socket>& sock, const std::string& wire,
              size_t expected, std::vector<http::Response>* out) {
  size_t sent = 0;
  if (!Ok(sock->Send(wire.data(), wire.size(), &sent)) ||
      sent != wire.size()) {
    return false;
  }
  const size_t target = out->size() + expected;
  http::ResponseParser parser;
  char buf[4096];
  while (out->size() < target) {
    size_t got = 0;
    Error err = sock->Recv(buf, sizeof(buf), &got);
    if (!Ok(err) || got == 0) {
      return false;
    }
    if (parser.Feed(buf, got) == http::ParseStatus::kError) {
      return false;
    }
    while (parser.HasResponse()) {
      out->push_back(parser.TakeResponse());
    }
  }
  return true;
}

// `wrapped` serves through the secure wrappers under an unlimited budget:
// the copy path every wrapped server takes.
HttpRun RunHttp(bool wrapped) {
  HttpRun result;
  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 100ull * 1000 * 1000;
  sw.port.propagation_ns = 5000;
  World world(sw);
  Host& server = world.AddHost("www", NetConfig::kOskit);
  Host& client = world.AddHost("client", NetConfig::kNativeBsd);
  secure::PrincipalRegistry principals(&server.trace);
  secure::NetGuard guard(&principals);
  secure::Principal* www = principals.Create("www");

  std::string body(kBodyBytes, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>(bench::PatternByte(3 + g_seed_base, i));
  }

  bool listening = false;
  bool client_ok = false;
  std::unique_ptr<http::Server> httpd;
  world.sim().Spawn("www/httpd", [&] {
    auto disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
    if (!Ok(fs::Mkfs(disk.get()))) {
      return;
    }
    fs::MountOptions mo;
    mo.trace = &server.trace;
    ComPtr<FileSystem> ffs;
    if (!Ok(fs::Offs::Mount(disk.get(), mo, ffs.Receive()))) {
      return;
    }
    ComPtr<Dir> root;
    ffs->GetRoot(root.Receive());
    ComPtr<File> f;
    if (!Ok(root->Create("big.bin", 0644, f.Receive()))) {
      return;
    }
    size_t n = 0;
    if (!Ok(f->Write(body.data(), 0, body.size(), &n)) || n != body.size()) {
      return;
    }
    http::Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.trace = &server.trace;
    cfg.now = [&world] { return world.sim().clock().Now(); };
    ComPtr<SocketFactory> factory = server.socket_factory;
    ComPtr<NetSelector> selector = server.stack->CreateSelector();
    if (wrapped) {
      factory = secure::MakeSecureSocketFactory(factory, www, &guard);
      selector = secure::MakeSecureSelector(selector, www);
    }
    httpd = std::make_unique<http::Server>(factory, selector, root, cfg);
    if (!Ok(httpd->Start())) {
      return;
    }
    listening = true;
    httpd->Run();
  });

  world.sim().Spawn("client", [&] {
    world.sim().WaitUntil([&] { return listening; });
    ComPtr<Socket> sock = client.MakeSocket(SockType::kStream);
    if (!Ok(sock->Connect(SockAddr{server.addr, kPort}))) {
      return;
    }
    std::vector<http::Response> rsps;
    for (int i = 0; i < kGets; ++i) {
      if (!Exchange(sock, "GET /big.bin HTTP/1.1\r\nHost: bench\r\n\r\n", 1,
                    &rsps)) {
        return;
      }
    }
    if (!Exchange(sock,
                  "GET /__quit HTTP/1.1\r\nHost: bench\r\n"
                  "Connection: close\r\n\r\n",
                  1, &rsps)) {
      return;
    }
    if (rsps.size() != static_cast<size_t>(kGets) + 1) {
      return;
    }
    for (int i = 0; i < kGets; ++i) {
      if (rsps[i].status != 200 || rsps[i].body != body) {
        return;
      }
    }
    client_ok = rsps[kGets].status == 200;
  });

  world.RunToCompletion();
  if (!client_ok) {
    Fail(wrapped ? "sendfile-copy" : "sendfile",
         "client did not complete its transfers intact");
    return result;
  }
  result.ok = true;
  result.copied = server.trace.registry.Value("net.tx.copied_bytes");
  result.sendfile_bytes = server.trace.registry.Value("net.tx.sendfile_bytes");
  result.fallback_bytes =
      server.trace.registry.Value("net.tx.sendfile_fallback_bytes");
  result.sendfile_responses =
      server.trace.registry.Value("http.sendfile_responses");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --seed-base shifts every deterministic data pattern onto a different
  // stream, so a second CI job exercises different bytes end to end.
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv, {{"--seed-base", &g_seed_base},
                                      {"--json", &json_path}})) {
    return 2;
  }

  // Leg 1.
  const size_t depths[] = {1, 2, 4, 8, 16, 32};
  std::vector<DepthPoint> sweep;
  for (size_t d : depths) {
    sweep.push_back(RunDepth(d));
    std::printf("depth %2zu: %.4f requests/block, %.0f ns/block\n", d,
                sweep.back().requests_per_block, sweep.back().ns_per_block);
  }
  if (sweep.front().requests_per_block != 1.0) {
    Fail("queue_depth", "depth 1 must cost exactly one request per block");
  }
  if (sweep.back().requests_per_block > 0.125) {
    Fail("queue_depth", "depth 32 did not merge submissions into runs");
  }
  double merge_speedup =
      sweep.back().ns_per_block > 0
          ? sweep.front().ns_per_block / sweep.back().ns_per_block
          : 0;

  // Leg 2.
  JournalRing journal = RunJournalRing();

  // Leg 3.
  MatrixTotals matrix;
  for (const char* spec : bench::kStackMatrix) {
    RunMatrixComposition(spec, &matrix);
  }

  // Leg 4.
  HttpRun on = RunHttp(/*wrapped=*/false);
  HttpRun off = RunHttp(/*wrapped=*/true);
  const uint64_t body_total = static_cast<uint64_t>(kGets) * kBodyBytes;
  double copied_per_body_byte = 0;
  double ablation_copied_per_body_byte = 0;
  if (on.ok && off.ok) {
    // Both runs stage identical header (and quit-body) bytes, so the copy
    // run prices the overhead exactly.
    if (off.copied < body_total) {
      Fail("sendfile", "copy run copied fewer bytes than the bodies");
    } else {
      uint64_t overhead = off.copied - body_total;
      copied_per_body_byte =
          (static_cast<double>(on.copied) - static_cast<double>(overhead)) /
          static_cast<double>(body_total);
      ablation_copied_per_body_byte =
          static_cast<double>(off.copied - overhead) /
          static_cast<double>(body_total);
      if (on.copied != overhead) {
        Fail("sendfile", "sendfile run copied body bytes (not zero-copy)");
      }
    }
    if (on.sendfile_bytes != body_total) {
      Fail("sendfile", "not every body byte went through the zero-copy path");
    }
    if (on.fallback_bytes != 0) {
      Fail("sendfile", "the zero-copy path fell back to copying");
    }
    if (on.sendfile_responses != static_cast<uint64_t>(kGets)) {
      Fail("sendfile", "not every static response used sendfile");
    }
    if (off.sendfile_bytes != 0 || off.sendfile_responses != 0) {
      Fail("sendfile", "the secure-wrapped run used sendfile");
    }
  }

  int failures = 0;
  for (const auto& [leg, n] : g_failures) {
    failures += n;
  }
  std::printf("\naio campaign: %zu depths, %llu stack compositions, "
              "%d failures\n",
              sweep.size(),
              static_cast<unsigned long long>(matrix.compositions), failures);

  bench::Report report("aio_campaign", json_path);
  report.Check("queue_depth", g_failures["queue_depth"] == 0,
               "%.4f -> %.4f requests/block from depth 1 to 32, %.1fx faster",
               sweep.front().requests_per_block,
               sweep.back().requests_per_block, merge_speedup);
  report.Check("journal_ring", g_failures["journal_ring"] == 0,
               "%llu sqes, %llu merges, %llu commits",
               static_cast<unsigned long long>(journal.ring_sqes),
               static_cast<unsigned long long>(journal.ring_merges),
               static_cast<unsigned long long>(journal.commits));
  report.Check("stack_matrix", g_failures["stack_matrix"] == 0,
               "%llu/%llu consistent, %llu detecting, %llu silent",
               static_cast<unsigned long long>(matrix.fsck_consistent),
               static_cast<unsigned long long>(matrix.compositions),
               static_cast<unsigned long long>(matrix.detecting_stacks),
               static_cast<unsigned long long>(matrix.silent_stacks));
  report.Check("sendfile",
               g_failures["sendfile"] + g_failures["sendfile-copy"] == 0,
               "%.3f copied bytes per body byte (copy path %.3f), %llu "
               "zero-copy bytes",
               copied_per_body_byte, ablation_copied_per_body_byte,
               static_cast<unsigned long long>(on.sendfile_bytes));

  report.json.Set("failures", failures)
      .Set("queue_depth.blocks_per_depth", kSweepBlocks);
  for (const DepthPoint& p : sweep) {
    std::string key = "queue_depth.d" + std::to_string(p.depth);
    report.json.Set(key + "_requests_per_block", p.requests_per_block)
        .Set(key + "_ns_per_block", p.ns_per_block);
  }
  report.json.Set("queue_depth.merge_speedup", merge_speedup)
      .Set("journal_ring.ring_sqes", journal.ring_sqes)
      .Set("journal_ring.ring_merges", journal.ring_merges)
      .Set("journal_ring.commits", journal.commits)
      .Set("stack_matrix.compositions", matrix.compositions)
      .Set("stack_matrix.fsck_consistent", matrix.fsck_consistent)
      .Set("stack_matrix.detecting_stacks", matrix.detecting_stacks)
      .Set("stack_matrix.silent_stacks", matrix.silent_stacks)
      .Set("stack_matrix.flush_propagated", matrix.flush_propagated)
      .Set("sendfile.responses", kGets)
      .Set("sendfile.body_bytes", body_total)
      .Set("sendfile.copied_per_body_byte", copied_per_body_byte)
      .Set("sendfile.ablation_copied_per_body_byte",
           ablation_copied_per_body_byte)
      .Set("sendfile.zero_copy_bytes", on.sendfile_bytes)
      .Set("sendfile.fallback_bytes", on.fallback_bytes);
  return report.Finish();
}
