#include "src/dev/linux/linux_ide.h"

#include <algorithm>
#include <cstring>

#include "src/base/panic.h"
#include "src/libc/format.h"
#include "src/machine/machine.h"

namespace oskit::linuxdev {

// ---------------------------------------------------------------------------
// "Imported" driver core
// ---------------------------------------------------------------------------

namespace {

// The commands the request loop can program into the controller.
enum ide_cmd { IDE_CMD_READ, IDE_CMD_WRITE, IDE_CMD_FLUSH };

Error ide_issue_and_wait(ide_drive* drive, ide_cmd cmd, uint64_t lba,
                         uint32_t sectors, uint8_t* buf) {
  if (drive->busy) {
    return Error::kBusy;  // one outstanding request, 1997 IDE
  }
  drive->busy = true;
  for (uint32_t attempt = 0;; ++attempt) {
    drive->done = false;
    drive->status = Error::kOk;
    ++drive->requests_issued;
    switch (cmd) {
      case IDE_CMD_READ:
        drive->hw->SubmitRead(lba, sectors, buf);
        break;
      case IDE_CMD_WRITE:
        drive->hw->SubmitWrite(lba, sectors, buf);
        break;
      case IDE_CMD_FLUSH:
        drive->hw->SubmitFlush();
        break;
    }
    // Linux style: sleep until the IRQ handler marks the request done —
    // watched over by a timeout that doubles on every retry (the backoff).
    bool timed_out = false;
    while (!drive->done) {
      if (drive->benv.sleep_on_timeout != nullptr) {
        bool expired = drive->benv.sleep_on_timeout(
            drive->benv.ctx, drive, kIdeTimeoutNs << attempt);
        if (expired && !drive->done) {
          timed_out = true;
          break;
        }
      } else {
        drive->benv.sleep_on(drive->benv.ctx, drive);
      }
    }
    if (timed_out) {
      // Completion lost (controller hung or a dropped interrupt): reset the
      // controller — which also cancels any late completion — and reissue.
      ++drive->watchdog_resets;
      drive->hw->Reset();
      drive->status = Error::kTimedOut;
    } else if (Ok(drive->status)) {
      drive->busy = false;
      return Error::kOk;
    } else if (drive->status == Error::kOutOfRange) {
      break;  // an addressing bug, not a transient fault: don't hammer it
    }
    if (attempt >= kIdeMaxRetries) {
      break;
    }
    ++drive->retries;
  }
  ++drive->errors_surfaced;
  drive->busy = false;
  return drive->status;
}

}  // namespace

Error ide_do_request(ide_drive* drive, uint64_t lba, uint32_t sectors, uint8_t* buf,
                     bool write) {
  return ide_issue_and_wait(drive, write ? IDE_CMD_WRITE : IDE_CMD_READ, lba,
                            sectors, buf);
}

Error ide_do_flush(ide_drive* drive) {
  return ide_issue_and_wait(drive, IDE_CMD_FLUSH, 0, 0, nullptr);
}

void ide_interrupt(ide_drive* drive) {
  if (!drive->hw->RequestDone()) {
    return;  // spurious
  }
  ++drive->irqs_handled;
  drive->status = drive->hw->RequestStatus();
  drive->hw->AckCompletion();
  drive->done = true;
  drive->benv.wake_up(drive->benv.ctx, drive);
}

// ---------------------------------------------------------------------------
// Glue
// ---------------------------------------------------------------------------

namespace {

void GlueSleepOn(void* ctx, void* /*chan*/) {
  auto* dev = static_cast<LinuxIdeDev*>(ctx);
  // Single-channel device: the sleep record IS the wait queue.
  dev->SleepOnCompletion();
}

void GlueWakeUp(void* ctx, void* /*chan*/) {
  static_cast<LinuxIdeDev*>(ctx)->WakeCompletion();
}

bool GlueSleepOnTimeout(void* ctx, void* /*chan*/, uint64_t ns) {
  return static_cast<LinuxIdeDev*>(ctx)->SleepOnCompletionTimeout(ns);
}

}  // namespace

LinuxIdeDev::LinuxIdeDev(const FdevEnv& env, DiskHw* hw, std::string name)
    : env_(env), name_(std::move(name)), completion_(env.sleep_env) {
  drive_.hw = hw;
  drive_.benv.sleep_on = &GlueSleepOn;
  drive_.benv.wake_up = &GlueWakeUp;
  if (env_.timer_start != nullptr) {
    drive_.benv.sleep_on_timeout = &GlueSleepOnTimeout;
  }
  drive_.benv.ctx = this;
  trace::TraceEnv* tenv = trace::Required(env_.trace);
  trace_binding_.Bind(&tenv->registry,
                      {{"glue.ide.retries", &drive_.retries},
                       {"glue.ide.watchdog_resets", &drive_.watchdog_resets},
                       {"glue.ide.errors_surfaced", &drive_.errors_surfaced},
                       {"glue.ide.ring.sqes", &ring_sqes_},
                       {"glue.ide.ring.merges", &ring_merges_},
                       {"glue.ide.ring.merged_sqes", &ring_merged_}});
  env_.irq_attach(env_.ctx, hw->irq(), [this] { ide_interrupt(&drive_); });
}

bool LinuxIdeDev::SleepOnCompletionTimeout(uint64_t ns) {
  if (env_.timer_start == nullptr) {
    completion_.Sleep();
    return false;
  }
  void* token = env_.timer_start(env_.ctx, ns, [this] { WakeCompletion(); });
  completion_.Sleep();
  // Cancel failing means the watchdog event already ran: the wake that
  // resumed us was the timeout, not the completion interrupt.
  return !env_.timer_cancel(env_.ctx, token);
}

LinuxIdeDev::~LinuxIdeDev() { env_.irq_detach(env_.ctx, drive_.hw->irq()); }

Error LinuxIdeDev::GetInfo(DeviceInfo* out_info) {
  out_info->name = name_.c_str();
  out_info->description = "Linux 2.0-style simulated IDE disk";
  out_info->vendor = "linux";
  return Error::kOk;
}

Error LinuxIdeDev::Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) {
  return Transfer(static_cast<uint8_t*>(buf), offset, amount, /*write=*/false,
                  out_actual);
}

Error LinuxIdeDev::Write(const void* buf, off_t64 offset, size_t amount,
                         size_t* out_actual) {
  // The walk only reads from `buf` when writing.
  return Transfer(static_cast<uint8_t*>(const_cast<void*>(buf)), offset, amount,
                  /*write=*/true, out_actual);
}

Error LinuxIdeDev::Transfer(uint8_t* buf, off_t64 offset, size_t amount,
                            bool write, size_t* out_actual) {
  *out_actual = 0;
  constexpr uint32_t kSector = DiskHw::kSectorSize;
  Error err = ClampRange(drive_.hw->sector_count() * kSector, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  size_t done = 0;
  while (done < amount) {
    uint64_t lba = (offset + done) / kSector;
    uint32_t in_sector = static_cast<uint32_t>((offset + done) % kSector);
    if (in_sector == 0 && amount - done >= kSector) {
      size_t sectors = std::min<size_t>((amount - done) / kSector, 64);
      err = ide_do_request(&drive_, lba, static_cast<uint32_t>(sectors),
                           buf + done, write);
      if (!Ok(err)) {
        return err;
      }
      done += sectors * kSector;
      continue;
    }
    uint8_t sector_buf[kSector];
    err = ide_do_request(&drive_, lba, 1, sector_buf, /*write=*/false);
    if (!Ok(err)) {
      return err;
    }
    size_t n = std::min<size_t>(kSector - in_sector, amount - done);
    if (!write) {
      std::memcpy(buf + done, sector_buf + in_sector, n);
    } else {
      std::memcpy(sector_buf + in_sector, buf + done, n);
      err = ide_do_request(&drive_, lba, 1, sector_buf, /*write=*/true);
      if (!Ok(err)) {
        return err;
      }
    }
    done += n;
  }
  *out_actual = done;
  return Error::kOk;
}

Error LinuxIdeDev::GetSize(off_t64* out_size) {
  *out_size = drive_.hw->sector_count() * DiskHw::kSectorSize;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// BlkIoRing: queue-depth-aware scheduling.
//
// The controller charges a fixed seek per request (DiskHw::kSeekNs)
// plus one completion IRQ, so the win from a deep queue is issuing FEWER,
// LARGER requests: the batch is sorted by LBA and adjacent whole-sector
// SQEs are merged into single multi-count commands (<= 64 sectors, the old
// IDE limit), gathered/scattered through a bounce buffer.  Writes run
// before reads (an in-batch read of a block written by the same batch must
// see the new bytes), flushes run last (the ring's barrier contract).
// ---------------------------------------------------------------------------

void LinuxIdeDev::CompleteSqe(const AioSqe& sqe) {
  AioCqe cqe;
  cqe.tag = sqe.tag;
  switch (sqe.op) {
    case AioOp::kRead:
      cqe.status = Read(sqe.buf, sqe.offset, sqe.len, &cqe.actual);
      break;
    case AioOp::kWrite:
      cqe.status = Write(sqe.buf, sqe.offset, sqe.len, &cqe.actual);
      break;
    case AioOp::kFlush:
      cqe.status = Flush();
      break;
  }
  cq_.push_back(cqe);
}

void LinuxIdeDev::RunMerged(const std::vector<const AioSqe*>& run, bool write) {
  constexpr uint32_t kSector = DiskHw::kSectorSize;
  size_t total = 0;
  for (const AioSqe* s : run) {
    total += s->len;
  }
  std::vector<uint8_t> bounce(total);
  if (write) {
    size_t off = 0;
    for (const AioSqe* s : run) {
      std::memcpy(bounce.data() + off, s->buf, s->len);
      off += s->len;
    }
  }
  uint64_t lba = run.front()->offset / kSector;
  Error err = ide_do_request(&drive_, lba, static_cast<uint32_t>(total / kSector),
                             bounce.data(), write);
  ++ring_merges_;
  ring_merged_ += run.size();
  size_t off = 0;
  for (const AioSqe* s : run) {
    if (!write && Ok(err)) {
      std::memcpy(s->buf, bounce.data() + off, s->len);
    }
    off += s->len;
    cq_.push_back(AioCqe{s->tag, err, Ok(err) ? s->len : 0});
  }
}

Error LinuxIdeDev::Submit(const AioSqe* sqes, size_t count, size_t* out_accepted) {
  *out_accepted = 0;
  if (sqes == nullptr && count != 0) {
    return Error::kInval;
  }
  // Backpressure: never let unreaped completions exceed the ring depth.
  size_t space = kRingDepth > cq_.size() ? kRingDepth - cq_.size() : 0;
  size_t accepted = count < space ? count : space;
  ring_sqes_ += accepted;

  constexpr uint32_t kSector = DiskHw::kSectorSize;
  uint64_t disk_bytes = drive_.hw->sector_count() * kSector;
  std::vector<const AioSqe*> reads;
  std::vector<const AioSqe*> writes;
  std::vector<const AioSqe*> odd;      // unaligned/oversized: slow byte path
  std::vector<const AioSqe*> flushes;  // barriers: after every data op
  for (size_t i = 0; i < accepted; ++i) {
    const AioSqe& s = sqes[i];
    if (s.op == AioOp::kFlush) {
      flushes.push_back(&s);
      continue;
    }
    bool mergeable = s.offset % kSector == 0 && s.len % kSector == 0 &&
                     s.len != 0 && s.len / kSector <= 64 &&
                     Ok(CheckWindow(disk_bytes, s.offset, s.len));
    if (!mergeable) {
      odd.push_back(&s);  // Read/Write clamp or refuse the range
    } else if (s.op == AioOp::kWrite) {
      writes.push_back(&s);
    } else {
      reads.push_back(&s);
    }
  }

  // Stable: two SQEs on the same LBA keep submission order.
  auto by_lba = [](const AioSqe* a, const AioSqe* b) {
    return a->offset < b->offset;
  };
  auto schedule = [&](std::vector<const AioSqe*>& v, bool write) {
    std::stable_sort(v.begin(), v.end(), by_lba);
    size_t i = 0;
    while (i < v.size()) {
      size_t j = i + 1;
      size_t sectors = v[i]->len / kSector;
      while (j < v.size() &&
             v[j]->offset == v[j - 1]->offset + v[j - 1]->len &&
             sectors + v[j]->len / kSector <= 64) {
        sectors += v[j]->len / kSector;
        ++j;
      }
      if (j - i == 1) {
        CompleteSqe(*v[i]);
      } else {
        RunMerged(std::vector<const AioSqe*>(v.begin() + i, v.begin() + j),
                  write);
      }
      i = j;
    }
  };
  schedule(writes, /*write=*/true);
  schedule(reads, /*write=*/false);
  for (const AioSqe* s : odd) {
    CompleteSqe(*s);
  }
  for (const AioSqe* s : flushes) {
    CompleteSqe(*s);
  }
  *out_accepted = accepted;
  return Error::kOk;
}

Error LinuxIdeDev::Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) {
  size_t n = 0;
  while (n < cap && !cq_.empty()) {
    out_cqes[n++] = cq_.front();
    cq_.pop_front();
  }
  *out_count = n;
  return Error::kOk;
}

Error InitLinuxIde(const FdevEnv& env, Machine* machine, DeviceRegistry* registry) {
  int index = 0;
  for (const auto& disk : machine->disks()) {
    char name[8];
    libc::Snprintf(name, sizeof(name), "hd%c", 'a' + index++);
    registry->Register(ComPtr<Device>(new LinuxIdeDev(env, disk.get(), name)));
  }
  return Error::kOk;
}

}  // namespace oskit::linuxdev
