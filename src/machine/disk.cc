#include "src/machine/disk.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/panic.h"
#include "src/base/random.h"

namespace oskit {

SimTime DiskHw::EffectiveDelay(SimTime delay) {
  if (fault_->ShouldFail("disk.slow")) {
    uint64_t mult = fault_->SiteArg("disk.slow");
    delay *= mult != 0 ? mult : 10;
  }
  return delay;
}

bool DiskHw::Admit(uint64_t lba, uint32_t sectors, const char* site, SimTime delay) {
  OSKIT_ASSERT_MSG(!busy_, "request submitted while disk busy");
  busy_ = true;
  if (!powered_off_ && fault_->ShouldFail("disk.stuck")) {
    return false;  // controller hang: no completion until Reset()
  }
  Error early = powered_off_                    ? Error::kIo
                : lba + sectors > sector_count_ ? Error::kOutOfRange
                                                : Error::kOk;
  if (early != Error::kOk) {
    pending_ = clock_->ScheduleAfter(kSeekNs, [this, early] { Complete(early); });
    return false;
  }
  if (fault_->ShouldFail(site)) {
    pending_ = clock_->ScheduleAfter(EffectiveDelay(delay),
                                     [this] { Complete(Error::kIo); });
    return false;
  }
  return true;
}

void DiskHw::SubmitRead(uint64_t lba, uint32_t sectors, uint8_t* buf) {
  if (!Admit(lba, sectors, "disk.read.error", TransferDelay(sectors))) {
    return;
  }
  // Latch the transfer; data moves at completion time (models DMA finishing).
  uint64_t offset = lba * kSectorSize;
  size_t bytes = static_cast<size_t>(sectors) * kSectorSize;
  pending_ = clock_->ScheduleAfter(
      EffectiveDelay(TransferDelay(sectors)), [this, offset, bytes, buf] {
        if (dma_phys_ != nullptr && dma_phys_->Contains(buf, bytes)) {
          // The monitor's IOMMU view: the transfer must land in
          // component-writable pages or the device faults the request.
          Error err = dma_phys_->Dma(dma_phys_->AddrOf(buf),
                                     store_.data() + offset, bytes);
          if (err != Error::kOk) {
            ++dma_rejected_;
            Complete(Error::kIo);
            return;
          }
        } else {
          std::memcpy(buf, store_.data() + offset, bytes);
        }
        ++reads_completed_;
        Complete(Error::kOk);
      });
}

void DiskHw::SubmitWrite(uint64_t lba, uint32_t sectors, const uint8_t* buf) {
  if (!Admit(lba, sectors, "disk.write.error", TransferDelay(sectors))) {
    return;
  }
  uint64_t offset = lba * kSectorSize;
  size_t bytes = static_cast<size_t>(sectors) * kSectorSize;
  pending_ = clock_->ScheduleAfter(
      EffectiveDelay(TransferDelay(sectors)),
      [this, lba, sectors, offset, bytes, buf] {
        if (wcache_enabled_) {
          const uint8_t* old = store_.data() + offset;
          wcache_.push_back({lba, sectors, undo_arena_.size()});
          undo_arena_.insert(undo_arena_.end(), buf, buf + bytes);
          undo_arena_.insert(undo_arena_.end(), old, old + bytes);
          ++wcache_writes_;
        }
        std::memcpy(store_.MarkWritten(offset, bytes), buf, bytes);
        ++writes_completed_;
        write_log_.push_back({lba, sectors});
        if (cut_armed_ && writes_completed_ >= cut_at_writes_) {
          // Power dies as this write's completion was about to be posted:
          // the write is part of the at-risk set and the request errors out.
          cut_armed_ = false;
          PowerCut(cut_policy_, cut_seed_);
          Complete(Error::kIo);
          return;
        }
        Complete(Error::kOk);
      });
}

void DiskHw::SubmitFlush() {
  size_t cached_bytes = undo_arena_.size() / 2;  // each entry: data + pre-image
  SimTime delay = kSeekNs + kPerByteNs * cached_bytes;
  // A failed flush leaves the cache volatile; the driver must retry.
  if (!Admit(0, 0, "disk.flush.error", delay)) {
    return;
  }
  pending_ = clock_->ScheduleAfter(EffectiveDelay(delay), [this] {
    DropUndoLog();  // the store already holds every write: now durable
    ++flushes_completed_;
    ++wcache_flushes_;
    Complete(Error::kOk);
  });
}

void DiskHw::Reset() {
  // A late completion must not fire mid-retry.
  clock_->Cancel(std::exchange(pending_, SimClock::kInvalidEvent));
  busy_ = false;
  done_ = false;
  status_ = Error::kOk;
  ++resets_;
}

void DiskHw::EnableWriteCache(bool on) {
  if (on == wcache_enabled_) {
    return;
  }
  // On: everything written so far is durable.  Off: so is everything cached.
  DropUndoLog();
  wcache_enabled_ = on;
}

void DiskHw::Apply(uint64_t lba, const uint8_t* bytes, uint32_t sectors) {
  size_t offset = lba * kSectorSize;
  size_t n = static_cast<size_t>(sectors) * kSectorSize;
  std::memcpy(store_.MarkWritten(offset, n), bytes, n);
}

void DiskHw::DropUndoLog() {
  wcache_.clear();
  undo_arena_.clear();  // keeps its capacity for the next epoch of writes
}

void DiskHw::PowerCut(CutPolicy policy, uint64_t seed) {
  // Any in-flight request dies with the power: cancel its completion.
  clock_->Cancel(std::exchange(pending_, SimClock::kInvalidEvent));
  if (wcache_enabled_) {
    // Roll the store back to the durable image, newest write first so an
    // overlapped range ends at its oldest pre-image.
    for (auto it = wcache_.rbegin(); it != wcache_.rend(); ++it) {
      Apply(it->lba, PreImage(*it), it->sectors);
    }
    Rng rng(seed);
    switch (policy) {
      case CutPolicy::kDropAll:
        wcache_dropped_ += wcache_.size();
        break;
      case CutPolicy::kDropSubset:
        for (const CachedWrite& w : wcache_) {
          if (rng.Percent(50)) {
            Apply(w.lba, WriteData(w), w.sectors);
          } else {
            ++wcache_dropped_;
          }
        }
        break;
      case CutPolicy::kReorder: {
        std::vector<size_t> order(wcache_.size());
        for (size_t i = 0; i < order.size(); ++i) {
          order[i] = i;
        }
        for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
          std::swap(order[i - 1], order[rng.Below(i)]);
        }
        for (size_t idx : order) {
          if (rng.Percent(75)) {
            Apply(wcache_[idx].lba, WriteData(wcache_[idx]), wcache_[idx].sectors);
          } else {
            ++wcache_dropped_;
          }
        }
        break;
      }
      case CutPolicy::kTear:
        // Everything but the last write survives; the last lands only a
        // sector prefix — the transfer the power failure interrupted.
        for (size_t i = 0; i + 1 < wcache_.size(); ++i) {
          Apply(wcache_[i].lba, WriteData(wcache_[i]), wcache_[i].sectors);
        }
        if (!wcache_.empty()) {
          const CachedWrite& last = wcache_.back();
          auto kept = static_cast<uint32_t>(rng.Below(last.sectors));
          Apply(last.lba, WriteData(last), kept);
          ++wcache_torn_;
        }
        break;
    }
    DropUndoLog();  // the visible image IS the post-crash image now
  }
  powered_off_ = true;
  busy_ = false;
  done_ = false;
  status_ = Error::kIo;
}

void DiskHw::ArmPowerCut(uint64_t after_writes, CutPolicy policy, uint64_t seed) {
  OSKIT_ASSERT_MSG(after_writes > 0, "ArmPowerCut needs a positive write count");
  cut_armed_ = true;
  cut_at_writes_ = writes_completed_ + after_writes;
  cut_policy_ = policy;
  cut_seed_ = seed;
}

void DiskHw::Complete(Error status) {
  pending_ = SimClock::kInvalidEvent;
  busy_ = false;
  done_ = true;
  status_ = status;
  pic_->RaiseIrq(irq_);
}

}  // namespace oskit
