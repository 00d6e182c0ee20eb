#include "src/fault/scribble.h"

namespace oskit::fault {

const ScribbleInjector::Target* ScribbleInjector::PickTarget(
    const std::vector<Target>& targets) {
  if (targets.empty()) {
    return nullptr;
  }
  return &targets[env_->rng().Below(targets.size())];
}

// The store stays inside the target (max_len bounds it): a scribble that
// ran off the end could fail with kFault (a bad address) instead of a
// protection violation, and the campaign's caught == injected equality
// only counts the latter.
void ScribbleInjector::Attempt(PhysAddr addr, size_t max_len,
                               uint64_t* site_count, bool dma) {
  uint8_t garbage[8];
  size_t len = 1 + env_->rng().Below(sizeof(garbage));
  if (len > max_len) {
    len = max_len;
  }
  for (size_t i = 0; i < len; ++i) {
    garbage[i] = static_cast<uint8_t>(env_->rng().Next());
  }
  ++stats_.attempted;
  ++*site_count;
  Error err = dma ? phys_->Dma(addr, garbage, len)
                  : domain_->Store(addr, garbage, len);
  if (err == Error::kOk) {
    ++stats_.landed;
  } else {
    ++stats_.denied;
  }
}

void ScribbleInjector::Tick() {
  if (ShouldFail(env_, kScribbleRandomSite)) {
    if (const Target* t = PickTarget(kernel_targets_)) {
      size_t offset = env_->rng().Below(t->len);
      Attempt(t->addr + offset, t->len - offset, &stats_.random,
              /*dma=*/false);
    }
  }
  if (ShouldFail(env_, kScribbleTargetedSite)) {
    // The "I know where it lives" attack: the structure's first word.
    if (const Target* t = PickTarget(kernel_targets_)) {
      Attempt(t->addr, t->len, &stats_.targeted, /*dma=*/false);
    }
  }
  if (ShouldFail(env_, kScribblePteSite)) {
    if (const Target* t = PickTarget(pte_targets_)) {
      // Aim at an aligned entry inside the table, like a real PTE flip.
      size_t slot = env_->rng().Below(t->len / 4) * 4;
      Attempt(t->addr + slot, 4, &stats_.pte, /*dma=*/false);
    }
  }
  if (ShouldFail(env_, kScribbleDmaSite)) {
    if (const Target* t = PickTarget(kernel_targets_)) {
      size_t offset = env_->rng().Below(t->len);
      Attempt(t->addr + offset, t->len - offset, &stats_.dma, /*dma=*/true);
    }
  }
}

}  // namespace oskit::fault
