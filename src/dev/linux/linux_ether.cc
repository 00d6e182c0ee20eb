#include "src/dev/linux/linux_ether.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::linuxdev {

namespace {

int simnic_open(linux_device* dev) {
  dev->priv->EnableRxInterrupt(true);
  dev->opened = true;
  return 0;
}

int simnic_stop(linux_device* dev) {
  dev->priv->EnableRxInterrupt(false);
  dev->opened = false;
  return 0;
}

int simnic_xmit_vec(const uint8_t* const* chunks, const size_t* lens,
                    size_t count, linux_device* dev) {
  // Gather path: the descriptor list goes straight into the NIC's DMA
  // engine, so a discontiguous packet transmits without being flattened.
  dev->priv->TxStart(chunks, lens, count);
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    total += lens[i];
  }
  dev->stats.tx_packets += 1;
  dev->stats.tx_bytes += total;
  return 0;
}

int simnic_xmit(sk_buff* skb, linux_device* dev) {
  // Classic path: the driver hands the hardware ONE contiguous buffer, a
  // one-descriptor gather list.
  const uint8_t* data = skb->data;
  size_t len = skb->len;
  simnic_xmit_vec(&data, &len, 1, dev);
  kfree_skb(dev->kenv, skb);
  return 0;
}

}  // namespace

int simnic_probe(linux_device* dev, oskit::NicHw* hw) {
  dev->priv = hw;
  std::memcpy(dev->dev_addr, hw->mac().bytes, 6);
  dev->irq = hw->irq();
  dev->open = &simnic_open;
  dev->stop = &simnic_stop;
  dev->hard_start_xmit = &simnic_xmit;
  dev->hard_start_xmit_vec = &simnic_xmit_vec;  // simnic has gather DMA
  return 0;
}

namespace {

// Receives one frame off the ring: the classic Linux 2.0 path shared by the
// interrupt handler and the budgeted poll.
void simnic_rx_one(linux_device* dev) {
  oskit::NicHw* hw = dev->priv;
  size_t frame_len = hw->RxFrameSize();
  // Classic Linux 2.0 receive: allocate len+2, reserve 2 so the IP header
  // lands 4-byte aligned past the 14-byte Ethernet header.
  sk_buff* skb = dev_alloc_skb(dev->kenv, frame_len + 2);
  if (skb == nullptr) {
    // Out of memory: drop the frame (its buffer goes back, the ring
    // advances).
    hw->RxTake();
    dev->stats.rx_dropped += 1;
    return;
  }
  skb_reserve(skb, 2);
  hw->RxDequeue(skb_put(skb, frame_len));
  dev->stats.rx_packets += 1;
  dev->stats.rx_bytes += frame_len;
  if (dev->netif_rx != nullptr && dev->opened) {
    dev->netif_rx(dev->netif_rx_ctx, dev, skb);
  } else {
    kfree_skb(dev->kenv, skb);
  }
}

}  // namespace

void simnic_interrupt(linux_device* dev) {
  while (dev->priv->RxPending()) {
    simnic_rx_one(dev);
  }
}

int simnic_poll(linux_device* dev, int budget) {
  int done = 0;
  while (done < budget && dev->priv->RxPending()) {
    simnic_rx_one(dev);
    ++done;
  }
  return done;
}

}  // namespace oskit::linuxdev
