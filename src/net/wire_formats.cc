#include "src/net/wire_formats.h"

#include "src/base/checksum.h"
#include "src/net/mbuf.h"

namespace oskit::net {

void Ipv4Header::Serialize(uint8_t* p) const {
  p[0] = static_cast<uint8_t>(0x40 | (header_len / 4));
  p[1] = tos;
  StoreBe16(p + 2, total_len);
  StoreBe16(p + 4, ident);
  StoreBe16(p + 6, frag);
  p[8] = ttl;
  p[9] = proto;
  StoreBe16(p + 10, 0);  // checksum placeholder
  StoreBe32(p + 12, src.value);
  StoreBe32(p + 16, dst.value);
  uint16_t sum = InetChecksumOf(p, header_len);
  StoreBe16(p + 10, sum);
}

namespace {

// The sum of the IPv4 pseudo-header that heads every TCP and UDP checksum:
// the addresses, a zero byte, the protocol and the segment's length.
InetChecksum PseudoHeaderSum(InetAddr src, InetAddr dst, uint8_t proto, size_t length) {
  uint8_t pseudo[12] = {0, 0, 0, 0, 0, 0, 0, 0, 0, proto};
  StoreBe32(pseudo, src.value);
  StoreBe32(pseudo + 4, dst.value);
  StoreBe16(pseudo + 10, static_cast<uint16_t>(length));
  InetChecksum cksum;
  cksum.Add(pseudo, sizeof(pseudo));
  return cksum;
}

}  // namespace

uint16_t TransportChecksum(InetAddr src, InetAddr dst, uint8_t proto,
                           uint16_t length, const MBuf* chain) {
  InetChecksum cksum = PseudoHeaderSum(src, dst, proto, length);
  size_t remaining = length;
  for (const MBuf* m = chain; m != nullptr && remaining > 0; m = m->next) {
    size_t n = m->len < remaining ? m->len : remaining;
    cksum.Add(m->data, n);
    remaining -= n;
  }
  return cksum.Finish();
}

uint16_t TransportChecksum(InetAddr src, InetAddr dst, uint8_t proto,
                           size_t length, const uint8_t* segment) {
  InetChecksum cksum = PseudoHeaderSum(src, dst, proto, length);
  cksum.Add(segment, length);
  return cksum.Finish();
}

bool TcpHeader::Parse(const uint8_t* p, size_t len, TcpHeader* out) {
  if (len < kTcpHeaderSize) {
    return false;
  }
  out->src_port = LoadBe16(p);
  out->dst_port = LoadBe16(p + 2);
  out->seq = LoadBe32(p + 4);
  out->ack = LoadBe32(p + 8);
  out->data_off = static_cast<uint8_t>((p[12] >> 4) * 4);
  out->flags = p[13];
  out->window = LoadBe16(p + 14);
  out->checksum = LoadBe16(p + 16);
  out->urgent = LoadBe16(p + 18);
  out->mss_option = 0;
  if (out->data_off < kTcpHeaderSize || out->data_off > len) {
    return false;
  }
  // Scan options for MSS (kind 2, length 4).
  size_t off = kTcpHeaderSize;
  while (off + 1 < out->data_off) {
    uint8_t kind = p[off];
    if (kind == 0) {
      break;  // end of options
    }
    if (kind == 1) {
      ++off;  // NOP
      continue;
    }
    uint8_t opt_len = p[off + 1];
    if (opt_len < 2 || off + opt_len > out->data_off) {
      break;  // malformed options: ignore the rest
    }
    if (kind == 2 && opt_len == 4) {
      out->mss_option = LoadBe16(p + off + 2);
    }
    off += opt_len;
  }
  return true;
}

void TcpHeader::Serialize(uint8_t* p, bool with_mss) const {
  StoreBe16(p, src_port);
  StoreBe16(p + 2, dst_port);
  StoreBe32(p + 4, seq);
  StoreBe32(p + 8, ack);
  uint8_t off = with_mss ? kTcpHeaderSize + 4 : kTcpHeaderSize;
  p[12] = static_cast<uint8_t>((off / 4) << 4);
  p[13] = flags;
  StoreBe16(p + 14, window);
  StoreBe16(p + 16, 0);  // checksum filled by the caller
  StoreBe16(p + 18, urgent);
  if (with_mss) {
    p[20] = 2;  // MSS option
    p[21] = 4;
    StoreBe16(p + 22, mss_option);
  }
}

}  // namespace oskit::net
