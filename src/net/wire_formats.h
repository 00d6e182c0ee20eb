// On-the-wire protocol formats: Ethernet II, ARP, IPv4, ICMP, UDP, TCP.
//
// Shared by the FreeBSD-idiom stack (src/net), the Linux-idiom baseline
// stack (src/net/linux), and the tests — these describe the wire, not any
// stack's internals, so sharing them does not weaken the encapsulation
// experiment.

#ifndef OSKIT_SRC_NET_WIRE_FORMATS_H_
#define OSKIT_SRC_NET_WIRE_FORMATS_H_

#include <cstdint>
#include <cstring>

#include "src/base/byteorder.h"
#include "src/com/etherdev.h"
#include "src/com/socket.h"

namespace oskit::net {

// ---- Ethernet ----

inline constexpr uint16_t kEtherTypeIp = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;

struct EtherHeader {
  EtherAddr dst;
  EtherAddr src;
  uint16_t type = 0;  // host order in this struct

  static EtherHeader Parse(const uint8_t* p) {
    EtherHeader h;
    std::memcpy(h.dst.bytes, p, kEtherAddrSize);
    std::memcpy(h.src.bytes, p + 6, kEtherAddrSize);
    h.type = LoadBe16(p + 12);
    return h;
  }

  void Serialize(uint8_t* p) const {
    std::memcpy(p, dst.bytes, kEtherAddrSize);
    std::memcpy(p + 6, src.bytes, kEtherAddrSize);
    StoreBe16(p + 12, type);
  }
};

// ---- ARP (Ethernet/IPv4 only) ----

inline constexpr size_t kArpPacketSize = 28;
inline constexpr uint16_t kArpOpRequest = 1;
inline constexpr uint16_t kArpOpReply = 2;

struct ArpPacket {
  uint16_t op = 0;
  EtherAddr sender_mac;
  InetAddr sender_ip;
  EtherAddr target_mac;
  InetAddr target_ip;

  static bool Parse(const uint8_t* p, size_t len, ArpPacket* out) {
    if (len < kArpPacketSize) {
      return false;
    }
    if (LoadBe16(p) != 1 || LoadBe16(p + 2) != kEtherTypeIp || p[4] != 6 || p[5] != 4) {
      return false;  // not Ethernet/IPv4 ARP
    }
    out->op = LoadBe16(p + 6);
    std::memcpy(out->sender_mac.bytes, p + 8, 6);
    out->sender_ip.value = LoadBe32(p + 14);
    std::memcpy(out->target_mac.bytes, p + 18, 6);
    out->target_ip.value = LoadBe32(p + 24);
    return true;
  }

  void Serialize(uint8_t* p) const {
    StoreBe16(p, 1);                // hardware: Ethernet
    StoreBe16(p + 2, kEtherTypeIp); // protocol: IPv4
    p[4] = 6;                       // MAC length
    p[5] = 4;                       // IP length
    StoreBe16(p + 6, op);
    std::memcpy(p + 8, sender_mac.bytes, 6);
    StoreBe32(p + 14, sender_ip.value);
    std::memcpy(p + 18, target_mac.bytes, 6);
    StoreBe32(p + 24, target_ip.value);
  }
};

// ---- IPv4 ----

inline constexpr size_t kIpHeaderSize = 20;  // no options
inline constexpr uint8_t kIpProtoIcmp = 1;
inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;
inline constexpr uint16_t kIpFlagDontFragment = 0x4000;
inline constexpr uint16_t kIpFlagMoreFragments = 0x2000;
inline constexpr uint16_t kIpFragOffsetMask = 0x1fff;

struct Ipv4Header {
  uint8_t header_len = kIpHeaderSize;  // bytes
  uint8_t tos = 0;
  uint16_t total_len = 0;
  uint16_t ident = 0;
  uint16_t frag = 0;  // flags | offset-in-8-byte-units
  uint8_t ttl = 64;
  uint8_t proto = 0;
  InetAddr src;
  InetAddr dst;

  static bool Parse(const uint8_t* p, size_t len, Ipv4Header* out) {
    if (len < kIpHeaderSize) {
      return false;
    }
    if ((p[0] >> 4) != 4) {
      return false;
    }
    out->header_len = static_cast<uint8_t>((p[0] & 0xf) * 4);
    if (out->header_len < kIpHeaderSize || out->header_len > len) {
      return false;
    }
    out->tos = p[1];
    out->total_len = LoadBe16(p + 2);
    out->ident = LoadBe16(p + 4);
    out->frag = LoadBe16(p + 6);
    out->ttl = p[8];
    out->proto = p[9];
    out->src.value = LoadBe32(p + 12);
    out->dst.value = LoadBe32(p + 16);
    return out->total_len >= out->header_len;
  }

  // Serializes with checksum (call after all fields set).
  void Serialize(uint8_t* p) const;

  uint16_t frag_offset_bytes() const {
    return static_cast<uint16_t>((frag & kIpFragOffsetMask) * 8);
  }
  bool more_fragments() const { return (frag & kIpFlagMoreFragments) != 0; }
};

struct MBuf;

// The TCP/UDP checksum of the first `length` bytes of `chain` under the
// IPv4 pseudo-header; a received segment that verifies sums to 0.
uint16_t TransportChecksum(InetAddr src, InetAddr dst, uint8_t proto,
                           uint16_t length, const MBuf* chain);
// The same over a flat segment of `length` bytes.
uint16_t TransportChecksum(InetAddr src, InetAddr dst, uint8_t proto,
                           size_t length, const uint8_t* segment);

// ---- ICMP ----

inline constexpr size_t kIcmpHeaderSize = 8;
inline constexpr uint8_t kIcmpEchoReply = 0;
inline constexpr uint8_t kIcmpEchoRequest = 8;

// ---- UDP ----

inline constexpr size_t kUdpHeaderSize = 8;

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;

  static bool Parse(const uint8_t* p, size_t len, UdpHeader* out) {
    if (len < kUdpHeaderSize) {
      return false;
    }
    out->src_port = LoadBe16(p);
    out->dst_port = LoadBe16(p + 2);
    out->length = LoadBe16(p + 4);
    out->checksum = LoadBe16(p + 6);
    return out->length >= kUdpHeaderSize;
  }

  void Serialize(uint8_t* p) const {
    StoreBe16(p, src_port);
    StoreBe16(p + 2, dst_port);
    StoreBe16(p + 4, length);
    StoreBe16(p + 6, checksum);
  }
};

// ---- TCP ----

inline constexpr size_t kTcpHeaderSize = 20;  // no options
inline constexpr uint8_t kTcpFlagFin = 0x01;
inline constexpr uint8_t kTcpFlagSyn = 0x02;
inline constexpr uint8_t kTcpFlagRst = 0x04;
inline constexpr uint8_t kTcpFlagPsh = 0x08;
inline constexpr uint8_t kTcpFlagAck = 0x10;

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t data_off = kTcpHeaderSize;  // bytes
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t checksum = 0;
  uint16_t urgent = 0;
  uint16_t mss_option = 0;  // parsed from options when present (SYN)

  static bool Parse(const uint8_t* p, size_t len, TcpHeader* out);
  // Serializes the fixed header; `with_mss` appends a 4-byte MSS option
  // (caller must have sized data_off accordingly).
  void Serialize(uint8_t* p, bool with_mss = false) const;
};

// Sequence-number arithmetic (wraparound-safe).
inline bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
inline bool SeqLeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }
inline bool SeqGt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) > 0; }
inline bool SeqGeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) >= 0; }

}  // namespace oskit::net

#endif  // OSKIT_SRC_NET_WIRE_FORMATS_H_
