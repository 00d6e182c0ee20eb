#include "src/kern/gdb_stub.h"

#include <cstdio>
#include <cstring>

#include "src/base/panic.h"

namespace oskit {
namespace {

const char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

// Little-endian hex encoding of a 64-bit register, as GDB expects.
void AppendRegHex(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    uint8_t byte = static_cast<uint8_t>(value >> (i * 8));
    out->push_back(kHexDigits[byte >> 4]);
    out->push_back(kHexDigits[byte & 0xf]);
  }
}

bool ParseRegHex(const char* hex, uint64_t* out) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    int hi = HexValue(hex[i * 2]);
    int lo = HexValue(hex[i * 2 + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    value |= static_cast<uint64_t>((hi << 4) | lo) << (i * 8);
  }
  *out = value;
  return true;
}

bool ParseHexNumber(const std::string& s, size_t* pos, uint64_t* out) {
  uint64_t value = 0;
  bool any = false;
  while (*pos < s.size()) {
    int v = HexValue(s[*pos]);
    if (v < 0) {
      break;
    }
    value = (value << 4) | static_cast<uint64_t>(v);
    ++*pos;
    any = true;
  }
  *out = value;
  return any;
}

}  // namespace

GdbStub::GdbStub(Machine* machine, Uart* uart) : machine_(machine), uart_(uart) {}

void GdbStub::AttachDefaultTraps(Cpu* cpu) {
  auto hook = [this](int signal) {
    return [this, signal](TrapFrame& frame) -> bool {
      HandleException(signal, frame);
      return true;
    };
  };
  cpu->SetVector(kTrapBreakpoint, hook(5));         // SIGTRAP
  cpu->SetVector(kTrapDebug, hook(5));              // SIGTRAP
  cpu->SetVector(kTrapDivide, hook(8));             // SIGFPE
  cpu->SetVector(kTrapGeneralProtection, hook(11)); // SIGSEGV
  cpu->SetVector(kTrapPageFault, hook(11));         // SIGSEGV
}

int GdbStub::ReadByteBlocking() {
  if (!uart_->RxReady()) {
    if (machine_->sim().scheduler().current() != nullptr) {
      machine_->sim().WaitUntil([this] { return uart_->RxReady(); });
    } else {
      Panic("gdb stub: debugger link idle with no way to wait");
    }
  }
  return uart_->ReadByte();
}

std::string GdbStub::ReceivePacket() {
  for (;;) {
    // Hunt for the start-of-packet marker.
    int c = ReadByteBlocking();
    if (c == 0x03) {
      return "\x03";  // interrupt request
    }
    if (c != '$') {
      continue;
    }
    std::string payload;
    uint8_t sum = 0;
    for (;;) {
      c = ReadByteBlocking();
      if (c == '#') {
        break;
      }
      sum = static_cast<uint8_t>(sum + c);
      payload.push_back(static_cast<char>(c));
    }
    int hi = HexValue(static_cast<char>(ReadByteBlocking()));
    int lo = HexValue(static_cast<char>(ReadByteBlocking()));
    if (hi >= 0 && lo >= 0 && static_cast<uint8_t>((hi << 4) | lo) == sum) {
      uart_->WriteByte('+');
      return payload;
    }
    uart_->WriteByte('-');  // bad checksum: ask for retransmission
  }
}

void GdbStub::SendPacket(const std::string& payload) {
  uint8_t sum = 0;
  for (char c : payload) {
    sum = static_cast<uint8_t>(sum + static_cast<uint8_t>(c));
  }
  uart_->WriteByte('$');
  for (char c : payload) {
    uart_->WriteByte(static_cast<uint8_t>(c));
  }
  uart_->WriteByte('#');
  uart_->WriteByte(static_cast<uint8_t>(kHexDigits[sum >> 4]));
  uart_->WriteByte(static_cast<uint8_t>(kHexDigits[sum & 0xf]));
  // A full implementation would wait for '+' and retransmit on '-'; the
  // simulated serial line never corrupts data, so the ack (if the test sends
  // one) is consumed by the next ReceivePacket() hunt loop.
}

uint64_t* GdbStub::RegSlot(TrapFrame& frame, int index) {
  if (index >= 0 && index < 8) {
    return &frame.gprs[index];
  }
  switch (index) {
    case 8:
      return &frame.pc;
    case 9:
      return &frame.sp;
    case 10:
      return &frame.flags;
    default:
      return nullptr;
  }
}

std::string GdbStub::ReadRegisters(const TrapFrame& frame) {
  std::string out;
  TrapFrame& mutable_frame = const_cast<TrapFrame&>(frame);
  for (int i = 0; i < kNumRegs; ++i) {
    AppendRegHex(&out, *RegSlot(mutable_frame, i));
  }
  return out;
}

std::string GdbStub::WriteRegisters(const std::string& hex, TrapFrame& frame) {
  if (hex.size() < static_cast<size_t>(kNumRegs) * 16) {
    return "E01";
  }
  for (int i = 0; i < kNumRegs; ++i) {
    if (!ParseRegHex(hex.c_str() + i * 16, RegSlot(frame, i))) {
      return "E01";
    }
  }
  return "OK";
}

std::string GdbStub::ReadMemory(const std::string& args) {
  size_t pos = 0;
  uint64_t addr = 0;
  uint64_t len = 0;
  if (!ParseHexNumber(args, &pos, &addr) || pos >= args.size() || args[pos] != ',') {
    return "E01";
  }
  ++pos;
  if (!ParseHexNumber(args, &pos, &len)) {
    return "E01";
  }
  PhysMem& phys = machine_->phys();
  if (addr + len > phys.size() || addr + len < addr) {
    return "E02";
  }
  std::string out;
  const auto* p = static_cast<const uint8_t*>(phys.PtrAt(addr));
  for (uint64_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[p[i] >> 4]);
    out.push_back(kHexDigits[p[i] & 0xf]);
  }
  return out;
}

std::string GdbStub::WriteMemory(const std::string& args) {
  size_t pos = 0;
  uint64_t addr = 0;
  uint64_t len = 0;
  if (!ParseHexNumber(args, &pos, &addr) || pos >= args.size() || args[pos] != ',') {
    return "E01";
  }
  ++pos;
  if (!ParseHexNumber(args, &pos, &len) || pos >= args.size() || args[pos] != ':') {
    return "E01";
  }
  ++pos;
  if (args.size() - pos < len * 2) {
    return "E01";
  }
  PhysMem& phys = machine_->phys();
  if (addr + len > phys.size() || addr + len < addr) {
    return "E02";
  }
  auto* p = static_cast<uint8_t*>(phys.PtrAt(addr));
  for (uint64_t i = 0; i < len; ++i) {
    int hi = HexValue(args[pos + i * 2]);
    int lo = HexValue(args[pos + i * 2 + 1]);
    if (hi < 0 || lo < 0) {
      return "E01";
    }
    p[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return "OK";
}

std::string GdbStub::ReadOneRegister(const std::string& args, const TrapFrame& frame) {
  size_t pos = 0;
  uint64_t index = 0;
  if (!ParseHexNumber(args, &pos, &index) || index >= kNumRegs) {
    return "E01";
  }
  std::string out;
  TrapFrame& mutable_frame = const_cast<TrapFrame&>(frame);
  AppendRegHex(&out, *RegSlot(mutable_frame, static_cast<int>(index)));
  return out;
}

std::string GdbStub::WriteOneRegister(const std::string& args, TrapFrame& frame) {
  size_t pos = 0;
  uint64_t index = 0;
  if (!ParseHexNumber(args, &pos, &index) || index >= kNumRegs ||
      pos >= args.size() || args[pos] != '=') {
    return "E01";
  }
  ++pos;
  if (args.size() - pos < 16 ||
      !ParseRegHex(args.c_str() + pos, RegSlot(frame, static_cast<int>(index)))) {
    return "E01";
  }
  return "OK";
}

void GdbStub::HandleException(int signal, TrapFrame& frame) {
  step_requested_ = false;
  char stop[8];
  std::snprintf(stop, sizeof(stop), "T%02x", signal);
  SendPacket(stop);

  for (;;) {
    std::string packet = ReceivePacket();
    ++packets_handled_;
    if (packet.empty()) {
      SendPacket("");
      continue;
    }
    switch (packet[0]) {
      case '?':
        SendPacket(stop);
        break;
      case 'g':
        SendPacket(ReadRegisters(frame));
        break;
      case 'G':
        SendPacket(WriteRegisters(packet.substr(1), frame));
        break;
      case 'm':
        SendPacket(ReadMemory(packet.substr(1)));
        break;
      case 'M':
        SendPacket(WriteMemory(packet.substr(1)));
        break;
      case 'p':
        SendPacket(ReadOneRegister(packet.substr(1), frame));
        break;
      case 'P':
        SendPacket(WriteOneRegister(packet.substr(1), frame));
        break;
      case 'c':
        return;  // continue the target
      case 's':
        step_requested_ = true;
        return;
      case 'k':
        killed_ = true;
        return;
      case 'D':
        SendPacket("OK");
        return;  // detach
      case 'q':
        if (packet.rfind("qSupported", 0) == 0) {
          SendPacket("PacketSize=4096");
        } else {
          SendPacket("");  // unsupported query
        }
        break;
      default:
        SendPacket("");  // unsupported command
        break;
    }
  }
}

}  // namespace oskit
