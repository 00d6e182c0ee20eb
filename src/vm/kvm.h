// "KVM" — the bytecode virtual machine for the network-computer case study
// (paper §6.1.4).
//
// Stands in for the Kaffe JVM: a POSIX-hosted language runtime with its own
// bytecode format, verifier, interpreter, and user-level (green) thread
// package, ported onto the OSKit substrate.  The netcomputer example loads
// KVM programs from the boot-module filesystem (as Java/PC loaded .class
// files, §6.2.2) and its syscall layer binds to whatever the embedding
// kernel provides — console, timers, sockets.
//
// The machine: a 64-bit stack machine with locals, globals, call/ret, and
// cooperative threads preempted at a fixed instruction quantum (kQuantum).

#ifndef OSKIT_SRC_VM_KVM_H_
#define OSKIT_SRC_VM_KVM_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/error.h"

namespace oskit::vm {

enum class Op : uint8_t {
  kHalt = 0x00,   // stop this thread
  kPush = 0x01,   // imm64 -> push
  kPop = 0x02,
  kDup = 0x03,
  kSwap = 0x04,
  kLoad = 0x05,   // u16 local index -> push
  kStore = 0x06,  // u16 local index <- pop
  kGLoad = 0x07,  // u16 global index -> push
  kGStore = 0x08,
  kAdd = 0x10,
  kSub = 0x11,
  kMul = 0x12,
  kDiv = 0x13,    // traps (kInval) on divide by zero
  kMod = 0x14,
  kNeg = 0x15,
  kAnd = 0x16,
  kOr = 0x17,
  kXor = 0x18,
  kShl = 0x19,
  kShr = 0x1a,
  kEq = 0x20,
  kNe = 0x21,
  kLt = 0x22,
  kLe = 0x23,
  kGt = 0x24,
  kGe = 0x25,
  kJmp = 0x30,    // u32 target
  kJz = 0x31,     // u32 target, pop cond
  kJnz = 0x32,
  kCall = 0x33,   // u32 target (pushes return pc on the call stack)
  kRet = 0x34,
  kSys = 0x40,    // u16 syscall number
  kYield = 0x41,  // cooperative thread switch
};

// Well-known syscall numbers every embedding provides.
inline constexpr uint16_t kSysPutChar = 1;   // pop c
inline constexpr uint16_t kSysPutInt = 2;    // pop v
inline constexpr uint16_t kSysTimeNs = 3;    // push now
inline constexpr uint16_t kSysSpawn = 4;     // pop entry pc, push thread id
// Numbers >= 16 are embedding-specific (the netcomputer adds sockets).

class Vm;

// Host syscall binding.  Arguments are popped by the handler from the
// thread's operand stack; results pushed.
class SysHandler {
 public:
  virtual ~SysHandler() = default;
  virtual Error Syscall(uint16_t number, Vm& vm, int thread_id) = 0;
};

struct VmThread {
  enum class State { kRunnable, kDone, kFaulted };
  State state = State::kRunnable;
  uint32_t pc = 0;
  std::vector<int64_t> stack;
  std::vector<int64_t> locals;
  std::vector<uint32_t> call_stack;
  uint64_t instructions = 0;
  Error fault = Error::kOk;
};

class Vm {
 public:
  static constexpr size_t kStackLimit = 4096;  // operand-stack slots per thread
  static constexpr size_t kLocals = 64;        // local slots per thread
  static constexpr size_t kGlobals = 256;
  static constexpr size_t kCallDepthLimit = 256;
  static constexpr uint64_t kQuantum = 1000;  // instructions per scheduling slice

  Vm(std::vector<uint8_t> code, SysHandler* sys);

  // Static verification: every opcode valid, operands in bounds, every jump
  // and call target on an instruction boundary, code ends cleanly.  Must
  // pass before Run.
  Error Verify(std::string* out_problem = nullptr);

  // Creates a thread starting at `pc`; returns its id.
  int SpawnThread(uint32_t pc);

  // Runs all threads (round-robin, kQuantum instructions each) until every
  // thread halts or faults, or `max_instructions` executes.  Returns kOk
  // when all threads completed normally.
  Error Run(uint64_t max_instructions = ~uint64_t{0});

  // ---- State access (for syscall handlers and tests) ----
  int64_t Pop(int thread_id);
  void Push(int thread_id, int64_t value);
  int64_t global(size_t index) const { return globals_[index]; }
  void set_global(size_t index, int64_t v) { globals_[index] = v; }
  const VmThread& thread(int id) const { return threads_[id]; }
  size_t thread_count() const { return threads_.size(); }
  uint64_t instructions_executed() const { return instructions_; }
  const std::vector<uint8_t>& code() const { return code_; }

 private:
  // Executes up to `budget` instructions of thread `id`; returns false when
  // the thread yielded voluntarily.
  bool Step(int id, uint64_t budget);
  void FaultThread(VmThread& t, Error err);

  std::vector<uint8_t> code_;
  SysHandler* sys_;
  // Deque: spawning threads from a syscall must not invalidate references
  // to running threads.
  std::deque<VmThread> threads_;
  std::vector<int64_t> globals_;
  uint64_t instructions_ = 0;
  bool verified_ = false;
};

// ---- Assembler ----
//
// One instruction per line; ';' comments; "label:" definitions; jump/call
// operands may be labels or numbers.  Example:
//     push 10
//   loop:
//     dup
//     sys 2        ; print int
//     push 1
//     sub
//     dup
//     jnz loop
//     halt
Error Assemble(const std::string& source, std::vector<uint8_t>* out_code,
               std::string* out_error);

}  // namespace oskit::vm

#endif  // OSKIT_SRC_VM_KVM_H_
