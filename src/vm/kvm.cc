#include "src/vm/kvm.h"

#include <cstring>
#include <map>
#include <set>

#include "src/base/byteorder.h"
#include "src/base/panic.h"

namespace oskit::vm {

namespace {

// Operand byte count for each opcode (255 = invalid opcode).
int OperandBytes(uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kPush:
      return 8;
    case Op::kLoad:
    case Op::kStore:
    case Op::kGLoad:
    case Op::kGStore:
    case Op::kSys:
      return 2;
    case Op::kJmp:
    case Op::kJz:
    case Op::kJnz:
    case Op::kCall:
      return 4;
    case Op::kHalt:
    case Op::kPop:
    case Op::kDup:
    case Op::kSwap:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kNeg:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kRet:
    case Op::kYield:
      return 0;
  }
  return 255;
}

int64_t LoadImm64(const uint8_t* p) {
  uint64_t v = LoadLe64(p);
  return static_cast<int64_t>(v);
}

}  // namespace

Vm::Vm(std::vector<uint8_t> code, SysHandler* sys)
    : code_(std::move(code)), sys_(sys), globals_(kGlobals, 0) {}

Error Vm::Verify(std::string* out_problem) {
  auto fail = [&](const std::string& msg) {
    if (out_problem != nullptr) {
      *out_problem = msg;
    }
    return Error::kInval;
  };
  std::set<uint32_t> starts;
  size_t pc = 0;
  while (pc < code_.size()) {
    starts.insert(static_cast<uint32_t>(pc));
    uint8_t op = code_[pc];
    int operands = OperandBytes(op);
    if (operands == 255) {
      return fail("invalid opcode at " + std::to_string(pc));
    }
    if (pc + 1 + operands > code_.size()) {
      return fail("truncated instruction at " + std::to_string(pc));
    }
    // Operand range checks.
    switch (static_cast<Op>(op)) {
      case Op::kLoad:
      case Op::kStore:
        if (LoadLe16(&code_[pc + 1]) >= kLocals) {
          return fail("local index out of range at " + std::to_string(pc));
        }
        break;
      case Op::kGLoad:
      case Op::kGStore:
        if (LoadLe16(&code_[pc + 1]) >= kGlobals) {
          return fail("global index out of range at " + std::to_string(pc));
        }
        break;
      default:
        break;
    }
    pc += 1 + operands;
  }
  // Branch targets must land on instruction boundaries.
  pc = 0;
  while (pc < code_.size()) {
    uint8_t op = code_[pc];
    int operands = OperandBytes(op);
    switch (static_cast<Op>(op)) {
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
      case Op::kCall: {
        uint32_t target = LoadLe32(&code_[pc + 1]);
        if (starts.count(target) == 0) {
          return fail("branch to mid-instruction at " + std::to_string(pc));
        }
        break;
      }
      default:
        break;
    }
    pc += 1 + operands;
  }
  verified_ = true;
  return Error::kOk;
}

int Vm::SpawnThread(uint32_t pc) {
  OSKIT_ASSERT_MSG(pc < code_.size() || code_.empty(), "thread entry out of range");
  VmThread t;
  t.pc = pc;
  t.locals.assign(kLocals, 0);
  threads_.push_back(std::move(t));
  return static_cast<int>(threads_.size()) - 1;
}

int64_t Vm::Pop(int thread_id) {
  VmThread& t = threads_[thread_id];
  OSKIT_ASSERT_MSG(!t.stack.empty(), "syscall popped an empty stack");
  int64_t v = t.stack.back();
  t.stack.pop_back();
  return v;
}

void Vm::Push(int thread_id, int64_t value) {
  threads_[thread_id].stack.push_back(value);
}

void Vm::FaultThread(VmThread& t, Error err) {
  t.state = VmThread::State::kFaulted;
  t.fault = err;
}

bool Vm::Step(int id, uint64_t budget) {
  VmThread& t = threads_[id];
  for (uint64_t n = 0; n < budget && t.state == VmThread::State::kRunnable; ++n) {
    if (t.pc >= code_.size()) {
      FaultThread(t, Error::kFault);
      return true;
    }
    Op op = static_cast<Op>(code_[t.pc]);
    const uint8_t* operand = &code_[t.pc] + 1;
    uint32_t next_pc = t.pc + 1 + OperandBytes(code_[t.pc]);
    ++t.instructions;
    ++instructions_;

    auto need = [&](size_t depth) -> bool {
      if (t.stack.size() < depth) {
        FaultThread(t, Error::kFault);
        return false;
      }
      return true;
    };
    auto binop = [&](auto fn) {
      if (!need(2)) {
        return;
      }
      int64_t b = t.stack.back();
      t.stack.pop_back();
      int64_t a = t.stack.back();
      t.stack.back() = fn(a, b);
    };

    switch (op) {
      case Op::kHalt:
        t.state = VmThread::State::kDone;
        return true;
      case Op::kPush:
        if (t.stack.size() >= kStackLimit) {
          FaultThread(t, Error::kNoMem);
          return true;
        }
        t.stack.push_back(LoadImm64(operand));
        break;
      case Op::kPop:
        if (!need(1)) {
          return true;
        }
        t.stack.pop_back();
        break;
      case Op::kDup:
        if (!need(1)) {
          return true;
        }
        t.stack.push_back(t.stack.back());
        break;
      case Op::kSwap: {
        if (!need(2)) {
          return true;
        }
        std::swap(t.stack[t.stack.size() - 1], t.stack[t.stack.size() - 2]);
        break;
      }
      case Op::kLoad:
        t.stack.push_back(t.locals[LoadLe16(operand)]);
        break;
      case Op::kStore:
        if (!need(1)) {
          return true;
        }
        t.locals[LoadLe16(operand)] = t.stack.back();
        t.stack.pop_back();
        break;
      case Op::kGLoad:
        t.stack.push_back(globals_[LoadLe16(operand)]);
        break;
      case Op::kGStore:
        if (!need(1)) {
          return true;
        }
        globals_[LoadLe16(operand)] = t.stack.back();
        t.stack.pop_back();
        break;
      case Op::kAdd:
        binop([](int64_t a, int64_t b) { return a + b; });
        break;
      case Op::kSub:
        binop([](int64_t a, int64_t b) { return a - b; });
        break;
      case Op::kMul:
        binop([](int64_t a, int64_t b) { return a * b; });
        break;
      case Op::kDiv:
        if (!need(2)) {
          return true;
        }
        if (t.stack.back() == 0) {
          FaultThread(t, Error::kInval);
          return true;
        }
        binop([](int64_t a, int64_t b) { return a / b; });
        break;
      case Op::kMod:
        if (!need(2)) {
          return true;
        }
        if (t.stack.back() == 0) {
          FaultThread(t, Error::kInval);
          return true;
        }
        binop([](int64_t a, int64_t b) { return a % b; });
        break;
      case Op::kNeg:
        if (!need(1)) {
          return true;
        }
        t.stack.back() = -t.stack.back();
        break;
      case Op::kAnd:
        binop([](int64_t a, int64_t b) { return a & b; });
        break;
      case Op::kOr:
        binop([](int64_t a, int64_t b) { return a | b; });
        break;
      case Op::kXor:
        binop([](int64_t a, int64_t b) { return a ^ b; });
        break;
      case Op::kShl:
        binop([](int64_t a, int64_t b) {
          return static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63));
        });
        break;
      case Op::kShr:
        binop([](int64_t a, int64_t b) {
          return static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63));
        });
        break;
      case Op::kEq:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a == b); });
        break;
      case Op::kNe:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a != b); });
        break;
      case Op::kLt:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a < b); });
        break;
      case Op::kLe:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a <= b); });
        break;
      case Op::kGt:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a > b); });
        break;
      case Op::kGe:
        binop([](int64_t a, int64_t b) { return static_cast<int64_t>(a >= b); });
        break;
      case Op::kJmp:
        next_pc = LoadLe32(operand);
        break;
      case Op::kJz:
        if (!need(1)) {
          return true;
        }
        if (t.stack.back() == 0) {
          next_pc = LoadLe32(operand);
        }
        t.stack.pop_back();
        break;
      case Op::kJnz:
        if (!need(1)) {
          return true;
        }
        if (t.stack.back() != 0) {
          next_pc = LoadLe32(operand);
        }
        t.stack.pop_back();
        break;
      case Op::kCall:
        if (t.call_stack.size() >= kCallDepthLimit) {
          FaultThread(t, Error::kNoMem);
          return true;
        }
        t.call_stack.push_back(next_pc);
        next_pc = LoadLe32(operand);
        break;
      case Op::kRet:
        if (t.call_stack.empty()) {
          t.state = VmThread::State::kDone;  // return from the entry frame
          return true;
        }
        next_pc = t.call_stack.back();
        t.call_stack.pop_back();
        break;
      case Op::kSys: {
        uint16_t number = LoadLe16(operand);
        t.pc = next_pc;  // syscalls see the post-instruction pc
        Error err;
        switch (number) {
          case kSysSpawn: {
            if (!need(1)) {
              return true;
            }
            int64_t entry = Pop(id);
            if (entry < 0 || static_cast<size_t>(entry) >= code_.size()) {
              FaultThread(threads_[id], Error::kFault);
              return true;
            }
            int child = SpawnThread(static_cast<uint32_t>(entry));
            Push(id, child);
            err = Error::kOk;
            break;
          }
          default:
            err = sys_ != nullptr ? sys_->Syscall(number, *this, id)
                                  : Error::kNotImpl;
            break;
        }
        VmThread& self = threads_[id];
        if (!Ok(err)) {
          FaultThread(self, err);
          return true;
        }
        if (self.state != VmThread::State::kRunnable) {
          return true;
        }
        continue;  // pc already advanced
      }
      case Op::kYield:
        t.pc = next_pc;
        return false;  // voluntary switch
    }
    t.pc = next_pc;
  }
  return true;
}

Error Vm::Run(uint64_t max_instructions) {
  OSKIT_ASSERT_MSG(verified_, "Run before Verify");
  uint64_t start = instructions_;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t id = 0; id < threads_.size(); ++id) {
      if (threads_[id].state != VmThread::State::kRunnable) {
        continue;
      }
      progress = true;
      Step(static_cast<int>(id), kQuantum);
      if (instructions_ - start >= max_instructions) {
        return Error::kAborted;
      }
    }
  }
  for (const VmThread& t : threads_) {
    if (t.state == VmThread::State::kFaulted) {
      return t.fault;
    }
  }
  return Error::kOk;
}

}  // namespace oskit::vm
