// KVM bytecode machine tests (§6.1.4 substitute): assembler, arithmetic,
// control flow, calls, green threads, syscalls, the verifier, and fault
// containment.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/vm/kvm.h"

namespace oskit::vm {
namespace {

// Syscall handler recording prints and serving time.
class TestSys : public SysHandler {
 public:
  Error Syscall(uint16_t number, Vm& vm, int thread_id) override {
    switch (number) {
      case kSysPutChar:
        printed.push_back(static_cast<char>(vm.Pop(thread_id)));
        return Error::kOk;
      case kSysPutInt:
        ints.push_back(vm.Pop(thread_id));
        return Error::kOk;
      case kSysTimeNs:
        vm.Push(thread_id, now);
        return Error::kOk;
      default:
        return Error::kNotImpl;
    }
  }

  std::string printed;
  std::vector<int64_t> ints;
  int64_t now = 123456;
};

// Assembles, verifies, runs one thread at pc 0; returns the VM for
// inspection.
std::unique_ptr<Vm> RunProgram(const std::string& source, TestSys* sys,
                               Error expect = Error::kOk) {
  std::vector<uint8_t> code;
  std::string asm_error;
  EXPECT_EQ(Error::kOk, Assemble(source, &code, &asm_error)) << asm_error;
  auto vm = std::make_unique<Vm>(std::move(code), sys);
  std::string verify_error;
  EXPECT_EQ(Error::kOk, vm->Verify(&verify_error)) << verify_error;
  vm->SpawnThread(0);
  EXPECT_EQ(expect, vm->Run(1000000));
  return vm;
}

TEST(AssemblerTest, EncodesAndReportsErrors) {
  std::vector<uint8_t> code;
  std::string error;
  EXPECT_EQ(Error::kOk, Assemble("push 5\nhalt\n", &code, &error));
  EXPECT_EQ(10u, code.size());  // push(1+8) + halt(1)

  EXPECT_EQ(Error::kInval, Assemble("frobnicate\n", &code, &error));
  EXPECT_NE(std::string::npos, error.find("unknown mnemonic"));
  EXPECT_EQ(Error::kInval, Assemble("jmp nowhere\n", &code, &error));
  EXPECT_NE(std::string::npos, error.find("undefined label"));
  EXPECT_EQ(Error::kInval, Assemble("x:\nx:\nhalt\n", &code, &error));
  EXPECT_NE(std::string::npos, error.find("duplicate"));
  EXPECT_EQ(Error::kInval, Assemble("push\n", &code, &error));
}

TEST(VmTest, Arithmetic) {
  TestSys sys;
  RunProgram(
      "push 7\n"
      "push 3\n"
      "mul\n"       // 21
      "push 5\n"
      "sub\n"       // 16
      "push 3\n"
      "div\n"       // 5
      "sys 2\n"
      "push -8\n"
      "neg\n"       // 8
      "push 3\n"
      "mod\n"       // 2
      "sys 2\n"
      "halt\n",
      &sys);
  ASSERT_EQ(2u, sys.ints.size());
  EXPECT_EQ(5, sys.ints[0]);
  EXPECT_EQ(2, sys.ints[1]);
}

TEST(VmTest, LoopWithBranches) {
  TestSys sys;
  // Sum 1..10 into local 0.
  RunProgram(
      "push 10\n"
      "store 1\n"       // i = 10
      "loop:\n"
      "load 0\n"
      "load 1\n"
      "add\n"
      "store 0\n"       // acc += i
      "load 1\n"
      "push 1\n"
      "sub\n"
      "store 1\n"       // --i
      "load 1\n"
      "jnz loop\n"
      "load 0\n"
      "sys 2\n"
      "halt\n",
      &sys);
  ASSERT_EQ(1u, sys.ints.size());
  EXPECT_EQ(55, sys.ints[0]);
}

TEST(VmTest, CallAndReturn) {
  TestSys sys;
  RunProgram(
      "push 6\n"
      "call square\n"
      "sys 2\n"
      "halt\n"
      "square:\n"
      "dup\n"
      "mul\n"
      "ret\n",
      &sys);
  ASSERT_EQ(1u, sys.ints.size());
  EXPECT_EQ(36, sys.ints[0]);
}

TEST(VmTest, ComparisonsAndGlobals) {
  TestSys sys;
  auto vm = RunProgram(
      "push 3\n"
      "push 4\n"
      "lt\n"
      "gstore 0\n"
      "push 9\n"
      "push 9\n"
      "ge\n"
      "gstore 1\n"
      "push 1\n"
      "push 2\n"
      "eq\n"
      "gstore 2\n"
      "halt\n",
      &sys);
  EXPECT_EQ(1, vm->global(0));
  EXPECT_EQ(1, vm->global(1));
  EXPECT_EQ(0, vm->global(2));
}

TEST(VmTest, BitwiseShiftsAndOrderings) {
  TestSys sys;
  RunProgram(
      "push 12\npush 10\nand\nsys 2\n"    // 8
      "push 12\npush 10\nor\nsys 2\n"     // 14
      "push 12\npush 10\nxor\nsys 2\n"    // 6
      "push 1\npush 4\nshl\nsys 2\n"      // 16
      "push 1\npush 68\nshl\nsys 2\n"     // count & 63 = 4: 16
      "push 256\npush 4\nshr\nsys 2\n"    // 16
      "push -1\npush 60\nshr\nsys 2\n"    // logical: 15
      "push 256\npush 72\nshr\nsys 2\n"   // count & 63 = 8: 1
      "push 3\npush 4\nne\nsys 2\n"       // 1
      "push 4\npush 4\nne\nsys 2\n"       // 0
      "push 4\npush 4\nle\nsys 2\n"       // 1
      "push 5\npush 4\nle\nsys 2\n"       // 0
      "push -5\npush 4\nle\nsys 2\n"      // 1
      "halt\n",
      &sys);
  EXPECT_EQ((std::vector<int64_t>{8, 14, 6, 16, 16, 16, 15, 1, 1, 0, 1, 0, 1}),
            sys.ints);
}

TEST(VmTest, HostSpawnedThreadsBothRun) {
  TestSys sys;
  std::vector<uint8_t> code;
  std::string err;
  ASSERT_EQ(Error::kOk, Assemble(
      "a:\n"
      "gload 0\n"
      "push 1\n"
      "add\n"
      "gstore 0\n"
      "yield\n"
      "gload 0\n"
      "push 200\n"
      "lt\n"
      "jnz a\n"
      "halt\n",
      &code, &err)) << err;
  Vm vm(std::move(code), &sys);
  ASSERT_EQ(Error::kOk, vm.Verify());
  vm.SpawnThread(0);
  vm.SpawnThread(0);  // two green threads sharing global 0
  EXPECT_EQ(Error::kOk, vm.Run(1000000));
  EXPECT_GE(vm.global(0), 200);
  EXPECT_EQ(2u, vm.thread_count());
  EXPECT_GT(vm.thread(0).instructions, 0u);
  EXPECT_GT(vm.thread(1).instructions, 0u);
}

TEST(VmTest, SysSpawnCreatesThread) {
  TestSys sys;
  std::vector<uint8_t> code;
  std::string err;
  // Thread entry table: the child loop lives at a label whose numeric
  // address we can compute because the preamble has fixed size:
  // push(9) + sys(3) + pop(1) + halt(1) = 14.
  ASSERT_EQ(Error::kOk, Assemble(
      "push 14\n"
      "sys 4\n"   // spawn(entry=14)
      "pop\n"     // discard the thread id
      "halt\n"
      "child:\n"  // at byte 14
      "push 77\n"
      "gstore 5\n"
      "halt\n",
      &code, &err)) << err;
  Vm vm(std::move(code), &sys);
  ASSERT_EQ(Error::kOk, vm.Verify(&err)) << err;
  vm.SpawnThread(0);
  EXPECT_EQ(Error::kOk, vm.Run(10000));
  EXPECT_EQ(2u, vm.thread_count());
  EXPECT_EQ(77, vm.global(5));
}

TEST(VmTest, VerifierRejectsBadPrograms) {
  std::string err;
  // Invalid opcode.
  {
    Vm vm(std::vector<uint8_t>{0xff}, nullptr);
    EXPECT_EQ(Error::kInval, vm.Verify(&err));
  }
  // Truncated operand.
  {
    Vm vm(std::vector<uint8_t>{static_cast<uint8_t>(Op::kPush), 1, 2}, nullptr);
    EXPECT_EQ(Error::kInval, vm.Verify(&err));
  }
  // Jump into the middle of an instruction.
  {
    std::vector<uint8_t> code;
    ASSERT_EQ(Error::kOk, Assemble("jmp 2\nhalt\n", &code, &err));
    Vm vm(std::move(code), nullptr);
    EXPECT_EQ(Error::kInval, vm.Verify(&err));
    EXPECT_NE(std::string::npos, err.find("mid-instruction"));
  }
  // Local index out of range.
  {
    std::vector<uint8_t> code;
    ASSERT_EQ(Error::kOk, Assemble("load 9999\nhalt\n", &code, &err));
    Vm vm(std::move(code), nullptr);
    EXPECT_EQ(Error::kInval, vm.Verify(&err));
  }
}

TEST(VmTest, RuntimeFaultsAreContained) {
  TestSys sys;
  // Divide by zero faults the thread; Run reports it.
  RunProgram("push 1\npush 0\ndiv\nhalt\n", &sys, Error::kInval);
  // Stack underflow.
  RunProgram("add\nhalt\n", &sys, Error::kFault);
  // Unknown syscall.
  RunProgram("sys 999\nhalt\n", &sys, Error::kNotImpl);
}

TEST(VmTest, RunawayProgramHitsInstructionBudget) {
  TestSys sys;
  std::vector<uint8_t> code;
  std::string err;
  ASSERT_EQ(Error::kOk, Assemble("spin:\njmp spin\n", &code, &err));
  Vm vm(std::move(code), &sys);
  ASSERT_EQ(Error::kOk, vm.Verify());
  vm.SpawnThread(0);
  EXPECT_EQ(Error::kAborted, vm.Run(5000));
  EXPECT_GE(vm.instructions_executed(), 5000u);
}

TEST(VmTest, PutCharBuildsStrings) {
  TestSys sys;
  RunProgram(
      "push 104\nsys 1\n"  // h
      "push 105\nsys 1\n"  // i
      "halt\n",
      &sys);
  EXPECT_EQ("hi", sys.printed);
}

}  // namespace
}  // namespace oskit::vm
