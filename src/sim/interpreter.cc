/**
 * @file
 * PE-RISC interpreter implementation.
 */

#include "src/sim/interpreter.hh"

#include "src/isa/regs.hh"
#include "src/sim/arith.hh"
#include "src/support/status.hh"

namespace pe::sim
{

const char *
crashKindName(CrashKind kind)
{
    switch (kind) {
      case CrashKind::None: return "none";
      case CrashKind::DivByZero: return "div-by-zero";
      case CrashKind::BadAddress: return "bad-address";
      case CrashKind::BadJump: return "bad-jump";
      case CrashKind::HeapOverflow: return "heap-overflow";
    }
    return "?";
}

void
loadProgram(const isa::Program &program, mem::MainMemory &memory,
            Core &core, const MachineLayout &layout)
{
    pe_assert(program.dataBase + program.dataInit.size() <=
                  layout.heapLimit(),
              "data segment does not fit below the heap limit");
    pe_assert(program.heapBase >= program.dataBase +
                  program.dataInit.size(),
              "heap overlaps the data segment");

    memory.storeRange(program.dataBase, program.dataInit);
    memory.write(isa::Program::heapPtrCell,
                 static_cast<int32_t>(program.heapBase));

    core = Core{};
    core.pc = program.entry;
    core.writeReg(isa::reg::sp, static_cast<int32_t>(layout.initialSp()));
    core.writeReg(isa::reg::fp, static_cast<int32_t>(layout.initialSp()));
}

StepResult
step(const isa::Program &program, Core &core, mem::MemCtx &ctx,
     IoChannel &io, bool allowIo, const MachineLayout &layout)
{
    using isa::Opcode;

    StepResult res;
    res.pc = core.pc;

    if (core.pc >= program.code.size()) {
        res.crash = CrashKind::BadJump;
        return res;
    }

    const isa::Instruction &inst = program.code[core.pc];
    res.op = inst.op;

    // The NT-entry predicate holds only through the leading run of
    // fixing instructions; hardware clears it at the first other op.
    bool pred = core.ntEntryPred;
    if (pred && !isa::isPredicatedFix(inst.op))
        core.ntEntryPred = false;

    auto rs1 = [&] { return core.readReg(inst.rs1); };
    auto rs2 = [&] { return core.readReg(inst.rs2); };

    auto validCode = [&](int32_t target) {
        return target >= 0 &&
               static_cast<uint32_t>(target) < program.code.size();
    };

    uint32_t nextPc = core.pc + 1;

    switch (inst.op) {
      case Opcode::Nop:
        break;

      case Opcode::Add:
        core.writeReg(inst.rd, wrapAdd(rs1(), rs2()));
        break;
      case Opcode::Sub:
        core.writeReg(inst.rd, wrapSub(rs1(), rs2()));
        break;
      case Opcode::Mul:
        core.writeReg(inst.rd, wrapMul(rs1(), rs2()));
        break;
      case Opcode::Div: {
        int32_t divisor = rs2();
        if (divisor == 0) {
            res.crash = CrashKind::DivByZero;
            return res;
        }
        core.writeReg(inst.rd, safeDiv(rs1(), divisor));
        break;
      }
      case Opcode::Rem: {
        int32_t divisor = rs2();
        if (divisor == 0) {
            res.crash = CrashKind::DivByZero;
            return res;
        }
        core.writeReg(inst.rd, safeRem(rs1(), divisor));
        break;
      }
      case Opcode::And:
        core.writeReg(inst.rd, rs1() & rs2());
        break;
      case Opcode::Or:
        core.writeReg(inst.rd, rs1() | rs2());
        break;
      case Opcode::Xor:
        core.writeReg(inst.rd, rs1() ^ rs2());
        break;
      case Opcode::Shl:
        core.writeReg(inst.rd, static_cast<int32_t>(
            static_cast<uint32_t>(rs1()) << (rs2() & 31)));
        break;
      case Opcode::Shr:
        core.writeReg(inst.rd, static_cast<int32_t>(
            static_cast<uint32_t>(rs1()) >> (rs2() & 31)));
        break;
      case Opcode::Sra:
        core.writeReg(inst.rd, rs1() >> (rs2() & 31));
        break;
      case Opcode::Slt:
        core.writeReg(inst.rd, rs1() < rs2() ? 1 : 0);
        break;
      case Opcode::Sle:
        core.writeReg(inst.rd, rs1() <= rs2() ? 1 : 0);
        break;
      case Opcode::Seq:
        core.writeReg(inst.rd, rs1() == rs2() ? 1 : 0);
        break;
      case Opcode::Sne:
        core.writeReg(inst.rd, rs1() != rs2() ? 1 : 0);
        break;
      case Opcode::Sgt:
        core.writeReg(inst.rd, rs1() > rs2() ? 1 : 0);
        break;
      case Opcode::Sge:
        core.writeReg(inst.rd, rs1() >= rs2() ? 1 : 0);
        break;

      case Opcode::Addi:
        core.writeReg(inst.rd, wrapAdd(rs1(), inst.imm));
        break;
      case Opcode::Andi:
        core.writeReg(inst.rd, rs1() & inst.imm);
        break;
      case Opcode::Ori:
        core.writeReg(inst.rd, rs1() | inst.imm);
        break;
      case Opcode::Xori:
        core.writeReg(inst.rd, rs1() ^ inst.imm);
        break;
      case Opcode::Shli:
        core.writeReg(inst.rd, static_cast<int32_t>(
            static_cast<uint32_t>(rs1()) << (inst.imm & 31)));
        break;
      case Opcode::Shri:
        core.writeReg(inst.rd, static_cast<int32_t>(
            static_cast<uint32_t>(rs1()) >> (inst.imm & 31)));
        break;
      case Opcode::Slti:
        core.writeReg(inst.rd, rs1() < inst.imm ? 1 : 0);
        break;
      case Opcode::Li:
        core.writeReg(inst.rd, inst.imm);
        break;

      case Opcode::Ld: {
        uint32_t addr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        int32_t value;
        res.memAddr = addr;
        if (!ctx.tryRead(addr, value)) {
            res.crash = CrashKind::BadAddress;
            return res;
        }
        core.writeReg(inst.rd, value);
        res.memRead = true;
        break;
      }
      case Opcode::St: {
        uint32_t addr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        res.memAddr = addr;
        if (!ctx.tryWrite(addr, rs2())) {
            res.crash = CrashKind::BadAddress;
            return res;
        }
        res.memWrite = true;
        break;
      }

      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Ble: case Opcode::Bgt: {
        int32_t a = rs1();
        int32_t b = rs2();
        bool taken = false;
        switch (inst.op) {
          case Opcode::Beq: taken = a == b; break;
          case Opcode::Bne: taken = a != b; break;
          case Opcode::Blt: taken = a < b; break;
          case Opcode::Bge: taken = a >= b; break;
          case Opcode::Ble: taken = a <= b; break;
          case Opcode::Bgt: taken = a > b; break;
          default: break;
        }
        if (!validCode(inst.imm)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        res.branch = true;
        res.branchTaken = taken;
        res.branchTarget = static_cast<uint32_t>(inst.imm);
        res.branchFallthrough = core.pc + 1;
        nextPc = taken ? static_cast<uint32_t>(inst.imm) : core.pc + 1;
        break;
      }

      case Opcode::Jmp:
        if (!validCode(inst.imm)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        nextPc = static_cast<uint32_t>(inst.imm);
        break;
      case Opcode::Jal:
        if (!validCode(inst.imm)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        core.writeReg(inst.rd, static_cast<int32_t>(core.pc + 1));
        nextPc = static_cast<uint32_t>(inst.imm);
        break;
      case Opcode::Jr: {
        int32_t target = rs1();
        if (!validCode(target)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        nextPc = static_cast<uint32_t>(target);
        break;
      }

      case Opcode::Alloc: {
        int32_t size = rs1();
        if (size < 0) {
            res.crash = CrashKind::HeapOverflow;
            return res;
        }
        int32_t ptr = ctx.read(isa::Program::heapPtrCell);
        if (ptr < 0 ||
            static_cast<uint64_t>(ptr) + static_cast<uint64_t>(size) >
                layout.heapLimit()) {
            res.crash = CrashKind::HeapOverflow;
            return res;
        }
        ctx.write(isa::Program::heapPtrCell, ptr + size);
        core.writeReg(inst.rd, ptr);
        res.allocated = true;
        res.allocBase = static_cast<uint32_t>(ptr);
        res.allocSize = static_cast<uint32_t>(size);
        res.memRead = res.memWrite = true;
        res.memAddr = isa::Program::heapPtrCell;
        break;
      }

      case Opcode::Chkb:
        res.boundsCheck = true;
        res.checkAddr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        break;

      case Opcode::Assert:
        if (rs1() == 0) {
            res.assertFired = true;
            res.assertId = inst.imm;
        }
        break;

      case Opcode::Regobj:
        // The registry keeps a guard span below every object; a base
        // with no room for it is a bad address, not a host abort.
        if (static_cast<uint32_t>(rs1()) < isa::Program::guardWords) {
            res.crash = CrashKind::BadAddress;
            return res;
        }
        res.registeredObject = true;
        res.objBase = static_cast<uint32_t>(rs1());
        res.objSize = static_cast<uint32_t>(rs2());
        res.objKind = static_cast<isa::ObjectKind>(inst.imm);
        break;
      case Opcode::Unregobj:
        res.unregisteredObject = true;
        res.objBase = static_cast<uint32_t>(rs1());
        break;

      case Opcode::Pfix:
        if (pred)
            core.writeReg(inst.rd, inst.imm);
        break;
      case Opcode::Pfixst:
        if (pred) {
            uint32_t addr =
                static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
            res.memAddr = addr;
            if (!ctx.tryWrite(addr, rs2())) {
                res.crash = CrashKind::BadAddress;
                return res;
            }
            res.memWrite = true;
        }
        break;

      case Opcode::Sys: {
        auto call = static_cast<isa::Syscall>(inst.imm);
        if (call == isa::Syscall::Exit) {
            res.exited = true;
            return res;
        }
        if (!allowIo) {
            // Unsafe event: side effects of an NT-Path cannot escape
            // the sandbox, so the path must be squashed here.
            res.unsafeEvent = true;
            return res;
        }
        switch (call) {
          case isa::Syscall::PrintInt:
            io.printInt(rs1());
            break;
          case isa::Syscall::PrintChar:
            io.printChar(rs1());
            break;
          case isa::Syscall::ReadInt:
          case isa::Syscall::ReadChar:
            core.writeReg(inst.rd, io.readWord());
            break;
          default:
            pe_panic("unknown syscall ", inst.imm, " at pc ", core.pc);
        }
        break;
      }

      default:
        pe_panic("unhandled opcode ", opcodeName(inst.op), " at pc ",
                 core.pc);
    }

    core.pc = nextPc;
    return res;
}

} // namespace pe::sim
