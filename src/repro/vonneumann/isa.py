"""A small RISC-like instruction set for the von Neumann baselines.

The survey machines of §1.2 are built from "von Neumann style
uniprocessors"; this ISA is the least machinery needed to express their
behaviour faithfully for the paper's two issues:

* ordinary loads/stores that the processor must *wait* for (Issue 1);
* the synchronization primitives the surveyed machines rely on —
  TEST-AND-SET spinlocks (C.mmp/Hydra semaphores), the Ultracomputer's
  FETCH-AND-ADD, and the HEP's full/empty-bit memory operations with
  busy-waiting retry (footnote 2).

Programs are written in a tiny assembly dialect (see
:mod:`repro.vonneumann.assembler`).
"""

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["Op", "Instr", "MEMORY_OPS", "ALU_OPS", "BRANCH_OPS"]


class Op(enum.Enum):
    """Every operation the processors execute."""

    # Members are singletons compared by identity, so identity hashing is
    # consistent with equality; it keeps dict and set lookups keyed by an
    # opcode in C instead of calling Enum.__hash__ (hash of the name).
    __hash__ = object.__hash__

    # register / ALU
    MOVI = "movi"  # rd <- imm
    MOV = "mov"  # rd <- ra
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLT = "slt"  # rd <- (ra < rb)
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    ADDI = "addi"  # rd <- ra + imm
    SUBI = "subi"
    MULI = "muli"
    # memory (address = ra + imm)
    LOAD = "load"
    STORE = "store"
    # atomic read-modify-write (address = ra + imm)
    TESTSET = "testset"  # rd <- mem; mem <- 1
    FAA = "faa"  # rd <- mem; mem <- mem + rb
    # full/empty-bit operations (HEP style; unsatisfied => busy-wait retry)
    READF = "readf"  # wait until full, rd <- mem
    WRITEF = "writef"  # mem <- rd, set full
    # control
    BEQZ = "beqz"
    BNEZ = "bnez"
    BLT = "blt"  # branch if ra < rb
    BGE = "bge"
    BEQ = "beq"
    BNE = "bne"
    JMP = "jmp"
    NOP = "nop"
    HALT = "halt"


#: Operations that issue a request to the memory system.
MEMORY_OPS = frozenset(
    {Op.LOAD, Op.STORE, Op.TESTSET, Op.FAA, Op.READF, Op.WRITEF}
)

#: Pure register-to-register work (one cpu cycle each).
ALU_OPS = frozenset(
    {
        Op.MOVI, Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND,
        Op.OR, Op.XOR, Op.SLT, Op.SLE, Op.SEQ, Op.SNE, Op.ADDI, Op.SUBI,
        Op.MULI, Op.NOP,
    }
)

BRANCH_OPS = frozenset({Op.BEQZ, Op.BNEZ, Op.BLT, Op.BGE, Op.BEQ, Op.BNE, Op.JMP})


@dataclass(frozen=True)
class Instr:
    """One decoded instruction."""

    op: Op
    rd: Optional[int] = None
    ra: Optional[int] = None
    rb: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None  # branch target (resolved statement index)
    label: Optional[str] = None  # original label text, for error messages

    def __repr__(self):
        parts = [self.op.value]
        for name in ("rd", "ra", "rb"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"r{value}")
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)
