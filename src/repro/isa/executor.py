"""Functional (architectural) executor for the mini ISA.

The pipeline model is *execute-at-fetch*: architectural semantics are resolved
in program order when an instruction is fetched, and the pipeline separately
models timing (dependences, latencies, structural hazards).  This is the
standard structure of trace-driven simulators and is exact for programs
without wrong-path side effects, which we do not model (mispredicted branches
gate fetch instead; see :mod:`repro.pipeline.fetch`).

Data memory is a sparse dictionary; uninitialized loads return zero.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ExecutionError
from .instructions import Instruction
from .program import Program
from .registers import TOTAL_REGS, ZERO_REG


class StepResult(NamedTuple):
    """Outcome of architecturally executing one instruction.

    ``address`` is the effective address for memory operations (else ``None``)
    and ``taken``/``next_pc`` describe control flow.  ``halted`` marks the
    ``halt`` instruction; the PC does not advance past it.
    """

    pc: int
    instruction: Instruction
    address: int | None
    taken: bool
    next_pc: int
    halted: bool = False


#: Row kinds, one per opcode family.  Ordered by how often the kernels run
#: them, which is the order :meth:`ArchExecutor.advance` tests them in.
_ADD, _SUB, _BNE, _LOAD, _NOP, _BR, _BEQ, _BLT, _BGE, _STORE = range(10)
_MUL, _DIV, _AND, _OR, _XOR, _SLL, _SRL, _CMPLT, _MOV, _LI = range(10, 20)
_HALT, _FAULT = 20, 21

_KIND = {
    "addl": _ADD, "addt": _ADD, "subl": _SUB, "subt": _SUB,
    "mull": _MUL, "mult": _MUL, "divt": _DIV,
    "and": _AND, "or": _OR, "xor": _XOR, "sll": _SLL, "srl": _SRL,
    "cmplt": _CMPLT, "mov": _MOV, "li": _LI,
    "ldq": _LOAD, "stq": _STORE,
    "br": _BR, "beq": _BEQ, "bne": _BNE, "blt": _BLT, "bge": _BGE,
    "nop": _NOP, "halt": _HALT,
}

#: Kinds whose only effect is writing ``dest``; with ``$31`` (or no
#: register) as destination they execute as ``nop``.
_WRITE_ONLY = frozenset(
    (_ADD, _SUB, _MUL, _DIV, _AND, _OR, _XOR, _SLL, _SRL, _CMPLT, _MOV, _LI)
)
_BRANCHES = frozenset((_BR, _BEQ, _BNE, _BLT, _BGE))

_MASK64 = (1 << 64) - 1


def _decode(instruction: Instruction, pc: int, name: str) -> tuple:
    """One table row: ``(kind, dest, ra, rb, imm, target)``.

    ``dest`` is -1 when the result is discarded.  ``ra``/``rb`` are the
    register operands (``rb`` -1 selects ``imm`` as the second ALU operand;
    a memory op's absent base reads the zero register).  A row that cannot
    execute is a ``_FAULT`` whose ``imm`` holds the error message, raised
    only if the instruction is reached.
    """
    opcode = instruction.opcode
    kind = _KIND.get(opcode)
    if kind is None:
        return (_FAULT, -1, -1, -1, f"no semantics for opcode {opcode!r}", None)
    dest = instruction.dest
    if dest is None or dest == ZERO_REG:
        dest = -1
    srcs = instruction.srcs
    base = ZERO_REG if instruction.base is None else instruction.base
    imm = instruction.imm
    target = instruction.target
    try:
        if kind in _WRITE_ONLY:
            if dest < 0:
                return (_NOP, -1, -1, -1, 0, None)
            if kind == _LI:
                return (_LI, dest, -1, -1, imm, None)
            rb = srcs[1] if len(srcs) > 1 else -1
            return (kind, dest, srcs[0], rb, imm, None)
        if kind == _LOAD:
            return (_LOAD, dest, base, -1, imm, None)
        if kind == _STORE:
            return (_STORE, -1, srcs[0], base, imm, None)
        if kind in _BRANCHES:
            if target is None:
                message = f"{name}: unresolved branch at PC {pc}"
                return (_FAULT, -1, -1, -1, message, None)
            ra = -1 if kind == _BR else srcs[0]
            return (kind, -1, ra, -1, 0, target)
    except IndexError:
        message = f"{name}: {opcode} at PC {pc} is missing a source register"
        return (_FAULT, -1, -1, -1, message, None)
    return (kind, -1, -1, -1, 0, None)


class ArchExecutor:
    """Architectural state plus a step function for one thread.

    Each static instruction is decoded once into a table row; :meth:`advance`
    executes a row in one flat frame.  ``registers[ZERO_REG]`` stays 0
    because every write to ``$31`` is dropped (at decode, or in
    :meth:`write_register`), so rows read registers directly.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        name = program.name
        #: PC -> decoded row; a PC with no row is outside the program
        self._rows = {
            pc: _decode(instruction, pc, name)
            for pc, instruction in enumerate(program.instructions)
        }
        self.pc = program.entry
        self.registers = [0] * TOTAL_REGS
        self.memory: dict[int, int] = {}
        self.halted = False
        self.instructions_executed = 0

    def read_register(self, reg: int) -> int:
        if reg == ZERO_REG:
            return 0
        return self.registers[reg]

    def write_register(self, reg: int | None, value: int) -> None:
        if reg is None or reg == ZERO_REG:
            return
        self.registers[reg] = value

    def step(self) -> StepResult:
        """Execute the instruction at the current PC and advance."""
        pc = self.pc
        outcome = self.advance()
        instruction = self.program.instructions[pc]
        if outcome is None:
            return StepResult(pc, instruction, None, False, pc, halted=True)
        return StepResult(pc, instruction, *outcome)

    def advance(self) -> tuple[int | None, bool, int] | None:
        """Execute the current instruction; the hot path under :meth:`step`.

        Returns ``(address, taken, next_pc)`` — ``address`` is the effective
        address of a load or store, else ``None`` — or ``None`` when the
        instruction is ``halt`` (the PC then stays on it).
        """
        if self.halted:
            raise ExecutionError(f"{self.program.name}: stepping a halted thread")
        pc = self.pc
        row = self._rows.get(pc)
        if row is None:
            raise ExecutionError(f"{self.program.name}: PC {pc} outside program")
        kind, dest, ra, rb, imm, target = row
        regs = self.registers
        address = None
        taken = False
        next_pc = pc + 1
        if kind == _ADD:
            regs[dest] = regs[ra] + (regs[rb] if rb >= 0 else imm)
        elif kind == _SUB:
            regs[dest] = regs[ra] - (regs[rb] if rb >= 0 else imm)
        elif kind == _BNE:
            if regs[ra] != 0:
                taken = True
                next_pc = target
        elif kind == _LOAD:
            address = regs[ra] + imm
            if dest >= 0:
                regs[dest] = self.memory.get(address, 0)
        elif kind == _NOP:
            pass
        elif kind <= _STORE:
            if kind == _STORE:
                address = regs[rb] + imm
                self.memory[address] = regs[ra]
            elif kind == _BR:
                taken = True
            elif kind == _BEQ:
                taken = regs[ra] == 0
            elif kind == _BLT:
                taken = regs[ra] < 0
            else:
                taken = regs[ra] >= 0
            if taken:
                next_pc = target
        elif kind == _HALT:
            self.halted = True
            self.instructions_executed += 1
            return None
        elif kind == _FAULT:
            raise ExecutionError(imm)
        elif kind == _LI:
            regs[dest] = imm
        elif kind == _MOV:
            regs[dest] = regs[ra]
        else:
            a = regs[ra]
            b = regs[rb] if rb >= 0 else imm
            if kind == _MUL:
                regs[dest] = a * b
            elif kind == _DIV:
                regs[dest] = a // b if b else 0
            elif kind == _AND:
                regs[dest] = a & b
            elif kind == _OR:
                regs[dest] = a | b
            elif kind == _XOR:
                regs[dest] = a ^ b
            elif kind == _SLL:
                regs[dest] = a << (b & 63)
            elif kind == _SRL:
                regs[dest] = (a & _MASK64) >> (b & 63)
            else:
                regs[dest] = 1 if a < b else 0
        self.pc = next_pc
        self.instructions_executed += 1
        return address, taken, next_pc


__all__ = ["ArchExecutor", "StepResult"]
