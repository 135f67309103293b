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
from .instructions import Instruction, OpClass
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


class ArchExecutor:
    """Architectural state plus a step function for one thread."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: each static instruction's class, decoded once (indexed by PC)
        self._opclasses = [
            instruction.opclass for instruction in program.instructions
        ]
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
        if self.halted:
            raise ExecutionError(f"{self.program.name}: stepping a halted thread")
        pc = self.pc
        instruction = self.program.at(pc)
        result = self._execute(pc, instruction, self._opclasses[pc])
        self.pc = result.next_pc
        self.halted = result.halted
        self.instructions_executed += 1
        return result

    # -- semantics ---------------------------------------------------------

    def _execute(
        self, pc: int, instruction: Instruction, opclass: OpClass
    ) -> StepResult:
        next_pc = pc + 1

        if opclass is OpClass.LOAD:
            address = self._effective_address(instruction)
            self.write_register(instruction.dest, self.memory.get(address, 0))
            return StepResult(pc, instruction, address, False, next_pc)

        if opclass is OpClass.STORE:
            address = self._effective_address(instruction)
            self.memory[address] = self.read_register(instruction.srcs[0])
            return StepResult(pc, instruction, address, False, next_pc)

        if opclass is OpClass.BRANCH:
            taken = self._branch_taken(instruction)
            if instruction.target is None:
                raise ExecutionError(
                    f"{self.program.name}: unresolved branch at PC {pc}"
                )
            target = instruction.target if taken else next_pc
            return StepResult(pc, instruction, None, taken, target)

        if instruction.opcode == "halt":
            return StepResult(pc, instruction, None, False, pc, halted=True)

        if opclass is not OpClass.NOP:
            self.write_register(instruction.dest, self._alu(instruction))
        return StepResult(pc, instruction, None, False, next_pc)

    def _effective_address(self, instruction: Instruction) -> int:
        if instruction.base is None:
            return instruction.imm
        return self.read_register(instruction.base) + instruction.imm

    def _operands(self, instruction: Instruction) -> tuple[int, int]:
        a = self.read_register(instruction.srcs[0])
        if len(instruction.srcs) > 1:
            return a, self.read_register(instruction.srcs[1])
        return a, instruction.imm

    def _alu(self, instruction: Instruction) -> int:
        opcode = instruction.opcode
        if opcode == "li":
            return instruction.imm
        if opcode == "mov":
            return self.read_register(instruction.srcs[0])
        a, b = self._operands(instruction)
        if opcode == "addl" or opcode == "addt":
            return a + b
        if opcode == "subl" or opcode == "subt":
            return a - b
        if opcode == "mull" or opcode == "mult":
            return a * b
        if opcode == "divt":
            return a // b if b else 0
        if opcode == "and":
            return a & b
        if opcode == "or":
            return a | b
        if opcode == "xor":
            return a ^ b
        if opcode == "sll":
            return a << (b & 63)
        if opcode == "srl":
            return (a & ((1 << 64) - 1)) >> (b & 63)
        if opcode == "cmplt":
            return 1 if a < b else 0
        raise ExecutionError(f"no semantics for opcode {opcode!r}")

    def _branch_taken(self, instruction: Instruction) -> bool:
        opcode = instruction.opcode
        if opcode == "br":
            return True
        value = self.read_register(instruction.srcs[0])
        if opcode == "beq":
            return value == 0
        if opcode == "bne":
            return value != 0
        if opcode == "blt":
            return value < 0
        if opcode == "bge":
            return value >= 0
        raise ExecutionError(f"no semantics for branch {opcode!r}")


__all__ = ["ArchExecutor", "StepResult"]

