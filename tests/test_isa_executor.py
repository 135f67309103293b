"""Functional executor tests: semantics, control flow, memory, halting."""

import pytest

from repro.errors import ExecutionError
from repro.isa import OPCODES, ArchExecutor, Instruction, Program, assemble
from repro.isa.registers import FP_BASE, ZERO_REG
from repro.workloads.program_source import THREAD_REGION_BYTES, ProgramSource


def run_to_halt(source, max_steps=10_000):
    executor = ArchExecutor(assemble(source))
    steps = 0
    while not executor.halted and steps < max_steps:
        executor.step()
        steps += 1
    assert executor.halted, "program did not halt"
    return executor


#: (opcode, a, b, result) for ``op $3, $1, $2`` after ``li $1, a; li $2, b``.
BINARY_OPS = [
    ("subl", 9, 4, 5),
    ("mull", 6, 7, 42),
    ("and", 0b1100, 0b1010, 0b1000),
    ("or", 0b1100, 0b1010, 0b1110),
    ("xor", 0b1100, 0b1010, 0b0110),
    ("sll", 3, 2, 12),
    ("srl", 12, 2, 3),
    ("cmplt", 3, 5, 1),
    ("cmplt", 5, 3, 0),
    ("sll", 3, 66, 12),  # the shift amount is taken mod 64
    # srl shifts the 64-bit pattern logically, not arithmetically
    ("srl", -16, 60, 0xF),
    ("srl", -1, 1, (1 << 63) - 1),
    ("addt", 5, 7, 12),
    ("subt", 5, 7, -2),
    ("mult", 6, 7, 42),
    ("divt", 42, 5, 8),
    ("divt", -7, 2, -4),
    ("divt", 42, 0, 0),  # divide by zero yields 0 rather than trapping
]

#: Runs every mnemonic BINARY_OPS leaves out.
OTHER_OPS = """
    li $1, 5
    li $2, 0x100
    mov $3, $1
    addl $3, $3, 1
    nop
    stq $3, 8($2)
    ldq $4, 8($2)
    br a
a:  beq $31, b
b:  bne $1, c
c:  bge $1, d
d:  blt $1, e
e:  halt
"""


def binary_program(op, a, b):
    return f"li $1, {a}\nli $2, {b}\n{op} $3, $1, $2\nhalt"


class TestCoverage:
    def test_every_opcode_is_executed(self):
        executed = set()
        for source in [binary_program(*case[:3]) for case in BINARY_OPS] + [OTHER_OPS]:
            executor = ArchExecutor(assemble(source))
            while not executor.halted:
                executed.add(executor.step().instruction.opcode)
        assert executed == set(OPCODES)

    def test_other_ops_program(self):
        executor = run_to_halt(OTHER_OPS)
        assert executor.registers[3] == 6
        assert executor.registers[4] == 6
        assert executor.memory == {0x108: 6}


class TestArithmetic:
    def test_add_chain(self):
        executor = run_to_halt("li $1, 5\nli $2, 7\naddl $3, $1, $2\nhalt")
        assert executor.registers[3] == 12

    def test_immediate_form(self):
        executor = run_to_halt("li $1, 5\naddl $2, $1, 10\nhalt")
        assert executor.registers[2] == 15

    @pytest.mark.parametrize("op,a,b,expected", BINARY_OPS)
    def test_binary_ops(self, op, a, b, expected):
        executor = run_to_halt(binary_program(op, a, b))
        assert executor.registers[3] == expected

    def test_immediate_second_operand(self):
        executor = run_to_halt("li $1, 9\nsubl $2, $1, 12\ndivt $3, $1, 0\nhalt")
        assert executor.registers[2] == -3
        assert executor.registers[3] == 0

    def test_fp_registers(self):
        executor = run_to_halt("li $f1, 6\nli $f2, 7\nmult $f3, $f1, $f2\nhalt")
        assert executor.registers[FP_BASE + 3] == 42

    def test_zero_register_reads_zero(self):
        executor = run_to_halt("li $31, 99\naddl $1, $31, 1\nhalt")
        assert executor.read_register(ZERO_REG) == 0
        assert executor.registers[1] == 1

    @pytest.mark.parametrize(
        "source",
        [
            "li $31, 99\nhalt",
            "li $1, 4\naddl $31, $1, $1\nhalt",
            "li $1, 4\nmov $31, $1\nhalt",
            "li $1, 5\nstq $1, 0x80\nldq $31, 0x80\nhalt",
        ],
    )
    def test_zero_register_writes_dropped(self, source):
        executor = run_to_halt(source)
        assert executor.registers[ZERO_REG] == 0
        assert executor.read_register(ZERO_REG) == 0

    def test_load_into_zero_register_still_reports_address(self):
        executor = ArchExecutor(assemble("li $2, 0x80\nldq $31, 8($2)\nhalt"))
        executor.step()
        assert executor.step().address == 0x88
        assert executor.registers[ZERO_REG] == 0

    def test_mov_copies(self):
        executor = run_to_halt("li $1, 42\nmov $2, $1\nhalt")
        assert executor.registers[2] == 42


class TestControlFlow:
    def test_counted_loop(self):
        executor = run_to_halt(
            """
                li $1, 0
                li $2, 5
            loop:
                addl $1, $1, 1
                subl $2, $2, 1
                bne $2, loop
                halt
            """
        )
        assert executor.registers[1] == 5

    def test_beq_not_taken_falls_through(self):
        executor = run_to_halt("li $1, 1\nbeq $1, skip\nli $2, 7\nskip: halt")
        assert executor.registers[2] == 7

    def test_beq_taken_skips(self):
        executor = run_to_halt("li $1, 0\nbeq $1, skip\nli $2, 7\nskip: halt")
        assert executor.registers[2] == 0

    def test_blt_bge(self):
        executor = run_to_halt(
            "li $1, -3\nblt $1, neg\nli $2, 1\nhalt\nneg: li $2, 2\nhalt"
        )
        assert executor.registers[2] == 2

    @pytest.mark.parametrize(
        "op,value,taken",
        [
            ("beq", 0, True), ("beq", 1, False),
            ("bne", 1, True), ("bne", 0, False),
            ("blt", -1, True), ("blt", 0, False),
            ("bge", 0, True), ("bge", -1, False),
        ],
    )
    def test_conditional_branches(self, op, value, taken):
        executor = ArchExecutor(assemble(f"li $1, {value}\n{op} $1, skip\nnop\nskip: halt"))
        executor.step()
        result = executor.step()
        assert result.taken is taken
        assert result.next_pc == (3 if taken else 2)

    def test_step_result_reports_taken_and_next_pc(self):
        executor = ArchExecutor(assemble("br target\nnop\ntarget: halt"))
        result = executor.step()
        assert result.taken is True
        assert result.next_pc == 2


class TestMemory:
    def test_store_then_load(self):
        executor = run_to_halt(
            "li $1, 123\nli $2, 0x100\nstq $1, 0($2)\nldq $3, 0($2)\nhalt"
        )
        assert executor.registers[3] == 123

    def test_uninitialized_load_returns_zero(self):
        executor = run_to_halt("ldq $1, 0x500\nhalt")
        assert executor.registers[1] == 0

    def test_effective_address_base_plus_displacement(self):
        executor = ArchExecutor(assemble("li $2, 0x100\nldq $1, 8($2)\nhalt"))
        executor.step()
        result = executor.step()
        assert result.address == 0x108

    def test_negative_effective_address(self):
        executor = ArchExecutor(assemble("li $2, 0\nldq $1, -8($2)\nhalt"))
        executor.step()
        assert executor.step().address == -8

    def test_store_with_base_writes_memory(self):
        executor = run_to_halt("li $1, 5\nli $2, 0x200\nstq $1, 16($2)\nhalt")
        assert executor.memory == {0x210: 5}

    def test_program_source_relocates_negative_address(self):
        source = ProgramSource(assemble("li $2, 0\nldq $1, -8($2)\nhalt"), 1)
        source.next_uop()
        uop = source.next_uop()
        assert uop.address == THREAD_REGION_BYTES - 8
        assert source.next_uop() is None

    def test_absolute_address(self):
        executor = ArchExecutor(assemble("ldq $1, 0x4000\nhalt"))
        assert executor.step().address == 0x4000


class TestHalting:
    def test_halt_sets_flag_and_freezes_pc(self):
        executor = ArchExecutor(assemble("halt"))
        result = executor.step()
        assert result.halted is True
        assert executor.halted is True

    def test_stepping_after_halt_raises(self):
        executor = ArchExecutor(assemble("halt"))
        executor.step()
        with pytest.raises(ExecutionError):
            executor.step()

    def test_pc_out_of_range_raises(self):
        executor = ArchExecutor(assemble("nop"))
        executor.step()
        with pytest.raises(ExecutionError):
            executor.step()

    def test_instruction_count(self):
        executor = run_to_halt("nop\nnop\nhalt")
        assert executor.instructions_executed == 3


class TestDeferredErrors:
    """Bad instructions raise ExecutionError when executed, not at decode."""

    def bad_program(self, bad: Instruction) -> Program:
        # li; br over the bad instruction; bad; halt
        return Program(
            [
                Instruction("li", dest=1, imm=3),
                Instruction("br", target=3),
                bad,
                Instruction("halt"),
            ],
            name="bad",
        )

    BAD = [
        (Instruction("frob", dest=1, srcs=(2, 3)), "no semantics for opcode 'frob'"),
        (Instruction("bne", srcs=(1,)), "unresolved branch at PC 2"),
        (Instruction("br"), "unresolved branch at PC 2"),
        (Instruction("addl", dest=1), "missing a source register"),
    ]

    @pytest.mark.parametrize("bad,message", BAD)
    def test_unreached_bad_instruction_runs(self, bad, message):
        executor = ArchExecutor(self.bad_program(bad))
        while not executor.halted:
            executor.step()
        assert executor.registers[1] == 3

    @pytest.mark.parametrize("bad,message", BAD)
    def test_reached_bad_instruction_raises(self, bad, message):
        executor = ArchExecutor(Program([Instruction("nop")] * 2 + [bad], name="bad"))
        executor.step()
        executor.step()
        with pytest.raises(ExecutionError, match=message):
            executor.step()
        assert executor.pc == 2
        assert executor.instructions_executed == 2

    @pytest.mark.parametrize("bad,message", BAD)
    def test_program_source_defers_too(self, bad, message):
        source = ProgramSource(self.bad_program(bad), 0)
        while source.next_uop() is not None:
            pass
        source = ProgramSource(Program([Instruction("nop")] * 2 + [bad], name="bad"), 0)
        source.next_uop()
        source.next_uop()
        with pytest.raises(ExecutionError, match=message):
            source.next_uop()

    def test_entry_outside_program_raises_on_step(self):
        executor = ArchExecutor(Program([Instruction("halt")], name="bad", entry=5))
        with pytest.raises(ExecutionError, match="PC 5 outside program"):
            executor.step()

    def test_negative_pc_is_outside_program(self):
        executor = ArchExecutor(Program([Instruction("halt")], name="bad", entry=-1))
        with pytest.raises(ExecutionError, match="PC -1 outside program"):
            executor.step()

    def test_branch_to_outside_raises_on_arrival(self):
        executor = ArchExecutor(
            Program([Instruction("br", target=7), Instruction("halt")], name="bad")
        )
        assert executor.step().next_pc == 7
        with pytest.raises(ExecutionError, match="PC 7 outside program"):
            executor.step()

    def test_halted_message(self):
        executor = ArchExecutor(Program([Instruction("halt")], name="bad"))
        executor.step()
        with pytest.raises(ExecutionError, match="stepping a halted thread"):
            executor.step()
