"""Program container and a small assembler-style builder.

A :class:`Program` is an immutable instruction sequence plus the map file
descriptors it references.  The builder methods give canned-program authors
(:mod:`repro.ebpf.stdlib`) an assembler-like surface without string
parsing::

    b = ProgramBuilder("syscall_counter")
    b.ld_ctx(Reg.R6, "syscall_nr")
    b.ld_ctx(Reg.R7, "count")
    b.mov_imm(Reg.R1, counts_fd)
    b.mov_reg(Reg.R2, Reg.R6)
    b.mov_reg(Reg.R3, Reg.R7)
    b.call(Helper.MAP_ADD)
    b.exit(0)
    program = b.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import EbpfError
from repro.ebpf.instructions import Helper, Instruction, Opcode, Reg


@dataclass(frozen=True)
class Program:
    """A verified-or-verifiable eBPF program."""

    name: str
    instructions: Tuple[Instruction, ...]
    map_fds: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def compiled(self):
        """This program compiled to one Python function, built on first use.

        See :func:`repro.ebpf.vm.compile_program`.  The cache lives in
        the instance ``__dict__``, outside the dataclass fields, so
        equality and hashing are unchanged.
        """
        from repro.ebpf.vm import compile_program  # vm imports this module

        return compile_program(self)

    def disassemble(self) -> str:
        """Human-readable listing."""
        lines = [
            f"{index:4d}: {instruction.mnemonic()}"
            for index, instruction in enumerate(self.instructions)
        ]
        return "\n".join(lines)


class ProgramBuilder:
    """Incremental assembler for :class:`Program` objects."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._instructions: List[Instruction] = []
        self._map_fds: Set[int] = set()

    def _emit(self, instruction: Instruction) -> "ProgramBuilder":
        self._instructions.append(instruction)
        return self

    @property
    def position(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    # -- ALU -----------------------------------------------------------
    def mov_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst = imm"""
        return self._emit(Instruction(Opcode.MOV_IMM, dst=dst, imm=imm))

    def mov_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        """dst = src"""
        return self._emit(Instruction(Opcode.MOV_REG, dst=dst, src=src))

    def add_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst += imm"""
        return self._emit(Instruction(Opcode.ADD_IMM, dst=dst, imm=imm))

    def add_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        """dst += src"""
        return self._emit(Instruction(Opcode.ADD_REG, dst=dst, src=src))

    def sub_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst -= imm"""
        return self._emit(Instruction(Opcode.SUB_IMM, dst=dst, imm=imm))

    def mul_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst *= imm"""
        return self._emit(Instruction(Opcode.MUL_IMM, dst=dst, imm=imm))

    def div_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst //= imm (verifier rejects imm == 0)"""
        return self._emit(Instruction(Opcode.DIV_IMM, dst=dst, imm=imm))

    def rsh_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst >>= imm"""
        return self._emit(Instruction(Opcode.RSH_IMM, dst=dst, imm=imm))

    def and_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        """dst &= imm"""
        return self._emit(Instruction(Opcode.AND_IMM, dst=dst, imm=imm))

    # -- Context and control flow --------------------------------------
    def ld_ctx(self, dst: Reg, fieldname: str) -> "ProgramBuilder":
        """dst = ctx.fields[fieldname] (0 when absent)"""
        return self._emit(Instruction(Opcode.LD_CTX, dst=dst, field=fieldname))

    def jmp(self, offset: int) -> "ProgramBuilder":
        """Unconditional forward jump."""
        return self._emit(Instruction(Opcode.JMP, offset=offset))

    def jeq_imm(self, dst: Reg, imm: int, offset: int) -> "ProgramBuilder":
        """if dst == imm: jump"""
        return self._emit(Instruction(Opcode.JEQ_IMM, dst=dst, imm=imm, offset=offset))

    def jne_imm(self, dst: Reg, imm: int, offset: int) -> "ProgramBuilder":
        """if dst != imm: jump"""
        return self._emit(Instruction(Opcode.JNE_IMM, dst=dst, imm=imm, offset=offset))

    def jgt_imm(self, dst: Reg, imm: int, offset: int) -> "ProgramBuilder":
        """if dst > imm: jump"""
        return self._emit(Instruction(Opcode.JGT_IMM, dst=dst, imm=imm, offset=offset))

    def jlt_imm(self, dst: Reg, imm: int, offset: int) -> "ProgramBuilder":
        """if dst < imm: jump"""
        return self._emit(Instruction(Opcode.JLT_IMM, dst=dst, imm=imm, offset=offset))

    def call(self, helper: Helper) -> "ProgramBuilder":
        """Call a kernel helper; args r1..r5, result r0."""
        return self._emit(Instruction(Opcode.CALL, helper=helper))

    def exit(self, code: Optional[int] = None) -> "ProgramBuilder":
        """Return from the program; optionally set r0 = code first."""
        if code is not None:
            self.mov_imm(Reg.R0, code)
        return self._emit(Instruction(Opcode.EXIT))

    # -- Maps -----------------------------------------------------------
    def uses_map(self, fd: int) -> "ProgramBuilder":
        """Declare that the program references map ``fd``."""
        if fd < 0:
            raise EbpfError(f"invalid map fd: {fd}")
        self._map_fds.add(fd)
        return self

    def build(self) -> Program:
        """Freeze into an immutable :class:`Program`."""
        if not self._instructions:
            raise EbpfError(f"program {self._name!r} is empty")
        return Program(
            name=self._name,
            instructions=tuple(self._instructions),
            map_fds=tuple(sorted(self._map_fds)),
        )


def program_from(name: str, instructions: Sequence[Instruction],
                 map_fds: Sequence[int] = ()) -> Program:
    """Construct a program directly from an instruction list."""
    if not instructions:
        raise EbpfError(f"program {name!r} is empty")
    return Program(name=name, instructions=tuple(instructions), map_fds=tuple(map_fds))
