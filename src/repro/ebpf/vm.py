"""The eBPF load-time compiler and the VM that runs compiled programs.

Real kernels verify a program once and then hand it to the BPF JIT,
which translates it at load time so that no instruction is decoded
twice.  This module plays the JIT's role: :func:`compile_program`
decodes a program once into threaded code — one Python closure per
instruction, with its registers, immediates, context field and fault
message bound — grouped into basic blocks, and :class:`Vm` runs the
result against a :class:`~repro.simkernel.hooks.HookContext`.

* A run keeps r0..r9 in one list (r1 = 1, the "context pointer"; all
  others 0).  Each block runs its closures in order, then its branch
  picks the next block's start pc.  Every jump is forward, so a run
  visits each block at most once.
* Each block adds its constant length to ``steps``, so
  :attr:`ExecutionResult.steps` and the VM's totals count instructions
  exactly as a per-instruction interpreter would.
* Arithmetic is masked to 64 bits op by op, and runtime faults —
  division by zero, a non-integer context field, a bad map fd, no time
  source, falling off the end of an unverified program — raise the same
  exception with the same message an interpreter would.
* The instruction budget is static: a backward jump or a program longer
  than ``MAX_STEPS`` is refused at compile time, so no compiled program
  can run unbounded.
* Operands must be plain values: ``type(x) is int`` immediates and
  offsets, ``str`` context field names and registers from
  :class:`~repro.ebpf.instructions.Reg` (or their ``int`` numbers).
  Anything else is refused with :class:`VmFault` at compile time.

Compiling costs microseconds per instruction — no Python source is
generated, so nothing is handed to ``compile()`` — which keeps loading
the exporter's programs a small part of deploying a host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import VmFault
from repro.ebpf.instructions import Helper, Instruction, Opcode, Reg
from repro.ebpf.maps import MapRegistry
from repro.ebpf.program import Program
from repro.simkernel.hooks import HookContext

U64_MASK = (1 << 64) - 1
MAX_STEPS = 1 << 16

#: ``fn(ctx, cpu, maps, time_source) -> (r0, steps)``
CompiledProgram = Callable[
    [HookContext, int, MapRegistry, Optional[Callable[[], int]]], Tuple[int, int]
]

#: A compiled instruction: reads and writes the run's register list.
_Op = Callable[[list], None]
#: A block's branch: returns the pc of the next block.
_Branch = Callable[[list], int]

# Slots after r0..r9 in a run's register list.
_CTX, _CPU, _MAPS, _TIME = 10, 11, 12, 13

_REGISTERS = {reg: int(reg) for reg in Reg}


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: int
    steps: int


# ---------------------------------------------------------------------------
# Instruction closures.  Each factory binds one instruction's operands and
# returns ``op(r)``, which updates the run's register list ``r``.
# ---------------------------------------------------------------------------
def _mov_imm(d: int, imm: int) -> _Op:
    value = imm & U64_MASK

    def op(r):
        r[d] = value
    return op


def _add_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = (r[d] + imm) & U64_MASK
    return op


def _sub_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = (r[d] - imm) & U64_MASK
    return op


def _mul_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = (r[d] * imm) & U64_MASK
    return op


def _div_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = r[d] // imm
    return op


def _and_imm(d: int, imm: int) -> _Op:
    # (d & imm) & mask == d & (imm & mask): folded at compile time.
    value = imm & U64_MASK

    def op(r):
        r[d] = r[d] & value
    return op


def _or_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = (r[d] | imm) & U64_MASK
    return op


def _rsh_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = r[d] >> imm
    return op


def _lsh_imm(d: int, imm: int) -> _Op:
    def op(r):
        r[d] = (r[d] << imm) & U64_MASK
    return op


def _mov_reg(d: int, s: int) -> _Op:
    def op(r):
        r[d] = r[s]
    return op


def _add_reg(d: int, s: int) -> _Op:
    def op(r):
        r[d] = (r[d] + r[s]) & U64_MASK
    return op


def _sub_reg(d: int, s: int) -> _Op:
    def op(r):
        r[d] = (r[d] - r[s]) & U64_MASK
    return op


def _mul_reg(d: int, s: int) -> _Op:
    def op(r):
        r[d] = (r[d] * r[s]) & U64_MASK
    return op


def _div_reg(d: int, s: int, message: str) -> _Op:
    def op(r):
        divisor = r[s]
        if divisor == 0:
            raise VmFault(message)
        r[d] = r[d] // divisor
    return op


def _ld_ctx(d: int, field: str, message: str) -> _Op:
    if field == "count":
        def op(r):
            value = r[_CTX].count
            if not isinstance(value, int):
                raise VmFault(message)
            r[d] = value & U64_MASK
    else:
        def op(r):
            value = r[_CTX].fields.get(field, 0)
            if not isinstance(value, int):
                raise VmFault(message)
            r[d] = value & U64_MASK
    return op


def _map_lookup(r: list) -> None:
    value = r[_MAPS].get(r[1]).lookup(r[2])
    r[0] = 0 if value is None else value & U64_MASK


# Both write helpers land in the running CPU's per-CPU shard.
def _map_update(r: list) -> None:
    bpf_map = r[_MAPS].get(r[1])
    if hasattr(bpf_map, "current_cpu"):
        bpf_map.current_cpu = r[_CPU]
    bpf_map.update(r[2], r[3])
    r[0] = 0


def _map_add(r: list) -> None:
    bpf_map = r[_MAPS].get(r[1])
    if hasattr(bpf_map, "current_cpu"):
        bpf_map.current_cpu = r[_CPU]
    r[0] = bpf_map.add(r[2], r[3]) & U64_MASK


def _get_current_pid(r: list) -> None:
    pid = r[_CTX].fields.get("pid", 0)
    r[0] = int(pid) & U64_MASK if isinstance(pid, int) else 0


def _ktime_get_ns(message: str) -> _Op:
    def op(r):
        time_source = r[_TIME]
        if time_source is None:
            raise VmFault(message)
        r[0] = int(time_source()) & U64_MASK
    return op


def _fault(message: str) -> _Op:
    def op(r):
        raise VmFault(message)
    return op


# ---------------------------------------------------------------------------
# Branches: ``branch(r)`` returns the pc of the next block.
# ---------------------------------------------------------------------------
def _jeq(d: int, v: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] == v else follow


def _jne(d: int, v: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] != v else follow


def _jgt(d: int, v: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] > v else follow


def _jlt(d: int, v: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] < v else follow


def _jeq_reg(d: int, s: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] == r[s] else follow


def _jne_reg(d: int, s: int, target: int, follow: int) -> _Branch:
    return lambda r: target if r[d] != r[s] else follow


def _goto(target: int) -> _Branch:
    return lambda r: target


# How each opcode's operands are decoded, and its closure factory.  The
# three jump kinds come last: ``kind >= _JMP`` marks a jump.
_ALU_IMM, _ALU_REG, _DIV_REG, _LD_CTX, _CALL, _EXIT, _JMP, _JUMP_IMM, _JUMP_REG = range(9)
_DECODE = {
    Opcode.MOV_IMM: (_ALU_IMM, _mov_imm),
    Opcode.ADD_IMM: (_ALU_IMM, _add_imm),
    Opcode.SUB_IMM: (_ALU_IMM, _sub_imm),
    Opcode.MUL_IMM: (_ALU_IMM, _mul_imm),
    Opcode.DIV_IMM: (_ALU_IMM, _div_imm),
    Opcode.AND_IMM: (_ALU_IMM, _and_imm),
    Opcode.OR_IMM: (_ALU_IMM, _or_imm),
    Opcode.RSH_IMM: (_ALU_IMM, _rsh_imm),
    Opcode.LSH_IMM: (_ALU_IMM, _lsh_imm),
    Opcode.MOV_REG: (_ALU_REG, _mov_reg),
    Opcode.ADD_REG: (_ALU_REG, _add_reg),
    Opcode.SUB_REG: (_ALU_REG, _sub_reg),
    Opcode.MUL_REG: (_ALU_REG, _mul_reg),
    Opcode.DIV_REG: (_DIV_REG, _div_reg),
    Opcode.LD_CTX: (_LD_CTX, _ld_ctx),
    Opcode.CALL: (_CALL, None),
    Opcode.EXIT: (_EXIT, None),
    Opcode.JMP: (_JMP, _goto),
    Opcode.JEQ_IMM: (_JUMP_IMM, _jeq),
    Opcode.JNE_IMM: (_JUMP_IMM, _jne),
    Opcode.JGT_IMM: (_JUMP_IMM, _jgt),
    Opcode.JLT_IMM: (_JUMP_IMM, _jlt),
    Opcode.JEQ_REG: (_JUMP_REG, _jeq_reg),
    Opcode.JNE_REG: (_JUMP_REG, _jne_reg),
}

#: Helpers that need nothing bound are their own closures.
_HELPERS = {
    Helper.MAP_LOOKUP: _map_lookup,
    Helper.MAP_UPDATE: _map_update,
    Helper.MAP_ADD: _map_add,
    Helper.GET_CURRENT_PID: _get_current_pid,
}


class _Compiler:
    """Checks one program's operands and decodes them into closures."""

    def __init__(self, program: Program) -> None:
        self.name = program.name

    def reg(self, value: object, pc: int) -> int:
        index = _REGISTERS.get(value) if type(value) in (Reg, int) else None
        if index is None:
            raise VmFault(
                f"{self.name}:{pc}: operand of type {type(value).__name__} "
                f"is not a register"
            )
        return index

    def integer(self, value: object, pc: int, what: str = "immediate") -> int:
        if type(value) is not int:
            raise VmFault(
                f"{self.name}:{pc}: {what} of type {type(value).__name__} "
                f"is not an integer"
            )
        return value

    def op(self, pc: int, ins: Instruction, kind: Optional[int], factory) -> _Op:
        """The closure for one instruction that is not a jump or EXIT."""
        if kind == _ALU_IMM:
            return factory(self.reg(ins.dst, pc), self.integer(ins.imm, pc))
        if kind == _ALU_REG:
            return factory(self.reg(ins.dst, pc), self.reg(ins.src, pc))
        if kind == _DIV_REG:
            return factory(
                self.reg(ins.dst, pc), self.reg(ins.src, pc),
                f"{self.name}:{pc}: division by zero",
            )
        if kind == _LD_CTX:
            d = self.reg(ins.dst, pc)
            field = ins.field
            if type(field) is not str:
                raise VmFault(
                    f"{self.name}:{pc}: context field of type "
                    f"{type(field).__name__} is not a string"
                )
            return factory(
                d, field, f"{self.name}:{pc}: context field {field!r} is not an integer"
            )
        if kind == _CALL:
            helper = ins.helper
            if helper is Helper.KTIME_GET_NS:
                return _ktime_get_ns(f"{self.name}:{pc}: no time source configured")
            op = _HELPERS.get(helper) if type(helper) is Helper else None
            if op is None:
                return _fault(f"{self.name}:{pc}: unknown helper {helper}")
            return op
        return _fault(f"{self.name}:{pc}: unimplemented opcode {ins.opcode}")

    def branch(self, pc: int, ins: Instruction, kind: int, factory, target: int) -> _Branch:
        """The closure that picks the next pc after the jump at ``pc``."""
        if kind == _JMP:
            return factory(target)
        d = self.reg(ins.dst, pc)
        if kind == _JUMP_REG:
            return factory(d, self.reg(ins.src, pc), target, pc + 1)
        return factory(d, self.integer(ins.imm, pc) & U64_MASK, target, pc + 1)


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` into one Python function.

    The result is called as ``fn(ctx, cpu, maps, time_source)`` and
    returns ``(r0, steps)``.  Raises :class:`VmFault` for a program no
    bounded function can represent (a backward jump, more than
    ``MAX_STEPS`` instructions) and for operands that are not plain
    integers, ``str`` field names or registers.
    """
    name = program.name
    instructions = program.instructions
    length = len(instructions)
    if length > MAX_STEPS:
        raise VmFault(
            f"{name}: too long to compile ({length} > {MAX_STEPS} instructions)"
        )
    compiler = _Compiler(program)
    decoded = [
        _DECODE[ins.opcode] if type(ins.opcode) is Opcode else (None, None)
        for ins in instructions
    ]

    # Block leaders: the entry, every jump target and every instruction
    # after a jump or EXIT.
    targets = {}
    leaders = {0}
    for pc, (kind, _factory) in enumerate(decoded):
        if kind is not None and kind >= _JMP:
            offset = compiler.integer(instructions[pc].offset, pc, "jump offset")
            if offset < 0:
                raise VmFault(f"{name}:{pc}: backward jump (loops cannot be compiled)")
            targets[pc] = pc + 1 + offset
            leaders.update((pc + 1, pc + 1 + offset))
        elif kind == _EXIT:
            leaders.add(pc + 1)
    starts = sorted(pc for pc in leaders if pc < length)

    # start pc -> (length, body closures, branch); branch None means EXIT.
    blocks = {}
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else length
        body = [
            compiler.op(pc, instructions[pc], *decoded[pc]) for pc in range(start, end - 1)
        ]
        last = end - 1
        kind, factory = decoded[last]
        if kind == _EXIT:
            branch = None
        elif last in targets:
            branch = compiler.branch(last, instructions[last], kind, factory, targets[last])
        else:
            body.append(compiler.op(last, instructions[last], kind, factory))
            branch = _goto(end)  # fall into the next block
        blocks[start] = (end - start, tuple(body), branch)

    budget = f"{name}: instruction budget exceeded"
    out_of_bounds = f"{name}: pc out of bounds at "
    visits = range(len(blocks))

    def run(ctx, cpu, maps, time_source):
        r = [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, ctx, cpu, maps, time_source]
        pc = steps = 0
        # Every jump is forward, so a run visits each block at most once.
        for _ in visits:
            block = blocks.get(pc)
            if block is None:
                break
            size, body, branch = block
            steps += size
            for op in body:
                op(r)
            if branch is None:
                return r[0], steps
            pc = branch(r)
        # Only an unverified program gets here: it fell off the end or
        # jumped past it.  A forward-only program of at most MAX_STEPS
        # instructions exhausts the budget only here, too.
        if steps >= MAX_STEPS:
            raise VmFault(budget)
        raise VmFault(f"{out_of_bounds}{pc}")

    return run


class Vm:
    """Runs compiled programs against a map registry and a time source."""

    def __init__(self, maps: MapRegistry, time_source=None) -> None:
        self._maps = maps
        self._time_source = time_source  # callable -> now_ns, for KTIME_GET_NS
        self.total_steps = 0
        self.total_runs = 0

    def run(self, program: Program, ctx: HookContext, cpu: int = 0) -> ExecutionResult:
        """Execute ``program`` once against ``ctx`` (compiling it on first use)."""
        return_value, steps = program.compiled(ctx, cpu, self._maps, self._time_source)
        self.total_steps += steps
        self.total_runs += 1
        return ExecutionResult(return_value=return_value, steps=steps)
