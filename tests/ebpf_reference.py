"""Per-instruction reference interpreter for the eBPF VM.

Production compiles each program once into threaded code, one closure
per instruction (:func:`repro.ebpf.vm.compile_program`).  This is the interpreter that
path replaced: it fetches, decodes and dispatches one instruction at a
time, with a run-time instruction budget.  The differential tests hold
the compiled path equal to it on return values, step counts, VM totals,
map contents and faults.
"""

from repro.errors import VmFault
from repro.ebpf.instructions import Helper, Instruction, NUM_REGISTERS, Opcode, Reg
from repro.ebpf.program import Program
from repro.ebpf.vm import MAX_STEPS, U64_MASK, ExecutionResult, Vm
from repro.simkernel.hooks import HookContext


class ReferenceVm(Vm):
    """A :class:`Vm` whose ``run`` interprets instruction by instruction."""

    def run(self, program, ctx, cpu=0):
        """Execute ``program`` once against ``ctx``."""
        regs = [0] * NUM_REGISTERS
        regs[Reg.R1] = 1  # the "context pointer"; field access goes via LD_CTX
        instructions = program.instructions
        length = len(instructions)
        pc = 0
        steps = 0

        while True:
            if steps >= MAX_STEPS:
                raise VmFault(f"{program.name}: instruction budget exceeded")
            if not 0 <= pc < length:
                raise VmFault(f"{program.name}: pc out of bounds at {pc}")
            instruction = instructions[pc]
            steps += 1
            opcode = instruction.opcode

            if opcode is Opcode.EXIT:
                self.total_steps += steps
                self.total_runs += 1
                return ExecutionResult(return_value=regs[Reg.R0], steps=steps)

            if opcode is Opcode.MOV_IMM:
                regs[instruction.dst] = instruction.imm & U64_MASK
            elif opcode is Opcode.MOV_REG:
                regs[instruction.dst] = regs[instruction.src]
            elif opcode is Opcode.ADD_IMM:
                regs[instruction.dst] = (regs[instruction.dst] + instruction.imm) & U64_MASK
            elif opcode is Opcode.ADD_REG:
                regs[instruction.dst] = (regs[instruction.dst] + regs[instruction.src]) & U64_MASK
            elif opcode is Opcode.SUB_IMM:
                regs[instruction.dst] = (regs[instruction.dst] - instruction.imm) & U64_MASK
            elif opcode is Opcode.SUB_REG:
                regs[instruction.dst] = (regs[instruction.dst] - regs[instruction.src]) & U64_MASK
            elif opcode is Opcode.MUL_IMM:
                regs[instruction.dst] = (regs[instruction.dst] * instruction.imm) & U64_MASK
            elif opcode is Opcode.MUL_REG:
                regs[instruction.dst] = (regs[instruction.dst] * regs[instruction.src]) & U64_MASK
            elif opcode is Opcode.DIV_IMM:
                regs[instruction.dst] = regs[instruction.dst] // instruction.imm
            elif opcode is Opcode.DIV_REG:
                divisor = regs[instruction.src]
                if divisor == 0:
                    raise VmFault(f"{program.name}:{pc}: division by zero")
                regs[instruction.dst] = regs[instruction.dst] // divisor
            elif opcode is Opcode.AND_IMM:
                regs[instruction.dst] = regs[instruction.dst] & instruction.imm & U64_MASK
            elif opcode is Opcode.OR_IMM:
                regs[instruction.dst] = (regs[instruction.dst] | instruction.imm) & U64_MASK
            elif opcode is Opcode.RSH_IMM:
                regs[instruction.dst] = regs[instruction.dst] >> instruction.imm
            elif opcode is Opcode.LSH_IMM:
                regs[instruction.dst] = (regs[instruction.dst] << instruction.imm) & U64_MASK
            elif opcode is Opcode.LD_CTX:
                value = ctx.get(instruction.field, 0)
                if instruction.field == "count":
                    value = ctx.count
                if not isinstance(value, int):
                    raise VmFault(
                        f"{program.name}:{pc}: context field "
                        f"{instruction.field!r} is not an integer"
                    )
                regs[instruction.dst] = value & U64_MASK
            elif opcode is Opcode.JMP:
                pc += 1 + instruction.offset
                continue
            elif opcode is Opcode.JEQ_IMM:
                if regs[instruction.dst] == (instruction.imm & U64_MASK):
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JNE_IMM:
                if regs[instruction.dst] != (instruction.imm & U64_MASK):
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JGT_IMM:
                if regs[instruction.dst] > (instruction.imm & U64_MASK):
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JLT_IMM:
                if regs[instruction.dst] < (instruction.imm & U64_MASK):
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JEQ_REG:
                if regs[instruction.dst] == regs[instruction.src]:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JNE_REG:
                if regs[instruction.dst] != regs[instruction.src]:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.CALL:
                self._call_helper(program, pc, instruction, regs, ctx, cpu)
            else:  # pragma: no cover - exhaustive over Opcode
                raise VmFault(f"{program.name}:{pc}: unimplemented opcode {opcode}")

            pc += 1

    def _call_helper(
        self,
        program: Program,
        pc: int,
        instruction: Instruction,
        regs,
        ctx: HookContext,
        cpu: int,
    ) -> None:
        helper = instruction.helper
        if helper is Helper.MAP_LOOKUP:
            bpf_map = self._maps.get(regs[Reg.R1])
            value = bpf_map.lookup(regs[Reg.R2])
            regs[Reg.R0] = 0 if value is None else value & U64_MASK
        elif helper is Helper.MAP_UPDATE:
            bpf_map = self._maps.get(regs[Reg.R1])
            if hasattr(bpf_map, "current_cpu"):
                bpf_map.current_cpu = cpu
            bpf_map.update(regs[Reg.R2], regs[Reg.R3])
            regs[Reg.R0] = 0
        elif helper is Helper.MAP_ADD:
            bpf_map = self._maps.get(regs[Reg.R1])
            if hasattr(bpf_map, "current_cpu"):
                bpf_map.current_cpu = cpu
            regs[Reg.R0] = bpf_map.add(regs[Reg.R2], regs[Reg.R3]) & U64_MASK
        elif helper is Helper.KTIME_GET_NS:
            if self._time_source is None:
                raise VmFault(f"{program.name}:{pc}: no time source configured")
            regs[Reg.R0] = int(self._time_source()) & U64_MASK
        elif helper is Helper.GET_CURRENT_PID:
            pid = ctx.get("pid", 0)
            regs[Reg.R0] = int(pid) & U64_MASK if isinstance(pid, int) else 0
        else:  # pragma: no cover - verifier rejects unknown helpers
            raise VmFault(f"{program.name}:{pc}: unknown helper {helper}")
