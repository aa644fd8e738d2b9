"""The load-time eBPF compiler against the reference interpreter.

:class:`repro.ebpf.vm.Vm` runs each program through the threaded code
:func:`repro.ebpf.vm.compile_program` built for it once;
:class:`tests.ebpf_reference.ReferenceVm` interprets it instruction by
instruction.  Every comparison here runs both on identical maps and
demands equal return values, step counts, VM totals, map contents and
faults (same type, same message).
"""

import builtins
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.attach import EbpfRuntime
from repro.ebpf.instructions import JUMP_OPS, Helper, Instruction, Opcode, Reg
from repro.ebpf.maps import (
    ArrayMap,
    HashMap,
    LruHashMap,
    MapRegistry,
    PerCpuHashMap,
    RingBufferMap,
)
from repro.ebpf.program import ProgramBuilder, program_from
from repro.ebpf.stdlib import (
    counter_program,
    log2_histogram_program,
    pid_attributed_counter_program,
)
from repro.ebpf.vm import MAX_STEPS, U64_MASK, Vm, compile_program
from repro.errors import VmFault
from repro.exporters.ebpf_exporter import EbpfExporter, EbpfExporterConfig
from repro.simkernel.hooks import HookContext
from repro.simkernel.kernel import Kernel

from tests.ebpf_reference import ReferenceVm

TIME_NS = 987_654_321


def _fresh_maps():
    """One map of every type, at fds 3..7, small enough to fill up."""
    registry = MapRegistry()
    for bpf_map in (
        HashMap("hash", max_entries=4),
        ArrayMap("array", max_entries=4),
        PerCpuHashMap("percpu", max_entries=3, num_cpus=4),
        LruHashMap("lru", max_entries=3),
        RingBufferMap("ring", max_entries=3),
    ):
        registry.create(bpf_map)
    return registry


MAP_FDS = (3, 4, 5, 6, 7)


def _map_state(registry):
    """Everything a run can change in the registry's maps."""
    state = []
    for fd in MAP_FDS:
        bpf_map = registry.get(fd)
        entry = [list(bpf_map.items())]
        if isinstance(bpf_map, PerCpuHashMap):
            entry.append([dict(shard) for shard in bpf_map._shards])
        if isinstance(bpf_map, LruHashMap):
            entry.append((list(bpf_map._data.items()), bpf_map.evictions))
        if isinstance(bpf_map, RingBufferMap):
            entry.append((bpf_map.dropped, bpf_map._next_seq))
        state.append(entry)
    return state


def _outcome(vm, program, ctx, cpu):
    try:
        result = vm.run(program, ctx, cpu)
    except Exception as exc:  # compared by type and message below
        return ("fault", type(exc), str(exc))
    return ("ok", result.return_value, result.steps)


def _assert_same(program, runs, time_source=lambda: TIME_NS):
    compiled_maps, reference_maps = _fresh_maps(), _fresh_maps()
    compiled = Vm(compiled_maps, time_source=time_source)
    reference = ReferenceVm(reference_maps, time_source=time_source)
    for ctx, cpu in runs:
        assert _outcome(compiled, program, ctx, cpu) == _outcome(
            reference, program, ctx, cpu
        ), program.disassemble()
        assert (compiled.total_steps, compiled.total_runs) == (
            reference.total_steps, reference.total_runs
        )
        assert _map_state(compiled_maps) == _map_state(reference_maps)


# ---------------------------------------------------------------------------
# Random forward-jump programs
# ---------------------------------------------------------------------------
FIELDS = ("pid", "syscall_nr", "latency_us", "name", "count", "absent")
IMMEDIATES = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([55, U64_MASK, 1 << 63, 1 << 64, *MAP_FDS]),
    st.integers(-(1 << 70), 1 << 70),
)
SHIFTS = st.integers(-1, 80)


@st.composite
def _instruction(draw):
    opcode = draw(st.sampled_from(list(Opcode)))
    shift = opcode in (Opcode.RSH_IMM, Opcode.LSH_IMM)
    return Instruction(
        opcode,
        dst=draw(st.sampled_from(list(Reg))),
        src=draw(st.sampled_from(list(Reg))),
        imm=draw(SHIFTS if shift else IMMEDIATES),
        field=draw(st.sampled_from(FIELDS)),
        helper=draw(st.sampled_from([*Helper, None])),
    )


@st.composite
def _helper_call(draw):
    """``r1 = fd; r2 = key; r3 = value; call`` — reaches the maps often."""
    return [
        Instruction(Opcode.MOV_IMM, dst=Reg.R1,
                    imm=draw(st.sampled_from([*MAP_FDS, 55]))),
        Instruction(Opcode.MOV_IMM, dst=Reg.R2, imm=draw(st.integers(-1, 5))),
        Instruction(Opcode.MOV_IMM, dst=Reg.R3, imm=draw(IMMEDIATES)),
        Instruction(Opcode.CALL, helper=draw(st.sampled_from(list(Helper)))),
    ]


@st.composite
def programs(draw):
    chunks = draw(st.lists(
        st.one_of(_instruction().map(lambda i: [i]), _helper_call()),
        min_size=1, max_size=12,
    ))
    instructions = [ins for chunk in chunks for ins in chunk]
    if draw(st.booleans()) or draw(st.booleans()):
        instructions.append(Instruction(Opcode.EXIT))
    length = len(instructions)
    for pc, ins in enumerate(instructions):
        if ins.opcode in JUMP_OPS:
            # Up to one past the end: a target == length falls off.
            offset = draw(st.integers(0, length - pc))
            instructions[pc] = dataclasses.replace(ins, offset=offset)
    return program_from("random", instructions)


FIELD_VALUES = st.one_of(
    st.integers(-5, 1 << 66), st.integers(0, 6), st.integers(0, 6),
    st.text(max_size=2), st.none(), st.booleans(),
)
CONTEXTS = st.builds(
    lambda count, fields: HookContext("h", 0, count=count, fields=fields),
    st.one_of(st.integers(1, 1000), st.just(2.5)),
    st.dictionaries(st.sampled_from(FIELDS[:-1]), FIELD_VALUES),
)


def _observing(program, reg):
    """``program`` with every EXIT redirected to ``r0 = reg; exit``.

    Makes each register's final value visible as the return value.
    """
    instructions = list(program.instructions)
    epilogue = len(instructions)
    for pc, ins in enumerate(instructions):
        if ins.opcode is Opcode.EXIT:
            instructions[pc] = Instruction(Opcode.JMP, offset=epilogue - pc - 1)
    instructions += [
        Instruction(Opcode.MOV_REG, dst=Reg.R0, src=reg),
        Instruction(Opcode.EXIT),
    ]
    return program_from(f"{program.name}_r{int(reg)}", instructions)


@settings(deadline=None)
@given(
    program=programs(),
    runs=st.lists(st.tuples(CONTEXTS, st.integers(0, 7)), min_size=1, max_size=4),
    with_clock=st.booleans(),
)
def test_random_programs_match_reference(program, runs, with_clock):
    time_source = (lambda: TIME_NS) if with_clock else None
    _assert_same(program, runs, time_source)
    for reg in Reg:
        _assert_same(_observing(program, reg), runs, time_source)


# ---------------------------------------------------------------------------
# Every opcode and helper on boundary operands
# ---------------------------------------------------------------------------
REGISTER_VALUES = (0, 1, 2, 5, 63, 64, (1 << 63) - 1, 1 << 63, U64_MASK, -3)
IMMEDIATE_VALUES = (0, 1, 2, -1, -2, 5, 63, 64, 1 << 63, U64_MASK, 1 << 64)


def _load(reg, value):
    """Instructions leaving ``value`` in ``reg`` (negatives via DIV_IMM)."""
    if value >= 0:
        return [Instruction(Opcode.MOV_IMM, dst=reg, imm=value)]
    return [
        Instruction(Opcode.MOV_IMM, dst=reg, imm=-value),
        Instruction(Opcode.DIV_IMM, dst=reg, imm=-1),
    ]


def _boundary_programs():
    for opcode in Opcode:
        if opcode in (Opcode.LD_CTX, Opcode.CALL, Opcode.EXIT):
            continue
        takes_imm = opcode.value.endswith("_imm")
        operands = IMMEDIATE_VALUES if takes_imm else REGISTER_VALUES
        if opcode in (Opcode.RSH_IMM, Opcode.LSH_IMM):
            operands = (0, 1, 63, 64, 65, -1)
        for value in REGISTER_VALUES:
            for operand in operands:
                body = _load(Reg.R6, value)
                if takes_imm:
                    op = Instruction(opcode, dst=Reg.R6, imm=operand, offset=1)
                else:
                    body += _load(Reg.R7, operand)
                    op = Instruction(opcode, dst=Reg.R6, src=Reg.R7, offset=1)
                body.append(op)
                if opcode in JUMP_OPS:  # skipped when the jump is taken
                    body.append(Instruction(Opcode.MOV_IMM, dst=Reg.R6, imm=777))
                yield program_from(f"{opcode.value}:{value}:{operand}", body + [
                    Instruction(Opcode.MOV_REG, dst=Reg.R0, src=Reg.R6),
                    Instruction(Opcode.EXIT),
                ])


def test_every_opcode_on_boundary_operands():
    ctx = [(HookContext("h", 0), 0)]
    for program in _boundary_programs():
        _assert_same(program, ctx)


@pytest.mark.parametrize("fd", MAP_FDS + (55,))
@pytest.mark.parametrize("helper", [Helper.MAP_UPDATE, Helper.MAP_ADD])
def test_map_helpers_on_boundary_keys_and_values(fd, helper):
    """Write, write again, then read back every key on every map type."""
    runs = []
    for key in (0, 1, 3, 4, U64_MASK):
        for value in (1, 1 << 63, U64_MASK):
            body = [
                Instruction(Opcode.MOV_IMM, dst=Reg.R1, imm=fd),
                Instruction(Opcode.MOV_IMM, dst=Reg.R2, imm=key),
                Instruction(Opcode.MOV_IMM, dst=Reg.R3, imm=value),
                Instruction(Opcode.CALL, helper=helper),
                Instruction(Opcode.MOV_IMM, dst=Reg.R1, imm=fd),
                Instruction(Opcode.MOV_IMM, dst=Reg.R2, imm=key),
                Instruction(Opcode.CALL, helper=Helper.MAP_LOOKUP),
                Instruction(Opcode.EXIT),
            ]
            runs.append(program_from(f"{helper.value}:{key}:{value}", body))
    compiled_maps, reference_maps = _fresh_maps(), _fresh_maps()
    compiled = Vm(compiled_maps)
    reference = ReferenceVm(reference_maps)
    for program in runs + runs:  # the second pass overflows sums past 64 bits
        for cpu in (0, 2):
            ctx = HookContext("h", 0)
            assert _outcome(compiled, program, ctx, cpu) == _outcome(
                reference, program, ctx, cpu
            )
            assert _map_state(compiled_maps) == _map_state(reference_maps)


@pytest.mark.parametrize("fields, count", [
    ({"pid": 7, "name": "redis"}, 3),
    ({"pid": U64_MASK + 2, "count": 99}, 1 << 64),
    ({"pid": -4}, 1),
    ({"pid": "7"}, 1),
    ({"pid": True}, 2.0),
    ({}, 5),
])
def test_context_loads_and_pid_helper(fields, count):
    ctx = HookContext("h", 0, count=count, fields=fields)
    for reg in (Reg.R0, Reg.R4):
        for source in ("pid", "count", "absent", "name"):
            program = program_from(f"ld_{source}", [
                Instruction(Opcode.LD_CTX, dst=reg, field=source),
                Instruction(Opcode.MOV_REG, dst=Reg.R0, src=reg),
                Instruction(Opcode.EXIT),
            ])
            _assert_same(program, [(ctx, 0)])
    pid = program_from("pid", [
        Instruction(Opcode.CALL, helper=Helper.GET_CURRENT_PID),
        Instruction(Opcode.EXIT),
    ])
    _assert_same(pid, [(ctx, 0)])


@pytest.mark.parametrize("time_source", [
    None, lambda: 5, lambda: -1, lambda: 1 << 65, lambda: 2.75,
])
def test_ktime_helper(time_source):
    program = program_from("ktime", [
        Instruction(Opcode.CALL, helper=Helper.KTIME_GET_NS),
        Instruction(Opcode.EXIT),
    ])
    _assert_same(program, [(HookContext("h", 0), 0)], time_source)


# ---------------------------------------------------------------------------
# Canned programs
# ---------------------------------------------------------------------------
def _canned_contexts(seed=7, n=60):
    rng = random.Random(seed)
    contexts = []
    for _ in range(n):
        fields = {
            name: rng.choice([0, 1, 3, 40, 1 << 20, U64_MASK + 5])
            for name in ("pid", "syscall_nr", "latency_us", "fault_kind_code")
            if rng.random() < 0.8
        }
        contexts.append((HookContext("h", 0, count=rng.randint(1, 500),
                                     fields=fields), rng.randint(0, 3)))
    contexts.append((HookContext("h", 0, fields={"pid": "redis"}), 0))
    contexts.append((HookContext("h", 0, fields={"latency_us": 1.5}), 0))
    return contexts


@pytest.mark.parametrize("program", [
    counter_program("by_nr", 3, key_field="syscall_nr"),
    counter_program("fixed", 3, fixed_key=2),
    counter_program("filtered", 3, key_field="syscall_nr", pid_filter=3),
    counter_program("percpu", 5, key_field="syscall_nr"),
    log2_histogram_program("hist", 3, "latency_us"),
    log2_histogram_program("hist_short", 4, "latency_us", max_bucket=2),
    pid_attributed_counter_program("by_pid", 6),
], ids=lambda p: p.name)
def test_stdlib_programs_match_reference(program):
    _assert_same(program, _canned_contexts())


def _exporter_hook_calls(seed=3, n=400):
    rng = random.Random(seed)
    hooks = [
        "raw_syscalls:sys_enter", "raw_syscalls:sys_exit",
        "PERF_COUNT_SW_CONTEXT_SWITCHES", "sched:sched_switches",
        "exceptions:page_fault_user", "exceptions:page_fault_kernel",
        "PERF_COUNT_SW_PAGE_FAULTS", "PERF_COUNT_HW_CACHE_REFERENCES",
        "PERF_COUNT_HW_CACHE_MISSES", "add_to_page_cache_lru",
        "mark_page_accessed", "account_page_dirtied", "mark_buffer_dirty",
    ]
    calls = []
    for step in range(n):
        fields = {
            "pid": rng.choice([7, 11, 12]),
            "syscall_nr": rng.randrange(8),
            "latency_us": rng.choice([0, 1, 9, 300, 1 << 40]),
            "fault_kind_code": rng.randrange(3),
        }
        if rng.random() < 0.1:
            del fields[rng.choice(sorted(fields))]
        calls.append((rng.choice(hooks), step, rng.randint(1, 64), fields))
    return calls


@pytest.mark.parametrize("pid_filter", [None, 11])
def test_exporter_attachments_match_reference(pid_filter):
    config = EbpfExporterConfig(pid_filter=pid_filter)
    compiled = EbpfExporter(Kernel(seed=5), config=config)
    reference = EbpfExporter(Kernel(seed=5), config=config)
    runtime = reference.runtime
    # on_fire resolves ``self.vm`` per firing, so this swaps the engine.
    runtime.vm = ReferenceVm(runtime.maps, time_source=runtime.vm._time_source)
    assert len(compiled.runtime.attachments()) == 16
    for hook, time_ns, count, fields in _exporter_hook_calls():
        for exporter in (compiled, reference):
            exporter.kernel.hooks.fire(hook, time_ns, count, **fields)
    for fd in range(3, 3 + len(compiled.runtime.maps)):
        assert list(compiled.runtime.maps.get(fd).items()) == list(
            runtime.maps.get(fd).items()
        )
    assert compiled.runtime.vm.total_runs == runtime.vm.total_runs > 0
    assert compiled.runtime.vm.total_steps == runtime.vm.total_steps
    assert [a.events_seen for a in compiled.runtime.attachments()] == [
        a.events_seen for a in runtime.attachments()
    ]


# ---------------------------------------------------------------------------
# Pinned cases
# ---------------------------------------------------------------------------
def test_backward_jump_is_refused_at_compile():
    program = program_from("loop", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.JMP, offset=-2),
    ])
    with pytest.raises(VmFault, match="backward jump"):
        compile_program(program)
    with pytest.raises(VmFault, match="backward jump"):
        Vm(MapRegistry()).run(program, HookContext("h", 0))
    with pytest.raises(VmFault, match="instruction budget exceeded"):
        ReferenceVm(MapRegistry()).run(program, HookContext("h", 0))


def test_over_long_program_is_refused_at_compile():
    body = [Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1)] * MAX_STEPS
    with pytest.raises(VmFault, match="too long"):
        compile_program(program_from("long", body + [Instruction(Opcode.EXIT)]))


def test_max_steps_program_still_compiles():
    body = [Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1)] * (MAX_STEPS - 1)
    program = program_from("longest", body + [Instruction(Opcode.EXIT)])
    result = Vm(MapRegistry()).run(program, HookContext("h", 0))
    assert (result.return_value, result.steps) == (1, MAX_STEPS)


def test_max_steps_program_falling_off_the_end_exhausts_the_budget():
    body = [Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1)] * MAX_STEPS
    program = program_from("endless", body)
    for vm in (Vm(MapRegistry()), ReferenceVm(MapRegistry())):
        with pytest.raises(VmFault, match="endless: instruction budget exceeded$"):
            vm.run(program, HookContext("h", 0))


_PAYLOAD = "__import__('builtins').__dict__.__setitem__('EBPF_PWNED', 1)"


class _EvilName(str):
    def __repr__(self):
        return _PAYLOAD


@pytest.mark.parametrize("instruction", [
    Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=_PAYLOAD),
    Instruction(Opcode.ADD_IMM, dst=Reg.R0, imm=_PAYLOAD),
    Instruction(Opcode.JEQ_IMM, dst=Reg.R0, imm=_PAYLOAD, offset=0),
    Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=True),
    Instruction(Opcode.LD_CTX, dst=Reg.R0, field=_EvilName("pid")),
    Instruction(Opcode.MOV_REG, dst=Reg.R0, src=_PAYLOAD),
    Instruction(Opcode.MOV_REG, dst=1.0, src=Reg.R1),
    Instruction(Opcode.MOV_REG, dst=-1, src=Reg.R1),
    Instruction(Opcode.JMP, offset=_PAYLOAD),
], ids=["mov", "add", "jeq", "bool", "field-repr", "src", "float-dst",
        "negative-dst", "offset"])
def test_code_bearing_operands_fault_and_execute_nothing(instruction):
    program = program_from("crafted", [instruction, Instruction(Opcode.EXIT)])
    with pytest.raises(VmFault, match="is not"):
        Vm(MapRegistry()).run(program, HookContext("h", 0, fields={"pid": 1}))
    assert not hasattr(builtins, "EBPF_PWNED")


def test_code_bearing_field_name_is_only_a_dictionary_key():
    program = program_from("escaped", [
        Instruction(Opcode.LD_CTX, dst=Reg.R0, field=f"'); {_PAYLOAD}; ('"),
        Instruction(Opcode.EXIT),
    ])
    assert Vm(MapRegistry()).run(program, HookContext("h", 0)).return_value == 0
    assert not hasattr(builtins, "EBPF_PWNED")


@pytest.mark.parametrize("instructions, pc", [
    ([Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1)], 1),
    ([Instruction(Opcode.JMP, offset=4), Instruction(Opcode.EXIT)], 5),
])
def test_unverified_program_falling_off_the_end(instructions, pc):
    program = program_from("fall", instructions)
    for vm in (Vm(MapRegistry()), ReferenceVm(MapRegistry())):
        with pytest.raises(VmFault, match=f"fall: pc out of bounds at {pc}$"):
            vm.run(program, HookContext("h", 0))


def test_compiled_function_is_cached_and_leaves_equality_alone():
    instructions = counter_program("c", 3, key_field="syscall_nr").instructions
    program, twin = program_from("c", instructions), program_from("c", instructions)
    assert program.compiled is program.compiled
    assert program.compiled is not twin.compiled
    assert program == twin and hash(program) == hash(twin)
    assert "compiled" not in {f.name for f in dataclasses.fields(program)}


# ---------------------------------------------------------------------------
# Per-CPU maps: every write helper honours the run's CPU
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("vm_class", [Vm, ReferenceVm])
def test_map_update_writes_the_running_cpus_shard(vm_class):
    registry = MapRegistry()
    percpu = PerCpuHashMap("percpu", num_cpus=4)
    fd = registry.create(percpu)

    def helper_program(helper, key, value):
        builder = ProgramBuilder(helper.value).uses_map(fd)
        builder.mov_imm(Reg.R1, fd).mov_imm(Reg.R2, key).mov_imm(Reg.R3, value)
        return builder.call(helper).exit(0).build()

    vm = vm_class(registry)
    vm.run(helper_program(Helper.MAP_ADD, 1, 5), HookContext("h", 0), cpu=3)
    vm.run(helper_program(Helper.MAP_UPDATE, 2, 7), HookContext("h", 0), cpu=1)
    assert percpu._shards[3] == {1: 5}
    assert percpu._shards[1] == {2: 7}


# ---------------------------------------------------------------------------
# Attachment: Vm.run stays the late-bound entry point
# ---------------------------------------------------------------------------
def test_attached_programs_call_vm_run_late_bound(monkeypatch, kernel):
    exporter = EbpfExporter(kernel)
    seen = []
    original = Vm.run

    def spy(self, program, ctx, cpu=0):
        seen.append(program.name)
        return original(self, program, ctx, cpu)

    monkeypatch.setattr(Vm, "run", spy)
    kernel.hooks.fire("raw_syscalls:sys_enter", 0, 3, pid=1, syscall_nr=0)
    assert seen == ["count_syscalls"]
    fd = exporter.runtime.attachments()[0].program.map_fds[0]
    assert exporter.runtime.maps.get(fd).lookup(0) == 3


def test_load_and_attach_of_uncompilable_program_attaches_nothing(kernel):
    runtime = EbpfRuntime(kernel)
    # Passes the verifier (which does not type immediates), refused by
    # the compiler.
    program = program_from("typed", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm="0"),
        Instruction(Opcode.EXIT),
    ])
    before = kernel.hooks.observer_count("raw_syscalls:sys_enter")
    with pytest.raises(VmFault, match="is not an integer"):
        runtime.load_and_attach(program, "raw_syscalls:sys_enter")
    assert runtime.attachments() == []
    assert kernel.hooks.observer_count("raw_syscalls:sys_enter") == before
