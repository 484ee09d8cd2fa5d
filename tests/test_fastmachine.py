"""FastMachine differential suite: ``Machine`` is the oracle.

FastMachine's whole contract is *bit-identical traces*: for any
program, budget and machine state it must produce exactly the trace,
final architectural state and faults of the reference interpreter.
Every test here runs both machines and compares — over handwritten
edge cases, every workload kernel, and hypothesis-generated
``repro.lang`` programs.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads  # registers the kernels
from repro.lang import compile_source
from repro.vm import backends, fastmachine
from repro.vm.assembler import assemble
from repro.vm.errors import VMError
from repro.vm.fastmachine import (
    HOT_THRESHOLD,
    FastMachine,
    discover_blocks,
    form_trace,
    generate_block_source,
    unroll_loop_path,
)
from repro.vm.machine import Machine
from repro.vm.trace import trace_identical
from repro.workloads.base import all_workloads, build_program, run_workload

KERNELS = [w.name for w in all_workloads()]


def assert_state_identical(ref: Machine, fast: Machine) -> None:
    assert fast.regs == ref.regs
    assert fast.fregs == ref.fregs
    assert fast.memory == ref.memory
    assert fast.pc == ref.pc
    assert fast.instruction_count == ref.instruction_count
    assert fast.halted == ref.halted


def low_threshold(threshold=1):
    """Patch FastMachine's compile threshold for the enclosed runs.

    A threshold of 1 compiles every block on its first entry, so even
    short runs exercise the compiled path, not the interpreter
    fallback.
    """
    return mock.patch.object(fastmachine, "HOT_THRESHOLD", threshold)


def differential(program, budget, *, threshold=1):
    """Run both machines; assert identical traces, state and faults.

    ``threshold`` is FastMachine's compile threshold for the run (see
    :func:`low_threshold`).  Returns the (shared) outcome for further
    assertions.
    """
    ref = Machine(program)
    fast = FastMachine(program)
    ref_err = fast_err = None
    ref_trace = fast_trace = None
    try:
        ref_trace = ref.run(max_instructions=budget)
    except VMError as exc:
        ref_err = exc
    try:
        with low_threshold(threshold):
            fast_trace = fast.run(max_instructions=budget)
    except VMError as exc:
        fast_err = exc
    assert (ref_err is None) == (fast_err is None), (
        f"fault divergence: oracle={ref_err!r} fast={fast_err!r}"
    )
    if ref_err is not None:
        assert str(fast_err) == str(ref_err)
        assert fast_err.pc == ref_err.pc
        assert fast_err.line == ref_err.line
    else:
        assert trace_identical(ref_trace, fast_trace)
    assert_state_identical(ref, fast)
    return ref, fast


def differential_asm(source, budget=100_000, **kw):
    return differential(assemble(source), budget, **kw)


# ----------------------------------------------------------------------
# handwritten edge cases
# ----------------------------------------------------------------------

class TestEdgeCases:
    def test_tight_counted_loop(self):
        differential_asm(
            "li r1, 0\n"
            "li r2, 10000\n"
            "loop: addi r1, r1, 1\n"
            "blt r1, r2, loop\n"
            "halt\n"
        )

    def test_budget_truncation_mid_block(self):
        # odd budgets end inside compiled blocks and unrolled loops
        prog = assemble(
            "li r1, 0\n"
            "li r2, 100000\n"
            "loop: addi r1, r1, 1\n"
            "addi r3, r1, 2\n"
            "addi r4, r3, 3\n"
            "blt r1, r2, loop\n"
            "halt\n"
        )
        for budget in (7, 31, 997, 12345):
            differential(prog, budget)

    def test_resumed_runs_accumulate(self):
        src = (
            "li r1, 0\n"
            "li r2, 1000000\n"
            "loop: addi r1, r1, 1\n"
            "blt r1, r2, loop\n"
            "halt\n"
        )
        ref = Machine(assemble(src))
        fast = FastMachine(assemble(src))
        for budget in (1000, 7777, 50_001):
            a = ref.run(max_instructions=budget)
            with low_threshold():
                b = fast.run(max_instructions=budget)
            assert trace_identical(a, b)
            assert_state_identical(ref, fast)

    def test_overflow_wraps(self):
        differential_asm(
            "li r1, 0x7fffffffffffffff\n"
            "li r2, 1\n"
            "li r5, 0\n"
            "loop: add r3, r1, r2\n"
            "mul r4, r1, r1\n"
            "slli r6, r1, 3\n"
            "addi r5, r5, 1\n"
            "li r7, 50\n"
            "blt r5, r7, loop\n"
            "halt\n"
        )

    def test_division_fault_mid_block(self):
        # r2 hits zero after enough iterations for the block to be hot
        differential_asm(
            "li r1, 100\n"
            "li r2, 20\n"
            "loop: div r3, r1, r2\n"
            "addi r2, r2, -1\n"
            "li r4, -1\n"
            "bgt r2, r4, loop\n"
            "halt\n"
        )

    def test_remainder_fault(self):
        differential_asm(
            "li r1, 7\n"
            "li r2, 3\n"
            "loop: rem r3, r1, r2\n"
            "addi r2, r2, -1\n"
            "li r4, -2\n"
            "bgt r2, r4, loop\n"
            "halt\n"
        )

    def test_negative_memory_fault_mid_block(self):
        differential_asm(
            "li r1, 40\n"
            "loop: sw r1, 0(r1)\n"
            "addi r1, r1, -8\n"
            "li r2, -100\n"
            "bgt r1, r2, loop\n"
            "halt\n"
        )

    def test_pc_out_of_range_fault(self):
        differential_asm(
            "li r1, 0\n"
            "loop: addi r1, r1, 1\n"
            "li r2, 30\n"
            "blt r1, r2, loop\n"
            "addi r3, r1, 0\n"  # falls off the end: pc fault
        )

    def test_writes_to_r0_are_discarded(self):
        differential_asm(
            "li r1, 0\n"
            "li r3, 99\n"
            "loop: add r0, r1, r3\n"
            "addi r0, r0, 5\n"
            "addi r1, r1, 1\n"
            "li r2, 200\n"
            "blt r1, r2, loop\n"
            "halt\n"
        )

    def test_jr_into_block_middle(self):
        # jal records a return address that jr later lands on, entering
        # the middle of an already-compiled block
        differential_asm(
            "li r1, 0\n"
            "loop: jal r31, sub\n"
            "addi r1, r1, 1\n"
            "li r2, 300\n"
            "blt r1, r2, loop\n"
            "halt\n"
            "sub: addi r3, r1, 7\n"
            "jr r31\n"
        )

    def test_float_memory_and_ops(self):
        differential_asm(
            "fli f1, 1.5\n"
            "fli f2, 0.25\n"
            "li r1, 64\n"
            "li r4, 0\n"
            "loop: fadd f3, f1, f2\n"
            "fmul f1, f3, f2\n"
            "fsw f1, 0(r1)\n"
            "flw f4, 0(r1)\n"
            "addi r4, r4, 1\n"
            "li r5, 400\n"
            "blt r4, r5, loop\n"
            "halt\n"
        )

    def test_halt_inside_hot_region(self):
        differential_asm(
            "li r1, 0\n"
            "loop: addi r1, r1, 1\n"
            "li r2, 500\n"
            "beq r1, r2, done\n"
            "j loop\n"
            "done: halt\n"
        )

    def test_run_after_halt(self):
        prog = assemble("li r1, 1\nhalt")
        ref, fast = differential(prog, 100)
        # a second run on a halted machine yields an empty trace
        a = ref.run(max_instructions=10)
        b = fast.run(max_instructions=10)
        assert len(a) == len(b) == 0
        assert trace_identical(a, b)
        assert_state_identical(ref, fast)

    def test_unlimited_budget_runs_to_halt(self):
        differential_asm(
            "li r1, 0\n"
            "li r2, 2000\n"
            "loop: addi r1, r1, 1\n"
            "blt r1, r2, loop\n"
            "halt\n",
            budget=None,
        )


# ----------------------------------------------------------------------
# all kernels, smoke budgets
# ----------------------------------------------------------------------

class TestKernelDifferential:
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_smoke(self, name):
        prog = build_program(name, scale=1)
        differential(prog, 25_000, threshold=HOT_THRESHOLD)

    @pytest.mark.parametrize("name", ["compress", "tomcatv", "go"])
    def test_kernel_odd_budget_low_threshold(self, name):
        # low threshold maximises compiled coverage; odd budget lands
        # mid-block
        prog = build_program(name, scale=1)
        differential(prog, 7_777, threshold=1)


# ----------------------------------------------------------------------
# hypothesis: generated repro.lang programs
# ----------------------------------------------------------------------

_INT = st.integers(min_value=-50, max_value=50)
_VARS = ("a", "b", "c", "s")


@st.composite
def _expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(_INT))
        return draw(st.sampled_from(_VARS))
    op = draw(st.sampled_from(
        ["+", "-", "*", "/", "%", "&", "|", "^", "<", "<=", "==", "!="]
    ))
    lhs = draw(_expr(depth=depth + 1))
    rhs = draw(_expr(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


@st.composite
def _stmt(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "assign", "arr", "if", "while"] if depth < 2
        else ["assign", "arr"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        return [f"{var} = {draw(_expr())}"]
    if kind == "arr":
        idx = draw(st.integers(min_value=0, max_value=7))
        if draw(st.booleans()):
            return [f"arr[{idx}] = {draw(_expr())}"]
        var = draw(st.sampled_from(_VARS))
        return [f"{var} = arr[{idx}]"]
    if kind == "if":
        cond = draw(_expr())
        then = draw(_block(depth=depth + 1))
        other = draw(_block(depth=depth + 1))
        return ([f"if ({cond}) {{"] + then + ["} else {"] + other + ["}"])
    # bounded while loop: dedicated counter guarantees termination
    n = draw(st.integers(min_value=1, max_value=12))
    counter = f"t{depth}"
    body = draw(_block(depth=depth + 1))
    return (
        [f"{counter} = 0", f"while ({counter} < {n}) {{"]
        + body
        + [f"{counter} = {counter} + 1", "}"]
    )


@st.composite
def _block(draw, depth=0):
    lines: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lines += draw(_stmt(depth=depth))
    return lines


@st.composite
def rl_programs(draw):
    body = draw(_block())
    decls = [f"var {v} = {draw(_INT)}" for v in _VARS]
    decls += [f"var t{d} = 0" for d in range(3)]
    lines = decls + body + ["return s"]
    return (
        "var arr[8] = {0, 1, 2, 3, 4, 5, 6, 7}\n"
        "func main() {\n" + "\n".join(lines) + "\n}\n"
    )


class TestGeneratedPrograms:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(source=rl_programs())
    def test_differential_generated(self, source):
        # division/modulo by zero faults are legal outcomes: the
        # differential helper asserts fault *parity*, not absence
        program = compile_source(source)
        differential(program, 50_000)

    @settings(max_examples=15, deadline=None)
    @given(source=rl_programs(), budget=st.integers(min_value=1, max_value=900))
    def test_differential_generated_tiny_budgets(self, source, budget):
        program = compile_source(source)
        differential(program, budget)


# ----------------------------------------------------------------------
# block formation / unrolling units
# ----------------------------------------------------------------------

class TestBlockFormation:
    def test_discover_blocks_covers_leaders(self):
        prog = build_program("compress")
        blocks = discover_blocks(prog)
        assert 0 in blocks or prog.main_pc in blocks
        for leader, path in blocks.items():
            assert path[0] == leader
            assert all(0 <= pc < len(prog.instructions) for pc in path)

    def test_unroll_pure_loop(self):
        prog = assemble(
            "li r1, 0\n"
            "loop: addi r1, r1, 1\n"
            "addi r2, r2, 2\n"
            "j loop\n"
            "halt\n"
        )
        path, _ = form_trace(prog, 1)
        unrolled = unroll_loop_path(prog, path)
        assert len(unrolled) % len(path) == 0
        assert len(unrolled) > len(path)
        assert unrolled[:len(path)] == path
        # the unrolled path must still compile
        src = generate_block_source(prog, unrolled)
        compile(src, "<test>", "exec")

    def test_unroll_leaves_nonloop_alone(self):
        prog = assemble(
            "li r1, 1\n"
            "li r2, 2\n"
            "add r3, r1, r2\n"
            "halt\n"
        )
        path, _ = form_trace(prog, 0)
        assert unroll_loop_path(prog, path) == path

    def test_block_source_is_deterministic(self):
        prog = build_program("go")
        path, _ = form_trace(prog, 0)
        assert generate_block_source(prog, path) == generate_block_source(
            prog, path
        )


# ----------------------------------------------------------------------
# machine selection and wiring
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_create_machine(self):
        """The budget alone picks the machine."""
        prog = assemble("halt")
        limit = backends.MACHINE_MAX_BUDGET
        assert type(backends.create_machine(prog, limit)) is Machine
        assert type(backends.create_machine(prog, limit + 1)) is FastMachine
        assert type(backends.create_machine(prog, None)) is FastMachine
        assert type(backends.create_machine(prog)) is FastMachine

    def test_run_workload_backends_agree(self, tmp_path, monkeypatch):
        """A budget that selects FastMachine yields the Machine trace,
        cached under one entry."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        budget = backends.MACHINE_MAX_BUDGET + 1
        got = run_workload("compress", max_instructions=budget)
        ref = Machine(build_program("compress")).run(max_instructions=budget)
        assert trace_identical(ref, got)
        assert len(list((tmp_path / "traces").iterdir())) == 1
        assert trace_identical(ref, run_workload("compress",
                                                 max_instructions=budget))
