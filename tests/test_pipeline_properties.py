"""Property-based invariants of the cycle-level pipeline model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.pipeline import PipelineConfig, PipelineModel
from repro.pipeline.config import UNPIPELINED
from repro.dataflow.model import DataflowModel
from repro.vm.trace import DynInst


@st.composite
def pipeline_streams(draw):
    """Random dependence-realistic streams with varied op classes."""
    n_locs = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=80))
    ops = [
        (Opcode.ADD, 1), (Opcode.ADD, 1), (Opcode.MUL, 8), (Opcode.LW, 2),
        (Opcode.SW, 1), (Opcode.FADD, 4), (Opcode.FDIV, 18),
    ]
    values = [0] * n_locs
    stream = []
    for i in range(n):
        op, latency = draw(st.sampled_from(ops))
        src1 = draw(st.integers(0, n_locs - 1))
        src2 = draw(st.integers(0, n_locs - 1))
        dst = draw(st.integers(0, n_locs - 1))
        a, b = values[src1], values[src2]
        result = (a + b + i) % 5
        values[dst] = result
        stream.append(
            DynInst(
                pc=i % 9,
                op=op,
                reads=((src1, a), (src2, b)),
                writes=((dst, result),),
                latency=latency,
                next_pc=i % 9 + 1,
            )
        )
    return stream


@given(pipeline_streams())
@settings(max_examples=80, deadline=None)
def test_all_instructions_commit(stream):
    result = PipelineModel().simulate(stream)
    assert result.committed_instructions == len(stream)
    assert result.committed_slots == len(stream)


@given(pipeline_streams())
@settings(max_examples=80, deadline=None)
def test_cycles_bounded_below_by_widths(stream):
    config = PipelineConfig()
    result = PipelineModel(config).simulate(stream)
    # can never commit faster than commit_width per cycle, and every
    # instruction spends at least fetch+issue+latency cycles in flight
    assert result.total_cycles >= len(stream) / config.commit_width
    if stream:
        assert result.total_cycles >= 2  # fetch cycle + execute cycle


@given(pipeline_streams())
@settings(max_examples=60, deadline=None)
def test_wider_machine_never_slower(stream):
    narrow = PipelineModel(
        PipelineConfig(fetch_width=2, issue_width=2, commit_width=2, rob_size=16)
    ).simulate(stream)
    wide = PipelineModel(
        PipelineConfig(fetch_width=8, issue_width=8, commit_width=8, rob_size=128)
    ).simulate(stream)
    assert wide.total_cycles <= narrow.total_cycles


def list_schedule_bound(stream, config: PipelineConfig) -> int:
    """Cycles a core whose ROB holds the whole stream can take at most.

    Issue is greedy, oldest first, and each unpipelined class issues in
    program order, so Graham's list-scheduling argument applies: walk
    back from the last instruction to finish; every cycle before it
    either executes an instruction of one chain (a data dependence, or
    an older divide of the same class that must issue first) or has a
    resource saturated (issue width, a class's ports, or every unit of
    an unpipelined class busy).  Add the fetch of the last instruction
    and in-order commit at the end.
    """
    n = len(stream)
    if not n:
        return 0
    units = config.functional_units
    done_at: dict[int, int] = {}  # location -> its writer's chain end
    class_issue: dict = {}  # unpipelined class -> chain start of last
    ports: dict = {}  # pipelined class -> instructions
    busy: dict = {}  # unpipelined class -> unit cycles
    chain = 0
    for inst in stream:
        cls = inst.op_class
        start = max((done_at.get(loc, 0) for loc, _ in inst.reads),
                    default=0)
        if cls in UNPIPELINED:
            start = class_issue[cls] = max(start, class_issue.get(cls, 0))
            busy[cls] = busy.get(cls, 0) + inst.latency
        else:
            ports[cls] = ports.get(cls, 0) + 1
        for loc, _ in inst.writes:
            done_at[loc] = start + inst.latency
        chain = max(chain, start + inst.latency)
    saturated = (n // config.issue_width
                 + sum(c // units[cls] for cls, c in ports.items())
                 + sum(c // units[cls] for cls, c in busy.items()))
    fetch = (n - 1) // config.fetch_width + 1
    return fetch + chain + saturated + -(-n // config.commit_width)


def _di(i, op, reads, write, latency):
    return DynInst(pc=i, op=op, reads=tuple((loc, 0) for loc in reads),
                   writes=((write, 0),), latency=latency, next_pc=i + 1)


#: A 13-instruction stream on which an 8-entry ROB beats every larger
#: one (50 cycles against 51): with 8 entries FDIV i8 is fetched only
#: when FDIV i0 commits (19), issues at 20 and completes at 38; with 16
#: or more it is fetched at 2, takes the divider when i0 frees it (19)
#: and completes at 37.  At 37 the larger core has two ready FADDs for
#: its one FP_ADD port, i10 (on i8) and i11 (on LW i9, done at 37 via
#: MULs i1 and i3): oldest first issues i10 at 37 and i11 at 38, and
#: i11 heads the critical chain (MUL i12, 8 cycles), so i12 completes
#: at 50 instead of 49.  No younger op takes a unit from an older one.
ROB_ANOMALY = [
    _di(0, Opcode.FDIV, (0,), 20, 18),
    _di(1, Opcode.MUL, (20,), 21, 8),
    _di(2, Opcode.ADD, (1,), 22, 1),
    _di(3, Opcode.MUL, (21,), 23, 8),
    *(_di(i, Opcode.ADD, (1,), 20 + i, 1) for i in range(4, 8)),
    _di(8, Opcode.FDIV, (22,), 28, 18),
    _di(9, Opcode.LW, (23,), 29, 2),
    _di(10, Opcode.FADD, (28,), 30, 4),
    _di(11, Opcode.FADD, (29,), 31, 4),
    _di(12, Opcode.MUL, (31,), 32, 8),
]


def test_bigger_rob_can_be_slower_regression():
    """Greedy oldest-first issue does not make a bigger ROB never
    slower: a list-scheduling anomaly, pinned here."""
    def cycles(rob_size):
        return PipelineModel(
            PipelineConfig(rob_size=rob_size)).simulate(ROB_ANOMALY).total_cycles

    assert cycles(8) == 50
    assert [cycles(r) for r in (16, 32, 64, 128, 256)] == [51] * 5
    assert cycles(256) <= list_schedule_bound(
        ROB_ANOMALY, PipelineConfig(rob_size=256))


@given(pipeline_streams())
@settings(max_examples=60, deadline=None)
def test_bigger_rob_within_list_schedule_bound(stream):
    """A ROB that holds the whole stream stays within the list-schedule
    bound, the guarantee greedy issue gives in place of ROB
    monotonicity (see the regression above)."""
    config = PipelineConfig(rob_size=256)
    assert len(stream) <= config.rob_size
    large = PipelineModel(config).simulate(stream)
    assert large.total_cycles <= list_schedule_bound(stream, config)


@given(pipeline_streams())
@settings(max_examples=60, deadline=None)
def test_pipeline_never_beats_dataflow_limit(stream):
    """The bounded core is a refinement of the limit model: with the
    same latencies it can only be slower than pure dataflow."""
    limit = DataflowModel(window_size=None).analyze(stream)
    core = PipelineModel(
        PipelineConfig(fetch_width=8, issue_width=8, commit_width=8, rob_size=256)
    ).simulate(stream)
    assert core.total_cycles >= limit.total_cycles - 1e-9


@given(pipeline_streams())
@settings(max_examples=40, deadline=None)
def test_deterministic(stream):
    a = PipelineModel().simulate(stream)
    b = PipelineModel().simulate(stream)
    assert a.total_cycles == b.total_cycles


def test_unpipelined_unit_priority_inversion_regression():
    """A younger divide must not steal the single unpipelined unit
    from an older, not-yet-ready divide.

    Found by hypothesis: with greedy allocation, the wide machine
    fetches both divides together, the younger (independent) one
    grabs the unit, and the older divide — plus everything behind it
    in the in-order commit stream — waits out the full occupancy.
    The narrow machine fetched the younger divide too late to steal,
    so it finished *earlier* than the wide one (41 vs 39 cycles).
    """

    def di(i, op, reads, writes, lat):
        return DynInst(pc=i, op=op, reads=reads, writes=writes,
                       latency=lat, next_pc=i + 1)

    stream = [
        di(0, Opcode.ADD,  ((0, 0), (0, 0)), ((1, 1),), 1),
        di(1, Opcode.FDIV, ((1, 1), (1, 1)), ((2, 1),), 18),
        di(2, Opcode.ADD,  ((2, 1), (0, 0)), ((3, 1),), 1),
        di(3, Opcode.ADD,  ((3, 1), (0, 0)), ((3, 2),), 1),
        di(4, Opcode.ADD,  ((3, 2), (0, 0)), ((3, 3),), 1),
        di(5, Opcode.FDIV, ((0, 0), (0, 0)), ((4, 1),), 18),
    ]
    narrow = PipelineModel(
        PipelineConfig(fetch_width=2, issue_width=2, commit_width=2, rob_size=16)
    ).simulate(stream)
    wide = PipelineModel(
        PipelineConfig(fetch_width=8, issue_width=8, commit_width=8, rob_size=128)
    ).simulate(stream)
    assert wide.total_cycles <= narrow.total_cycles
