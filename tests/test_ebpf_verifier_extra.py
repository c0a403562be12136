"""Additional verifier coverage: jset, signed branches, pointer compares,
state pruning, and the builder DSL's error handling."""

import pytest

from repro.errors import AssemblerError, VerifierError
from repro.ebpf import (
    CtxField,
    CtxLayout,
    FieldKind,
    Program,
    ProgramBuilder,
    assemble,
    base_registry,
    verify,
)
from repro.ebpf.verifier import Scalar, _dead_at_prune_points, _scalar_alu

HELPERS = base_registry()
LAYOUT = CtxLayout(
    [
        CtxField("data", 0, 8, FieldKind.POINTER, region="data",
                 region_size=128),
        CtxField("n", 8, 8),
        CtxField("out", 16, 8, writable=True),
    ]
)


def accept(source):
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    return verify(program, HELPERS)


def reject(source, match):
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    with pytest.raises(VerifierError, match=match):
        verify(program, HELPERS)


# ---------------------------------------------------------------------------
# Branch kinds
# ---------------------------------------------------------------------------


def test_jset_constant_folds_taken():
    # 0b1010 & 0b0010 != 0 -> always taken; the dead path may be unsafe.
    accept(
        """
        mov r2, 10
        jset r2, 2, good
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
    good:
        mov r0, 0
        exit
        """
    )


def test_jset_constant_folds_not_taken():
    accept(
        """
        mov r2, 8
        jset r2, 2, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """
    )


def test_jset_unknown_explores_both():
    reject(
        """
        ldxdw r2, [r1+8]
        jset r2, 1, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_signed_branch_refines_nonnegative_ranges():
    # n clamped to [0, 100]; jsgt then behaves like jgt.
    accept(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        jle   r3, 100, ok
        mov   r3, 100
    ok:
        jsgt  r3, 120, bad
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
    bad:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """
    )


def test_signed_branch_wide_range_keeps_both_edges():
    reject(
        """
        ldxdw r3, [r1+8]
        jsgt  r3, 0, pos
        mov r0, 0
        exit
    pos:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_pointer_equality_comparison_explores_both():
    reject(
        """
        ldxdw r2, [r1+0]
        mov   r3, r2
        jeq   r2, r3, same
        mov r0, 0
        exit
    same:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_definite_pointer_never_null():
    # jeq ptr, 0 can never be taken for a live ctx-derived pointer.
    accept(
        """
        ldxdw r2, [r1+0]
        jeq   r2, 0, dead
        mov r0, 0
        exit
    dead:
        ldxdw r5, [r10-400]
        mov r0, 0
        exit
        """
    )


# ---------------------------------------------------------------------------
# Pruning behaviour
# ---------------------------------------------------------------------------


def test_diamond_rejoin_prunes_to_linear_states():
    # Both branches normalise their temps, so the rejoined states are
    # identical and the second path prunes: states stay small.
    source_lines = ["ldxdw r2, [r1+8]", "mov r3, 0"]
    for index in range(24):
        source_lines += [
            f"jgt r2, {index * 3}, t{index}",
            "mov r4, 1",
            f"ja j{index}",
            f"t{index}:",
            "mov r4, 1",
            f"j{index}:",
            "mov r4, 0",
        ]
    source_lines += ["mov r0, 0", "exit"]
    program = Program(assemble("\n".join(source_lines)), LAYOUT)
    stats = verify(program, HELPERS, state_budget=20_000)
    # Without completed-state pruning this would be ~2^24 states.
    assert stats.states_explored < 2000


def test_liveness_at_prune_points():
    # Prune points: pc 0, the jgt fall-through (2) and target (4), the ja
    # target (5) and the instruction after the call (7).
    source = """
        ldxdw r6, [r1+8]
        jgt   r6, 4, big
        mov   r7, 1
        ja    out
    big:
        mov   r7, 2
    out:
        mov   r1, r7
        call  trace
        mov   r0, r6
        exit
    """
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    live = {0: {1}, 2: {6}, 4: {6}, 5: {6, 7}, 7: {6}}
    dead = _dead_at_prune_points(program.instructions, HELPERS)
    assert [pc for pc, regs in enumerate(dead) if regs is not None] == \
        sorted(live)
    for pc, regs in live.items():
        assert set(dead[pc]) == set(range(10)) - regs
    verify(program, HELPERS)


def test_loop_with_distinct_states_not_falsely_pruned():
    reject("loop:\nja loop", "infinite loop")


# ---------------------------------------------------------------------------
# Scalar transfer functions
# ---------------------------------------------------------------------------


def test_scalar_alu_add_overflow_widens():
    huge = Scalar(2**63, 2**64 - 1)
    result = _scalar_alu("add", huge, huge, is32=False)
    assert (result.umin, result.umax) == (0, 2**64 - 1)


def test_scalar_alu_and_bounds():
    result = _scalar_alu("and", Scalar(0, 2**64 - 1), Scalar(255, 255),
                         is32=False)
    assert (result.umin, result.umax) == (0, 255)


def test_scalar_alu_mod_constant():
    result = _scalar_alu("mod", Scalar(0, 2**64 - 1), Scalar(16, 16),
                         is32=False)
    assert (result.umin, result.umax) == (0, 15)


def test_scalar_alu_div_constant():
    result = _scalar_alu("div", Scalar(100, 200), Scalar(10, 10),
                         is32=False)
    assert (result.umin, result.umax) == (10, 20)


def test_scalar_alu_lsh_within_range():
    result = _scalar_alu("lsh", Scalar(1, 4), Scalar(3, 3), is32=False)
    assert (result.umin, result.umax) == (8, 32)


def test_scalar_alu_32bit_clamps():
    result = _scalar_alu("add", Scalar(2**32 - 1, 2**32 - 1),
                         Scalar(10, 10), is32=True)
    assert result.umax <= 2**32 - 1


def test_scalar_alu_arsh32_uses_the_32bit_sign_bit():
    # 0x80000010 has bit 31 set: as a 32-bit value it is negative, so an
    # arithmetic shift fills with ones and the range is not [c >> s].
    result = _scalar_alu("arsh", Scalar(0x80000010, 0x80000010),
                         Scalar(28, 28), is32=True)
    assert (result.umin, result.umax) == (0, 2**32 - 1)
    result = _scalar_alu("arsh", Scalar(16, 2**31 - 1), Scalar(4, 4),
                         is32=True)
    assert (result.umin, result.umax) == (1, 2**27 - 1)


def test_arsh32_of_negative_value_cannot_index_memory():
    # arsh32 turns 0x80000010 into 0xfffffff8, not 8: the load would
    # read data at offset 4294967288, so the program must be rejected.
    reject(
        """
        ldxdw r2, [r1+0]
        mov32 r3, 0x80000010
        arsh32 r3, 28
        add   r2, r3
        ldxb  r0, [r2+0]
        mov r0, 0
        exit
        """,
        "unbounded",
    )


# ---------------------------------------------------------------------------
# Builder DSL errors
# ---------------------------------------------------------------------------


def test_builder_unplaced_label_rejected():
    b = ProgramBuilder(LAYOUT)
    target = b.label("nowhere")
    b.jump(target)
    b.exit()
    with pytest.raises(AssemblerError, match="never placed"):
        b.build()


def test_builder_double_placed_label_rejected():
    b = ProgramBuilder(LAYOUT)
    label = b.label()
    b.place(label)
    with pytest.raises(AssemblerError, match="placed twice"):
        b.place(label)


def test_builder_alu_needs_exactly_one_source():
    b = ProgramBuilder(LAYOUT)
    with pytest.raises(AssemblerError):
        b.alu("add", 2)
    with pytest.raises(AssemblerError):
        b.alu("add", 2, imm=1, src=3)


def test_builder_unknown_helper_rejected():
    b = ProgramBuilder(LAYOUT)
    with pytest.raises(AssemblerError, match="unknown helper"):
        b.call("frobnicate")


def test_builder_wide_mov_uses_lddw():
    b = ProgramBuilder(LAYOUT)
    b.mov(2, 2**40)
    b.mov(0, 0)
    b.exit()
    program = b.build()
    assert program.instructions[0].opcode == "lddw"
