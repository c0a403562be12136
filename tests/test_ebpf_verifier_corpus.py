"""Verdict corpus: the verifier's decision on a fixed set of programs.

Every library program, every hand-written program of the verifier tests
and the four ``repro verify-demo`` samples keep their verdict here.  A
reject pins its exact reason and, unless it is a state-budget reject,
its error pc: the pc of a budget reject depends on how many states were
explored, which is a performance property, not a safety one.

Performance work on the verifier (pruning, liveness, caching of internal
structures) must never change anything below except the
``LIBRARY_STATES`` table, whose exact counts make every change in
exploration visible.
"""

import pytest

from repro.compact.programs import sstable_merge_program
from repro.core.hooks import storage_ctx_layout, storage_helpers
from repro.core.library import (
    index_traversal_program,
    linked_list_program,
    scan_aggregate_program,
    wisckey_get_program,
)
from repro.ebpf import (
    CtxField,
    CtxLayout,
    FieldKind,
    HashMap,
    Instruction,
    Program,
    assemble,
    base_registry,
    verify,
)
from repro.errors import VerifierError

BUDGET_REASON = ("state budget exhausted — program too complex or contains "
                 "a loop the verifier cannot bound")

# ---------------------------------------------------------------------------
# Library programs (storage helpers, default budget)
# ---------------------------------------------------------------------------

LIBRARY = {
    "index_traversal_f2": lambda: index_traversal_program(fanout=2),
    "index_traversal_f16": lambda: index_traversal_program(fanout=16),
    "index_traversal_f255": lambda: index_traversal_program(fanout=255),
    "scan_aggregate": scan_aggregate_program,
    "wisckey_get": wisckey_get_program,
    "linked_list": linked_list_program,
    "sstable_merge": sstable_merge_program,
}

# Exact ``states_explored`` per library program.  The simulator is
# deterministic, so a verifier change that moves a count fails here.
LIBRARY_STATES = {
    "index_traversal_f2": 104,
    "index_traversal_f16": 801,
    "index_traversal_f255": 9351,
    "scan_aggregate": 19744,
    "wisckey_get": 9372,
    "linked_list": 17,
    "sstable_merge": 6147,
}

# ---------------------------------------------------------------------------
# Hand-written programs of the verifier tests
# ---------------------------------------------------------------------------

BASE = base_registry()

# tests/test_ebpf_verifier.py
LAYOUT_A = CtxLayout(
    [
        CtxField("data", 0, 8, FieldKind.POINTER, region="data",
                 region_size=4096),
        CtxField("data_len", 8, 8),
        CtxField("file_offset", 16, 8),
        CtxField("out", 24, 8, writable=True),
        CtxField("scratch", 32, 8, FieldKind.POINTER, region="scratch",
                 region_size=256, writable=True),
    ]
)

# tests/test_ebpf_verifier_extra.py
LAYOUT_B = CtxLayout(
    [
        CtxField("data", 0, 8, FieldKind.POINTER, region="data",
                 region_size=128),
        CtxField("n", 8, 8),
        CtxField("out", 16, 8, writable=True),
    ]
)


def _diamonds() -> str:
    lines = ["ldxdw r2, [r1+8]", "mov r3, 0"]
    for index in range(24):
        lines += [f"jgt r2, {index * 3}, t{index}", "mov r4, 1",
                  f"ja j{index}", f"t{index}:", "mov r4, 1",
                  f"j{index}:", "mov r4, 0"]
    return "\n".join(lines + ["mov r0, 0", "exit"])


_MAP_LOOKUP = """
    stw   [r10-4], 5
    mov   r1, {map_id}
    mov   r2, r10
    add   r2, -4
    call  map_lookup
"""

# name -> (source or instruction list, layout, map ids, budget)
HANDWRITTEN = {
    # -- accepted ---------------------------------------------------------
    "trivial": ("mov r0, 0\nexit", LAYOUT_A, (), 200_000),
    "ctx_scalar_load_and_out_store": ("""
        ldxdw r2, [r1+8]
        stxdw [r1+24], r2
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "data_pointer_constant_offset": ("""
        ldxdw r2, [r1+0]
        ldxw  r3, [r2+4092]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "bounded_variable_offset_after_check": ("""
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        jgt   r3, 4088, out
        add   r2, r3
        ldxdw r4, [r2+0]
    out:
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "stack_roundtrip": ("""
        mov   r2, 77
        stxdw [r10-8], r2
        ldxdw r3, [r10-8]
        mov   r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "pointer_spill_and_restore": ("""
        ldxdw r2, [r1+0]
        stxdw [r10-8], r2
        ldxdw r3, [r10-8]
        ldxb  r4, [r3+0]
        mov   r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "bounded_loop_with_constant_bound": ("""
        mov r2, 0
        mov r3, 0
    loop:
        jge r2, 16, done
        add r3, r2
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "loop_bounded_by_clamped_ctx_value": ("""
        ldxdw r3, [r1+8]
        jle   r3, 32, go
        mov   r3, 32
    go:
        mov r2, 0
    loop:
        jge r2, r3, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "map_lookup_with_null_check": ("""
        mov   r6, r1
        stw   [r10-4], 5
        mov   r1, 3
        mov   r2, r10
        add   r2, -4
        call  map_lookup
        jeq   r0, 0, miss
        ldxdw r2, [r0+0]
        stxdw [r6+24], r2
    miss:
        mov r0, 0
        exit
        """, LAYOUT_A, (3,), 200_000),
    "writable_scratch_region": ("""
        ldxdw r2, [r1+32]
        mov   r3, 99
        stxdw [r2+0], r3
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "memcmp_helper_with_bounded_size": ("""
        ldxdw r6, [r1+0]
        mov   r5, 7
        stxdw [r10-8], r5
        mov   r1, r10
        add   r1, -8
        mov   r2, 8
        mov   r3, r6
        mov   r4, 8
        call  memcmp
        exit
        """, LAYOUT_A, (), 200_000),
    "comparison_refinement_enables_access": ("""
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        and   r3, 7
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "branch_with_no_feasible_outcome": ("""
        mov r2, 1
        jlt r2, 0, bad
        mov r0, 0
        exit
    bad:
        ldxdw r4, [r10-400]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "jset_constant_folds_taken": ("""
        mov r2, 10
        jset r2, 2, good
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
    good:
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
    "jset_constant_folds_not_taken": ("""
        mov r2, 8
        jset r2, 2, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
    "signed_branch_refines_nonnegative_ranges": ("""
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
        """, LAYOUT_B, (), 200_000),
    "definite_pointer_never_null": ("""
        ldxdw r2, [r1+0]
        jeq   r2, 0, dead
        mov r0, 0
        exit
    dead:
        ldxdw r5, [r10-400]
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
    "diamond_rejoin": (_diamonds(), LAYOUT_B, (), 20_000),
    # -- rejected ---------------------------------------------------------
    "pointer_store_to_non_stack_region": ("""
        ldxdw r2, [r1+32]
        stxdw [r2+0], r2
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "spilled_pointer_area_passed_to_helper": ("""
        ldxdw r6, [r1+0]
        stxdw [r10-8], r6
        mov   r1, r10
        add   r1, -8
        mov   r2, 8
        mov   r3, r6
        mov   r4, 8
        call  memcmp
        exit
        """, LAYOUT_A, (), 200_000),
    "uninitialised_register_read": ("mov r0, r5\nexit", LAYOUT_A, (),
                                    200_000),
    "uninitialised_r0_at_exit": ("exit", LAYOUT_A, (), 200_000),
    "pointer_returned_in_r0": ("ldxdw r0, [r1+0]\nexit", LAYOUT_A, (),
                               200_000),
    "oob_constant_offset": ("""
        ldxdw r2, [r1+0]
        ldxw  r3, [r2+4093]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "negative_offset": ("""
        ldxdw r2, [r1+0]
        ldxb  r3, [r2-1]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "unbounded_variable_offset": ("""
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "infinite_loop": ("loop:\nja loop", LAYOUT_A, (), 200_000),
    "no_progress_loop_with_work": ("""
        mov r2, 1
    loop:
        mov r3, r2
        ja  loop
        """, LAYOUT_A, (), 200_000),
    "unclamped_loop_bound": ("""
        ldxdw r3, [r1+8]
        mov r2, 0
    loop:
        jge r2, r3, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """, LAYOUT_A, (), 3000),
    "write_to_readonly_data": ("""
        ldxdw r2, [r1+0]
        stb   [r2+0], 1
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "write_to_readonly_ctx_field": ("""
        mov r2, 1
        stxdw [r1+8], r2
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "ctx_load_between_fields": ("ldxw r2, [r1+4]\nmov r0, 0\nexit",
                                LAYOUT_A, (), 200_000),
    "stack_out_of_bounds": ("ldxdw r2, [r10-520]\nmov r0, 0\nexit",
                            LAYOUT_A, (), 200_000),
    "stack_read_uninitialised": ("ldxdw r2, [r10-8]\nmov r0, 0\nexit",
                                 LAYOUT_A, (), 200_000),
    "partial_read_of_spilled_pointer": ("""
        ldxdw r2, [r1+0]
        stxdw [r10-8], r2
        ldxw  r3, [r10-8]
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "misaligned_pointer_spill": ("""
        ldxdw r2, [r1+0]
        stxdw [r10-12], r2
        mov r0, 0
        exit
        """, LAYOUT_A, (), 200_000),
    "null_deref_without_check": (_MAP_LOOKUP.format(map_id=3) + """
        ldxdw r2, [r0+0]
        mov r0, 0
        exit
        """, LAYOUT_A, (3,), 200_000),
    "unknown_map_id": (_MAP_LOOKUP.format(map_id=99) + """
        mov r0, 0
        exit
        """, LAYOUT_A, (3,), 200_000),
    "nonconstant_map_id": ("""
        ldxdw r1, [r1+8]
        mov   r2, r10
        add   r2, -4
        stw   [r10-4], 5
        call  map_lookup
        mov r0, 0
        exit
        """, LAYOUT_A, (3,), 200_000),
    "unknown_helper": ("call 999\nmov r0, 0\nexit", LAYOUT_A, (), 200_000),
    "helper_unbounded_size": ("""
        mov   r5, 1
        stxdw [r10-8], r5
        mov   r1, r10
        add   r1, -8
        ldxdw r2, [r1+0]
        mov   r3, r10
        add   r3, -8
        mov   r4, 8
        call  memcmp
        exit
        """, LAYOUT_A, (), 200_000),
    "registers_clobbered_after_call": ("""
        mov r2, 5
        mov r1, r2
        call trace
        mov r0, r2
        exit
        """, LAYOUT_A, (), 200_000),
    "pointer_arithmetic_on_maybe_null": (_MAP_LOOKUP.format(map_id=3) + """
        add   r0, 4
        mov r0, 0
        exit
        """, LAYOUT_A, (3,), 200_000),
    "jump_out_of_range": ([Instruction("ja", offset=5),
                           Instruction("exit")], LAYOUT_A, (), 200_000),
    "fallthrough_off_end": ([Instruction("mov", dst=0, imm=0),
                             Instruction("ja", offset=0)], LAYOUT_A, (),
                            200_000),
    "write_to_frame_pointer": ("mov r10, 0\nexit", LAYOUT_A, (), 200_000),
    "jset_unknown_explores_both": ("""
        ldxdw r2, [r1+8]
        jset r2, 1, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
    "signed_branch_wide_range_keeps_both_edges": ("""
        ldxdw r3, [r1+8]
        jsgt  r3, 0, pos
        mov r0, 0
        exit
    pos:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
    "pointer_equality_comparison_explores_both": ("""
        ldxdw r2, [r1+0]
        mov   r3, r2
        jeq   r2, r3, same
        mov r0, 0
        exit
    same:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """, LAYOUT_B, (), 200_000),
}

# ---------------------------------------------------------------------------
# ``repro verify-demo`` samples (storage helpers and layout, budget 5000)
# ---------------------------------------------------------------------------

DEMO = {
    "demo_safe_bounded_loop": """
        mov r2, 0
    loop:
        jge r2, 16, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
    """,
    "demo_out_of_bounds_load": """
        ldxdw r2, [r1+0]
        ldxb  r3, [r2+4096]
        mov r0, 0
        exit
    """,
    "demo_unbounded_loop": """
        ldxdw r3, [r1+8]
        mov r2, 0
    loop:
        jge r2, r3, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
    """,
    "demo_uninitialised_register": "mov r0, r7\nexit",
}

# ---------------------------------------------------------------------------
# Expected verdicts: None accepts; (reason, pc) rejects; pc None for a
# budget reject.
# ---------------------------------------------------------------------------

VERDICTS = {
    **{name: None for name in LIBRARY},
    "trivial": None,
    "ctx_scalar_load_and_out_store": None,
    "data_pointer_constant_offset": None,
    "bounded_variable_offset_after_check": None,
    "stack_roundtrip": None,
    "pointer_spill_and_restore": None,
    "bounded_loop_with_constant_bound": None,
    "loop_bounded_by_clamped_ctx_value": None,
    "map_lookup_with_null_check": None,
    "writable_scratch_region": None,
    "memcmp_helper_with_bounded_size": None,
    "comparison_refinement_enables_access": None,
    "branch_with_no_feasible_outcome": None,
    "jset_constant_folds_taken": None,
    "jset_constant_folds_not_taken": None,
    "signed_branch_refines_nonnegative_ranges": None,
    "definite_pointer_never_null": None,
    "diamond_rejoin": None,
    "demo_safe_bounded_loop": None,
    "pointer_store_to_non_stack_region": (
        "pointer stored to region 'scratch'", 1),
    "spilled_pointer_area_passed_to_helper": (
        "helper 'memcmp': stack byte 504 uninitialised", 7),
    "uninitialised_register_read": ("use of uninitialised r5", 0),
    "uninitialised_r0_at_exit": ("exit with uninitialised r0", 0),
    "pointer_returned_in_r0": ("exit with pointer in r0", 1),
    "oob_constant_offset": (
        "load [4093, 4097) out of bounds of 'data' (4096B)", 1),
    "negative_offset": ("load [-1, 0) out of bounds of 'data' (4096B)", 1),
    "unbounded_variable_offset": ("pointer offset adjustment unbounded", 2),
    "infinite_loop": ("infinite loop detected", 0),
    "no_progress_loop_with_work": ("infinite loop detected", 1),
    "unclamped_loop_bound": (BUDGET_REASON, None),
    "write_to_readonly_data": ("store to read-only region 'data'", 1),
    "write_to_readonly_ctx_field": (
        "ctx field 'data_len' is not writable", 1),
    "ctx_load_between_fields": ("ctx load at (4, 4) matches no field", 0),
    "stack_out_of_bounds": ("stack load [-8, 0) out of bounds", 0),
    "stack_read_uninitialised": ("read of uninitialised stack byte 504", 0),
    "partial_read_of_spilled_pointer": (
        "partial read of a spilled pointer", 2),
    "misaligned_pointer_spill": ("pointer spill must be 8-byte aligned", 1),
    "null_deref_without_check": (
        "dereference of maybe-null pointer into 'map_value:3' without a "
        "null check", 5),
    "unknown_map_id": ("helper 'map_lookup': unknown map id 99", 4),
    "nonconstant_map_id": (
        "helper 'map_lookup': r1 must be a known constant", 4),
    "unknown_helper": ("call to unknown helper id 999", 0),
    "helper_unbounded_size": (
        "helper 'memcmp': size in r2 unbounded "
        "(umax=18446744073709551615)", 8),
    "registers_clobbered_after_call": ("use of uninitialised r2", 3),
    "pointer_arithmetic_on_maybe_null": (
        "arithmetic on maybe-null pointer", 5),
    "jump_out_of_range": ("jump target 6 out of range", 0),
    "fallthrough_off_end": ("jump target 2 out of range", 1),
    "write_to_frame_pointer": ("write to frame pointer r10", 0),
    "jset_unknown_explores_both": (
        "read of uninitialised stack byte 504", 4),
    "signed_branch_wide_range_keeps_both_edges": (
        "read of uninitialised stack byte 504", 4),
    "pointer_equality_comparison_explores_both": (
        "read of uninitialised stack byte 504", 5),
    "demo_out_of_bounds_load": (
        "load [4096, 4097) out of bounds of 'data' (4096B)", 1),
    "demo_unbounded_loop": (BUDGET_REASON, None),
    "demo_uninitialised_register": ("use of uninitialised r7", 0),
}


def _program_and_args(name):
    """``(program, helpers, maps, budget)`` for one corpus entry."""
    if name in LIBRARY:
        return LIBRARY[name](), storage_helpers(), None, 200_000
    if name in DEMO:
        program = Program(assemble(DEMO[name], storage_helpers().names()),
                          storage_ctx_layout(), name=name)
        return program, storage_helpers(), None, 5000
    source, layout, map_ids, budget = HANDWRITTEN[name]
    insns = source if isinstance(source, list) else assemble(source,
                                                             BASE.names())
    maps = {map_id: HashMap(4, 8, 8) for map_id in map_ids}
    return Program(insns, layout, name=name), BASE, maps or None, budget


def _outcome(name):
    program, helpers, maps, budget = _program_and_args(name)
    try:
        stats = verify(program, helpers, maps=maps, state_budget=budget)
    except VerifierError as error:
        return error
    return stats


ALL = list(LIBRARY) + list(HANDWRITTEN) + list(DEMO)


def test_corpus_covers_every_entry():
    assert sorted(VERDICTS) == sorted(ALL)
    assert sorted(LIBRARY_STATES) == sorted(LIBRARY)


@pytest.mark.parametrize("name", ALL)
def test_verdict(name):
    outcome = _outcome(name)
    expected = VERDICTS[name]
    if expected is None:
        assert not isinstance(outcome, VerifierError), str(outcome)
        if name in LIBRARY:
            assert outcome.states_explored == LIBRARY_STATES[name]
        return
    reason, pc = expected
    assert isinstance(outcome, VerifierError), f"{name} was accepted"
    assert outcome.reason == reason
    if reason == BUDGET_REASON:
        assert pc is None
    else:
        assert outcome.pc == pc
