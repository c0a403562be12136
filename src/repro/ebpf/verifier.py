"""Static verifier: abstract interpretation over register/stack state.

Before a program may be attached to a storage hook it must pass this
verifier, which proves — without running the program on real data — that:

* no register is read before it is written;
* every load and store lands inside a region the program legitimately holds
  a pointer into (context, stack, buffers reachable from the context, map
  values), with statically bounded offsets;
* maybe-null pointers returned by ``map_lookup`` are null-checked before any
  dereference;
* helper calls match their declared signatures, including proving that
  ``(ptr, size)`` argument pairs stay in bounds for the *maximum* possible
  size value;
* the program terminates: all paths reach ``exit`` within a state budget, so
  a loop is only accepted if the analysis can unroll it to completion
  (mirroring the kernel's 1M-instruction verification cap, which the paper
  cites as the mechanism preventing unbounded I/O loops).

The scalar domain tracks unsigned ranges ``[umin, umax]``; branch outcomes
refine ranges along each edge, which is what lets bounded loops such as a
B-tree node's bounded binary search verify while an unbounded walk is
rejected by budget exhaustion.

Exploration prunes the way Linux does.  A backward dataflow pass computes
which registers are live at each pc; a state entering a *prune point*
(pc 0, a jump target, the fall-through of a conditional jump, the
instruction after a call) has its dead registers forgotten, and only
there is it compared against completed states (pruning) and against the
states on the current path (infinite-loop detection).  Every other
instruction is stepped straight through, still counting towards the
state budget.  Comparisons only ever see registers that can still reach
a check, so a value left behind in a dead temp never splits states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import VerifierError
from repro.ebpf.helpers import ArgKind, HelperRegistry, RetKind
from repro.ebpf.isa import FP_REG, MEM_SIZES, STACK_SIZE
from repro.ebpf.program import FieldKind, Program

__all__ = ["VerifierStats", "Verifier", "verify"]

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1

# Offsets a pointer may be adjusted by before we give up precision.
_OFF_LIMIT = 1 << 29


@dataclass(frozen=True)
class Scalar:
    """An integer with an unsigned range (constant when umin == umax)."""

    umin: int = 0
    umax: int = U64_MAX

    @property
    def const(self) -> Optional[int]:
        return self.umin if self.umin == self.umax else None

    def __repr__(self) -> str:
        if self.const is not None:
            return f"Scalar({self.umin})"
        return f"Scalar([{self.umin}, {self.umax}])"


UNKNOWN = Scalar()


@dataclass(frozen=True)
class Ptr:
    """A pointer into a statically sized region, with an offset range."""

    region: str
    size: int
    off_min: int = 0
    off_max: int = 0
    maybe_null: bool = False

    def __repr__(self) -> str:
        null = "?null" if self.maybe_null else ""
        return f"Ptr({self.region}+[{self.off_min},{self.off_max}]{null})"


class NotInit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotInit"


NOT_INIT = NotInit()

# Stack slot contents: ("ptr", Ptr) or ("bytes", frozenset of initialised
# byte offsets within the slot).
_SLOT_COUNT = STACK_SIZE // 8


class State:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "stack", "_signature")

    def __init__(self, regs, stack):
        self.regs = regs          # tuple of 11 abstract values
        self.stack = stack        # dict slot_index -> ("ptr", Ptr)|("bytes", frozenset)
        self._signature = None

    def with_reg(self, index: int, value) -> "State":
        regs = list(self.regs)
        regs[index] = value
        return State(tuple(regs), self.stack)

    def with_stack(self, stack) -> "State":
        return State(self.regs, stack)

    def signature(self):
        """A hashable snapshot for O(1) exact-duplicate pruning."""
        if self._signature is None:
            self._signature = (
                self.regs,
                frozenset(
                    (slot, entry[0], entry[1])
                    for slot, entry in self.stack.items()
                ),
            )
        return self._signature


def _initial_state(ctx_size: int) -> State:
    regs = [NOT_INIT] * 11
    regs[1] = Ptr("ctx", ctx_size)
    regs[FP_REG] = Ptr("stack", STACK_SIZE, STACK_SIZE, STACK_SIZE)
    return State(tuple(regs), {})


@dataclass
class VerifierStats:
    """Bookkeeping returned on success.

    ``max_states_per_insn`` is the deepest stack of in-progress states at
    one prune point (a loop head holds one per unrolled iteration).
    """

    states_explored: int = 0
    max_states_per_insn: int = 0


class Verifier:
    """One verification run over a program."""

    def __init__(self, program: Program, helpers: HelperRegistry,
                 maps: Optional[Dict[int, object]] = None,
                 state_budget: int = 200_000):
        self.program = program
        self.helpers = helpers
        self.maps = maps or {}
        self.state_budget = state_budget
        self.stats = VerifierStats()
        # Fully explored states per prune point: safe to prune against
        # (that exploration provably reached exit on every path).  Exact
        # duplicates are pruned through the signature set in O(1); the
        # subsumption scan is capped to recent states to keep verification
        # time linear on long bounded loops.
        self._completed: Dict[int, List[State]] = {}
        self._completed_sigs: Dict[int, set] = {}
        # States on the current DFS path per prune point: matching one of
        # these means a loop iteration made no progress -> infinite loop.
        self._in_progress: Dict[int, List[State]] = {}
        # The register that last made a subsumption check fail; checked
        # first, since consecutive comparisons tend to fail on the same one.
        self._fail_reg = 0
        # Per pc: registers dead on entry (None unless a prune point).
        self._dead_at: List[Optional[Tuple[int, ...]]] = []

    _SUBSUME_SCAN_LIMIT = 32

    # ------------------------------------------------------------------

    def run(self) -> VerifierStats:
        """Depth-first exploration with kernel-style loop detection.

        At a prune point, a state subsumed by a *completed* state is pruned
        (that more-general exploration already terminated safely).  A state
        subsumed by an *ancestor on the current path* is an infinite loop and
        is rejected — pruning against an ancestor would wrongly certify
        termination.  Between prune points a state is stepped straight
        through.
        """
        self._check_jump_targets()
        self._dead_at = _dead_at_prune_points(self.program.instructions,
                                              self.helpers)
        start = self._forget_dead(
            0, _initial_state(self.program.ctx_layout.size))
        # Explicit DFS frames: [pc, state, successors or None, next index].
        frames: List[list] = [[0, start, None, 0]]
        while frames:
            frame = frames[-1]
            pc, state, successors, index = frame
            if successors is None:
                for ancestor in self._in_progress.get(pc, ()):
                    if self._subsumes(ancestor, state):
                        raise VerifierError("infinite loop detected", pc)
                if state.signature() in self._completed_sigs.get(pc, ()):
                    frames.pop()
                    continue
                recent = self._completed.get(pc, ())
                if any(self._subsumes(old, state)
                       for old in recent[-self._SUBSUME_SCAN_LIMIT:]):
                    frames.pop()
                    continue
                successors = self._step_to_prune_points(pc, state)
                frame[2] = successors
                in_progress = self._in_progress.setdefault(pc, [])
                in_progress.append(state)
                if len(in_progress) > self.stats.max_states_per_insn:
                    self.stats.max_states_per_insn = len(in_progress)
            if index < len(successors):
                next_pc, next_state = successors[index]
                frame[3] = index + 1
                frames.append([next_pc, next_state, None, 0])
            else:
                # DFS order: the finished state is the newest in progress.
                self._in_progress[pc].pop()
                self._completed.setdefault(pc, []).append(state)
                self._completed_sigs.setdefault(pc, set()).add(
                    state.signature())
                frames.pop()
        self.program.verified = True
        return self.stats

    def _step_to_prune_points(self, pc: int,
                              state: State) -> List[Tuple[int, State]]:
        """Step from ``pc`` until every path reaches a prune point or exit.

        Returns the successor states, each entering its prune point with
        its dead registers forgotten.
        """
        end = len(self.program.instructions)
        dead_at = self._dead_at
        while True:
            self.stats.states_explored += 1
            if self.stats.states_explored > self.state_budget:
                raise VerifierError(
                    "state budget exhausted — program too complex or "
                    "contains a loop the verifier cannot bound", pc)
            successors = self._step(pc, state)
            for next_pc, _next_state in successors:
                if next_pc >= end:
                    raise VerifierError(
                        "control falls off the program end", pc)
            if len(successors) != 1 or dead_at[successors[0][0]] is not None:
                return [(next_pc, self._forget_dead(next_pc, next_state))
                        for next_pc, next_state in successors]
            pc, state = successors[0]

    def _forget_dead(self, pc: int, state: State) -> State:
        """``state`` with the registers dead at prune point ``pc`` unset."""
        regs = state.regs
        dead = [reg for reg in self._dead_at[pc] if regs[reg] is not NOT_INIT]
        if not dead:
            return state
        regs = list(regs)
        for reg in dead:
            regs[reg] = NOT_INIT
        return State(tuple(regs), state.stack)

    def _subsumes(self, old: State, new: State) -> bool:
        """True if having verified ``old`` covers ``new``."""
        old_regs, new_regs = old.regs, new.regs
        if old_regs is not new_regs:
            first = self._fail_reg
            if not _value_subsumes(old_regs[first], new_regs[first]):
                return False
            for reg in range(_NUM_REGS):
                old_val = old_regs[reg]
                new_val = new_regs[reg]
                if old_val is not new_val and \
                        not _value_subsumes(old_val, new_val):
                    self._fail_reg = reg
                    return False
        if old.stack is new.stack:
            return True
        # Old must have been verified with *less* stack knowledge.
        new_stack = new.stack
        for slot, entry in old.stack.items():
            new_entry = new_stack.get(slot)
            if new_entry is None or new_entry[0] != entry[0]:
                return False
            if entry[0] == "ptr":
                if not _value_subsumes(entry[1], new_entry[1]):
                    return False
            elif not entry[1] <= new_entry[1]:
                return False
        return True

    def _check_jump_targets(self) -> None:
        insns = self.program.instructions
        for pc, insn in enumerate(insns):
            if insn.opcode == "ja" or insn.opcode in _JMP_REFINERS or \
                    insn.opcode == "jset":
                target = pc + 1 + insn.offset
                if not 0 <= target < len(insns):
                    raise VerifierError(
                        f"jump target {target} out of range", pc
                    )

    # ------------------------------------------------------------------
    # Transfer function
    # ------------------------------------------------------------------

    def _step(self, pc: int, state: State) -> List[Tuple[int, State]]:
        insn = self.program.instructions[pc]
        op = insn.opcode

        if op == "exit":
            r0 = state.regs[0]
            if r0 is NOT_INIT:
                raise VerifierError("exit with uninitialised r0", pc)
            if isinstance(r0, Ptr):
                raise VerifierError("exit with pointer in r0", pc)
            return []

        if op == "call":
            return [(pc + 1, self._check_call(pc, state, insn.imm))]

        if op == "ja":
            return [(pc + 1 + insn.offset, state)]

        if op == "lddw":
            value = insn.imm & U64_MAX
            return [(pc + 1, state.with_reg(insn.dst, Scalar(value, value)))]

        base = op[:-2] if op.endswith("32") else op
        if base in _ALU_BASES:
            return [(pc + 1, self._check_alu(pc, state, insn, base,
                                             op.endswith("32")))]

        if op in _JMP_REFINERS or op == "jset":
            return self._check_jump(pc, state, insn, op)

        if op.startswith("ldx"):
            return [(pc + 1, self._check_load(pc, state, insn,
                                              MEM_SIZES[op[3:]]))]
        if op.startswith("stx"):
            return [(pc + 1, self._check_store(pc, state, insn,
                                               MEM_SIZES[op[3:]],
                                               from_reg=True))]
        if op.startswith("st"):
            return [(pc + 1, self._check_store(pc, state, insn,
                                               MEM_SIZES[op[2:]],
                                               from_reg=False))]

        raise VerifierError(f"unknown opcode {op!r}", pc)

    # -- ALU ------------------------------------------------------------

    def _check_alu(self, pc: int, state: State, insn, base: str,
                   is32: bool) -> State:
        if insn.dst == FP_REG:
            raise VerifierError("write to frame pointer r10", pc)
        dst_val = state.regs[insn.dst]
        if base == "neg":
            if dst_val is NOT_INIT:
                raise VerifierError(f"neg of uninitialised r{insn.dst}", pc)
            if isinstance(dst_val, Ptr):
                raise VerifierError("neg of pointer", pc)
            return state.with_reg(insn.dst, UNKNOWN if not is32 else
                                  Scalar(0, U32_MAX))

        if insn.src_is_reg:
            src_val = state.regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"use of uninitialised r{insn.src}", pc)
        else:
            imm = insn.imm & U64_MAX
            src_val = Scalar(imm, imm)

        if base == "mov":
            if is32:
                if isinstance(src_val, Ptr):
                    raise VerifierError("mov32 of pointer", pc)
                return state.with_reg(insn.dst, _clamp32(src_val))
            return state.with_reg(insn.dst, src_val)

        if dst_val is NOT_INIT:
            raise VerifierError(f"use of uninitialised r{insn.dst}", pc)

        dst_ptr = isinstance(dst_val, Ptr)
        src_ptr = isinstance(src_val, Ptr)
        if dst_ptr or src_ptr:
            if is32:
                raise VerifierError("32-bit ALU on pointer", pc)
            if (dst_ptr and dst_val.maybe_null) or \
                    (src_ptr and src_val.maybe_null):
                raise VerifierError("arithmetic on maybe-null pointer", pc)
            if base == "add":
                if dst_ptr and src_ptr:
                    raise VerifierError("pointer + pointer", pc)
                ptr, scalar = (dst_val, src_val) if dst_ptr else (src_val,
                                                                  dst_val)
                return state.with_reg(insn.dst,
                                      self._ptr_add(pc, ptr, scalar))
            if base == "sub":
                if dst_ptr and src_ptr:
                    if dst_val.region != src_val.region:
                        raise VerifierError(
                            "pointer difference across regions", pc)
                    return state.with_reg(insn.dst, UNKNOWN)
                if dst_ptr and isinstance(src_val, Scalar) and \
                        src_val.const is not None:
                    delta = (-src_val.const) & U64_MAX
                    return state.with_reg(
                        insn.dst,
                        self._ptr_add(pc, dst_val, Scalar(delta, delta)))
                raise VerifierError(
                    "pointer minus unknown value is unbounded", pc)
            raise VerifierError(f"ALU op {base!r} on pointer", pc)

        result = _scalar_alu(base, dst_val, src_val, is32)
        return state.with_reg(insn.dst, result)

    def _ptr_add(self, pc: int, ptr: Ptr, scalar) -> Ptr:
        if not isinstance(scalar, Scalar):
            raise VerifierError("pointer adjusted by pointer", pc)
        # Interpret the scalar as signed when it is a constant near 2^64
        # (assembler encodes negative immediates that way).
        smin, smax = scalar.umin, scalar.umax
        if smin > 2**63:
            smin -= 2**64
            smax -= 2**64
        if smax > _OFF_LIMIT or smin < -_OFF_LIMIT:
            raise VerifierError("pointer offset adjustment unbounded", pc)
        off_min = ptr.off_min + smin
        off_max = ptr.off_max + smax
        if off_min < -_OFF_LIMIT or off_max > _OFF_LIMIT:
            raise VerifierError("pointer offset out of tractable range", pc)
        return replace(ptr, off_min=off_min, off_max=off_max)

    # -- jumps ------------------------------------------------------------

    def _check_jump(self, pc: int, state: State, insn,
                    op: str) -> List[Tuple[int, State]]:
        dst_val = state.regs[insn.dst]
        if dst_val is NOT_INIT:
            raise VerifierError(f"jump on uninitialised r{insn.dst}", pc)
        if insn.src_is_reg:
            src_val = state.regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"jump on uninitialised r{insn.src}", pc)
        else:
            imm = insn.imm & U64_MAX
            src_val = Scalar(imm, imm)

        taken_pc = pc + 1 + insn.offset
        out: List[Tuple[int, State]] = []

        # Pointer null-checks and pointer comparisons.
        if isinstance(dst_val, Ptr) or isinstance(src_val, Ptr):
            if op not in ("jeq", "jne"):
                raise VerifierError(f"ordered comparison {op!r} on pointer",
                                    pc)
            ptr, other, ptr_reg = (
                (dst_val, src_val, insn.dst)
                if isinstance(dst_val, Ptr)
                else (src_val, dst_val, insn.src)
            )
            if isinstance(other, Ptr):
                # ptr vs ptr: both outcomes possible, no refinement.
                return [(taken_pc, state), (pc + 1, state)]
            if isinstance(other, Scalar) and other.const == 0:
                non_null = replace(ptr, maybe_null=False)
                null_scalar = Scalar(0, 0)
                if ptr.maybe_null:
                    if op == "jeq":
                        out.append((taken_pc,
                                    state.with_reg(ptr_reg, null_scalar)))
                        out.append((pc + 1, state.with_reg(ptr_reg, non_null)))
                    else:
                        out.append((taken_pc,
                                    state.with_reg(ptr_reg, non_null)))
                        out.append((pc + 1,
                                    state.with_reg(ptr_reg, null_scalar)))
                    return out
                # Definite pointer never equals NULL.
                return [(pc + 1, state)] if op == "jeq" else [(taken_pc,
                                                               state)]
            # ptr vs non-zero scalar: never equal.
            return [(pc + 1, state)] if op == "jeq" else [(taken_pc, state)]

        if op == "jset":
            if dst_val.const is not None and src_val.const is not None:
                taken = (dst_val.const & src_val.const) != 0
                return [(taken_pc if taken else pc + 1, state)]
            return [(taken_pc, state), (pc + 1, state)]

        refine = _JMP_REFINERS[op]
        results = []
        taken = refine(dst_val, src_val, True)
        if taken is not None:
            new_dst, new_src = taken
            new_state = state.with_reg(insn.dst, new_dst)
            if insn.src_is_reg:
                new_state = new_state.with_reg(insn.src, new_src)
            results.append((taken_pc, new_state))
        not_taken = refine(dst_val, src_val, False)
        if not_taken is not None:
            new_dst, new_src = not_taken
            new_state = state.with_reg(insn.dst, new_dst)
            if insn.src_is_reg:
                new_state = new_state.with_reg(insn.src, new_src)
            results.append((pc + 1, new_state))
        if not results:
            raise VerifierError("branch with no feasible outcome", pc)
        return results

    # -- memory ------------------------------------------------------------

    def _region_of(self, pc: int, ptr: Ptr):
        if ptr.maybe_null:
            raise VerifierError(
                f"dereference of maybe-null pointer into {ptr.region!r} "
                "without a null check", pc)
        return ptr

    def _check_load(self, pc: int, state: State, insn, size: int) -> State:
        base = state.regs[insn.src]
        if base is NOT_INIT:
            raise VerifierError(f"load via uninitialised r{insn.src}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"load via non-pointer r{insn.src}", pc)
        self._region_of(pc, base)
        lo = base.off_min + insn.offset
        hi = base.off_max + insn.offset + size

        if base.region == "ctx":
            if base.off_min != base.off_max:
                raise VerifierError("ctx access with variable offset", pc)
            layout = self.program.ctx_layout
            try:
                ctx_field = layout.field_at(lo, size)
            except KeyError:
                raise VerifierError(
                    f"ctx load at ({lo}, {size}) matches no field", pc)
            if ctx_field.kind is FieldKind.POINTER:
                return state.with_reg(
                    insn.dst, Ptr(ctx_field.region, ctx_field.region_size))
            return state.with_reg(insn.dst, _range_of_size(size))

        if base.region == "stack":
            return self._stack_load(pc, state, insn, lo, hi, size)

        if lo < 0 or hi > base.size:
            raise VerifierError(
                f"load [{lo}, {hi}) out of bounds of {base.region!r} "
                f"({base.size}B)", pc)
        return state.with_reg(insn.dst, _range_of_size(size))

    def _stack_load(self, pc: int, state: State, insn, lo: int, hi: int,
                    size: int) -> State:
        if lo < 0 or hi > STACK_SIZE:
            raise VerifierError(f"stack load [{lo}, {hi}) out of bounds", pc)
        base = state.regs[insn.src]
        if base.off_min != base.off_max:
            raise VerifierError("stack access with variable offset", pc)
        slot = lo // 8
        entry = state.stack.get(slot)
        if size == 8 and lo % 8 == 0 and entry is not None and \
                entry[0] == "ptr":
            return state.with_reg(insn.dst, entry[1])
        # Scalar load: every byte must be initialised.
        for byte in range(lo, hi):
            slot_entry = state.stack.get(byte // 8)
            if slot_entry is None:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
            if slot_entry[0] == "ptr":
                raise VerifierError(
                    "partial read of a spilled pointer", pc)
            if (byte % 8) not in slot_entry[1]:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
        return state.with_reg(insn.dst, _range_of_size(size))

    def _check_store(self, pc: int, state: State, insn, size: int,
                     from_reg: bool) -> State:
        base = state.regs[insn.dst]
        if base is NOT_INIT:
            raise VerifierError(f"store via uninitialised r{insn.dst}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"store via non-pointer r{insn.dst}", pc)
        self._region_of(pc, base)

        if from_reg:
            value = state.regs[insn.src]
            if value is NOT_INIT:
                raise VerifierError(
                    f"store of uninitialised r{insn.src}", pc)
        else:
            imm = insn.imm & U64_MAX
            value = Scalar(imm, imm)

        lo = base.off_min + insn.offset
        hi = base.off_max + insn.offset + size

        if base.region == "ctx":
            if base.off_min != base.off_max:
                raise VerifierError("ctx access with variable offset", pc)
            layout = self.program.ctx_layout
            try:
                ctx_field = layout.field_at(lo, size)
            except KeyError:
                raise VerifierError(
                    f"ctx store at ({lo}, {size}) matches no field", pc)
            if ctx_field.kind is not FieldKind.SCALAR or not ctx_field.writable:
                raise VerifierError(
                    f"ctx field {ctx_field.name!r} is not writable", pc)
            if isinstance(value, Ptr):
                raise VerifierError("pointer stored to ctx", pc)
            return state

        if base.region == "stack":
            if base.off_min != base.off_max:
                raise VerifierError("stack access with variable offset", pc)
            if lo < 0 or hi > STACK_SIZE:
                raise VerifierError(
                    f"stack store [{lo}, {hi}) out of bounds", pc)
            stack = dict(state.stack)
            if isinstance(value, Ptr):
                if size != 8 or lo % 8 != 0:
                    raise VerifierError(
                        "pointer spill must be 8-byte aligned", pc)
                if value.maybe_null:
                    raise VerifierError("spill of maybe-null pointer", pc)
                stack[lo // 8] = ("ptr", value)
                return state.with_stack(stack)
            for byte in range(lo, hi):
                slot = byte // 8
                entry = stack.get(slot)
                if entry is None or entry[0] == "ptr":
                    initialised = frozenset()
                else:
                    initialised = entry[1]
                stack[slot] = ("bytes", initialised | {byte % 8})
            return state.with_stack(stack)

        if isinstance(value, Ptr):
            raise VerifierError(
                f"pointer stored to region {base.region!r}", pc)
        if lo < 0 or hi > base.size:
            raise VerifierError(
                f"store [{lo}, {hi}) out of bounds of {base.region!r} "
                f"({base.size}B)", pc)
        writable = self._region_writable(base.region)
        if not writable:
            raise VerifierError(f"store to read-only region {base.region!r}",
                                pc)
        return state

    def _region_writable(self, region: str) -> bool:
        if region.startswith("map_value:"):
            return True
        for ctx_field in self.program.ctx_layout.fields:
            if ctx_field.kind is FieldKind.POINTER and \
                    ctx_field.region == region:
                return ctx_field.writable
        return region == "stack"

    # -- helper calls --------------------------------------------------------

    def _check_call(self, pc: int, state: State, helper_id: int) -> State:
        try:
            spec = self.helpers.spec(helper_id)
        except Exception:
            raise VerifierError(f"call to unknown helper id {helper_id}", pc)

        map_for_call = None
        map_id_for_call = None
        args = list(spec.args)
        for index, kind in enumerate(args):
            reg = 1 + index
            value = state.regs[reg]
            if value is NOT_INIT:
                raise VerifierError(
                    f"helper {spec.name!r}: r{reg} uninitialised", pc)
            if kind is ArgKind.SCALAR:
                if isinstance(value, Ptr):
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be scalar", pc)
            elif kind in (ArgKind.CONST, ArgKind.MAP_ID):
                if not isinstance(value, Scalar) or value.const is None:
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be a known "
                        "constant", pc)
                if kind is ArgKind.MAP_ID:
                    if value.const not in self.maps:
                        raise VerifierError(
                            f"helper {spec.name!r}: unknown map id "
                            f"{value.const}", pc)
                    map_for_call = self.maps[value.const]
                    map_id_for_call = value.const
            elif kind in (ArgKind.MAP_KEY, ArgKind.MAP_VALUE):
                if map_for_call is None:
                    raise VerifierError(
                        f"helper {spec.name!r}: map arg before MAP_ID", pc)
                needed = (map_for_call.key_size if kind is ArgKind.MAP_KEY
                          else map_for_call.value_size)
                self._check_mem_arg(pc, state, spec, reg, value, needed,
                                    writable=False)
            elif kind in (ArgKind.PTR_MEM, ArgKind.PTR_MEM_WRITABLE):
                size_val = state.regs[reg + 1]
                if size_val is NOT_INIT or isinstance(size_val, Ptr):
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg + 1} must be a scalar "
                        "size", pc)
                if size_val.umax > spec.max_size:
                    raise VerifierError(
                        f"helper {spec.name!r}: size in r{reg + 1} unbounded "
                        f"(umax={size_val.umax})", pc)
                self._check_mem_arg(
                    pc, state, spec, reg, value, size_val.umax,
                    writable=(kind is ArgKind.PTR_MEM_WRITABLE))
            elif kind is ArgKind.SIZE:
                continue  # validated together with its pointer
            elif kind is ArgKind.PTR_CTX:
                if not isinstance(value, Ptr) or value.region != "ctx":
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be ctx pointer",
                        pc)
            else:
                raise VerifierError(
                    f"helper {spec.name!r}: unhandled arg kind {kind}", pc)

        regs = list(state.regs)
        for reg in range(1, 6):
            regs[reg] = NOT_INIT
        if spec.ret is RetKind.VOID:
            regs[0] = Scalar(0, 0)
        elif spec.ret is RetKind.MAP_VALUE_OR_NULL:
            if map_for_call is None:
                raise VerifierError(
                    f"helper {spec.name!r}: returns map value but no map",
                    pc)
            regs[0] = Ptr(f"map_value:{map_id_for_call}",
                          map_for_call.value_size, maybe_null=True)
        else:
            regs[0] = UNKNOWN
        return State(tuple(regs), state.stack)

    def _check_mem_arg(self, pc: int, state: State, spec, reg: int, value,
                       needed: int, writable: bool) -> None:
        if not isinstance(value, Ptr):
            raise VerifierError(
                f"helper {spec.name!r}: r{reg} must be a pointer", pc)
        self._region_of(pc, value)
        if needed == 0:
            return
        lo = value.off_min
        hi = value.off_max + needed
        if value.region == "stack":
            if lo < 0 or hi > STACK_SIZE:
                raise VerifierError(
                    f"helper {spec.name!r}: stack arg [{lo}, {hi}) out of "
                    "bounds", pc)
            if not writable:
                for byte in range(lo, hi):
                    entry = state.stack.get(byte // 8)
                    if entry is None or entry[0] == "ptr" or \
                            (byte % 8) not in entry[1]:
                        raise VerifierError(
                            f"helper {spec.name!r}: stack byte {byte} "
                            "uninitialised", pc)
            return
        if value.region == "ctx":
            raise VerifierError(
                f"helper {spec.name!r}: raw ctx memory may not be passed",
                pc)
        if lo < 0 or hi > value.size:
            raise VerifierError(
                f"helper {spec.name!r}: arg [{lo}, {hi}) out of bounds of "
                f"{value.region!r} ({value.size}B)", pc)
        if writable and not self._region_writable(value.region):
            raise VerifierError(
                f"helper {spec.name!r}: region {value.region!r} is "
                "read-only", pc)


# ---------------------------------------------------------------------------
# Scalar arithmetic and branch refinement
# ---------------------------------------------------------------------------


def _range_of_size(size: int) -> Scalar:
    return Scalar(0, (1 << (8 * size)) - 1)


def _clamp32(value: Scalar) -> Scalar:
    if value.umax <= U32_MAX:
        return value
    return Scalar(0, U32_MAX)


def _scalar_alu(base: str, a: Scalar, b: Scalar, is32: bool) -> Scalar:
    if is32:
        a = _clamp32(a) if a.umax <= U32_MAX else Scalar(0, U32_MAX)
        b = _clamp32(b) if b.umax <= U32_MAX else Scalar(0, U32_MAX)
    top = U32_MAX if is32 else U64_MAX

    result = None
    if base == "add":
        if a.umax + b.umax <= top:
            result = Scalar(a.umin + b.umin, a.umax + b.umax)
    elif base == "sub":
        if a.umin >= b.umax:
            result = Scalar(a.umin - b.umax, a.umax - b.umin)
    elif base == "mul":
        if a.umax * b.umax <= top:
            result = Scalar(a.umin * b.umin, a.umax * b.umax)
    elif base == "and":
        result = Scalar(0, min(a.umax, b.umax))
    elif base in ("or", "xor"):
        bits = max(a.umax, b.umax).bit_length()
        if bits < 64:
            result = Scalar(0, (1 << bits) - 1)
    elif base == "lsh":
        if b.const is not None:
            shift = b.const & (31 if is32 else 63)
            if a.umax << shift <= top:
                result = Scalar(a.umin << shift, a.umax << shift)
    elif base == "rsh":
        if b.const is not None:
            shift = b.const & (31 if is32 else 63)
            result = Scalar(a.umin >> shift, a.umax >> shift)
    elif base == "div":
        if b.const is not None and b.const > 0:
            result = Scalar(a.umin // b.const, a.umax // b.const)
    elif base == "mod":
        if b.const is not None and b.const > 0:
            if a.umax < b.const:
                result = a
            else:
                result = Scalar(0, b.const - 1)
    elif base == "arsh":
        # Only a value whose sign bit (bit 31 or 63) is clear shifts like
        # a logical shift; otherwise the result fills with ones.
        if a.umax < 2**(31 if is32 else 63) and b.const is not None:
            shift = b.const & (31 if is32 else 63)
            result = Scalar(a.umin >> shift, a.umax >> shift)

    if result is None:
        result = Scalar(0, top)
    if is32 and result.umax > U32_MAX:
        result = Scalar(0, U32_MAX)
    return result


def _refine(op):
    """Build a refinement function for an unsigned comparison.

    Returns ``fn(a, b, taken)`` yielding refined ``(a, b)`` scalars for the
    requested edge, or None if that edge is infeasible.
    """

    def refine(a: Scalar, b: Scalar, taken: bool):
        effective = op if taken else _NEGATION[op]
        if effective == "jeq":
            lo = max(a.umin, b.umin)
            hi = min(a.umax, b.umax)
            if lo > hi:
                return None
            return Scalar(lo, hi), Scalar(lo, hi)
        if effective == "jne":
            if a.const is not None and a.const == b.const:
                return None
            # Shave the boundary when one side is constant.
            new_a, new_b = a, b
            if b.const is not None:
                if a.umin == b.const and a.umin < a.umax:
                    new_a = Scalar(a.umin + 1, a.umax)
                elif a.umax == b.const and a.umin < a.umax:
                    new_a = Scalar(a.umin, a.umax - 1)
            if a.const is not None:
                if b.umin == a.const and b.umin < b.umax:
                    new_b = Scalar(b.umin + 1, b.umax)
                elif b.umax == a.const and b.umin < b.umax:
                    new_b = Scalar(b.umin, b.umax - 1)
            return new_a, new_b
        if effective == "jgt":  # a > b
            if a.umax <= b.umin:
                return None
            return (Scalar(max(a.umin, b.umin + 1), a.umax),
                    Scalar(b.umin, min(b.umax, a.umax - 1)))
        if effective == "jge":  # a >= b
            if a.umax < b.umin:
                return None
            return (Scalar(max(a.umin, b.umin), a.umax),
                    Scalar(b.umin, min(b.umax, a.umax)))
        if effective == "jlt":  # a < b
            if a.umin >= b.umax:
                return None
            return (Scalar(a.umin, min(a.umax, b.umax - 1)),
                    Scalar(max(b.umin, a.umin + 1), b.umax))
        if effective == "jle":  # a <= b
            if a.umin > b.umax:
                return None
            return (Scalar(a.umin, min(a.umax, b.umax)),
                    Scalar(max(b.umin, a.umin), b.umax))
        if effective in ("jsgt", "jsge", "jslt", "jsle"):
            # Signed comparisons: when both ranges sit in the non-negative
            # half they coincide with the unsigned refiners; otherwise give
            # up refinement but keep both edges feasible.
            if a.umax < 2**63 and b.umax < 2**63:
                unsigned = {"jsgt": "jgt", "jsge": "jge", "jslt": "jlt",
                            "jsle": "jle"}[effective]
                return _refine_table(unsigned)(a, b, True)
            return a, b
        raise AssertionError(effective)

    return refine


_NEGATION = {
    "jeq": "jne", "jne": "jeq",
    "jgt": "jle", "jle": "jgt",
    "jge": "jlt", "jlt": "jge",
    "jsgt": "jsle", "jsle": "jsgt",
    "jsge": "jslt", "jslt": "jsge",
}

_REFINERS_CACHE: Dict[str, object] = {}


def _refine_table(op: str):
    if op not in _REFINERS_CACHE:
        _REFINERS_CACHE[op] = _refine(op)
    return _REFINERS_CACHE[op]


_JMP_REFINERS = {
    op: _refine_table(op)
    for op in ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jsge",
               "jslt", "jsle")
}


# ---------------------------------------------------------------------------
# State subsumption (pruning)
# ---------------------------------------------------------------------------


def _value_subsumes(old, new) -> bool:
    """True if having verified ``old`` covers ``new`` (old is more general)."""
    if old is NOT_INIT:
        return True  # verified without knowing the register at all
    if old is new:
        return True
    if new is NOT_INIT or type(old) is not type(new):
        return False
    if type(old) is Scalar:
        return old.umin <= new.umin and old.umax >= new.umax
    return (old.region == new.region and old.size == new.size and
            old.off_min <= new.off_min and old.off_max >= new.off_max and
            (old.maybe_null or not new.maybe_null))


# ---------------------------------------------------------------------------
# Static analysis: prune points and register liveness
# ---------------------------------------------------------------------------

_NUM_REGS = FP_REG + 1
_ALL_REGS = (1 << _NUM_REGS) - 1
_ALU_BASES = frozenset(("add", "sub", "mul", "div", "mod", "or", "and",
                        "xor", "lsh", "rsh", "arsh", "mov", "neg"))


def _use_def(insn, helpers: HelperRegistry) -> Tuple[int, int]:
    """Bitmasks of the registers ``insn`` reads and writes.

    Mirrors the reads :meth:`Verifier._step` makes, so a register outside
    the live set can never be the cause of a check failing.
    """
    op = insn.opcode
    dst, src = 1 << insn.dst, (1 << insn.src) if insn.src_is_reg else 0
    if op == "exit":
        return 1, 0
    if op == "call":
        try:
            nargs = len(helpers.spec(insn.imm).args)
        except Exception:
            nargs = 5  # rejected at the call anyway
        return ((1 << (nargs + 1)) - 2), 0b111111
    if op == "ja":
        return 0, 0
    if op == "lddw":
        return 0, dst
    base = op[:-2] if op.endswith("32") else op
    if base in _ALU_BASES:
        if base == "mov":
            return src, dst
        if base == "neg":
            return dst, dst
        return dst | src, dst
    if op in _JMP_REFINERS or op == "jset":
        return dst | src, 0
    if op.startswith("ldx"):
        return 1 << insn.src, dst
    if op.startswith("stx"):
        return dst | (1 << insn.src), 0
    if op.startswith("st"):
        return dst, 0
    return _ALL_REGS, 0  # unknown opcode: rejected when reached


def _dead_at_prune_points(insns, helpers: HelperRegistry
                          ) -> List[Optional[Tuple[int, ...]]]:
    """Per pc, the registers dead on entry if it is a prune point, else None.

    Prune points are pc 0, jump targets, conditional-jump fall-throughs and
    the instruction after a call.  Liveness is a backward dataflow over the
    CFG: live-in = uses | (live-out & ~defs); r10 is always live.
    """
    count = len(insns)
    uses, defs, succs = [], [], []
    prune = [False] * count
    prune[0] = True
    for pc, insn in enumerate(insns):
        use, define = _use_def(insn, helpers)
        uses.append(use)
        defs.append(define)
        op = insn.opcode
        if op == "exit":
            nexts = ()
        elif op == "ja":
            nexts = (pc + 1 + insn.offset,)
        elif op in _JMP_REFINERS or op == "jset":
            nexts = (pc + 1 + insn.offset, pc + 1)
        else:
            nexts = (pc + 1,)
        if op == "ja" or op == "call" or len(nexts) == 2:
            for target in nexts:
                if target < count:
                    prune[target] = True
        succs.append(tuple(target for target in nexts if target < count))

    live = [0] * count
    changed = True
    while changed:
        changed = False
        for pc in range(count - 1, -1, -1):
            out = 0
            for target in succs[pc]:
                out |= live[target]
            live_in = uses[pc] | (out & ~defs[pc]) | (1 << FP_REG)
            if live_in != live[pc]:
                live[pc] = live_in
                changed = True
    return [tuple(reg for reg in range(_NUM_REGS) if not live[pc] >> reg & 1)
            if prune[pc] else None for pc in range(count)]


def verify(program: Program, helpers: HelperRegistry,
           maps: Optional[Dict[int, object]] = None,
           state_budget: int = 200_000) -> VerifierStats:
    """Verify ``program``; raises :class:`VerifierError` on rejection.

    On success, marks ``program.verified`` and returns exploration stats.
    """
    return Verifier(program, helpers, maps, state_budget).run()
