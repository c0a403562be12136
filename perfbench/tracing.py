"""Host-time spans recorded around public calls into each layer.

Nothing in ``src/`` is instrumented: :func:`install` replaces public
functions and methods of the program's modules with timing wrappers, from
this file, for the life of one traced child process.

* A plain call is one span.
* A generator call (``sys_pread``, ``read_chain``, ...) is one span per
  *resumption*, so time a coroutine spends suspended in the simulator is
  not charged to it.
* Every process spawned into the simulator is wrapped the same way and
  charged to the layer its generator's code lives in.

A span's self time is its duration minus the time its child spans cover.
Every span belongs to the phase (``setup`` or ``measured``) whose root
frame it runs under, so per phase the self times of all buckets add up to
the phase's duration exactly.  Spans are kept in flat in-memory arrays
and written out once, at the end.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

__all__ = ["CALIBRATE", "Tracer", "install", "TIME_BUCKETS"]

#: Span name -> per-layer metric its self time is reported under.
TIME_BUCKETS: Dict[str, str] = {
    "sim.engine": "sim.engine_self_s",
    "ebpf.verify": "ebpf.verify_s",
    "ebpf.vm": "ebpf.vm_s",
    "core.chain": "core.chain_s",
    "core.refresh": "core.chain_s",
    "core.install": "core.install_s",
    "kernel.syscall": "kernel.syscall_s",
    "kernel.recover": "kernel.recover_s",
    "kernel.other": "kernel.other_s",
    "structures.lsm_put": "structures.lsm_put_s",
    "structures.btree_build": "structures.btree_build_s",
    "compact": "compact.s",
    "device": "device.s",
    "net.codec": "net.codec_s",
    "net.transport": "net.transport_s",
    "cluster": "cluster.s",
    "cluster.rejoin": "cluster.rejoin_s",
    "obs.emit": "obs.emit_s",
    "bench.app": "bench.app_s",
    "other": "other_s",
}

#: Package of a spawned generator's code -> the span it is charged to.
_SPAWN_LAYER = {
    "core": "core.chain",
    "kernel": "kernel.other",
    "device": "device",
    "net": "net.transport",
    "cluster": "cluster",
    "compact": "compact",
    "sim": "sim.engine",
    "obs": "obs.emit",
}

_ROOT = "bench.app"
#: Span of the host-speed calibration loops: not part of any layer.
CALIBRATE = "calibrate"


class Tracer:
    """Span stack plus per-phase self-time and count accumulators."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.phase = ""
        #: phase -> per-name-id self seconds
        self.self_s: Dict[str, List[float]] = {}
        #: phase -> span name -> calls; phase -> counter -> total
        self.calls: Dict[str, Dict[str, int]] = {}
        self.counts: Dict[str, Dict[str, int]] = {}
        #: phase -> duration of its root span (the whole phase)
        self.phase_s: Dict[str, float] = {}
        #: every net Connection built while traced (for its counters)
        self.connections: List = []
        self._stack: List[list] = []
        self._self: List[float] = []

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            for accum in self.self_s.values():
                accum.append(0.0)
        return ident

    # -- phases --------------------------------------------------------

    def begin_phase(self, phase: str) -> None:
        """Open the root span of ``phase`` (benchmark code's own time)."""
        if self._stack:
            raise RuntimeError("a phase is already open")
        self.phase = phase
        self._self = self.self_s.setdefault(phase, [0.0] * len(self.names))
        self.calls.setdefault(phase, {})
        self.counts.setdefault(phase, {})
        self._stack.append(None)  # sentinel parent of the root
        self.enter(self.name_id(_ROOT))

    def end_phase(self) -> None:
        root = self._stack[-1][3]
        self.exit()
        self.phase_s[self.phase] = (self.span_end[root] -
                                    self.span_start[root])
        self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans at phase end")
        self.phase = ""

    # -- spans ---------------------------------------------------------

    def enter(self, ident: int) -> None:
        index = len(self.span_start)
        parent = self._stack[-1]
        self.span_name.append(ident)
        self.span_parent.append(parent[3] if parent is not None else -1)
        self.span_end.append(0.0)
        now = time.perf_counter()
        self.span_start.append(now)
        self._stack.append([ident, now, 0.0, index])

    def exit(self) -> None:
        now = time.perf_counter()
        ident, start, child, index = self._stack.pop()
        duration = now - start
        self.span_end[index] = now
        parent = self._stack[-1]
        if parent is not None:
            parent[2] += duration
        self._self[ident] += duration - child

    def count(self, key: str, amount: int = 1) -> None:
        counts = self.counts[self.phase]
        counts[key] = counts.get(key, 0) + amount

    def call(self, name: str) -> None:
        calls = self.calls[self.phase]
        calls[name] = calls.get(name, 0) + 1

    # -- results -------------------------------------------------------

    def phase_self(self, phase: str) -> Dict[str, float]:
        accum = self.self_s.get(phase, [])
        return {self.names[i]: accum[i] for i in range(len(accum))}

    def write(self, path: str) -> int:
        """Write every span as a gzip TSV row: id, parent, name, start
        and end (seconds from the first span)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            base = self.span_start[0] if self.span_start else 0.0
            for index in range(len(self.span_start)):
                out.write(f"{index}\t{self.span_parent[index]}\t"
                          f"{names[self.span_name[index]]}\t"
                          f"{self.span_start[index] - base:.9f}\t"
                          f"{self.span_end[index] - base:.9f}\n")
        return len(self.span_start)

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span named ``name``."""
        ident = self.name_id(name)
        self.enter(ident)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _traced_gen(tracer: Tracer, ident: int, gen, post=None):
    """Drive ``gen``, timing each resumption as one span."""
    enter = tracer.enter
    exit_ = tracer.exit
    value = None
    error = None
    while True:
        enter(ident)
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            exit_()
            if post is not None:
                post(stop.value)
            return stop.value
        except BaseException:
            exit_()
            raise
        exit_()
        try:
            value = yield target
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            error = exc
            value = None


_TRACED_CODE = _traced_gen.__code__


def _wrap(tracer: Tracer, fn: Callable, name: str,
          post: Optional[Callable] = None) -> Callable:
    ident = tracer.name_id(name)
    call = tracer.call

    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            call(name)
            return _traced_gen(tracer, ident, fn(*args, **kwargs), post)
    else:
        def wrapper(*args, **kwargs):
            call(name)
            tracer.enter(ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if post is not None:
                post(result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _patch_method(tracer, cls, attr, name, post=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(tracer, raw.__func__, name,
                                              post)))
    else:
        setattr(cls, attr, _wrap(tracer, raw, name, post))


def _patch_function(tracer, module, attr, name):
    """Wrap a module-level function everywhere it was imported by name."""
    original = getattr(module, attr)
    wrapper = _wrap(tracer, original, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _spawn_layer(tracer: Tracer, gen) -> int:
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame else ""
    if module.startswith("repro."):
        package = module.split(".")[1]
        return tracer.name_id(_SPAWN_LAYER.get(package, "other"))
    return tracer.name_id(_ROOT)


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points (one process, for good)."""
    from repro.cluster.client import ClusterClient
    from repro.cluster.cluster import StorageCluster
    from repro.compact.engine import CompactionEngine
    from repro.core.api import StorageBpf
    from repro.device.nvme import NvmeDevice
    from repro.ebpf.verifier import Verifier
    from repro.ebpf.vm import Vm
    from repro.kernel import recovery
    from repro.kernel.kernel import Kernel
    from repro.net import wire
    from repro.net.transport import Connection
    from repro.obs.bus import TraceBus
    from repro.sim.engine import Simulator
    from repro.structures.btree import BTree
    from repro.structures.lsm import LsmTree

    count = tracer.count

    def verified(stats):
        count("ebpf.verify_states", stats.states_explored)

    def vm_ran(result):
        count("ebpf.vm_insns", result.instructions)

    def chain_done(result):
        count("core.chain_hops", result.hops)

    def compacted(result):
        report, _output = result
        count("compact.runs")
        count("compact.boundary_bytes", report.user_bytes)
        count("compact.output_bytes", report.output_bytes)

    original_init = Connection.__init__

    def connection_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.connections.append(self)

    Connection.__init__ = connection_init

    _patch_method(tracer, Verifier, "run", "ebpf.verify", verified)
    _patch_method(tracer, Vm, "run", "ebpf.vm", vm_ran)
    _patch_method(tracer, Simulator, "run", "sim.engine")
    original_spawn = Simulator.spawn

    def spawn(self, generator, name=""):
        if getattr(generator, "gi_code", None) is not _TRACED_CODE:
            generator = _traced_gen(tracer, _spawn_layer(tracer, generator),
                                    generator)
        return original_spawn(self, generator, name)

    Simulator.spawn = spawn
    for attr in ("install", "open_chain"):
        _patch_method(tracer, StorageBpf, attr, "core.install")
    _patch_method(tracer, StorageBpf, "read_chain", "core.chain",
                  chain_done)
    _patch_method(tracer, StorageBpf, "read_chain_robust", "core.chain")
    _patch_method(tracer, StorageBpf, "refresh", "core.refresh")
    for attr in ("sys_open", "sys_close", "sys_pread", "sys_pwrite",
                 "sys_fsync", "sys_ioctl", "sys_unlink", "sys_rename",
                 "sys_ftruncate"):
        _patch_method(tracer, Kernel, attr, "kernel.syscall")
    _patch_method(tracer, Kernel, "recover", "kernel.recover")
    _patch_function(tracer, recovery, "fsck", "kernel.recover")
    _patch_method(tracer, LsmTree, "put", "structures.lsm_put")
    _patch_method(tracer, BTree, "build", "structures.btree_build")
    _patch_method(tracer, CompactionEngine, "compact_tree", "compact")
    _patch_method(tracer, CompactionEngine, "compact_files", "compact",
                  compacted)
    _patch_method(tracer, NvmeDevice, "submit", "device")
    for attr in dir(wire):
        if attr.startswith(("encode_", "decode_")) and \
                callable(getattr(wire, attr)):
            _patch_function(tracer, wire, attr, "net.codec")
    _patch_method(tracer, Connection, "call", "net.transport")
    _patch_method(tracer, StorageCluster, "replicate", "cluster")
    _patch_method(tracer, StorageCluster, "rejoin", "cluster.rejoin")
    for attr in ("put", "get", "index_get", "install_chains",
                 "reinstall_chains"):
        _patch_method(tracer, ClusterClient, attr, "cluster")
    for attr in ("emit", "span_start", "span_end"):
        _patch_method(tracer, TraceBus, attr, "obs.emit")
