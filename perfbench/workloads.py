"""The three closed-loop workloads, each: cold set-up, then one measured phase.

Every simulated client is an engine coroutine that waits for its reply
before issuing its next op; the whole simulation runs on one host thread.
The measured phase advances the simulator in fixed slices of simulated
time and lets the :class:`~hostclock.HostClock` calibrate between them,
which changes host timing only: the simulated run is the same.

Each workload checks every answer against a reference and sorts failed
ops into ``failures`` (wrong answers, lost acked writes, stale reads,
errors raised to the caller).  A failure the workload cannot explain by
the known defect it documents goes into ``unexplained`` as well, which
makes the run incorrect.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional

import inputs

__all__ = ["WORKLOADS", "SIMLAYERS"]

#: Simulated time per slice between host-clock ticks.
SLICE_NS = 20_000

#: Attribution layer (``repro.obs``) -> ``simlayer.<name>_ns_per_op``.
SIMLAYERS = {
    "kernel crossing": "kernel_crossing",
    "read syscall": "read_syscall",
    "ext4": "ext4",
    "bio": "bio",
    "NVMe driver": "nvme_driver",
    "storage device": "device",
    "irq": "irq",
    "bpf": "bpf",
    "context switch": "context_switch",
    "application": "application",
}


def percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def app_work(kernel, ns: int):
    """Charge ``ns`` of application CPU on the caller's thread, and
    attribute it to the application layer when the bus is on."""
    yield from kernel.cpus.run_thread(ns)
    if kernel.bus.enabled:
        from repro.obs import events

        kernel.bus.emit(events.APP_PROCESS, kernel.sim.now, cpu_ns=ns,
                        path="normal")


def run_sliced(sim, clock, process, limit_ns: int) -> None:
    """Advance ``sim`` slice by slice until ``process`` has finished."""
    while not process.triggered:
        if sim.now > limit_ns:
            raise RuntimeError(f"workload still running at t={sim.now} ns")
        sim.run(until=sim.now + SLICE_NS)
        clock.tick()
    if not process.ok:
        raise process.exception


class Workload:
    """Shared bookkeeping: failures, latencies and simulated-layer totals."""

    name = ""

    def __init__(self, seed: int, obs=None):
        self.seed = seed
        self.obs = obs
        self.failures: Dict[str, int] = {}
        self.unexplained = 0
        self.attempted = 0
        self.latencies: List[int] = []
        self.sim_elapsed_ns = 0
        self.counts: Dict[str, float] = {}
        self.sim: Dict[str, float] = {}
        self._layer_base: Dict[str, int] = {}
        self.simlayer: Dict[str, float] = {}

    def fail(self, kind: str, explained: bool = False) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if not explained:
            self.unexplained += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    # -- simulated per-layer ns (traced runs only) ----------------------

    def _layer_totals(self) -> Dict[str, int]:
        totals = {name: 0 for name in SIMLAYERS.values()}
        for (_path, layer), ns in self.obs.attribution.ns.items():
            if layer in SIMLAYERS:
                totals[SIMLAYERS[layer]] += ns
        return totals

    def layers_begin(self) -> None:
        if self.obs is not None:
            self._layer_base = self._layer_totals()

    def layers_end(self, ops: int) -> None:
        if self.obs is not None:
            now = self._layer_totals()
            self.simlayer = {name: (now[name] - self._layer_base[name]) / ops
                             for name in now}

    def latency_metrics(self) -> None:
        ordered = sorted(self.latencies)
        self.sim["sim_p50_us"] = percentile(ordered, 0.50) / 1000
        self.sim["sim_p99_us"] = percentile(ordered, 0.99) / 1000
        self.sim["p99_samples"] = len(ordered)


# ---------------------------------------------------------------------------
# btree_lookup
# ---------------------------------------------------------------------------


class BtreeLookup(Workload):
    """Fig. 3b: depth-6 B-tree on gen-2 Optane, read() vs NVMe-hook chains."""

    name = "btree_lookup"
    DEPTH = 6
    CORES = 6
    THREADS = 12

    def __init__(self, seed: int, obs=None, size: float = 1.0):
        super().__init__(seed, obs)
        self.phase_ns = int(5_000_000 * size)

    def setup(self) -> None:
        from repro.bench.runner import BtreeBench

        # One machine per path, as Fig. 3b compares them; both are built
        # and their program verified before anything is measured.
        self.read_bench = BtreeBench(self.DEPTH, cores=self.CORES,
                                     seed=self.seed)
        self.chain_bench = BtreeBench(self.DEPTH, cores=self.CORES,
                                      seed=self.seed)

    def _run_phase(self, bench, clock, make_op):
        sim = bench.sim
        stop_at = sim.now + self.phase_ns
        results: List[tuple] = []
        latencies: List[int] = []
        finish = [sim.now]

        def worker(index):
            rng = inputs.stream(self.seed, f"btree/thread-{index}")
            keys = bench.keys
            one_op = yield from make_op(index)
            while sim.now < stop_at:
                key = keys[rng.randrange(len(keys))]
                start = sim.now
                value, found = yield from one_op(key)
                latencies.append(sim.now - start)
                results.append((key, value, found))
                finish[0] = max(finish[0], sim.now)

        def driver():
            procs = [sim.spawn(worker(i), name=f"btree-{i}")
                     for i in range(self.THREADS)]
            yield sim.all_of(procs)

        start = sim.now
        run_sliced(sim, clock, sim.spawn(driver(), name="btree-driver"),
                   start + 100 * self.phase_ns)
        return results, latencies, finish[0] - start

    def measure(self, clock) -> None:
        from repro.core import Hook
        from repro.structures.pages import PAGE_SIZE, search_page

        read_kernel = self.read_bench.kernel
        depth = self.DEPTH

        def read_op(index):
            proc = read_kernel.spawn_process(f"read-{index}")
            fd = yield from read_kernel.sys_open(proc, "/index")
            root = self.read_bench.tree.meta.root_offset
            user_ns = read_kernel.cost.user_process_ns

            def one_op(key):
                offset = root
                for level in range(depth):
                    result = yield from read_kernel.sys_pread(
                        proc, fd, offset, PAGE_SIZE)
                    # The application parses the page in user space.
                    yield from app_work(read_kernel, user_ns)
                    index, child = search_page(result.data, key)
                    if level == depth - 1:
                        found = index >= 0 and int.from_bytes(
                            result.data[16 + 16 * index:24 + 16 * index],
                            "little") == key
                        return (child if found else None), found
                    if child is None:
                        return None, False
                    offset = child

            return one_op

        chain = self.chain_bench

        def chain_op(index):
            kernel = chain.kernel
            proc = kernel.spawn_process(f"chain-{index}")
            fd = yield from kernel.sys_open(proc, "/index")
            yield from chain.bpf.install(proc, fd, chain.program,
                                         hook=Hook.NVME)
            root = chain.tree.meta.root_offset

            def one_op(key):
                result = yield from chain.bpf.read_chain(
                    proc, fd, root, PAGE_SIZE, args=(key,))
                found = result.value2 == 1
                return (result.value if found else None), found

            return one_op

        machines = (read_kernel, chain.kernel)
        syscalls_before = sum(k.syscall_count for k in machines)
        nvme_before = sum(k.device.completed for k in machines)
        writes_before = sum(k.media.writes for k in machines)
        clock.start()
        read_results, _lat, read_ns = self._run_phase(self.read_bench, clock,
                                                      read_op)
        self.layers_begin()
        chain_results, self.latencies, chain_ns = self._run_phase(
            chain, clock, chain_op)
        clock.stop()
        self.layers_end(len(chain_results))

        self.attempted = len(read_results) + len(chain_results)
        self.sim_elapsed_ns = chain_ns
        read_kops = len(read_results) / read_ns * 1e6
        chain_kops = len(chain_results) / chain_ns * 1e6
        self.sim["sim_kops"] = chain_kops
        self.sim["read_sim_kops"] = read_kops
        self.sim["sim_speedup"] = chain_kops / read_kops
        self.latency_metrics()
        self.counts.update({
            "kernel.syscalls": sum(k.syscall_count for k in machines)
            - syscalls_before,
            "device.nvme_cmds": sum(k.device.completed for k in machines)
            - nvme_before,
            "device.bytes_written": 512 * (
                sum(k.media.writes for k in machines) - writes_before),
        })
        self.results = (read_results, chain_results)

    def check(self) -> None:
        """Every answer, both paths, against ``BTree.lookup``."""
        tree = self.chain_bench.tree
        expected: Dict[int, Optional[int]] = {}
        for results in self.results:
            for key, value, found in results:
                if key not in expected:
                    expected[key] = tree.lookup(key)
                want = expected[key]
                if found != (want is not None) or value != want:
                    self.fail("wrong_answer")


# ---------------------------------------------------------------------------
# lsm_mixed
# ---------------------------------------------------------------------------


class LsmMixed(Workload):
    """50/50 get/put on an LSM tree with chain gets and offloaded compaction."""

    name = "lsm_mixed"
    PRELOAD = 20_000
    MEMTABLE = 1024
    WORKERS = 4
    CORES = 4
    THETA = 0.9
    L0_TRIGGER = 4
    MAX_GET_RETRIES = 8

    def __init__(self, seed: int, obs=None, size: float = 1.0):
        super().__init__(seed, obs)
        self.ops = int(16_000 * size)

    def setup(self) -> None:
        from repro.bench.runner import NVM2_BENCH
        from repro.compact import CompactionEngine
        from repro.core import StorageBpf
        from repro.core.library import index_traversal_program
        from repro.kernel import Kernel, KernelConfig
        from repro.sim import Simulator
        from repro.structures import LsmTree

        self.simulator = sim = Simulator()
        self.kernel = Kernel(sim, NVM2_BENCH,
                             KernelConfig(cores=self.CORES, seed=self.seed))
        self.bpf = StorageBpf(self.kernel)
        self.program = self.bpf.verify_program(index_traversal_program())
        self.engine = CompactionEngine(self.bpf)
        # l0_limit far above the trigger: the tree's own synchronous
        # user-space compaction must never run; the compactor thread
        # offloads every compaction instead.
        self.tree = tree = LsmTree(self.kernel.fs, "/db",
                                   memtable_limit=self.MEMTABLE,
                                   l0_limit=1 << 20)
        self.model: Dict[int, int] = {}
        for key in range(self.PRELOAD):
            value = key * 3 + 1
            tree.put(key, value)
            self.model[key] = value
        tree.flush()
        # Settle the preload into one L1 run, as a long-running store is.
        proc = self.engine.spawn()
        sim.run_process(self.engine.compact_tree(proc, tree, 0,
                                                 mode="offloaded"))
        self.plans = [inputs.lsm_ops(self.seed, w, self.ops // self.WORKERS,
                                     self.PRELOAD, self.THETA)
                      for w in range(self.WORKERS)]

    def measure(self, clock) -> None:
        from repro.errors import KernelError
        from repro.structures.pages import PAGE_SIZE

        sim = self.simulator
        kernel = self.kernel
        bpf = self.bpf
        tree = self.tree
        program = self.program
        user_ns = kernel.cost.user_process_ns
        # Per key: put sequence numbers and values, for "any value the key
        # held during the get".  Preloaded values sit at sequence 0.
        seqs: Dict[int, List[int]] = {k: [0] for k in self.model}
        values: Dict[int, List[int]] = {k: [v] for k, v in self.model.items()}
        clock_seq = [0]
        get_latency: List[int] = []
        stats = {"gets": 0, "tables": 0, "retries": 0, "puts": 0}
        compactor_wake = [sim.event()]
        state = {"running": False, "stop": False, "compactions": 0}
        writes_before = kernel.media.writes
        nvme_before = kernel.device.completed
        flushes_before = tree.flushes
        syscalls_before = kernel.syscall_count

        def maybe_wake():
            if (not state["running"] and
                    len(tree.levels[0]) >= self.L0_TRIGGER and
                    not compactor_wake[0].triggered):
                compactor_wake[0].succeed()

        def compactor():
            proc = self.engine.spawn()
            while True:
                yield compactor_wake[0]
                compactor_wake[0] = sim.event()
                if state["stop"]:
                    return
                state["running"] = True
                yield from self.engine.compact_tree(proc, tree, 0,
                                                    mode="offloaded")
                state["compactions"] += 1
                state["running"] = False
                maybe_wake()

        def chain_get(proc, fds, key):
            """One get: memtable, then a chain per candidate table."""
            if key in tree.memtable:
                return tree.memtable[key], 0
            walked = 0
            for path, table in tree.candidate_tables(key):
                fd = fds.get(path)
                if fd is None:
                    fd = yield from kernel.sys_open(proc, path)
                    yield from bpf.install(proc, fd, program)
                    fds[path] = fd
                walked += 1
                result = yield from bpf.read_chain_robust(
                    proc, fd, table.root_index_offset, PAGE_SIZE,
                    args=(key,))
                if result.value2 == 1:
                    return result.value, walked
            return None, walked

        def close_dead(proc, fds):
            live = {path for level in tree.levels for path, _t in level}
            for path in [p for p in fds if p not in live]:
                yield from kernel.sys_close(proc, fds.pop(path))

        def worker(index):
            proc = kernel.spawn_process(f"lsm-{index}")
            fds: Dict[str, int] = {}
            seen_compactions = 0
            for op, key, value in self.plans[index]:
                if state["compactions"] != seen_compactions:
                    seen_compactions = state["compactions"]
                    yield from close_dead(proc, fds)
                start = sim.now
                # Memtable probe / insert and result handling: app CPU.
                yield from app_work(kernel, user_ns)
                if op == "put":
                    tree.put(key, value)
                    clock_seq[0] += 1
                    seqs[key].append(clock_seq[0])
                    values[key].append(value)
                    stats["puts"] += 1
                    maybe_wake()
                    continue
                seq_start = clock_seq[0]
                compactions_start = tree.compactions
                got = None
                for attempt in range(self.MAX_GET_RETRIES + 1):
                    try:
                        got, walked = yield from chain_get(proc, fds, key)
                        break
                    except KernelError:
                        # A get racing an unlink: retry from a fresh
                        # candidate snapshot.
                        stats["retries"] += 1
                else:
                    self.fail("error_raised")
                    continue
                get_latency.append(sim.now - start)
                stats["gets"] += 1
                stats["tables"] += walked
                history = seqs[key]
                first = bisect.bisect_right(history, seq_start) - 1
                last = bisect.bisect_right(history, clock_seq[0])
                if got not in values[key][first:last]:
                    # Known defect: ExtFs.unlink frees a table's extents
                    # while chain descriptors on it are still open, so a
                    # get racing a compaction can read freed blocks.
                    self.fail("wrong_answer",
                              explained=tree.compactions != compactions_start)

        def driver():
            compaction = sim.spawn(compactor(), name="compactor")
            procs = [sim.spawn(worker(w), name=f"lsm-{w}")
                     for w in range(self.WORKERS)]
            yield sim.all_of(procs)
            self.sim_elapsed_ns = sim.now - start
            state["stop"] = True
            if not compactor_wake[0].triggered:
                compactor_wake[0].succeed()
            yield compaction

        self.layers_begin()
        clock.start()
        start = sim.now
        run_sliced(sim, clock, sim.spawn(driver(), name="lsm-driver"),
                   start + 10_000_000_000)
        clock.stop()
        self.attempted = sum(len(plan) for plan in self.plans)
        self.layers_end(self.attempted)
        self.latencies = get_latency
        self.sim["sim_kops"] = self.attempted / self.sim_elapsed_ns * 1e6
        self.latency_metrics()
        written = 512 * (kernel.media.writes - writes_before)
        self.sim["sim_write_amp"] = written / (16 * stats["puts"])
        self.counts.update({
            "structures.lsm_flushes": tree.flushes - flushes_before,
            "structures.tables_per_get": stats["tables"] / stats["gets"],
            "structures.get_retries": stats["retries"],
            "device.nvme_cmds": kernel.device.completed - nvme_before,
            "kernel.syscalls": kernel.syscall_count - syscalls_before,
            "device.bytes_written": written,
            "compactions": state["compactions"],
        })
        self._final = {key: vals[-1] for key, vals in values.items()}

    def check(self) -> None:
        """The final state, key by key, against ``LsmTree.get``."""
        for key, want in self._final.items():
            if self.tree.get(key) != want:
                self.fail("lost_write")


# ---------------------------------------------------------------------------
# cluster_ycsb
# ---------------------------------------------------------------------------


class ClusterYcsb(Workload):
    """YCSB "paper" mix on a 4-shard replicated cluster with one crash."""

    name = "cluster_ycsb"
    SHARDS = 4
    CORES = 2
    RTT_US = 10
    WORKERS = 8
    INITIAL_KEYS = 512
    THETA = 0.7
    INDEX_KEYS = 64
    INDEX_FANOUT = 16
    INDEX_SHARE = 0.05
    REJOIN_DELAY_NS = 1_000_000
    REJOIN_POLL_NS = 100_000

    def __init__(self, seed: int, obs=None, size: float = 1.0):
        super().__init__(seed, obs)
        self.ops = int(10_000 * size)

    def setup(self) -> None:
        from repro.bench.runner import NVM2_BENCH
        from repro.cluster import ClusterClient, StorageCluster
        from repro.core.library import index_traversal_program
        from repro.faults import FaultSpec
        from repro.sim import Simulator

        self.index = {k * 3 + 1: k for k in range(self.INDEX_KEYS)}
        self.plan = inputs.ycsb_ops(self.seed, self.ops, self.INITIAL_KEYS,
                                    self.THETA, self.INDEX_SHARE,
                                    sorted(self.index))
        inserts = sum(1 for op, key, _v in self.plan
                      if op == "put" and key >= self.INITIAL_KEYS)
        self.simulator = sim = Simulator()
        # Target 0 loses power part-way through the run.
        spec = FaultSpec(seed=self.seed,
                         target_crash_after_rpcs=self.ops // 5)
        self.cluster = cluster = StorageCluster(
            sim, self.SHARDS, model=NVM2_BENCH, seed=self.seed,
            cores=self.CORES,
            capacity_keys=self.INITIAL_KEYS + inserts + 8,
            rtt_us=self.RTT_US, fault_spec=spec, crash_victim=0)
        self.preload = {key: key * 7 + 1 for key in range(self.INITIAL_KEYS)}
        cluster.preload(sorted(self.preload.items()))
        self.root = cluster.build_index("/cindex", sorted(self.index.items()),
                                        fanout=self.INDEX_FANOUT)
        self.client = ClusterClient(cluster, "ycsb")
        program = index_traversal_program(fanout=self.INDEX_FANOUT)
        sim.run_process(self.client.install_chains("/cindex", program))

    def measure(self, clock) -> None:
        from repro.errors import KernelError

        sim = self.simulator
        cluster = self.cluster
        client = self.client
        # Per-key register model: acked (seq, version, value) in ack order,
        # and every value ever put (acked or not) to the key.
        acks: Dict[int, List[tuple]] = {}
        put_values: Dict[int, set] = {k: {v} for k, v in self.preload.items()}
        seq = [0]
        latencies: List[int] = []
        rejoin: Dict[str, object] = {}
        puts = [0]
        writes_before = sum(t.kernel.media.writes for t in cluster.targets)
        nvme_before = sum(t.kernel.device.completed for t in cluster.targets)
        syscalls_before = sum(t.kernel.syscall_count
                              for t in cluster.targets)

        def acked_floor(key: int, at_seq: int) -> int:
            floor = 0
            for ack_seq, version, _value in acks.get(key, ()):
                if ack_seq <= at_seq:
                    floor = max(floor, version)
            return floor

        def check_get(key, value, version, found, seq_start) -> None:
            floor = acked_floor(key, seq_start)
            if floor and (not found or version < floor):
                self.fail("stale_read")
                return
            if not found:
                if key in self.preload:
                    self.fail("wrong_answer")
                return
            for _s, acked_version, acked_value in acks.get(key, ()):
                if acked_version == version:
                    if acked_value != value:
                        self.fail("wrong_answer")
                    return
            if value not in put_values.get(key, ()):
                self.fail("wrong_answer")

        def worker(assigned):
            for op, key, value in assigned:
                start = sim.now
                seq_start = seq[0]
                try:
                    if op == "put":
                        put_values.setdefault(key, set()).add(value)
                        version = yield from client.put(key, value)
                        seq[0] += 1
                        acks.setdefault(key, []).append(
                            (seq[0], version, value))
                        puts[0] += 1
                    elif op == "get":
                        got, version, found = yield from client.get(key)
                        check_get(key, got, version, found, seq_start)
                    else:
                        got, found = yield from client.index_get(
                            key, root_offset=self.root)
                        if not found or got != self.index[key]:
                            self.fail("wrong_answer")
                except KernelError:
                    self.fail("error_raised")
                    continue
                latencies.append(sim.now - start)

        def rejoiner(workers):
            # Bring target 0 back once the client has failed over.
            while cluster.failovers == 0:
                if all(proc.triggered for proc in workers):
                    return
                yield sim.timeout(self.REJOIN_POLL_NS)
            yield sim.timeout(self.REJOIN_DELAY_NS)
            report = yield from cluster.rejoin(0)
            yield from client.reinstall_chains(0)
            rejoin["report"] = report

        def driver():
            start = sim.now
            procs = [sim.spawn(worker(self.plan[w::self.WORKERS]),
                               name=f"ycsb-{w}")
                     for w in range(self.WORKERS)]
            procs.append(sim.spawn(rejoiner(list(procs)), name="rejoin"))
            yield sim.all_of(procs)
            self.sim_elapsed_ns = sim.now - start

        self.layers_begin()
        clock.start()
        run_sliced(sim, clock, sim.spawn(driver(), name="ycsb-driver"),
                   sim.now + 10_000_000_000)
        clock.stop()
        self.attempted = len(self.plan)
        self.layers_end(self.attempted)
        self.latencies = latencies
        self.sim["sim_kops"] = self.attempted / self.sim_elapsed_ns * 1e6
        self.latency_metrics()
        gap = client.availability_gap_ns
        self.sim["sim_unavail_us"] = (gap or 0) / 1000
        written = 512 * (sum(t.kernel.media.writes for t in cluster.targets)
                         - writes_before)
        self.sim["sim_write_amp"] = written / (16 * max(1, puts[0]))
        report = rejoin.get("report")
        self.counts.update({
            "device.nvme_cmds": sum(t.kernel.device.completed
                                    for t in cluster.targets) - nvme_before,
            "device.bytes_written": written,
            "kernel.syscalls": sum(t.kernel.syscall_count
                                   for t in cluster.targets) - syscalls_before,
            "cluster.replications": sum(cluster.shard_replicated.values()),
            "cluster.failovers": cluster.failovers,
            "cluster.caught_up": report.caught_up if report else 0,
        })
        if report is None or not report.fsck_ok:
            # No crash, or a target that did not come back clean.
            self.fail("rejoin_failed")
        self._acks = acks

    def check(self) -> None:
        """Every acked write must read back at >= its acked version."""
        sim = self.simulator
        client = self.client
        lost = []

        def reader():
            for key in sorted(self._acks):
                _seq, version, value = self._acks[key][-1]
                got, got_version, found = yield from client.get(key)
                if (not found or got_version < version or
                        (got_version == version and got != value)):
                    lost.append(key)

        sim.run_process(reader())
        for _key in lost:
            self.fail("lost_acked_write")


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    BtreeLookup.name: BtreeLookup,
    LsmMixed.name: LsmMixed,
    ClusterYcsb.name: ClusterYcsb,
}
