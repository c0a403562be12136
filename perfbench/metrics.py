"""What each per-layer metric is for.

``BENCHMARK.json`` is the one list of metric names, units and directions
(and of the end-to-end bounds).  Its fixed schema has no room for intent,
so this table records, for each per-layer metric, the end-to-end metric
and workload it should move.  ``test_perfbench.py`` keeps both in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from workloads import SIMLAYERS

__all__ = ["MOVES"]


_HOST = "host_ops_per_s"

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Host-time metrics are the self time of the layer's spans in the
#: measured phase, in reference seconds; ``setup.`` metrics are the same
#: for the set-up phase.  All the self times of one phase add up to it.
_ROWS: List[Tuple[str, str]] = [
    ("ebpf.verify_s",
     "host_ops_per_s on cluster_ycsb (re-verify after rejoin)"),
    ("ebpf.verify_calls",
     "setup_s on lsm_mixed, host_ops_per_s on cluster_ycsb"),
    ("ebpf.verify_states",
     "setup_s on lsm_mixed; no change predicted on btree_lookup"),
    ("ebpf.vm_s", f"{_HOST} on btree_lookup"),
    ("ebpf.vm_runs", f"{_HOST} on btree_lookup"),
    ("ebpf.vm_insns", f"{_HOST} on btree_lookup"),
    ("sim.engine_self_s", f"{_HOST} on btree_lookup"),
    ("core.chain_s", f"{_HOST} on btree_lookup"),
    ("core.install_s", f"{_HOST} on btree_lookup"),
    ("core.chain_hops",
     f"{_HOST} on btree_lookup, sim_p99_us on lsm_mixed"),
    ("core.chain_refreshes", "sim_p99_us on lsm_mixed"),
    ("core.sim_speedup",
     "btree_lookup only: chain sim_kops over read() sim_kops"),
    ("kernel.syscall_s",
     f"{_HOST} on the btree_lookup read() phase, core.sim_speedup"),
    ("kernel.syscalls",
     f"{_HOST} on btree_lookup, core.sim_speedup"),
    ("kernel.recover_s",
     f"{_HOST} and cluster.sim_unavail_us on cluster_ycsb"),
    ("kernel.other_s", f"{_HOST} (kernel IRQ/journal work)"),
    ("structures.lsm_put_s",
     f"{_HOST} and sim_p50_us on lsm_mixed"),
    ("structures.lsm_flushes",
     f"{_HOST} and sim_p50_us on lsm_mixed"),
    ("structures.tables_per_get",
     f"{_HOST} and sim_p50_us on lsm_mixed"),
    ("structures.get_retries",
     "sim_p99_us on lsm_mixed (gets racing an unlink)"),
    ("setup.structures.btree_build_s",
     "setup_s on btree_lookup and cluster_ycsb"),
    ("compact.s", "sim_p99_us and host_ops_per_s on lsm_mixed"),
    ("compact.runs",
     "device.sim_write_amp and sim_p99_us on lsm_mixed"),
    ("compact.boundary_bytes",
     "device.sim_write_amp on lsm_mixed"),
    ("compact.output_bytes",
     "device.sim_write_amp on lsm_mixed"),
    ("device.s", f"{_HOST} (device model host work)"),
    ("device.nvme_cmds", "sim_kops"),
    ("device.bytes_written", "device.sim_write_amp, sim_kops"),
    ("device.sim_write_amp",
     "lsm_mixed and cluster_ycsb: device bytes written per user byte put"),
    ("net.rpcs", f"{_HOST} and sim_p99_us on cluster_ycsb"),
    ("net.wire_bytes",
     f"{_HOST} and sim_p99_us on cluster_ycsb"),
    ("net.retransmits",
     "sim_p99_us on cluster_ycsb"),
    ("net.codec_s", f"{_HOST} on cluster_ycsb"),
    ("net.transport_s", f"{_HOST} on cluster_ycsb"),
    ("cluster.s", f"{_HOST} on cluster_ycsb"),
    ("cluster.replications",
     f"{_HOST} on cluster_ycsb"),
    ("cluster.failovers",
     "cluster.sim_unavail_us on cluster_ycsb"),
    ("cluster.rejoin_s",
     f"{_HOST} and cluster.sim_unavail_us on cluster_ycsb"),
    ("cluster.sim_unavail_us",
     "cluster_ycsb only: crash to first op served on an affected shard"),
    ("obs.emit_s", "traced runs only: the obs bus itself"),
    ("bench.app_s",
     "the benchmark's own client code (input, checks) and driver"),
    ("other_s", "host time of any layer not named above"),
    ("obs.trace_overhead",
     "untraced over traced host_ops_per_s of the same seed"),
] + [
    (f"simlayer.{layer}_ns_per_op",
     "sim_p50_us on btree_lookup (the chain skips the first four layers)")
    for layer in SIMLAYERS.values()
] + [
    ("setup.import_s", "setup_s on every workload"),
    ("setup.ebpf.verify_s", "setup_s on lsm_mixed"),
    ("setup.structures.lsm_put_s", "setup_s on lsm_mixed"),
    ("setup.sim.engine_self_s", "setup_s on lsm_mixed"),
    ("setup.other_s", "setup_s (everything else in set-up)"),
]

MOVES: Dict[str, str] = dict(_ROWS)
