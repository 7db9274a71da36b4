"""Per-layer metrics of a traced run.

Times are the mean inclusive duration of one call of the layer's entry
point, over the traced rounds (``runtime.gc_ms`` is the collector's
total pause time per round).  Counts are per traced round: rounds
repeat the same operations, so a count that an optimisation does not
touch repeats exactly.  Counts the program keeps itself (view-cache
decisions, resolver and static-decider counters, log counters) are
deltas over the steady phase of the primary; the rest are span counts.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

#: per-layer metric -> unit, in report order.
UNITS = {
    "security.viewcache.view_for_ms": "ms",
    "security.viewcache.hits": "count",
    "security.viewcache.incremental_patches": "count",
    "security.viewcache.full_builds": "count",
    "security.viewcache.hit_ratio": "ratio",
    "security.view.build_ms": "ms",
    "security.view.builds": "count",
    "security.perm.resolve_ms": "ms",
    "security.perm.resolves": "count",
    "security.perm.note_commit_ms": "ms",
    "security.perm.delta_ratio": "ratio",
    "security.static.decide_us": "us",
    "security.static.decisions": "count",
    "security.static.fallbacks": "count",
    "xpath.compiler.evaluate_ms": "ms",
    "xpath.compiler.evaluations": "count",
    "xpath.compiler.compiles": "count",
    "security.write.apply_ms": "ms",
    "xupdate.executor.apply_ms": "ms",
    "xmltree.document.copy_ms": "ms",
    "xmltree.document.copies": "count",
    "wal.log.log_commit_ms": "ms",
    "wal.log.fsync_ms": "ms",
    "wal.log.fsyncs": "count",
    "wal.log.state_fallbacks": "count",
    "wal.log.bytes_appended": "B",
    "wal.log.checkpoint_ms": "ms",
    "storage.dump_ms": "ms",
    "storage.load_ms": "ms",
    "storage.snapshot_bytes": "B",
    "wal.recover.apply_record_ms": "ms",
    "wal.recover.records": "count",
    "replication.replica.apply_ms": "ms",
    "replication.replica.records_applied": "count",
    "serving.execute_ms": "ms",
    "serving.read_ms": "ms",
    "runtime.gc_ms": "ms",
    "runtime.gc_collections": "count",
    "trace.overhead_pct": "%",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(run) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``run`` (a traced
    :class:`workloads.Run`), as name -> (value, unit)."""
    tracer = run.tracer
    summary = tracer.summary()
    traced = [i for i, flag in enumerate(run.traced_rounds) if flag]
    untraced = [i for i, flag in enumerate(run.traced_rounds) if not flag]
    rounds = len(traced)

    def mean_ms(name: str) -> float:
        entry = summary.get(name)
        return entry["seconds"] / entry["calls"] * 1000 if entry else 0.0

    def per_round(name: str) -> float:
        entry = summary.get(name)
        return entry["calls"] / rounds if entry else 0.0

    def counter(key: str) -> float:
        return sum(run.counters[i].get(key, 0) for i in traced) / rounds

    def under(name: str, ancestor: str) -> Tuple[float, float]:
        calls, seconds = tracer.calls_under(name, ancestor)
        return calls / rounds, seconds / calls * 1000 if calls else 0.0

    hits = counter("view_hits")
    patches = counter("view_incremental_patches")
    builds = counter("view_full_builds")
    recovered, recover_ms = under("wal.recover.apply_record", "wal.recover.recover")
    replayed, replica_ms = under("wal.recover.apply_record", "replication.replica.poll")
    _, fsync_ms = under("wal.log.fsync", "wal.log.log_commit")
    traced_speed = statistics.median(run.rounds[i]["ops_per_s"][0] for i in traced)
    plain_speed = statistics.median(run.rounds[i]["ops_per_s"][0] for i in untraced)
    values = {
        "security.viewcache.view_for_ms": mean_ms("security.viewcache.view_for"),
        "security.viewcache.hits": hits,
        "security.viewcache.incremental_patches": patches,
        "security.viewcache.full_builds": builds,
        "security.viewcache.hit_ratio": _ratio(hits, hits + patches + builds),
        "security.view.build_ms": mean_ms("security.view.build"),
        "security.view.builds": per_round("security.view.build"),
        "security.perm.resolve_ms": mean_ms("security.perm.resolve"),
        "security.perm.resolves": per_round("security.perm.resolve"),
        "security.perm.note_commit_ms": mean_ms("security.perm.note_commit"),
        "security.perm.delta_ratio": _ratio(
            counter("delta_resolves"), counter("delta_resolves") + counter("full_resolves")
        ),
        "security.static.decide_us": mean_ms("security.static.decide") * 1000,
        "security.static.decisions": counter("static_decisions"),
        "security.static.fallbacks": counter("static_fallbacks"),
        "xpath.compiler.evaluate_ms": mean_ms("xpath.compiler.evaluate"),
        "xpath.compiler.evaluations": per_round("xpath.compiler.evaluate"),
        "xpath.compiler.compiles": per_round("xpath.compiler.compile"),
        "security.write.apply_ms": mean_ms("security.write.apply"),
        "xupdate.executor.apply_ms": mean_ms("xupdate.executor.apply"),
        "xmltree.document.copy_ms": mean_ms("xmltree.document.copy"),
        "xmltree.document.copies": per_round("xmltree.document.copy"),
        "wal.log.log_commit_ms": mean_ms("wal.log.log_commit"),
        "wal.log.fsync_ms": fsync_ms,
        "wal.log.fsyncs": counter("wal_fsyncs"),
        "wal.log.state_fallbacks": counter("wal_state_fallbacks"),
        "wal.log.bytes_appended": counter("log_bytes"),
        "wal.log.checkpoint_ms": mean_ms("wal.log.checkpoint"),
        "storage.dump_ms": mean_ms("storage.dump"),
        "storage.load_ms": mean_ms("storage.load"),
        "storage.snapshot_bytes": statistics.median(
            run.rounds[i]["snapshot_kb"][0] * 1024 for i in traced
        ),
        "wal.recover.apply_record_ms": recover_ms,
        "wal.recover.records": recovered,
        "replication.replica.apply_ms": replica_ms,
        "replication.replica.records_applied": replayed,
        "serving.execute_ms": mean_ms("serving.execute"),
        "serving.read_ms": mean_ms("serving.read"),
        "runtime.gc_ms": mean_ms("runtime.gc") * per_round("runtime.gc"),
        "runtime.gc_collections": per_round("runtime.gc"),
        "trace.overhead_pct": (plain_speed / traced_speed - 1) * 100,
    }
    return {name: (values[name], unit) for name, unit in UNITS.items()}
