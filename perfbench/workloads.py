"""The three workloads and the round loop that measures them.

A run repeats whole *rounds* until ``--seconds`` have passed (and at
least ``min_rounds`` are done).  Every round has the same parts:

1. **set-up** -- a copy of the seed database on disk is opened with
   ``DatabaseServer.open`` and serves its first read (``setup_s``);
2. **steady phase** -- a fixed number of operations from the workload's
   mix, sent by one closed-loop client (each call waits for its reply);
   every reply is checked against the shadow model;
3. **durability phase** -- a live ``Replica`` applies the round's records
   (``catchup_s``), the server checkpoints (``checkpoint_s``), a few more
   writes land, and a copy of the log directory is opened up to its first
   served read (``recover_s``).  The replica and the recovered server
   must be at the primary's version with an identical ``dump_state``.

So every one-shot cost is sampled once per round, interleaved with the
steady phase, and reported as a median over rounds.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import glob
import itertools
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.replication import Replica
from repro.serving import DatabaseServer
from repro.storage import dump_state, save_to_file
from repro.xmltree import text
from repro.xupdate import Append, Remove, UpdateContent

import hospital
from hospital import DOCTORS, EPIDEMIOLOGISTS, SECRETARIES, CheckFailed, rows

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Shape:
    """How one workload is sized and mixed."""

    patients: int  # width of the seed document (all under one root)
    patient_users: bool  # every patient is also a login ($USER views)
    fresh_each_round: bool  # re-open the seed for every round's primary
    round_ops: int  # steady-phase requests per round, not counting re-reads
    tail_writes: int  # writes between the checkpoint and the restart
    min_rounds: int
    read_tail_pct: float  # the tail percentile reported for reads...
    write_tail_pct: float  # ...and for writes (>= 10 samples beyond it)
    warmup_ops: int = 0  # untimed operations before the first round
    repeats: int = 1  # set-up, checkpoint and restart samples per round


WORKLOADS: Dict[str, Shape] = {
    "portal-reads": Shape(
        patients=200, patient_users=True, fresh_each_round=False,
        round_ops=400, tail_writes=2, min_rounds=5,
        read_tail_pct=99.0, write_tail_pct=75.0, warmup_ops=300, repeats=2,
    ),
    "clinical-writes": Shape(
        patients=40, patient_users=False, fresh_each_round=True,
        round_ops=40, tail_writes=4, min_rounds=6,
        read_tail_pct=95.0, write_tail_pct=95.0, repeats=3,
    ),
    "restart": Shape(
        patients=250, patient_users=False, fresh_each_round=False,
        round_ops=8, tail_writes=2, min_rounds=6,
        read_tail_pct=90.0, write_tail_pct=75.0,
    ),
}

#: Seconds-long versions with the same mixes and checks (the smoke tests).
SMOKE: Dict[str, Shape] = {
    "portal-reads": Shape(
        patients=40, patient_users=True, fresh_each_round=False,
        round_ops=150, tail_writes=2, min_rounds=2,
        read_tail_pct=90.0, write_tail_pct=50.0, warmup_ops=40,
    ),
    "clinical-writes": Shape(
        patients=8, patient_users=False, fresh_each_round=True,
        round_ops=15, tail_writes=2, min_rounds=2,
        read_tail_pct=50.0, write_tail_pct=50.0,
    ),
    "restart": Shape(
        patients=30, patient_users=False, fresh_each_round=False,
        round_ops=4, tail_writes=2, min_rounds=2,
        read_tail_pct=50.0, write_tail_pct=50.0,
    ),
}


@dataclass
class Op:
    """One client request: what to call, how to check the reply, and
    how the shadow model changes once it succeeded."""

    name: str  # op class, e.g. "patient_read"
    kind: str  # "read" or "write"
    call: Callable[[DatabaseServer], object]
    check: Callable[[object], None]
    commit: Optional[Callable[[], None]] = None
    followups: List["Op"] = field(default_factory=list)
    patient: Optional[str] = None  # the record a write touches


# ---------------------------------------------------------------------------
# operation builders
# ---------------------------------------------------------------------------
def read_op(name, user, path, check) -> Op:
    return Op(name, "read", lambda srv: srv.serve(user, lambda s: rows(s, path)), check)


def doctor_read(shadow, patient, user=DOCTORS[0]) -> Op:
    return read_op(
        "doctor_read", user, f"/patients/{patient}/diagnosis",
        lambda got: hospital.check_doctor_read(patient, got, shadow),
    )


def secretary_read(shadow, patient, user=SECRETARIES[0]) -> Op:
    return read_op(
        "secretary_read", user, f"/patients/{patient}/diagnosis/node()",
        lambda got: hospital.check_secretary_read(patient, got, shadow),
    )


def epidemiologist_read(shadow, position) -> Op:
    return read_op(
        "epidemiologist_read", EPIDEMIOLOGISTS[0], f"/patients/*[{position}]",
        lambda got: hospital.check_epidemiologist_read(position, got, shadow),
    )


def patient_read(shadow, patient) -> Op:
    return read_op(
        "patient_read", patient, "/patients/*",
        lambda got: hospital.check_patient_read(patient, got, shadow),
    )


class DoctorWrites:
    """Doctors update, remove and append diagnosis text in a fixed
    cycle, so every round does the same number of each kind; an append
    targets a diagnosis emptied by an earlier remove.  Targets are spread
    over the document: successive writes draw from successive eighths of
    it.  Each write touches exactly one node."""

    CYCLE = ("update", "remove", "update", "append")
    STRATA = 8

    def __init__(self, shadow) -> None:
        self.shadow = shadow
        self.turn = 0

    def next(self, rng: random.Random, reread: bool, patients=None) -> Op:
        shadow = self.shadow
        pool = patients or shadow.order()
        kind = self.CYCLE[self.turn % len(self.CYCLE)]
        stratum = self.turn % self.STRATA
        self.turn += 1
        want_text = kind != "append"

        def eligible(names):
            return [n for n in names if (shadow.records[n].diagnosis is not None) == want_text]

        size = len(pool)
        part = pool[stratum * size // self.STRATA:(stratum + 1) * size // self.STRATA]
        patient = rng.choice(eligible(part) or eligible(pool))
        return doctor_write(shadow, patient, kind, rng, reread)


def doctor_write(shadow, patient, kind, rng, reread: bool) -> Op:
    record = shadow.records[patient]
    user = rng.choice(DOCTORS)
    target = f"/patients/{patient}/diagnosis"
    value = None if kind == "remove" else hospital.diagnosis_text(rng)
    if kind == "append":
        operation = Append(target, text(value))
    elif kind == "update":
        operation = UpdateContent(target, value)
    else:
        operation = Remove(target + "/text()")
    name = f"doctor_{kind}"

    def commit():
        record.diagnosis = value

    return Op(
        name, "write", lambda srv: srv.execute(user, operation),
        lambda result: hospital.check_write(f"{name} {target} by {user}", result),
        commit, [doctor_read(shadow, patient, user)] if reread else [], patient,
    )


def admit(shadow, name, rng) -> Op:
    """A secretary appends a new patient under the root."""
    user = rng.choice(SECRETARIES)
    record, fragment = hospital.admission(name, rng)

    def commit():
        shadow.records[name] = record

    reread = read_op(
        "secretary_read", user, f"/patients/{name}",
        lambda got: hospital.check_admitted_read(name, got, record),
    )
    return Op(
        "secretary_admit", "write", lambda srv: srv.execute(user, Append("/patients", fragment)),
        lambda result: hospital.check_write(f"admission of {name} by {user}", result),
        commit, [reread],
    )


def probe(name, user, privilege, nid, want) -> Op:
    return Op(
        "can_probe", "read", lambda srv: srv.serve(user, lambda s: s.can(privilege, nid)),
        lambda got: hospital.check_probe(f"{name}: {user} {privilege}", got, want),
    )


class Zipf:
    """Skewed popularity over a seeded ordering of names."""

    def __init__(self, names: List[str], exponent: float, rng: random.Random) -> None:
        self.names = list(names)
        rng.shuffle(self.names)
        weights = [1.0 / (rank + 1) ** exponent for rank in range(len(self.names))]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> str:
        point = rng.random() * self.cumulative[-1]
        return self.names[bisect.bisect_left(self.cumulative, point)]


# ---------------------------------------------------------------------------
# the op mixes
# ---------------------------------------------------------------------------
#: Seeds the order of operation kinds (and the portal's popularity
#: ranks): the cost structure of a round is the same under every
#: ``--seed``, which decides the data and which records are touched.
PATTERN_SEED = 2005


def dealt(counts: Dict[str, int], rng: random.Random) -> List[str]:
    """Exactly ``counts`` of each kind, in a seeded order."""
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


class PortalMix:
    """Patients read their own record; staff read role-shared views;
    ``Session.can`` probes; a trickle of doctor writes, evenly spaced,
    keeps views going stale.  The active patients (more than the view
    cache's 128 entries) follow a Zipf popularity.

    The access pattern -- the order of read kinds and the popularity
    rank of each patient read -- comes from a fixed generator, so the
    cache sees the same hit, patch and build sequence under every seed;
    the seed decides which patient holds which rank, the data, and
    every other choice."""

    ACTIVE = 160
    ZIPF = 0.8
    SHARES = {  # per 100 operations
        "patient": 75, "doctor": 6, "secretary": 5, "epidemiologist": 4, "probe": 10,
    }
    WRITE_EVERY = 67  # one doctor write per this many operations

    def __init__(self, shadow, rng, nids) -> None:
        self.shadow, self.nids = shadow, nids
        self.popular = Zipf(shadow.order()[: self.ACTIVE], self.ZIPF, rng)
        self.pattern = random.Random(PATTERN_SEED)
        self.writes = DoctorWrites(shadow)

    def round(self, rng: random.Random, ops: int):
        counts = {k: share * ops // 100 for k, share in self.SHARES.items()}
        counts["patient"] += ops - sum(counts.values())
        for index, kind in enumerate(dealt(counts, self.pattern)):
            if index % self.WRITE_EVERY == self.WRITE_EVERY // 2:
                yield self.writes.next(rng, reread=False, patients=self.popular.names)
            yield self.read(kind, rng)

    def read(self, kind: str, rng: random.Random) -> Op:
        shadow = self.shadow
        order = shadow.order()
        if kind == "patient":
            return patient_read(shadow, self.popular.draw(self.pattern))
        if kind == "doctor":
            return doctor_read(shadow, rng.choice(order), rng.choice(DOCTORS))
        if kind == "secretary":
            return secretary_read(shadow, rng.choice(order), rng.choice(SECRETARIES))
        if kind == "epidemiologist":
            return epidemiologist_read(shadow, rng.randrange(len(order)) + 1)
        patient, other = self.popular.draw(self.pattern), rng.choice(order)
        element, diagnosis = self.nids[other]
        return self.pattern.choice(
            [
                probe("own record", patient, "read", self.nids[patient][0], True),
                probe("other record", patient, "read", diagnosis, other == patient),
                probe("diagnosis insert", rng.choice(DOCTORS), "insert", diagnosis, True),
                probe("patient rename", rng.choice(SECRETARIES), "update", element, True),
                probe("patient name", EPIDEMIOLOGISTS[0], "read", element, False),
                probe("patient position", EPIDEMIOLOGISTS[0], "position", element, True),
            ]
        )


class ClinicalMix:
    """Doctors update, remove and append diagnosis text; secretaries
    admit new patients (the document grows); every writer re-reads what
    it wrote."""

    ADMIT_EVERY = 5  # one admission per this many writes

    def __init__(self, shadow, rng, nids) -> None:
        self.shadow = shadow
        self.writes = DoctorWrites(shadow)
        self.pattern = random.Random(PATTERN_SEED)
        self.admitted = 0

    def round(self, rng: random.Random, ops: int):
        admissions = ops // self.ADMIT_EVERY
        kinds = dealt({"admit": admissions, "doctor": ops - admissions}, self.pattern)
        for kind in kinds:
            if kind == "doctor":
                yield self.writes.next(rng, reread=True)
            else:
                self.admitted += 1
                yield admit(self.shadow, f"a{self.admitted:05d}", rng)


class RestartMix:
    """Doctor writes over the wide document, each followed by the
    doctor's, the secretary's and the epidemiologist's read of the
    record written."""

    def __init__(self, shadow, rng, nids) -> None:
        self.shadow = shadow
        self.writes = DoctorWrites(shadow)

    def round(self, rng: random.Random, ops: int):
        shadow = self.shadow
        for _ in range(ops):
            op = self.writes.next(rng, reread=True)
            op.followups += [
                secretary_read(shadow, op.patient),
                epidemiologist_read(shadow, shadow.order().index(op.patient) + 1),
            ]
            yield op


MIXES = {"portal-reads": PortalMix, "clinical-writes": ClinicalMix, "restart": RestartMix}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------
def element_ids(database) -> Dict[str, tuple]:
    """Patient name -> (element id, diagnosis element id) in the source."""
    doc = database.document
    out = {}
    for nid in doc.children(doc.root):
        diagnosis = [c for c in doc.children(nid) if doc.label(c) == "diagnosis"]
        out[doc.label(nid)] = (nid, diagnosis[0])
    return out


def log_bytes(wal_dir: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(wal_dir, "segment-*.wal")))


def close(server: DatabaseServer) -> None:
    wal = server.database.detach_wal()
    if wal is not None:
        wal.close()


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed, seconds, workdir, shape, tracer=None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir, self.shape, self.tracer = workdir, shape, tracer
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.latency: Dict[str, List[float]] = {"read": [], "write": []}
        self.by_class: Dict[str, List[float]] = {}
        self.rounds: List[Dict[str, List[float]]] = []
        self.counters: List[Dict[str, float]] = []
        self.traced_rounds: List[bool] = []

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def timed(self, fn):
        """(result, seconds) of one call, recorded by the tracer when it
        is installed.

        The cyclic garbage collector is held off during the call: its
        pauses land on whichever call crosses an allocation threshold,
        which would make every tail percentile depend on where the
        pauses fell.  It runs at the next allocation after the call
        instead, and the traced run reports its pauses
        (``runtime.gc_ms``)."""
        recording = self.tracer.operation() if self.tracer else contextlib.nullcontext()
        gc.disable()
        try:
            with recording:
                start = perf_counter()
                result = fn()
                return result, perf_counter() - start
        finally:
            gc.enable()

    def send(self, server, op: Op, busy: List[float]) -> None:
        """Send one request, check the reply, then its follow-ups."""
        self.attempted[op.name] += 1
        try:
            result, seconds = self.timed(lambda: op.call(server))
        except Exception as exc:  # the program refused or broke: count it
            self.failed[op.name] += 1
            print(f"failed {op.name}: {type(exc).__name__}: {exc}", flush=True)
            return
        busy.append(seconds)
        self.latency[op.kind].append(seconds * 1000)
        self.by_class.setdefault(op.name, []).append(seconds * 1000)
        op.check(result)
        if op.commit is not None:
            op.commit()
        for follow in op.followups:
            self.send(server, follow, busy)

    # ------------------------------------------------------------------
    # servers
    # ------------------------------------------------------------------
    def copy_seed(self, name: str) -> str:
        target = os.path.join(self.workdir, name)
        shutil.copytree(self.seed_dir, target)
        return os.path.join(target, "hospital.db.xml")

    def open_to_first_read(self, path, shadow):
        """Open a database directory and serve its first read (timed)."""

        def open_and_read():
            server = DatabaseServer.open(path)
            return server, server.serve(DOCTORS[0], lambda s: rows(s, "/patients/*[1]/diagnosis"))

        (server, got), seconds = self.timed(open_and_read)
        hospital.check_doctor_read(shadow.order()[0], got, shadow)
        return server, seconds

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.seed_shadow = hospital.make_shadow(self.shape.patients, rng)
        database = hospital.build_database(self.seed_shadow, self.shape.patient_users)
        self.seed_dir = os.path.join(self.workdir, "seed")
        os.makedirs(self.seed_dir)
        path = os.path.join(self.seed_dir, "hospital.db.xml")
        save_to_file(database, path)
        close(DatabaseServer.open(path))  # cuts the log's first checkpoint
        self.op_rng_seed = rng.randrange(2 ** 32)

    def start_primary(self, server, path) -> None:
        self.primary, self.primary_path = server, path
        self.wal_dir = path + ".wal"
        self.shadow = self.seed_shadow.copy()
        self.op_rng = random.Random(self.op_rng_seed)
        self.mix = MIXES[self.workload](
            self.shadow, random.Random(self.op_rng_seed + 1), element_ids(server.database)
        )
        self.replica = Replica(self.wal_dir)

    def stop_primary(self) -> None:
        close(self.primary)
        shutil.rmtree(os.path.dirname(self.primary_path))

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def execute(self) -> None:
        self.prepare()
        shape = self.shape
        if not shape.fresh_each_round:
            path = self.copy_seed("primary")
            self.start_primary(DatabaseServer.open(path), path)
            for op in self.mix.round(self.op_rng, shape.warmup_ops):
                self.send(self.primary, op, [])
            # Leave the log as a round leaves it, so that round 0's
            # catch-up also applies checkpoint markers, the previous tail
            # writes and its own steady writes.
            self.replica.poll()
            for _ in range(shape.repeats):
                self.primary.checkpoint()
            self.write_tail()
            self.latency = {"read": [], "write": []}
            self.by_class = {}
        started = time.monotonic()
        for index in itertools.count():
            # Whole rounds only: start another one while it is expected
            # to end within the run's seconds.
            elapsed = time.monotonic() - started
            if index >= shape.min_rounds and elapsed * (index + 1) / index > self.seconds:
                break
            traced = self.tracer is not None and index % 2 == 1
            if traced:
                self.tracer.install()
            self.round(index)
            if self.tracer is not None:
                self.tracer.uninstall()
            self.traced_rounds.append(traced)
        if not shape.fresh_each_round:
            self.stop_primary()

    def round(self, index: int) -> None:
        shape = self.shape
        sample: Dict[str, List[float]] = defaultdict(list)
        began = time.monotonic()
        # 1. set-up: copies of the seed database opened up to their first read.
        for attempt in range(shape.repeats):
            path = self.copy_seed(f"setup-{index}-{attempt}")
            server, seconds = self.open_to_first_read(path, self.seed_shadow)
            sample["setup_s"].append(seconds)
            if shape.fresh_each_round and attempt == 0:
                self.start_primary(server, path)
            else:
                close(server)
                shutil.rmtree(os.path.dirname(path))
        primary = self.primary
        stats_before = self.program_counters()
        # 2. steady phase.
        busy: List[float] = []
        writes_before = len(self.latency["write"])
        bytes_before = log_bytes(self.wal_dir)
        for op in self.mix.round(self.op_rng, shape.round_ops):
            self.send(primary, op, busy)
        steady_writes = len(self.latency["write"]) - writes_before
        sample["log_bytes_per_write"].append(
            (log_bytes(self.wal_dir) - bytes_before) / max(1, steady_writes)
        )
        sample["ops_per_s"].append(len(busy) / sum(busy))
        sample["steady_ops"].append(len(busy))
        sample["steady_s"].append(sum(busy))
        self.counters.append(self.program_counters(stats_before))
        # 3. durability phase.
        _, seconds = self.timed(self.replica.poll)
        sample["catchup_s"].append(seconds)
        for _ in range(shape.repeats):
            _, seconds = self.timed(primary.checkpoint)
            sample["checkpoint_s"].append(seconds)
        newest = max(glob.glob(os.path.join(self.wal_dir, "checkpoint-*.xml")))
        sample["snapshot_kb"].append(os.path.getsize(newest) / 1024)
        with open(newest, encoding="utf-8") as handle:  # header line, then the state
            snapshot = handle.read().split("\n", 1)[1]
        self.check_same_state(self.replica.database, "replica after catch-up", snapshot)
        self.write_tail()
        database = primary.database
        state = dump_state(database.document, database.subjects, database.policy)
        for attempt in range(shape.repeats):
            copy_dir = os.path.join(self.workdir, f"restart-{index}-{attempt}")
            os.makedirs(copy_dir)
            shutil.copytree(self.wal_dir, os.path.join(copy_dir, "hospital.db.xml.wal"))
            shutil.copy2(self.primary_path, copy_dir)
            recovered, seconds = self.open_to_first_read(
                os.path.join(copy_dir, "hospital.db.xml"), self.shadow
            )
            sample["recover_s"].append(seconds)
            self.check_same_state(recovered.database, "server recovered from the log", state)
            close(recovered)
            shutil.rmtree(copy_dir)
        hospital.check_views(primary, self.shadow, self.mix_patient())
        self.rounds.append(sample)
        print(
            f"round {index}: {time.monotonic() - began:.2f} s, steady {sum(busy):.2f} s "
            f"for {len(busy)} requests; "
            + ", ".join(
                f"{key} " + "/".join(f"{v:.3f}" for v in sample[key])
                for key in ("setup_s", "catchup_s", "checkpoint_s", "recover_s")
            ),
            flush=True,
        )
        if shape.fresh_each_round:
            self.stop_primary()

    def write_tail(self) -> None:
        for _ in range(self.shape.tail_writes):
            self.send(self.primary, self.mix.writes.next(self.op_rng, reread=False), [])

    def mix_patient(self) -> Optional[str]:
        if not self.shape.patient_users:
            return None
        return self.shadow.order()[0]

    def check_same_state(self, database, what: str, primary_state: Optional[str] = None) -> None:
        """Same version as the primary and an identical ``dump_state``
        (``primary_state`` when the primary's is already at hand)."""
        primary = self.primary.database
        if database.version != primary.version:
            raise CheckFailed(f"{what}: version {database.version}, primary at {primary.version}")
        if primary_state is None:
            primary_state = dump_state(primary.document, primary.subjects, primary.policy)
        mine = dump_state(database.document, database.subjects, database.policy)
        if mine.rstrip("\n") != primary_state.rstrip("\n"):
            raise CheckFailed(f"{what}: dump_state differs from the primary's")

    def program_counters(self, before: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """The counters the program already keeps (server, database and
        log), as a delta against ``before`` when given."""
        stats = self.primary.stats()
        now = {k: v for k, v in stats.items() if isinstance(v, (int, float)) and not isinstance(v, bool)}
        now["log_bytes"] = log_bytes(self.wal_dir)
        replica = self.replica.stats()
        now["replica_records_applied"] = replica["records_applied"]
        if before is None:
            return now
        return {k: v - before.get(k, 0) for k, v in now.items()}

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        shape = self.shape
        metrics = {
            key: statistics.median(v for r in self.rounds for v in r[key])
            for key in (
                "setup_s", "checkpoint_s", "recover_s", "catchup_s",
                "log_bytes_per_write", "snapshot_kb",
            )
        }
        # Throughput over every steady phase of the run together: each
        # round's steady phase is short, and a median of a few rounds'
        # rates follows the host's speed during whichever round is middle.
        metrics["ops_per_s"] = sum(v for r in self.rounds for v in r["steady_ops"]) / sum(
            v for r in self.rounds for v in r["steady_s"]
        )
        reads, writes = self.latency["read"], self.latency["write"]
        metrics["read_p50_ms"] = statistics.median(reads)
        metrics["read_tail_ms"] = percentile(reads, shape.read_tail_pct)
        metrics["write_p50_ms"] = statistics.median(writes)
        metrics["write_tail_ms"] = percentile(writes, shape.write_tail_pct)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics
