"""Seeded hospital data, the benchmark's shadow model and its output checks.

Everything the benchmark feeds the program is generated here from the
``--seed`` argument: the patients document, the subject hierarchy and
the paper's equation-13 policy (imported from ``repro.core`` so the
rules are exactly the paper's).  The :class:`Shadow` model tracks what
every patient record must contain after each write, and the ``check_*``
functions compare what the server returned against it and against the
properties equation 13 implies:

* a patient sees exactly one patient, their own, with the shadow values;
* the epidemiologist sees every diagnosis under ``RESTRICTED`` names;
* the secretary sees diagnosis text as ``RESTRICTED``;
* every write is fully applied with exactly one affected node.

Nothing is ever compared with a saved copy of the program's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import PAPER_POLICY_RULES
from repro.security import SecureXMLDatabase
from repro.security.policy import Policy
from repro.security.subjects import SubjectHierarchy
from repro.xmltree import element
from repro.xmltree.parser import parse_xml

RESTRICTED = "RESTRICTED"
SERVICES = ("cardiology", "pneumology", "oncology", "otolarynology", "neurology")
ILLNESSES = ("angina", "pneumonia", "lymphoma", "tonsillitis", "asthma", "migraine")

#: Staff logins by role.  A handful of users per role; their views are
#: role-shaped, so each role's users share one cached materialization.
DOCTORS = ("doc1", "doc2", "doc3")
SECRETARIES = ("sec1", "sec2")
EPIDEMIOLOGISTS = ("epi1",)


class CheckFailed(AssertionError):
    """The program returned something the shadow model or the policy
    properties rule out."""


def patient_name(index: int) -> str:
    return f"p{index:05d}"


def diagnosis_text(rng: random.Random) -> str:
    """A diagnosis of seeded length, so record and snapshot sizes vary
    with the seed."""
    return f"{rng.choice(ILLNESSES)}-{rng.randrange(10 ** rng.randint(1, 6))}"


@dataclass
class Record:
    """What one patient element must hold."""

    service: str
    diagnosis: Optional[str]  # None once a doctor removed the text

    def string_value(self) -> str:
        return self.service + (self.diagnosis or "")


@dataclass
class Shadow:
    """The benchmark's own model of the document: patient name ->
    record, in document order."""

    records: Dict[str, Record] = field(default_factory=dict)

    def order(self) -> List[str]:
        return list(self.records)

    def copy(self) -> "Shadow":
        return Shadow({k: Record(r.service, r.diagnosis) for k, r in self.records.items()})


def make_shadow(patients: int, rng: random.Random) -> Shadow:
    return Shadow(
        {
            patient_name(i): Record(rng.choice(SERVICES), diagnosis_text(rng))
            for i in range(patients)
        }
    )


def document_xml(shadow: Shadow) -> str:
    """The patients document of the paper's shape: every patient an
    element directly under the one ``patients`` root."""
    parts = ["<patients>"]
    for name, record in shadow.records.items():
        parts.append(
            f"<{name}><service>{record.service}</service>"
            f"<diagnosis>{record.diagnosis or ''}</diagnosis></{name}>"
        )
    parts.append("</patients>")
    return "".join(parts)


def build_database(shadow: Shadow, patient_users: bool) -> SecureXMLDatabase:
    """The seed database: the shadow's document, the figure-3 role tree
    with this benchmark's staff logins, and the equation-13 policy.

    With ``patient_users`` every patient element is also a login in the
    ``patient`` role, so rule 5 (``$USER``) gives each a separate view.
    """
    subjects = SubjectHierarchy()
    subjects.add_role("staff")
    for role in ("secretary", "doctor", "epidemiologist"):
        subjects.add_role(role, member_of="staff")
    subjects.add_role("patient")
    for role, users in (
        ("doctor", DOCTORS),
        ("secretary", SECRETARIES),
        ("epidemiologist", EPIDEMIOLOGISTS),
    ):
        for user in users:
            subjects.add_user(user, member_of=role)
    if patient_users:
        for name in shadow.records:
            subjects.add_user(name, member_of="patient")
    policy = Policy(subjects)
    for offset, (effect, privilege, path, subject) in enumerate(PAPER_POLICY_RULES):
        add = policy.grant if effect == "accept" else policy.deny
        add(privilege, path, subject, priority=10 + offset)
    return SecureXMLDatabase(parse_xml(document_xml(shadow)), subjects, policy)


def admission(name: str, rng: random.Random) -> Tuple[Record, object]:
    """A new patient record and the fragment a secretary appends."""
    record = Record(rng.choice(SERVICES), diagnosis_text(rng))
    fragment = element(
        name, element("service", record.service), element("diagnosis", record.diagnosis)
    )
    return record, fragment


# ---------------------------------------------------------------------------
# reads served through DatabaseServer.serve: (label, string value) rows
# ---------------------------------------------------------------------------
def rows(session, path: str) -> List[Tuple[str, str]]:
    """Select ``path`` on the session's view and return each node's
    label and string value -- what a portal page would render."""
    doc = session.view().doc
    return [(doc.label(nid), doc.string_value(nid)) for nid in session.select(path)]


def _fail(what: str, got, want) -> None:
    raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check_patient_read(user: str, got, shadow: Shadow) -> None:
    """A patient sees exactly one patient -- their own -- with the
    shadow values (rules 4-5)."""
    want = [(user, shadow.records[user].string_value())]
    if got != want:
        _fail(f"patient {user} reading /patients/*", got, want)


def check_doctor_read(patient: str, got, shadow: Shadow) -> None:
    want = [("diagnosis", shadow.records[patient].diagnosis or "")]
    if got != want:
        _fail(f"doctor reading {patient}'s diagnosis", got, want)


def check_secretary_read(patient: str, got, shadow: Shadow) -> None:
    """The secretary sees diagnosis text as RESTRICTED (rules 2-3)."""
    want = [(RESTRICTED, RESTRICTED)] if shadow.records[patient].diagnosis else []
    if got != want:
        _fail(f"secretary reading {patient}'s diagnosis text", got, want)


def check_admitted_read(name: str, got, record: Record) -> None:
    """The admitting secretary sees the new patient by name, its
    diagnosis text RESTRICTED."""
    want = [(name, record.service + RESTRICTED)]
    if got != want:
        _fail(f"secretary re-reading admitted patient {name}", got, want)


def check_epidemiologist_read(position: int, got, shadow: Shadow) -> None:
    """The epidemiologist sees the diagnosis under a RESTRICTED patient
    name (rules 6-7); records are addressed by position."""
    name = shadow.order()[position - 1]
    want = [(RESTRICTED, shadow.records[name].string_value())]
    if got != want:
        _fail(f"epidemiologist reading patient #{position}", got, want)


def check_write(what: str, result) -> None:
    """Every write is fully applied with exactly one affected node."""
    if not result.fully_applied or len(result.affected) != 1:
        raise CheckFailed(
            f"{what}: fully_applied={result.fully_applied} "
            f"affected={len(result.affected)} denials={result.denials!r}"
        )


def check_probe(what: str, got: bool, want: bool) -> None:
    if got is not want:
        _fail(f"Session.can {what}", got, want)


def check_views(server, shadow: Shadow, patient: Optional[str]) -> None:
    """Whole-document policy properties, checked once per round:

    * the epidemiologist sees every patient, each named RESTRICTED, with
      every diagnosis readable;
    * the secretary sees every patient by name, with every diagnosis
      text RESTRICTED;
    * ``patient`` (when given) sees exactly their own record.
    """
    order = shadow.order()
    epi = server.serve(EPIDEMIOLOGISTS[0], lambda s: rows(s, "/patients/*"))
    want = [(RESTRICTED, shadow.records[n].string_value()) for n in order]
    if epi != want:
        _fail("epidemiologist reading /patients/*", epi[:3], want[:3])
    sec = server.serve(SECRETARIES[0], lambda s: rows(s, "/patients/*"))
    want = [
        (n, shadow.records[n].service + (RESTRICTED if shadow.records[n].diagnosis else ""))
        for n in order
    ]
    if sec != want:
        _fail("secretary reading /patients/*", sec[:3], want[:3])
    if patient is not None:
        got = server.serve(patient, lambda s: rows(s, "/patients/*"))
        check_patient_read(patient, got, shadow)
