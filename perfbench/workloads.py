"""The four named workloads: how their tasks are drawn and how one task runs.

A task is one spec through the workload's pipeline. ``make_tasks`` draws the
task list from the workload seed using only the public ``seaweed`` API;
``run`` sends one task through the library and returns its output text and
whether every check on it passed. The certificate and census outputs are
checked against the digests in ``goldens.json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

ORACLE_TRIALS = 25  # as in acceptance criterion 3
ORACLE_MAX_N = 7
ORACLE_PER_CLASS = 2
ORACLE_ALL_UP_TO_N = 4
CERT_MAX_N = 8
CERT_SHARE = 8  # one spec in eight from every (n, dim, cycles) class
LADDER_CONTACT = ("2|10 / 12", "2|14 / 16", "2|18 / 20")
LADDER_ORACLE = ("2|18 / 20", "4|4 / 8", "5|5 / 10")
CENSUS_N = 10
CENSUS_WARMUP_N = 7

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cert_digest(cert_json: str) -> str:
    return sha256(cert_json)[:16]


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    make_tasks: Callable[[ModuleType, int], list]
    warmup: Callable[[ModuleType], Any]
    run: Callable[[ModuleType, Any, dict], tuple[str, bool]]


# -- oracle_sweep ------------------------------------------------------------

def _oracle_tasks(sw: ModuleType, seed: int) -> list:
    """Two specs from every (n, dim, index) class with 5 <= n <= 7, and every
    spec with n <= 4, each with its own oracle seed. Classes fix the cost
    profile (matrix size, and whether trials fall back to exact elimination),
    so the pass costs about the same for every workload seed."""
    rng = random.Random(seed)
    classes: dict[tuple[int, int, int], list] = defaultdict(list)
    for n in range(1, ORACLE_MAX_N + 1):
        for sp in sw.spec_pairs(n):
            classes[(n, sw.seaweed_dim(sp), sw.index(sp))].append(sp)
    tasks = []
    for key in sorted(classes):
        members = classes[key]
        if key[0] > ORACLE_ALL_UP_TO_N:
            members = rng.sample(members, min(ORACLE_PER_CLASS, len(members)))
        tasks += [(sp, rng.randrange(2**31)) for sp in members]
    return tasks


def _oracle_run(sw: ModuleType, task, goldens: dict) -> tuple[str, bool]:
    sp, seed = task
    expected = sw.index(sp)
    got = sw.index_randomized(sw.materialize(sp), trials=ORACLE_TRIALS, seed=seed)
    return f"{sp.text()} {got}", got == expected


# -- cert_sweep --------------------------------------------------------------

def _cert_tasks(sw: ModuleType, seed: int) -> list:
    """One in CERT_SHARE index-one specs from every (n, dim, cycles) class,
    at least one per class, so TwoPaths and OneCycle keep their census mix."""
    rng = random.Random(seed)
    classes: dict[tuple[int, int, int], list] = defaultdict(list)
    for n in range(1, CERT_MAX_N + 1):
        for sp in sw.spec_pairs(n):
            rep = sw.components(sw.build_meander(sp))
            if 2 * rep.C + rep.P - 1 == 1:
                classes[(n, sw.seaweed_dim(sp), rep.C)].append(sp)
    tasks = []
    for key in sorted(classes):
        members = classes[key]
        tasks += rng.sample(members, max(1, round(len(members) / CERT_SHARE)))
    return tasks


def _certify(sw: ModuleType, sp, goldens: dict) -> tuple[str, bool]:
    """Synthesize, round-trip through JSON, verify, and match the golden."""
    cert = sw.synthesize_contact(sp)
    text = cert.to_json()
    back = sw.ContactCertificate.from_json(text)
    ok = (
        back.to_json() == text
        and sw.verify_certificate(back) is True
        and goldens["certificates"].get(sp.text()) == cert_digest(text)
    )
    return text, ok


# -- spec_ladder -------------------------------------------------------------

def _ladder_tasks(sw: ModuleType, seed: int) -> list:
    rng = random.Random(seed)
    tasks: list = [("contact", sw.SeaweedSpec.parse(t), None) for t in LADDER_CONTACT]
    tasks += [
        ("oracle", sw.SeaweedSpec.parse(t), rng.randrange(2**31)) for t in LADDER_ORACLE
    ]
    return tasks


def _ladder_run(sw: ModuleType, task, goldens: dict) -> tuple[str, bool]:
    kind, sp, seed = task
    if kind == "contact":
        return _certify(sw, sp, goldens)
    return _oracle_run(sw, (sp, seed), goldens)


# -- census ------------------------------------------------------------------

def _census_run(sw: ModuleType, n: int, goldens: dict) -> tuple[str, bool]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sw.cli.main(["enumerate", str(n), "--csv", "--jobs", "1"])
    text = buf.getvalue()
    return text, code == 0 and goldens["census"].get(str(n)) == sha256(text)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "oracle_sweep",
            _oracle_tasks,
            lambda sw: (sw.SeaweedSpec.parse("2|5 / 7"), 1729),
            _oracle_run,
        ),
        Workload("cert_sweep", _cert_tasks, lambda sw: sw.SeaweedSpec.parse("2|6 / 8"), _certify),
        Workload(
            "spec_ladder",
            _ladder_tasks,
            lambda sw: ("contact", sw.SeaweedSpec.parse(LADDER_CONTACT[0]), None),
            _ladder_run,
        ),
        Workload("census", lambda sw, seed: [CENSUS_N], lambda sw: CENSUS_WARMUP_N, _census_run),
    )
}
