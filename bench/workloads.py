"""Seeded inputs and job lists for the four benchmark workloads.

Every vector set a job reads is written as an interchange document whose
vertex order, and context order when the document lists contexts, is a
permutation drawn from the workload seed.  Jobs that take only ``--d`` read
no set and are the same under every seed.  A job is one ``kspt`` command
line plus the facts its report must show; ``check.py`` holds the checks.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from kspt import catalog, ks_sets

WORKLOADS = ("classical-scan", "quantum-verify", "selftest", "ks-structure")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the exact facts its report must show.

    kind selects the checker; expect holds the pinned facts (a value, a size,
    a dimension); set_file names the input document the checker re-reads.
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)
    set_file: str | None = None


def _permuted_doc(vset, contexts, rng: random.Random) -> tuple[dict, list[int]]:
    """Relabel the vertices by a seeded permutation; shuffle the context list.

    Returns the document and new_of, where new_of[old index] = new index.
    """
    order = list(range(vset.n))
    rng.shuffle(order)
    new_of = [0] * vset.n
    for new, old in enumerate(order):
        new_of[old] = new
    doc = {"dim": vset.dim, "vectors": [list(vset.vectors[old]) for old in order]}
    if contexts is not None:
        ctxs = [sorted(new_of[i] for i in c) for c in contexts]
        rng.shuffle(ctxs)
        doc["contexts"] = ctxs
    return doc, new_of


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def build_jobs(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the workload's seeded inputs into directory and list its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)

    def set_input(name: str, vset, contexts=None) -> tuple[str, list[int]]:
        doc, new_of = _permuted_doc(vset, contexts, rng)
        return _write(directory, name, doc), new_of

    if workload == "classical-scan":
        ceg18, _ = set_input("ceg18.json", *catalog.catalog_ceg18())
        peres24, _ = set_input("peres24.json", catalog.catalog_peres24())
        return [
            Job("classical ceg18", ("game", "classical-bound", "--set", ceg18),
                "classical", {"value": "35/36"}, ceg18),
            Job("classical peres24", ("game", "classical-bound", "--set", peres24),
                "classical", {"value": "47/48"}, peres24),
        ]

    if workload == "quantum-verify":
        ck31, _ = set_input("ck31.json", catalog.catalog_conway_kochen31())
        ceg18, _ = set_input("ceg18.json", *catalog.catalog_ceg18())
        # one job per merged5 window basis: the same amplitude work as one
        # job over all four, in pieces short enough to fill the measuring time
        merged5 = catalog.merged_peres(5)
        windows = [
            (f"merged5 window {k}", set_input(f"merged5_window{k}.json", merged5, [ctx])[0])
            for k, ctx in enumerate(catalog.merged_window_bases(5))
        ]
        return [
            Job(f"quantum {label}", ("game", "quantum-verify", "--set", path),
                "quantum", {}, path)
            for label, path in [("ck31", ck31), ("ceg18", ceg18), *windows]
        ]

    if workload == "selftest":
        ck31, new_of = set_input("ck31.json", catalog.catalog_conway_kochen31())
        chosen = [",".join(str(new_of[i]) for i in ctx) for ctx in ((0, 3, 4), (1, 5, 6))]
        return [
            Job("selftest d5", ("selftest", "--d", "5"), "selftest", {"d": 5}),
            Job("selftest d4 all contexts", ("selftest", "--d", "4", "--all-contexts"),
                "selftest", {"d": 4}),
            Job("selftest ck31", ("selftest", "--set", ck31, "--contexts", *chosen),
                "selftest", {"d": 3}),
        ]

    # ks-structure: the completed ck31 set is built here, in set-up, and
    # relabelled like every other input
    ck31_vset = catalog.catalog_conway_kochen31()
    merged10, _ = set_input("merged10.json", catalog.merged_peres(10))
    ck31, _ = set_input("ck31.json", ck31_vset)
    ceg18, _ = set_input("ceg18.json", *catalog.catalog_ceg18())
    ck31c, _ = set_input("ck31_completed.json", ks_sets.complete_set(ck31_vset))
    return [
        Job("ks verify merged10", ("ks", "verify", "--set", merged10),
            "ks-verify", {"contexts": 6176}),
        Job("ks complete ck31", ("ks", "complete", "--set", ck31),
            "ks-complete", {"original_size": 31, "completed_size": 55}),
        Job("ks complete ceg18", ("ks", "complete", "--set", ceg18),
            "ks-complete", {"original_size": 18, "completed_size": 44}),
        Job("ks verify ck31 completed, context edges",
            ("ks", "verify", "--edges-from-contexts-only", "--set", ck31c),
            "ks-verify", {"contexts": 41}),
    ]
