"""Built-in vector sets: the 18-ray, 24-ray, and 31-ray KS catalogs.

The 18-ray set lives in dimension 4 with nine tetrads, each ray in exactly
two of them (the odd-tetrad-count parity makes it uncolorable).  The 24-ray
set is the dimension-4 set with 24 tetrads, complete as it stands.  The
31-ray set lives in dimension 3 with 17 triads; its rays have entries in
{0, +-1, +-2}.  Beyond these, merged_peres builds the d-dimensional family
obtained by embedding the 24-ray set in every window of four consecutive
coordinates.
"""

from __future__ import annotations

from .exact_linalg import primitive
from .ks_sets import Context, VectorSet, parse_decimal

CEG18_LABELS = tuple("123456789ABCDEFGHI")

CEG18_VECTORS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0),     # 1
    (0, 1, 0, 0),     # 2
    (0, 0, 1, 1),     # 3
    (0, 0, 1, -1),    # 4
    (1, -1, 0, 0),    # 5
    (1, 1, -1, -1),   # 6
    (1, 1, 1, 1),     # 7
    (1, -1, 1, -1),   # 8
    (1, 0, -1, 0),    # 9
    (0, 1, 0, -1),    # A
    (1, 0, 1, 0),     # B
    (1, 1, -1, 1),    # C
    (-1, 1, 1, 1),    # D
    (1, 1, 1, -1),    # E
    (1, 0, 0, 1),     # F
    (0, 1, -1, 0),    # G
    (0, 1, 1, 0),     # H
    (0, 0, 0, 1),     # I
)

# the nine tetrads; by label: 1234, 1GHI, 29BI, 35CE, 4567, 68FH, 789A, ABCD, DEFG
CEG18_TETRADS: tuple[Context, ...] = (
    (0, 1, 2, 3),
    (0, 15, 16, 17),
    (1, 8, 10, 17),
    (2, 4, 11, 13),
    (3, 4, 5, 6),
    (5, 7, 14, 16),
    (6, 7, 8, 9),
    (9, 10, 11, 12),
    (12, 13, 14, 15),
)

PERES24_VECTORS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0),      # v0
    (0, 1, 0, 0),      # v1
    (0, 0, 1, 0),      # v2
    (0, 0, 0, 1),      # v3
    (1, 1, 0, 0),      # v4
    (1, -1, 0, 0),     # v5
    (0, 0, 1, 1),      # v6
    (0, 0, 1, -1),     # v7
    (1, 0, 1, 0),      # v8
    (1, 0, -1, 0),     # v9
    (0, 1, 0, 1),      # v10
    (0, 1, 0, -1),     # v11
    (1, 1, 1, 1),      # v12
    (1, 1, -1, -1),    # v13
    (1, -1, 1, -1),    # v14
    (1, -1, -1, 1),    # v15
    (1, 1, 1, -1),     # v16
    (1, 1, -1, 1),     # v17
    (1, -1, 1, 1),     # v18
    (-1, 1, 1, 1),     # v19
    (1, 0, 0, 1),      # v20
    (1, 0, 0, -1),     # v21
    (0, 1, 1, 0),      # v22
    (0, 1, -1, 0),     # v23
)

# window tetrads feeding the d>=4 self-testing systems: {v4..v7} and {v8..v11}
PERES24_WINDOW_BASES: tuple[tuple[int, ...], tuple[int, ...]] = ((4, 5, 6, 7), (8, 9, 10, 11))

CK31_VECTORS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0),       # v0
    (0, 1, 0),       # v1
    (0, 0, 1),       # v2
    (0, 1, -1),      # v3
    (0, 1, 1),       # v4
    (1, 0, -1),      # v5
    (1, 0, 1),       # v6
    (1, -1, 0),      # v7
    (1, 1, 0),       # v8
    (1, -1, -1),     # v9
    (1, -1, 1),      # v10
    (1, 1, -1),      # v11
    (1, 1, 1),       # v12
    (0, 1, -2),      # v13
    (0, 1, 2),       # v14
    (0, 2, -1),      # v15
    (0, 2, 1),       # v16
    (1, -2, 0),      # v17
    (1, 0, -2),      # v18
    (1, 0, 2),       # v19
    (2, 0, -1),      # v20
    (2, 0, 1),       # v21
    (2, 1, 0),       # v22
    (1, -2, -1),     # v23
    (1, -2, 1),      # v24
    (1, -1, -2),     # v25
    (1, -1, 2),      # v26
    (1, 1, -2),      # v27
    (1, 1, 2),       # v28
    (2, 1, -1),      # v29
    (2, 1, 1),       # v30
)

# pinned anchor rays of the 31-ray transcription; any edit that moves these
# slots breaks the labeling convention the self-test contexts rely on
assert CK31_VECTORS[3:7] == ((0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1))
assert CK31_VECTORS[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def catalog_ceg18() -> tuple[VectorSet, list[Context]]:
    """The 18-ray set together with its nine tetrads."""
    vset = VectorSet(dim=4, vectors=CEG18_VECTORS, labels=CEG18_LABELS)
    return vset, list(CEG18_TETRADS)


def catalog_peres24() -> VectorSet:
    labels = tuple(f"v{i}" for i in range(24))
    return VectorSet(dim=4, vectors=PERES24_VECTORS, labels=labels)


def catalog_conway_kochen31() -> VectorSet:
    labels = tuple(f"v{i}" for i in range(31))
    return VectorSet(dim=3, vectors=CK31_VECTORS, labels=labels)


def _embed(v: tuple[int, ...], k: int, d: int) -> tuple[int, ...]:
    w = [0] * d
    w[k:k + 4] = v
    return primitive(w)


def merged_peres(d: int) -> VectorSet:
    """Union of the 24-ray set embedded in each 4-coordinate window of R^d.

    Window k occupies coordinates k..k+3 for k in 0..d-4; rays are
    deduplicated as primitive representatives, first occurrence wins.  The
    result always contains the full canonical basis of dimension d.
    """
    if d < 4:
        raise ValueError("merged construction needs dimension at least 4")
    label_of: dict[tuple[int, ...], str] = {}  # {ray: the label of its first occurrence}
    for k in range(d - 3):
        for i, v in enumerate(PERES24_VECTORS):
            label_of.setdefault(_embed(v, k, d), f"k{k}:v{i}")
    return VectorSet(dim=d, vectors=tuple(label_of), labels=tuple(label_of.values()))


def merged_window_bases(d: int) -> list[Context]:
    """The two distinguished bases per window, as index tuples into merged_peres(d).

    For window k these are the embedded tetrads {v4..v7} and {v8..v11},
    completed by the canonical vectors outside the window.
    """
    return _window_bases(merged_peres(d))


def _window_bases(vset: VectorSet) -> list[Context]:
    """merged_window_bases for a merged set already built, of dimension vset.dim."""
    d, index_of = vset.dim, vset.index_of
    bases: list[Context] = []
    for k in range(d - 3):
        outside = [index_of([int(j == t) for j in range(d)]) for t in range(d) if t < k or t > k + 3]
        for window in PERES24_WINDOW_BASES:
            members = [index_of(_embed(PERES24_VECTORS[i], k, d)) for i in window]
            bases.append(tuple(sorted(members + outside)))
    return bases


_BUILTIN_BUILDERS = {
    "ceg18": lambda: catalog_ceg18(),
    "peres24": lambda: (catalog_peres24(), None),
    "ck31": lambda: (catalog_conway_kochen31(), None),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_BUILDERS)


def load_builtin(name: str) -> tuple[VectorSet, list[Context] | None]:
    """Resolve a built-in set name, merged<d> included; ValueError for an unknown name."""
    if name in _BUILTIN_BUILDERS:
        return _BUILTIN_BUILDERS[name]()
    # one spelling per d (parse_decimal); merged0 names no set
    d = parse_decimal(name.removeprefix("merged")) if name.startswith("merged") else None
    if d:
        return merged_peres(d), None
    raise ValueError(f"unknown builtin set {name!r}")
