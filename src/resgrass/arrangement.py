"""Hyperplane arrangements given by a realization matrix or by rank-2 flats.

An arrangement of n hyperplanes is encoded either by an l x n integer matrix
whose columns are the defining linear forms, or combinatorially by its
multiple points: the rank-2 flats containing at least three hyperplanes.
Simple arrangements only; duplicate (proportional) columns are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DuplicateHyperplaneError, InputError
from .field import DEFAULT_MODULUS, batch_rank, rank, residues

Flat = tuple[int, ...]


@dataclass(frozen=True)
class Arrangement:
    """n hyperplanes, their rank-2 flats of size >= 3, and an optional realization.

    p is the prime the flats of a realization were read over, None for
    flats-only input; it takes no part in equality.
    """

    n: int
    flats: tuple[Flat, ...]
    matrix: tuple[tuple[int, ...], ...] | None = None
    name: str = "arrangement"
    p: int | None = field(default=None, compare=False)

    def columns(self):
        if self.matrix is None:
            raise InputError(f"arrangement {self.name!r} has no realization matrix")
        return [tuple(row[j] for row in self.matrix) for j in range(self.n)]

    def describe(self) -> str:
        kind = "realized" if self.matrix is not None else "combinatorial"
        return f"{self.name}: n={self.n}, {len(self.flats)} flats, {kind}"


def _validate_flats(n: int, flats) -> tuple[Flat, ...]:
    seen = set()
    out = []
    for flat in flats:
        t = tuple(sorted(flat))
        if len(t) < 3:
            raise InputError(f"flat {t} has fewer than 3 hyperplanes")
        if len(set(t)) != len(t):
            raise InputError(f"flat {t} repeats an index")
        if t[0] < 0 or t[-1] >= n:
            raise InputError(f"flat {t} has indices outside 0..{n - 1}")
        if t in seen:
            raise InputError(f"flat {t} listed twice")
        seen.add(t)
        out.append(t)
    # two distinct rank-2 flats meet in at most one hyperplane
    for a, b in combinations(out, 2):
        if len(set(a) & set(b)) > 1:
            raise InputError(f"flats {a} and {b} share two hyperplanes")
    return tuple(sorted(out))


def check_simple(cols, p: int) -> None:
    """InputError unless the columns are nonzero and pairwise non-proportional over F_p.

    The first zero column is named, else the lexicographically first
    proportional pair.
    """
    classes = {}  # column scaled to a leading 1 -> indices of the columns
    for j, c in enumerate(cols):
        lead = next((x for x in c if x % p), None)
        if lead is None:
            raise InputError(f"column {j} is zero over F_{p}")
        inv = pow(lead, p - 2, p)
        classes.setdefault(tuple(x * inv % p for x in c), []).append(j)
    pair = min((js[:2] for js in classes.values() if len(js) > 1), default=None)
    if pair is not None:
        raise DuplicateHyperplaneError(
            f"columns {pair[0]} and {pair[1]} are proportional over F_{p}"
        )


def _dependent_subsets(cols, size: int, p: int):
    """The size-subsets of the columns that are dependent over F_p, by one batch_rank call."""
    subs = list(combinations(range(len(cols)), size))
    if not subs:
        return []
    vecs = residues(cols, len(cols[0]), p)
    ranks = batch_rank(vecs[np.array(subs)], p)
    return [sub for sub, r in zip(subs, ranks.tolist()) if r < size]


def rank2_flats_from_realization(matrix, p: int = DEFAULT_MODULUS) -> tuple[Flat, ...]:
    """Rank-2 flats over F_p of an integer matrix's columns: flats_of their dependent triples."""
    rows = [tuple(r) for r in matrix]
    if not rows:
        raise InputError("empty realization matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("ragged realization matrix")
    cols = [tuple(r[j] for r in rows) for j in range(width)]
    check_simple(cols, p)
    return flats_of(_dependent_subsets(cols, 3, p))


def flats_of(triples) -> tuple[Flat, ...]:
    """The rank-2 flats of a simple matroid from its dependent triples, sorted.

    The flat through hyperplanes i and j is {i, j} together with every k
    making {i, j, k} dependent, so each flat is the union of the dependent
    triples on one of its pairs.
    """
    through = {}  # pair -> the hyperplanes of its flat
    for triple in triples:
        for pair in combinations(triple, 2):
            through.setdefault(pair, set()).update(triple)
    return tuple(sorted({tuple(sorted(flat)) for flat in through.values()}))


def load_arrangement(text: str, name: str | None = None, p: int = DEFAULT_MODULUS) -> Arrangement:
    """Parse an arrangement from JSON or from the two line-oriented text formats.

    Text formats: a `matrix` header followed by the rows of the realization,
    or a `flats n=<N>` header followed by one comma-separated flat per line.
    JSON objects carry keys n, flats, matrix, name (matrix and flats optional,
    but at least one must be present).  `#` starts a comment in text input.
    """
    stripped = text.lstrip()
    if not stripped:
        raise InputError("empty arrangement input")
    if stripped.startswith("{"):
        return _from_json(text, name, p)

    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputError("empty arrangement input")
    header, body = lines[0], lines[1:]
    parts = header.split()

    if parts == ["matrix"]:
        if not body:
            raise InputError("matrix header with no rows")
        try:
            matrix = [tuple(int(tok) for tok in line.split()) for line in body]
        except ValueError as e:
            raise InputError(f"bad matrix row: {e}") from None
        return from_matrix(matrix, name=name or "arrangement", p=p)

    if parts[0] == "flats":
        if len(parts) != 2 or not parts[1].startswith("n="):
            raise InputError("flats header must look like 'flats n=<N>'")
        try:
            n = int(parts[1][2:])
        except ValueError:
            raise InputError(f"bad hyperplane count in {header!r}") from None
        if n <= 0:
            raise InputError("hyperplane count must be positive")
        try:
            flats = [tuple(int(tok) for tok in line.split(",")) for line in body]
        except ValueError as e:
            raise InputError(f"bad flat line: {e}") from None
        return Arrangement(n, _validate_flats(n, flats), None, name or "arrangement")

    raise InputError(f"unrecognized header {header!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_rows(obj: dict, key: str):
    """obj[key] when it is a list of lists of ints (bools and floats refused), else None."""
    rows = obj.get(key)
    if rows is None:
        return None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(map(_is_int, row)) for row in rows
    ):
        raise InputError(f"'{key}' must be a list of lists of integers")
    return rows


def _from_json(text: str, name: str | None, p: int) -> Arrangement:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"bad JSON: {e}") from None
    if not isinstance(obj, dict):
        raise InputError("JSON arrangement must be an object")
    if "n" not in obj:
        raise InputError("JSON arrangement needs key 'n'")
    n = obj["n"]
    if not _is_int(n) or n <= 0:
        raise InputError("'n' must be a positive integer")
    if not isinstance(obj.get("name", ""), str):
        raise InputError("'name' must be a string")
    resolved = name or obj.get("name") or "arrangement"
    matrix = _int_rows(obj, "matrix")
    flats = _int_rows(obj, "flats")
    if matrix is None and flats is None:
        raise InputError("JSON arrangement needs 'matrix' or 'flats'")
    if matrix is not None:
        if any(len(row) != n for row in matrix):
            raise InputError(f"matrix rows must have n={n} entries")
        arr = from_matrix(matrix, name=resolved, p=p)
        if flats is not None and _validate_flats(n, flats) != arr.flats:
            raise InputError("explicit flats disagree with the realization")
        return arr
    return Arrangement(n, _validate_flats(n, flats), None, resolved)


def from_matrix(matrix, name: str = "arrangement", p: int = DEFAULT_MODULUS) -> Arrangement:
    """Arrangement whose hyperplanes are the columns of an integer matrix."""
    mat = tuple(tuple(int(x) for x in row) for row in matrix)
    flats = rank2_flats_from_realization(mat, p)
    return Arrangement(len(mat[0]), flats, mat, name, p)


def _flat_triples(flats):
    """The dependent triples of a simple arrangement: the 3-subsets of its rank-2 flats, sorted."""
    return sorted({t for flat in flats for t in combinations(flat, 3)})


def dependent_sets(arr: Arrangement, max_size: int = 3, p: int = DEFAULT_MODULUS):
    """All dependent subsets of hyperplanes with 3 <= size <= max_size.

    Flats-only arrangements encode exactly the size-3 dependencies, so asking
    for larger sets there is an error rather than a silent undercount.
    """
    if max_size < 3:
        return []
    if arr.matrix is None:
        if max_size > 3:
            raise InputError(
                "dependent sets of size > 3 need a realization matrix, "
                f"but {arr.name!r} is combinatorial"
            )
        return _flat_triples(arr.flats)
    cols = arr.columns()
    sizes = range(3, min(max_size, arr.n) + 1)
    return [S for size in sizes for S in _dependent_subsets(cols, size, p)]


def circuits(arr: Arrangement, max_size: int, p: int = DEFAULT_MODULUS):
    """(circuits with 3 <= size <= max_size over F_p, rank), one size after another.

    A dependent set is a circuit when no facet of it is among the dependent
    sets one size smaller; sets larger than the rank are all dependent and
    skip batch_rank.  A realization must be simple over F_p; a flats-only
    arrangement has its dependent triples as circuits, and rank None.  The
    triples of the flats are the size-3 circuits of a realization read over
    F_p too, so only another prime ranks them again.  The rank is computed
    only when sizes above 3 are asked for, and is None otherwise: the
    triples are the same either way.
    """
    if arr.matrix is None:
        return dependent_sets(arr, max_size, p), None
    cols = arr.columns()
    check_simple(cols, p)
    ell = rank(arr.matrix, arr.n, p) if max_size > 3 else None
    found, below = [], set()  # below: the dependent sets one size smaller
    for size in range(3, (max_size if ell is None else min(max_size, ell + 1)) + 1):
        if ell is not None and size > ell:
            dep = list(combinations(range(arr.n), size))
        elif size == 3 and arr.p == p:
            dep = _flat_triples(arr.flats)
        else:
            dep = _dependent_subsets(cols, size, p)
        found += [S for S in dep if below.isdisjoint(combinations(S, size - 1))]
        below = set(dep)
    return found, ell


_A3_MATRIX = (
    (1, 0, -1, 1, 0, 0),
    (-1, 1, 0, 0, 1, 0),
    (0, -1, 1, 0, 0, 1),
)


def _hessian_flats() -> tuple[Flat, ...]:
    # Lines of AG(2,3): index 3*family + offset, families are x=c, y=c,
    # y=x+c, y=2x+c.  Each affine point lies on one line per family.
    flats = []
    for x in range(3):
        for y in range(3):
            flats.append(
                tuple(sorted((x, 3 + y, 6 + (y - x) % 3, 9 + (y - 2 * x) % 3)))
            )
    return tuple(sorted(flats))


def fixture(name: str) -> Arrangement:
    """Built-in arrangements: 'A3' (braid, realized) and 'Hessian' (combinatorial)."""
    key = name.strip().lower()
    if key == "a3":
        return from_matrix(_A3_MATRIX, name="A3")
    if key == "hessian":
        return Arrangement(12, _hessian_flats(), None, "Hessian")
    raise InputError(f"unknown fixture {name!r} (available: A3, Hessian)")
