"""Finite groups, the integer line, translation operators, and Folner sets.

A finite group is stored as a multiplication table over element indices
0..n-1.  The group Z is represented by :class:`ZWindow`, a symmetric integer
interval {-radius..radius} used as the carrier for truncated translation
representations; group elements of Z are the integers themselves.  Both
carriers give the same element arithmetic: ``op`` (s t), ``inv`` (s^{-1})
and ``window`` (the positions of a representation space), each taking
integers or integer arrays elementwise, so code above this module never
needs to know which carrier it holds.

The left regular representation acts by (lambda(s) xi)(t) = xi(s^{-1} t), so
lambda(s) is the permutation matrix sending the basis vector at t to the one
at s t.  Its conjugate transpose is the regular representation of s^{-1},
entrywise and exactly, which is what :func:`lambda_adjoint_check` verifies.

Folner data: for a finite subset F and a shift s, the translate sF, the
ratio |sF (sym diff) F| / |F|, and the intersection count |F and sF|, which
always equals (2|F| - |sF (sym diff) F|) / 2 because translation is
injective.  :func:`folner_search` returns a set with all requested ratios
below a threshold: the whole group when the carrier is finite, an initial
interval {0..L-1} of minimal length for Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .lpnorm import adjoint

__all__ = [
    "FiniteGroup",
    "FolnerSet",
    "ZWindow",
    "cyclic_group",
    "folner_intersection",
    "folner_ratio",
    "folner_search",
    "group_from_descriptor",
    "group_from_table",
    "group_to_descriptor",
    "lambda_adjoint_check",
    "regular_rep",
    "translate_set",
]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table over indices 0..n-1."""

    mult: np.ndarray
    identity: int
    inverse: np.ndarray
    name: str = "group"

    @property
    def order(self) -> int:
        return self.mult.shape[0]

    def op(self, s, t):
        return self.mult[s, t]

    def inv(self, s):
        return self.inverse[s]

    def elements(self) -> range:
        return range(self.order)

    def window(self, radius: int | None = None) -> np.ndarray:
        """Every element, in index order; the radius does not apply."""
        return np.arange(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class ZWindow:
    """The group Z, carried on the symmetric interval {-radius..radius}.

    The radius only matters when a representation space is built; group
    arithmetic is ordinary integer arithmetic either way.
    """

    radius: int = 0
    identity: int = field(default=0, init=False)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("window radius must be nonnegative")

    def op(self, s, t):
        return s + t

    def inv(self, s):
        return -s

    def window(self, radius: int | None = None) -> np.ndarray:
        """The interval {-r..r}, r the given radius or else the carrier's own."""
        r = self.radius if radius is None else int(radius)
        if r < 1:
            raise ValueError("a Z representation needs a positive window radius")
        return np.arange(-r, r + 1)

    def __repr__(self) -> str:
        return f"ZWindow(radius={self.radius})"


def group_from_table(mult, name: str = "group") -> FiniteGroup:
    """Build and validate a FiniteGroup from a multiplication table.

    Checks closure, the existence of a two-sided identity and of inverses,
    and associativity (exhaustively up to order 24, on 2000 random triples
    beyond that).
    """
    table = np.asarray(mult, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise ValueError(f"multiplication table must be square and nonempty, got {table.shape}")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise ValueError("table entries must be element indices 0..n-1")

    idx = np.arange(n)
    identities = np.flatnonzero((table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0))
    if identities.size != 1:
        raise ValueError("table does not define a unique two-sided identity")
    e = int(identities[0])

    hits = table == e
    inverse = hits.argmax(axis=1)  # the solution of s x = e, if it is the only one
    lacking = (hits.sum(axis=1) != 1) | (table[inverse, idx] != e)
    if lacking.any():
        raise ValueError(f"element {lacking.argmax()} has no two-sided inverse")

    if n <= 24:
        # (a b) c == a (b c) for all triples at once
        if not np.array_equal(table[table, :], table[:, table]):
            raise ValueError("multiplication table is not associative")
    else:
        rng = np.random.default_rng(0)
        for _ in range(2000):
            a, b, c = rng.integers(0, n, size=3)
            if table[table[a, b], c] != table[a, table[b, c]]:
                raise ValueError("multiplication table is not associative")

    return FiniteGroup(mult=table, identity=e, inverse=inverse, name=name)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    idx = np.arange(n)
    return group_from_table((idx[:, None] + idx[None, :]) % n, name=f"Z/{n}")


def regular_rep(group: FiniteGroup, s: int) -> np.ndarray:
    """Permutation matrix of left translation: column t has its 1 in row s t."""
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    out[group.mult[s], np.arange(n)] = 1.0
    return out


def lambda_adjoint_check(group: FiniteGroup, s: int) -> bool:
    """Whether regular_rep(s)* equals regular_rep(s^{-1}) entrywise exactly."""
    return np.array_equal(adjoint(regular_rep(group, s)), regular_rep(group, group.inv(s)))


@dataclass(frozen=True)
class FolnerSet:
    """A finite nonempty subset of a group carrier, kept sorted for determinism."""

    carrier: object  # FiniteGroup or ZWindow
    members: tuple

    def __post_init__(self):
        members = tuple(sorted(int(m) for m in self.members))
        if not members:
            raise ValueError("a Folner set must be nonempty")
        if len(set(members)) != len(members):
            raise ValueError("Folner set members must be distinct")
        if isinstance(self.carrier, FiniteGroup):
            if members[0] < 0 or members[-1] >= self.carrier.order:
                raise ValueError("members must be element indices of the finite carrier")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)


def translate_set(fset: FolnerSet, s: int) -> frozenset:
    """The translate sF = {s t : t in F}."""
    op = fset.carrier.op
    return frozenset(op(s, t) for t in fset.members)


def folner_ratio(fset: FolnerSet, s: int) -> float:
    """|sF (sym diff) F| / |F|."""
    shifted = translate_set(fset, s)
    return len(shifted.symmetric_difference(fset.members)) / fset.size


def folner_intersection(fset: FolnerSet, s: int) -> int:
    """|F and sF|, cross-checked against (2|F| - |sF (sym diff) F|) / 2.

    The two expressions agree for every translate because s acts injectively;
    a mismatch would be an implementation bug, so it raises AssertionError.
    """
    shifted = translate_set(fset, s)
    members = frozenset(fset.members)
    inter = len(members & shifted)
    sym = len(members.symmetric_difference(shifted))
    if 2 * inter != 2 * fset.size - sym:
        raise AssertionError(
            f"intersection identity violated: |F^sF|={inter}, |F|={fset.size}, |sF^F|={sym}"
        )
    return inter


def folner_search(carrier, shifts, delta: float, max_size: int = 100_000) -> FolnerSet:
    """A set whose translate ratios under every requested shift are < delta.

    Finite carriers return the whole group (all ratios are exactly 0).  For
    Z the result is the initial interval {0..L-1} with L minimal; if no
    interval of length <= max_size works, a CapacityError is raised.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    shifts = tuple(shifts)
    if isinstance(carrier, FiniteGroup):
        return FolnerSet(carrier, tuple(carrier.elements()))

    k = max((abs(int(s)) for s in shifts), default=0)
    if k == 0:
        return FolnerSet(carrier, (0,))
    length = max(1, int(np.ceil(2.0 * k / delta)) - 2)
    while length <= max_size:
        if 2.0 * min(k, length) / length < delta:
            return FolnerSet(carrier, tuple(range(length)))
        length += 1
    raise CapacityError(
        f"no interval of length <= {max_size} brings every shift ratio below {delta}"
    )


def group_to_descriptor(carrier) -> dict:
    """JSON-ready descriptor for a group carrier."""
    if isinstance(carrier, ZWindow):
        return {"type": "z_window", "radius": carrier.radius}
    if isinstance(carrier, FiniteGroup):
        n = carrier.order
        if np.array_equal(carrier.mult, (np.arange(n)[:, None] + np.arange(n)[None, :]) % n):
            return {"type": "cyclic", "n": n}
        return {"type": "table", "mult": carrier.mult.tolist()}
    raise TypeError(f"not a group carrier: {carrier!r}")


def group_from_descriptor(desc: dict):
    """Inverse of :func:`group_to_descriptor`, with full validation."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError(f"group descriptor must be an object with a 'type' key, got {desc!r}")
    kind = desc["type"]
    if kind == "cyclic":
        return cyclic_group(int(desc["n"]))
    if kind == "table":
        return group_from_table(desc["mult"])
    if kind == "z_window":
        return ZWindow(radius=int(desc["radius"]))
    raise ValueError(f"unknown group descriptor type {kind!r}")
