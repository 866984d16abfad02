"""Group carriers and Folner sets.

Every carrier answers the same questions, so no code above this module asks
which kind it holds: ``op(s, t)`` (s t), ``inv(s)`` (s^{-1}) and
``contains(s)``, elementwise over integers or integer arrays; ``identity``;
``order`` (``None`` for Z); ``cyclic`` (element s is the s-th power of the
element 1, so an action is fixed by a generator); ``window(radius)``, the
positions of a representation space; ``folner_members(shifts, delta)``,
the set behind :func:`folner_search`; ``descriptor()``, inverted by
:func:`group_from_descriptor`; and ``same_group(other)``, whether two
carriers are one group with the same element labels (a Z window's radius
is only its default window, so every ``ZWindow`` is Z).  The carriers are
:class:`CyclicGroup`, Z/n by arithmetic mod n (:func:`cyclic_group`);
:class:`FiniteGroup`, any finite group from a validated multiplication
table (:func:`group_from_table`); and :class:`ZWindow`, Z itself, whose
default window is the symmetric interval {-radius..radius}.  A finite carrier's
elements, window and Folner set are the indices 0..order-1.  Translation
operators on a window are built in :mod:`lpalg.crossed`
(``CovariantRep.translation``).

Folner data: for a finite subset F and a shift s, the translate sF and the
one count |F and sF|.  Translation is injective, so |sF (sym diff) F| =
2 (|F| - |F and sF|), and the ratio |sF (sym diff) F| / |F| is read off
that count.  :func:`folner_search` returns a set with all requested ratios
below a threshold: the whole group when the carrier is finite, an initial
interval {0..L-1} of minimal length L <= 100,000 for Z.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

__all__ = [
    "CyclicGroup",
    "FiniteGroup",
    "FolnerSet",
    "ZWindow",
    "as_integer",
    "cyclic_group",
    "folner_intersection",
    "folner_ratio",
    "folner_search",
    "group_from_descriptor",
    "group_from_table",
    "translate_set",
]

_FOLNER_MAX_SIZE = 100_000  # the longest interval a Z Folner search tries
_ASSOC_BLOCK = 1 << 20  # triples per block of group_from_table's associativity check


def as_integer(value, field: str, least: int | None = None) -> int:
    """``value`` as an int if it is a Python int (not a bool) or a numpy
    integer, and not below ``least`` when that is given; anything else (a
    float, even an integral one, a bool, a string) raises a ValueError that
    names ``field``.  This is the one rule by which lpalg reads a size, a
    level, a count, a seed or a group element: nothing is truncated."""
    if (type(value) is int or isinstance(value, np.integer)) and (least is None or value >= least):
        return int(value)
    raise ValueError(f"{field} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


class _Finite:
    """The answers every finite carrier shares."""

    def contains(self, s):
        s = np.asarray(s)
        return (s >= 0) & (s < self.order)

    def elements(self) -> range:
        return range(self.order)

    def window(self, radius: int | None = None) -> np.ndarray:
        """Every element, in index order; the radius does not apply."""
        return np.arange(self.order)

    def folner_members(self, shifts, delta: float) -> tuple:
        """The whole group: every translate ratio is exactly 0."""
        return tuple(self.elements())

    def same_group(self, other) -> bool:
        """Equal descriptors: Z/n by arithmetic and by its addition table agree."""
        return other is self or (isinstance(other, _Finite) and other.descriptor() == self.descriptor())


class CyclicGroup(_Finite):
    """Z/n with elements 0..n-1 under addition mod n, computed, not tabulated."""

    identity = 0
    cyclic = True

    def __init__(self, order: int):
        self.order = as_integer(order, "cyclic group order", 1)

    def op(self, s, t):
        return (s + t) % self.order

    def inv(self, s):
        return -s % self.order

    def descriptor(self) -> dict:
        return {"type": "cyclic", "n": self.order}

    def __repr__(self) -> str:
        return f"CyclicGroup(order={self.order})"


class FiniteGroup(_Finite):
    """A finite group given by its multiplication table over indices 0..n-1.

    Read-only; two groups are equal only when they are the same object.
    """

    cyclic = False  # the indices need not be the powers of element 1

    def __init__(self, mult: np.ndarray, identity: int, inverse: np.ndarray):
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def order(self) -> int:
        return self.mult.shape[0]

    def op(self, s, t):
        return self.mult[s, t]

    def inv(self, s):
        return self.inverse[s]

    def descriptor(self) -> dict:
        """A table that is addition mod n is described as the cyclic group."""
        idx = np.arange(self.order)
        if np.array_equal(self.mult, (idx[:, None] + idx[None, :]) % self.order):
            return {"type": "cyclic", "n": self.order}
        return {"type": "table", "mult": self.mult.tolist()}

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


class ZWindow:
    """The group Z, carried on the symmetric interval {-radius..radius}.

    The radius only matters when a representation space is built; group
    arithmetic is ordinary integer arithmetic either way.  Read-only, and
    equal radii make equal windows.
    """

    identity = 0
    order = None
    cyclic = True

    def __init__(self, radius: int = 0):
        object.__setattr__(self, "radius", as_integer(radius, "window radius", 0))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.radius == other.radius

    def __hash__(self):
        return hash(self.radius)

    def __repr__(self) -> str:
        return f"ZWindow(radius={self.radius!r})"

    def op(self, s, t):
        return s + t

    def inv(self, s):
        return -s

    def contains(self, s):
        """Every integer is an element."""
        return np.ones(np.shape(s), dtype=bool)

    def window(self, radius: int | None = None) -> np.ndarray:
        """The interval {-r..r}, r >= 1 the given radius or else the carrier's own."""
        r = as_integer(self.radius if radius is None else radius, "window radius", 1)
        return np.arange(-r, r + 1)

    def folner_members(self, shifts, delta: float) -> tuple:
        """The initial interval {0..L-1} of minimal length L; CapacityError
        if no L <= _FOLNER_MAX_SIZE works."""
        k = max((abs(int(s)) for s in shifts), default=0)
        if k == 0:
            return (0,)
        length = max(1, int(np.ceil(2.0 * k / delta)) - 2)
        while length <= _FOLNER_MAX_SIZE:
            if 2.0 * min(k, length) / length < delta:
                return tuple(range(length))
            length += 1
        raise CapacityError(
            f"no interval of length <= {_FOLNER_MAX_SIZE} brings every shift ratio below {delta}"
        )

    def descriptor(self) -> dict:
        return {"type": "z_window", "radius": self.radius}

    def same_group(self, other) -> bool:
        """Every Z window carries Z, whatever its radius."""
        return isinstance(other, ZWindow)


def group_from_table(mult) -> FiniteGroup:
    """Build and validate a FiniteGroup from a multiplication table.

    Checks that every entry is an integer (a bool or a float is refused, not
    truncated), closure, the existence of a two-sided identity and of
    inverses, and associativity on every triple: n^3 lookups, made a block
    of rows at a time so that memory stays O(n^2).
    """
    table = np.asarray(mult)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise ValueError(f"multiplication table must be square and nonempty, got {table.shape}")
    for entry in np.asarray(mult, dtype=object).flat:  # numpy reads [0, True] as int64
        as_integer(entry, "a multiplication table entry")
    table = table.astype(np.int64)
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

    # (a b) c == a (b c) for every a in a block of rows and every b, c
    step = max(1, _ASSOC_BLOCK // (n * n))
    for start in range(0, n, step):
        rows = table[start:start + step]
        if (table[rows] != rows[:, table]).any():
            raise ValueError("multiplication table is not associative")

    return FiniteGroup(mult=table, identity=e, inverse=inverse)


def cyclic_group(n: int) -> CyclicGroup:
    """Z/n with elements 0..n-1 under addition mod n."""
    return CyclicGroup(n)


class FolnerSet:
    """A finite nonempty subset of a group carrier, kept sorted for determinism.

    Read-only; equal carriers and members make equal sets.
    """

    def __init__(self, carrier, members: tuple):
        members = tuple(sorted(as_integer(m, "Folner set member") for m in members))
        if not members:
            raise ValueError("a Folner set must be nonempty")
        if len(set(members)) != len(members):
            raise ValueError("Folner set members must be distinct")
        if not carrier.contains(np.array(members)).all():
            raise ValueError("Folner set members must be elements of the carrier")
        object.__setattr__(self, "carrier", carrier)  # any group carrier
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.members) == (other.carrier, other.members)

    def __hash__(self):
        return hash((self.carrier, self.members))

    def __repr__(self) -> str:
        return f"FolnerSet(carrier={self.carrier!r}, members={self.members!r})"

    @property
    def size(self) -> int:
        return len(self.members)


def _shift(carrier, s) -> int:
    """``s`` as an int if it is an integer element of ``carrier``; anything
    else raises a ValueError that names it."""
    s = as_integer(s, "a shift")
    if not carrier.contains(s):
        raise ValueError(f"shift {s} is not an element of {carrier!r}")
    return s


def translate_set(fset: FolnerSet, s: int) -> frozenset:
    """The translate sF = {s t : t in F}, for an integer element s of F's carrier."""
    return frozenset(fset.carrier.op(_shift(fset.carrier, s), np.array(fset.members)).tolist())


def folner_intersection(fset: FolnerSet, s: int) -> int:
    """|F and sF|."""
    return len(translate_set(fset, s).intersection(fset.members))


def folner_ratio(fset: FolnerSet, s: int) -> float:
    """|sF (sym diff) F| / |F|, which is 2 (|F| - |F and sF|) / |F| since
    translation is injective."""
    return 2 * (fset.size - folner_intersection(fset, s)) / fset.size


def folner_search(carrier, shifts, delta: float) -> FolnerSet:
    """A set whose translate ratios under every requested shift are < delta.

    Finite carriers return the whole group (all ratios are exactly 0).  For
    Z the result is the initial interval {0..L-1} with L minimal; if no
    interval of length <= 100,000 works, a CapacityError is raised.  Each
    shift must be an integer element of the carrier, and delta a positive
    number (NaN is refused too).
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    shifts = tuple(_shift(carrier, s) for s in shifts)
    return FolnerSet(carrier, carrier.folner_members(shifts, delta))


def group_from_descriptor(desc: dict):
    """Inverse of a carrier's ``descriptor()``, with full validation."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError(f"group descriptor must be an object with a 'type' key, got {desc!r}")
    kind = desc["type"]
    if kind == "cyclic":
        return cyclic_group(as_integer(desc.get("n"), "n"))
    if kind == "table":
        return group_from_table(desc.get("mult"))
    if kind == "z_window":
        return ZWindow(radius=as_integer(desc.get("radius"), "radius"))
    raise ValueError(f"unknown group descriptor type {kind!r}")
