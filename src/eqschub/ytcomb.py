"""Pivot subsets, box partitions, Bruhat order, tableaux, fixed-point weights.

Conventions used throughout: for a k-element pivot subset I of {1..n} the
attached partition is lambda_j = (n-k) - i_j + j, so the subset {1..k} carries
the full (n-k)^k box (the point class) and {n-k+1..n} carries the empty
partition (the fundamental class).  Componentwise comparison of subsets then
matches reverse containment of partitions: J <= I iff lambda(J) contains
lambda(I).
"""

from __future__ import annotations

from itertools import combinations

from .exactalg import EqschubError, ParseError, Polynomial, t


class DoesNotFitBox(EqschubError):
    """Partition does not fit inside the k x (n-k) box."""


class _Record:
    """An immutable value on __slots__, its fields named there in order.

    repr is Name(field=value, ...); == holds only within one class; the hash
    is that of the field tuple; pickling and copying rebuild through the
    constructor.  The dict-key types override __eq__ and __hash__ with
    direct field access, as the getattr loop is several times slower.
    """

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class GrassmannianShape(_Record):
    """Ambient data for Gr(k, n): k-planes in n-space."""

    __slots__ = __match_args__ = ("n", "k")

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __eq__(self, other):
        if other.__class__ is GrassmannianShape:
            return self.n == other.n and self.k == other.k
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.k))

    @property
    def box_width(self) -> int:
        return self.n - self.k

    @property
    def dimension(self) -> int:
        return self.k * (self.n - self.k)

    def subsets(self) -> list["PivotSubset"]:
        """All pivot subsets in lexicographic order."""
        return [PivotSubset(c) for c in combinations(range(1, self.n + 1), self.k)]

    def partitions(self) -> list["Partition"]:
        """All partitions in the box, sorted by weight then by parts."""
        lams = [subset_to_partition(I, self) for I in self.subsets()]
        return sorted(lams, key=lambda p: (p.weight, p.parts))


class PivotSubset(_Record):
    """A strictly increasing k-tuple of row indices in {1..n}."""

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        elems = tuple(elements)
        if any(not isinstance(i, int) or i < 1 for i in elems):
            raise ValueError(f"pivot entries must be positive integers: {elems}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"pivot entries must strictly increase: {elems}")
        object.__setattr__(self, "elements", elems)

    def __eq__(self, other):
        if other.__class__ is PivotSubset:
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash((self.elements,))

    @classmethod
    def of(cls, it) -> "PivotSubset":
        if isinstance(it, PivotSubset):
            return it
        return cls(tuple(sorted(it)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def missing(self, n: int) -> tuple[int, ...]:
        inside = set(self.elements)
        return tuple(j for j in range(1, n + 1) if j not in inside)

    def reflected(self, n: int) -> "PivotSubset":
        """The image under i -> n+1-i."""
        return PivotSubset(tuple(sorted(n + 1 - i for i in self.elements)))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements) + "}"


class Partition(_Record):
    """Weakly decreasing positive parts; trailing zeros are trimmed."""

    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        if any(not isinstance(p, int) or p <= 0 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must weakly decrease: {parts}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is Partition:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @classmethod
    def of(cls, it) -> "Partition":
        if isinstance(it, Partition):
            return it
        parts = list(it)
        while parts and parts[-1] == 0:
            parts.pop()
        return cls(tuple(parts))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def padded(self, rows: int) -> tuple[int, ...]:
        return self.parts + (0,) * (rows - len(self.parts))

    def fits(self, shape: GrassmannianShape) -> bool:
        if len(self.parts) > shape.k:
            return False
        return not self.parts or self.parts[0] <= shape.box_width

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other is a subdiagram of self."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))

    def box_complement(self, shape: GrassmannianShape) -> "Partition":
        """The 180-degree rotated complement inside the k x (n-k) box."""
        _check_partition(self, shape)
        w = shape.box_width
        padded = self.padded(shape.k)
        return Partition.of(w - padded[i] for i in range(shape.k - 1, -1, -1))

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return ",".join(str(p) for p in self.parts)


def _check_subset(I: PivotSubset, shape: GrassmannianShape) -> PivotSubset:
    I = PivotSubset.of(I)
    if len(I.elements) != shape.k:
        raise ValueError(f"{I} is not a {shape.k}-element subset")
    if I.elements and I.elements[-1] > shape.n:
        raise ValueError(f"{I} is not contained in {{1..{shape.n}}}")
    return I


def _check_partition(lam, shape: GrassmannianShape) -> Partition:
    lam = Partition.of(lam)
    if not lam.fits(shape):
        raise DoesNotFitBox(f"{lam} does not fit in {shape.k} x {shape.box_width}")
    return lam


def _parse_partition(text: str, where: str = "partition") -> Partition:
    parts = []
    for part in text.split(","):
        try:
            parts.append(int(part))
        except ValueError:
            if part.isdecimal():  # more digits than int() reads
                raise ParseError(f"digit run too long in {where} at {part[:12]!r}") from None
            raise ParseError(f"bad partition {text[:12]!r}; expected digits joined by commas") from None
    return Partition.of(parts)


def subset_to_partition(I, shape: GrassmannianShape) -> Partition:
    """The partition whose j-th row has (n-k) - i_j + j boxes."""
    I = _check_subset(I, shape)
    w = shape.box_width
    return Partition.of(w - i + j for j, i in enumerate(I.elements, start=1))


def partition_to_subset(lam, shape: GrassmannianShape) -> PivotSubset:
    """Inverse of subset_to_partition: i_j = (n-k) + j - lambda_j."""
    lam = _check_partition(lam, shape)
    w = shape.box_width
    padded = lam.padded(shape.k)
    return PivotSubset(tuple(w + j - padded[j - 1] for j in range(1, shape.k + 1)))


def bruhat_leq(J, I) -> bool:
    """Componentwise comparison j_1 <= i_1, ..., j_k <= i_k."""
    J = PivotSubset.of(J)
    I = PivotSubset.of(I)
    if len(J.elements) != len(I.elements):
        raise ValueError("subsets must have the same size")
    return all(a <= b for a, b in zip(J.elements, I.elements))


def ssyt_enumerate(lam, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard tableaux of the given shape with entries in {1..k},
    each as its tuple of rows.

    Rows weakly increase, columns strictly increase.  The list comes out in
    lexicographic order of the row-reading word: the boxes are filled in
    that order by backtracking, each one from its least admissible entry up.
    """
    parts = Partition.of(lam).parts
    if k < 0:
        raise ValueError("entry bound must be nonnegative")
    return _flagged_tableaux(parts, [k] * sum(parts))


def _ssyt_count(lam: Partition, k: int) -> int:
    """len(ssyt_enumerate(lam, k)) with no tableau built: s_lam(1^k) by Weyl's
    dimension formula, the product over i < j <= k of (lam_i - lam_j + j - i)
    / (j - i), for i a row of lam alone, as two zero rows give 1."""
    rows, num, den = lam.parts, 1, 1
    for i, row in enumerate(rows):
        for j in range(i + 1, k):
            num, den = num * (row - (rows[j] if j < len(rows) else 0) + j - i), den * (j - i)
    return num // den if len(rows) <= k else 0


def _flagged_tableaux(parts: tuple[int, ...], tops) -> list[tuple[tuple[int, ...], ...]]:
    """The semistandard tableaux of shape parts whose box p of the row-reading
    word holds at most tops[p], in the order of `ssyt_enumerate`."""
    # For box p of the row-reading word: the word positions of the box to its
    # left and of the box above it, -1 where there is none.
    left, above, rows = [], [], []
    for i, width in enumerate(parts):
        start = len(left)
        for j in range(width):
            left.append(start + j - 1 if j else -1)
            above.append(start - parts[i - 1] + j if i else -1)
        rows.append((start, start + width))
    size = len(left)
    word = [0] * size
    out = []
    p = 0
    while p >= 0:
        if p == size:
            out.append(tuple(tuple(word[a:b]) for a, b in rows))
            p -= 1
            continue
        if word[p]:
            v = word[p] + 1
        else:
            v = word[left[p]] if left[p] >= 0 else 1
            if above[p] >= 0 and word[above[p]] >= v:
                v = word[above[p]] + 1
        if v > tops[p]:
            word[p] = 0
            p -= 1
        else:
            word[p] = v
            p += 1
    return out


def tangent_weights(I, shape: GrassmannianShape) -> list[Polynomial]:
    """Weights t_j - t_i at the fixed point, for i inside and j outside I."""
    I = _check_subset(I, shape)
    outside = I.missing(shape.n)
    return [t(j) - t(i) for i in I.elements for j in outside]


def cell_weights(I, shape: GrassmannianShape) -> list[Polynomial]:
    """The tangent weights t_j - t_i with i > j (along the cell)."""
    I = _check_subset(I, shape)
    outside = I.missing(shape.n)
    return [t(j) - t(i) for i in I.elements for j in outside if i > j]


def normal_weights(I, shape: GrassmannianShape) -> list[Polynomial]:
    """The tangent weights t_j - t_i with i < j (normal to the cell closure)."""
    I = _check_subset(I, shape)
    outside = I.missing(shape.n)
    return [t(j) - t(i) for i in I.elements for j in outside if i < j]
