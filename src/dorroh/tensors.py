"""Sparse order-3 tensors holding structure constants.

Entries map index triples to nonzero canonical scalars.  The same shape
stores multiplications (i,j,k), comultiplications (k,i,j), module actions
and comodule coactions; each owner documents its own index convention.

Every axiom is an identity between two contractions of such tensors;
``first_witness`` decides one from the nonzero entries alone.
"""

from __future__ import annotations

from .errors import InputError
from .fields import FieldSpec


class SparseTensor3:
    __slots__ = ("dims", "entries", "field", "_by1")

    def __init__(self, dims, entries, field: FieldSpec):
        dims = tuple(dims)
        if len(dims) != 3 or any(d < 0 for d in dims):
            raise InputError(f"bad tensor dims {dims!r}")
        canon = field.canon
        clean = {}
        for key, value in entries.items() if isinstance(entries, dict) else entries:
            i, j, k = key
            if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
                raise InputError(f"tensor index {key} out of range for dims {dims}")
            if key in clean:
                raise InputError(f"duplicate tensor entry at {key}")
            v = canon(value)
            if v != 0:
                clean[key] = v
        self.dims = dims
        self.entries = clean
        self.field = field
        self._by1 = None

    @classmethod
    def zero(cls, dims, field: FieldSpec) -> "SparseTensor3":
        return cls(dims, {}, field)

    def get(self, i: int, j: int, k: int):
        return self.entries.get((i, j, k), 0)

    def sorted_items(self):
        return sorted(self.entries.items())

    def by_first(self):
        """index0 -> list of (index1, index2, value)."""
        if self._by1 is None:
            g = {}
            for (i, j, k), v in self.entries.items():
                g.setdefault(i, []).append((j, k, v))
            self._by1 = g
        return self._by1

    def map_values(self, fn) -> "SparseTensor3":
        return SparseTensor3(self.dims, {k: fn(v) for k, v in self.entries.items()}, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, SparseTensor3)
            and self.dims == other.dims
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseTensor3(dims={self.dims}, nnz={len(self.entries)})"


def accumulate(dims, raw_items, field: FieldSpec) -> SparseTensor3:
    """Sum possibly-repeated (i,j,k,value) contributions into a tensor."""
    acc = {}
    for i, j, k, v in raw_items:
        key = (i, j, k)
        acc[key] = acc.get(key, 0) + v
    return SparseTensor3(dims, acc, field)


def first_witness(field: FieldSpec, box: str, out: str, lhs, rhs):
    """The least ``box`` index tuple at which two contractions differ, or None.

    ``box`` and ``out`` are strings of index letters.  Each side is a term
    ``(spec, T, U)`` whose ``spec`` names the slots of T and U, e.g.
    ``"abl,lxy"``: the one letter T and U share is summed over, and their
    other letters are exactly those of ``box`` and ``out``.  The result is
    the lexicographically least ``box`` tuple at which some ``out``
    coefficient of lhs - rhs is nonzero.

    Only stored entries are visited, so the cost is the number of nonzero
    products, whatever the size of the box.  Each (box, out) tuple is one
    mixed-radix integer with the box letters most significant, so the
    least failing key divided by the ``out`` volume is the witness.
    """
    sizes = {}
    for spec, T, U in (lhs, rhs):
        for letters, t in zip(spec.split(","), (T, U)):
            for c, d in zip(letters, t.dims):
                if sizes.setdefault(c, d) != d:
                    raise ValueError(f"index {c!r} has sizes {sizes[c]} and {d}")
    stride = {}
    volume = 1
    for c in reversed(box + out):
        stride[c] = volume
        volume *= sizes[c]
    acc = {}
    _contract(acc, 1, lhs, stride, box + out)
    _contract(acc, -1, rhs, stride, box + out)
    # Raw sums are ints or Fractions over Q and ints over F_p, so this is
    # canon(v) != 0 without canonicalising every coefficient.
    p = field.p
    bad = [key for key, v in acc.items() if (v % p if p else v)]
    if not bad:
        return None
    out_volume = 1
    for c in out:
        out_volume *= sizes[c]
    key = min(bad) // out_volume
    witness = []
    for c in reversed(box):
        key, i = divmod(key, sizes[c])
        witness.append(i)
    return tuple(reversed(witness))


def _contract(acc, sign, term, stride, free):
    """Add sign * sum_l T[..l..] U[..l..] into acc, keyed by the free letters' radix code."""
    spec, T, U = term
    t_letters, u_letters = spec.split(",")
    if len(U.entries) > len(T.entries):
        # group the smaller tensor: grouping allocates per entry, iterating does not
        T, U, t_letters, u_letters = U, T, u_letters, t_letters
    shared = set(t_letters) & set(u_letters)
    l = shared.pop() if len(shared) == 1 else None
    if l is None or sorted((t_letters + u_letters).replace(l, "")) != sorted(free):
        raise ValueError(f"spec {spec!r} does not contract to {free!r}")
    p, q = t_letters.index(l), u_letters.index(l)
    u0, u1, u2 = (0 if c == l else stride[c] for c in u_letters)
    groups = {}
    for key, v in U.entries.items():
        i, j, k = key
        groups.setdefault(key[q], []).append((i * u0 + j * u1 + k * u2, v))
    t0, t1, t2 = (0 if c == l else stride[c] for c in t_letters)
    get = acc.get
    for key, v in T.entries.items():
        group = groups.get(key[p])
        if group:
            i, j, k = key
            base = i * t0 + j * t1 + k * t2
            v = sign * v
            for offset, v2 in group:
                code = base + offset
                acc[code] = get(code, 0) + v * v2
