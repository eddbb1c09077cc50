"""Sparse order-3 tensors holding structure constants.

Entries map index triples to nonzero canonical scalars.  The same shape
stores multiplications (i,j,k), comultiplications (k,i,j), module actions
and comodule coactions; each owner documents its own index convention.

Every axiom is an identity between two contractions of such tensors;
``first_witness`` decides one from the nonzero entries alone.  Every
morphism, basis change and vector law carries a tensor's legs through
matrices; ``transport`` does that from the nonzero entries alone and
``first_difference`` names where two results differ.  Every extension,
gluing and Kronecker dual lays tensors out as blocks of a larger one
with ``place``; ``SparseTensor3.block`` reads a block back out.

The Kronecker dual of an algebra-side tensor is the leg rotation
``TO_COALGEBRA``, undone by ``TO_ALGEBRA``.  ``rotate`` turns a tensor and
``rotate_spec`` the slots of a ``first_witness`` spec, so an identity
written once for algebras also holds or fails on the dual coalgebras.
"""

from __future__ import annotations

from .errors import InputError
from .fields import FieldSpec


class SparseTensor3:
    __slots__ = ("dims", "entries", "field")

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

    @classmethod
    def _canonical(cls, dims, entries, field: FieldSpec) -> "SparseTensor3":
        """A tensor from entries already in range, nonzero and canonical."""
        t = cls.__new__(cls)
        t.dims, t.entries, t.field = dims, entries, field
        return t

    @classmethod
    def zero(cls, dims, field: FieldSpec) -> "SparseTensor3":
        return cls(dims, {}, field)

    def sorted_items(self):
        return sorted(self.entries.items())

    def block(self, lo, hi) -> "SparseTensor3":
        """The entries with lo <= key < hi in every leg, shifted to the origin."""
        (a0, a1, a2), (b0, b1, b2) = lo, hi
        entries = {
            (i - a0, j - a1, k - a2): v
            for (i, j, k), v in self.entries.items()
            if a0 <= i < b0 and a1 <= j < b1 and a2 <= k < b2
        }
        return SparseTensor3._canonical((b0 - a0, b1 - a1, b2 - a2), entries, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, SparseTensor3)
            and self.dims == other.dims
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseTensor3(dims={self.dims}, nnz={len(self.entries)})"


def place(dims, field: FieldSpec, *parts) -> SparseTensor3:
    """A tensor of shape ``dims`` holding each part as one block.

    A part is ``(T, offsets)`` or ``(T, offsets, order)``: entry ``key`` of
    T lands at leg t = ``offsets[t] + key[order[t]]``, so ``order`` permutes
    T's legs (default ``(0, 1, 2)``) before the block is shifted into
    place.  Parts must fit in ``dims`` and must not overlap.
    """
    dims = tuple(dims)
    entries = {}
    stored = 0
    for T, offsets, *order in parts:
        p, q, r = order[0] if order else (0, 1, 2)
        o0, o1, o2 = offsets
        if any(o + T.dims[t] > d for o, t, d in zip(offsets, (p, q, r), dims)):
            raise ValueError(f"block {T.dims} at {offsets} does not fit in {dims}")
        entries.update({(key[p] + o0, key[q] + o1, key[r] + o2): v for key, v in T.entries.items()})
        stored += len(T.entries)
    if len(entries) != stored:
        raise ValueError("placed blocks overlap")
    return SparseTensor3._canonical(dims, entries, field)


TO_COALGEBRA = (2, 0, 1)
TO_ALGEBRA = (1, 2, 0)


def rotate(T: SparseTensor3 | None, order) -> SparseTensor3 | None:
    """T with leg t of the result read from leg order[t] of T.  None, the
    absent action of a one-sided module, stays None."""
    if T is None:
        return None
    return place(tuple(T.dims[o] for o in order), T.field, (T, (0, 0, 0), order))


def rotate_spec(spec: str, order) -> str:
    """The ``first_witness`` spec naming the same slots on tensors rotated by ``order``."""
    return ",".join("".join(letters[o] for o in order) for letters in spec.split(","))


def first_witness(field: FieldSpec, box: str, out: str, lhs, rhs):
    """The least ``box`` index tuple at which two contractions differ, or None.

    ``box`` and ``out`` are strings of index letters.  Each side is a term
    ``(spec, T, U)`` whose ``spec`` names the slots of T and U, e.g.
    ``"abl,lxy"``: the one letter T and U share is summed over, and their
    other letters are exactly those of ``box`` and ``out``.  The result is
    the lexicographically least ``box`` tuple at which some ``out``
    coefficient of lhs - rhs is nonzero.

    Only stored entries are visited, so the cost is the entries of the
    larger factor of each term plus the nonzero products, whatever the
    size of the box.  Each (box, out) tuple is one mixed-radix integer
    with the box letters most significant, so the least failing key
    divided by the ``out`` volume is the witness.
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
    """Add sign * sum_l T[..l..] U[..l..] into acc, keyed by the free letters' radix code.

    The smaller factor U is grouped by l and the larger T walked against
    the groups.  When every group has one entry (a scalar (co)action, a
    grouplike or permutation tensor), each entry of T makes one product
    with no inner loop.
    """
    spec, T, U = term
    t_letters, u_letters = spec.split(",")
    if len(U.entries) > len(T.entries):
        # group the smaller tensor: grouping allocates per entry, iterating does not
        T, U, t_letters, u_letters = U, T, u_letters, t_letters
    shared = set(t_letters) & set(u_letters)
    l = shared.pop() if len(shared) == 1 else None
    if l is None or sorted((t_letters + u_letters).replace(l, "")) != sorted(free):
        raise ValueError(f"spec {spec!r} does not contract to {free!r}")
    if not U.entries:  # an empty factor contributes nothing: skip the walk of the other
        return
    p, q = t_letters.index(l), u_letters.index(l)
    u0, u1, u2 = (0 if c == l else stride[c] for c in u_letters)
    groups = {}
    for key, v in U.entries.items():
        i, j, k = key
        groups.setdefault(key[q], []).append((i * u0 + j * u1 + k * u2, v))
    t0, t1, t2 = (0 if c == l else stride[c] for c in t_letters)
    get = acc.get
    if len(groups) == len(U.entries):
        single = {m: (offset, sign * v2) for m, ((offset, v2),) in groups.items()}
        for key, v in T.entries.items():
            hit = single.get(key[p])
            if hit:
                i, j, k = key
                offset, w = hit
                code = i * t0 + j * t1 + k * t2 + offset
                acc[code] = get(code, 0) + v * w
        return
    for key, v in T.entries.items():
        group = groups.get(key[p])
        if group:
            i, j, k = key
            base = i * t0 + j * t1 + k * t2
            v = sign * v
            for offset, v2 in group:
                code = base + offset
                acc[code] = get(code, 0) + v * v2


def transport(T: SparseTensor3, legs) -> SparseTensor3:
    """T with each leg carried through a matrix, one leg at a time.

    ``legs`` holds one entry per leg.  None leaves that leg alone; a
    ``linalg.Matrix`` M (new size x old size) sends index j of the leg to
    its column j, sum_i M[i][j] e_i, read from M's sparse columns as they
    are; ``M.transpose()`` carries the leg the other way.  A vector v is
    the one-row matrix [v]: it contracts the leg with v and leaves a leg
    of size 1.

    A leg costs the stored entries times the nonzeros of a column of its
    matrix, never the dense box.  Index triples are mixed-radix integers
    while they move, so a leg rewrites one digit with an int add.
    """
    old = T.dims
    new = tuple(d if M is None else M.rows for d, M in zip(old, legs))
    radix = [max(a, b) for a, b in zip(old, new)]
    s1 = radix[2]
    s0 = radix[1] * s1
    acc = {i * s0 + j * s1 + k: v for (i, j, k), v in T.entries.items()}
    p = T.field.p
    for d, size, stride, M in zip(old, radix, (s0, s1, 1), legs):
        if M is not None:
            if M.cols != d:
                raise ValueError(f"leg matrix must have {d} columns, not {M.cols}")
            acc = _carry(acc, size, stride, M.columns, p)
    # Every code decodes in range and every value is nonzero; over F_p it
    # is also reduced, over Q a whole Fraction still becomes an int.
    canon = T.field.canon
    entries = {}
    for code, v in acc.items():
        i, jk = divmod(code, s0)
        entries[(i, *divmod(jk, s1))] = v if p else canon(v)
    return SparseTensor3._canonical(new, entries, T.field)


def _carry(acc, size, stride, cols, p):
    """Rewrite the digit at ``stride`` of every code through ``cols``."""
    out = {}
    get = out.get
    for code, v in acc.items():
        j = code // stride % size
        group = cols[j]
        if group:
            base = code - j * stride
            for i, c in group:
                key = base + i * stride
                out[key] = get(key, 0) + v * c
    # Over F_p reduce as we go; over Q the sums are already exact.
    if p:
        return {key: r for key, v in out.items() if (r := v % p)}
    return {key: v for key, v in out.items() if v}


def first_difference(lhs: dict, rhs: dict, width: int):
    """The least key of two entry dicts at which they differ, cut to its
    first ``width`` indices, or None when they are equal.

    Both dicts hold canonical values (``SparseTensor3.entries`` or a
    reindexing of them), so a difference is a plain inequality.  Equal
    dicts, the common case of a passing check, cost one comparison; only
    unequal ones are scanned for their least differing key.
    """
    if lhs == rhs:
        return None
    return min(key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))[:width]
