"""Sparse order-3 tensors holding structure constants.

Entries map index triples to nonzero canonical scalars.  The same shape
stores multiplications (i,j,k), comultiplications (k,i,j), module actions
and comodule coactions; each owner documents its own index convention.

Every axiom is an identity between two contractions of such tensors;
``first_witness`` decides one from the nonzero entries alone: with no
product at all when each side renames one letter of the same tensor
through a Kronecker delta (a scalar action or trivial coaction), else
summing the products in a dict, or, for a dense law over F_p in a small
box, in the 64-bit slots of one packed int (Kronecker substitution).  Every
morphism, basis change and vector law carries a tensor's legs through
matrices; ``transport`` does that from the nonzero entries alone and
``first_difference`` names where two results differ.  Every extension,
gluing and Kronecker dual lays tensors out as blocks of a larger one
with ``place``, which returns a ``Layout``: the blocks themselves, as
leaves (tensor, offsets, leg order), with nested layouts and rotations
flattened into their leaves.  A layout lays its entries out only when
they are first read, and keeps them.  ``SparseTensor3.block`` reads a
block back out, and a block that is one leaf is that leaf;
``first_tensor_difference`` compares two layouts of the same boxes block
by block, as the identity isomorphisms (split, duality witness,
associator) compare the two layouts of one extension.

The Kronecker dual of an algebra-side tensor is the leg rotation
``TO_COALGEBRA``, undone by ``TO_ALGEBRA``.  ``rotate`` turns a tensor and
``rotate_spec`` the slots of a ``first_witness`` spec, so an identity
written once for algebras also holds or fails on the dual coalgebras.
"""

from __future__ import annotations

import logging
import sys
from functools import cache

from .errors import InputError
from .fields import FieldSpec

# The largest (box, out) volume that first_witness decides on the packed
# path.  In-process check_associativity on a random dense algebra over
# GF(10007) (one law, two terms of n^5 products into n^4 codes) took, on
# a 2-vCPU machine, grouped / packed: 0.3 / 0.1 ms at dim 4, 7.7 / 1.8 ms
# at dim 8, 56 / 15 ms at 12, 233 / 74 ms at 16, 790 / 281 ms at 20 and
# 1.8 / 0.8 s at 24, so the time never crosses over; the peak memory
# does, as the packed rows hold about n^5 slots against the dict's n^4
# keys: +1.9 / +3.3 MB at dim 12, +8.8 / +17 MB at 16, +20 / +52 MB at 20
# and +40 / +128 MB at 24.  The cap is dim 16's volume, the last measured
# size where the packed path takes at most twice the grouped path's
# memory.
PACK_VOLUME = 1 << 16

IN_ORDER = (0, 1, 2)

_log = logging.getLogger("dorroh.tensors")


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
        """The entries with lo <= key < hi in every leg, shifted to the
        origin; ValueError unless 0 <= lo <= hi <= dims in every leg."""
        (a0, a1, a2), (b0, b1, b2) = _box(lo, hi, self.dims)
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


def _box(lo, hi, dims) -> tuple:
    """(lo, hi) as tuples, or ValueError unless 0 <= lo <= hi <= dims in every leg."""
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != 3 or len(hi) != 3 or not all(0 <= a <= b <= d for a, b, d in zip(lo, hi, dims)):
        raise ValueError(f"box {lo} to {hi} does not lie in {dims}")
    return lo, hi


class Layout(SparseTensor3):
    """A tensor that ``place`` laid out of blocks, held as its ``leaves``.

    A leaf is ``(T, offsets, order)``, T an eager tensor with entries:
    entry ``key`` of T is entry ``offsets[t] + key[order[t]]`` in leg t.
    The leaves' boxes are disjoint, so they hold every entry once.
    ``entries`` is laid out from them when first read, and kept; eager
    tensors keep theirs in a plain slot.
    """

    __slots__ = ("leaves", "_laid")

    @property
    def entries(self) -> dict:
        laid = self._laid
        if laid is None:
            laid = {}
            for T, (o0, o1, o2), order in self.leaves:
                if order != IN_ORDER:
                    p, q, r = order
                    laid.update({(key[p] + o0, key[q] + o1, key[r] + o2): v for key, v in T.entries.items()})
                elif o0 or o1 or o2:
                    laid.update({(i + o0, j + o1, k + o2): v for (i, j, k), v in T.entries.items()})
                else:
                    laid.update(T.entries)
            self._laid = laid
            _log.debug("layout parts=%d entries=%d", len(self.leaves), len(laid))
        return laid

    def block(self, lo, hi) -> SparseTensor3:
        """As ``SparseTensor3.block``, but a box that is exactly one leaf's,
        in leg order, is that leaf, read without a scan of the entries."""
        lo, hi = _box(lo, hi, self.dims)
        size = tuple(b - a for a, b in zip(lo, hi))
        for T, offsets, order in self.leaves:
            if offsets == lo and order == IN_ORDER and T.dims == size:
                return T
        return SparseTensor3.block(self, lo, hi)


def place(dims, field: FieldSpec, *parts) -> Layout:
    """A tensor of shape ``dims`` holding each part as one block.

    A part is ``(T, offsets)`` or ``(T, offsets, order)``: entry ``key`` of
    T lands at leg t = ``offsets[t] + key[order[t]]``, so ``order`` permutes
    T's legs (default ``(0, 1, 2)``) before the block is shifted into
    place.  Parts must fit in ``dims`` (offsets are not negative) and the
    boxes of the parts with entries must not overlap; both are checked
    here, pair by pair of parts, without reading an entry.

    Nothing is copied: the result is a ``Layout`` whose leaves are the
    parts, a part that is itself a layout (a nested extension, a rotation)
    giving its own leaves composed with its offsets and order, so every
    leaf is an eager tensor.  A part without entries leaves no leaf.
    """
    dims = tuple(dims)
    d0, d1, d2 = dims
    leaves = []
    boxes = []
    for T, offsets, *order in parts:
        order = tuple(order[0]) if order else IN_ORDER
        p, q, r = order
        o0, o1, o2 = offsets
        size = T.dims
        h0, h1, h2 = o0 + size[p], o1 + size[q], o2 + size[r]
        if o0 < 0 or o1 < 0 or o2 < 0 or h0 > d0 or h1 > d1 or h2 > d2:
            raise ValueError(f"block {size} at {offsets} does not fit in {dims}")
        if type(T) is Layout:
            if not T.leaves:
                continue
            if order == IN_ORDER:
                leaves += [(U, (o0 + u0, o1 + u1, o2 + u2), u) for U, (u0, u1, u2), u in T.leaves]
            else:
                leaves += [(U, (o0 + uo[p], o1 + uo[q], o2 + uo[r]), (u[p], u[q], u[r])) for U, uo, u in T.leaves]
        elif T.entries:
            leaves.append((T, (o0, o1, o2), order))
        else:
            continue
        # parts with entries have no empty leg, so two boxes meet exactly
        # when their ranges meet in every leg
        for b0, b1, b2, c0, c1, c2 in boxes:
            if o0 < c0 and b0 < h0 and o1 < c1 and b1 < h1 and o2 < c2 and b2 < h2:
                raise ValueError("placed blocks overlap")
        boxes.append((o0, o1, o2, h0, h1, h2))
    t = Layout.__new__(Layout)
    t.dims, t.field, t.leaves, t._laid = dims, field, leaves, None
    return t


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

    Each (box, out) tuple is one mixed-radix integer, its code, with the
    box letters most significant, so the least failing code divided by
    the ``out`` volume is the witness.  The input picks one of three ways
    to decide the law:

    - delta (``_readings``): when one factor of each side is a Kronecker
      delta, the side is its other factor X with the summed letter
      renamed; if both sides rename equal tensors to the same letters,
      the law holds and no product is made;
    - grouped (``_grouped``): only stored entries are visited, so the
      cost is the entries of the larger factor of each term plus one dict
      update per nonzero product, whatever the size of the box;
    - packed (``_packed``), over F_p on a dense law in a box of at most
      ``PACK_VOLUME`` codes: every code's sum is a slot of one int, so
      the cost is one int multiply-add per entry of each term (ints of
      one factor's span of codes) and log2(rows) passes over the volume
      to shift the rows in, not one dict update per product.

    Which way runs is decided from the entry counts and the specs, each
    parsed once (``_letters``): in O(1), except that a delta candidate,
    a factor with one entry per value of the summed letter, costs one
    pass over its entries.  The other two ways sum the products into
    the codes.
    """
    free = box + out
    terms = [(_letters(spec, free), T, U) for spec, T, U in (lhs, rhs)]
    sizes = {}
    for (t_letters, u_letters, _), T, U in terms:
        for letters, t in ((t_letters, T), (u_letters, U)):
            for c, d in zip(letters, t.dims):
                if sizes.setdefault(c, d) != d:
                    raise ValueError(f"index {c!r} has sizes {sizes[c]} and {d}")
    right = _readings(terms[1], sizes)
    if right and any(a == b and (X is Y or X.entries == Y.entries)
                     for X, a in _readings(terms[0], sizes) for Y, b in right):
        return None
    stride = {}
    volume = 1
    for c in reversed(free):
        stride[c] = volume
        volume *= sizes[c]
    bias = _pack_bias(terms, sizes, volume, field.p)
    bad = _grouped(terms, stride, field.p) if bias is None else _packed(terms, stride, volume, bias, field.p)
    if bad is None:
        return None
    out_volume = 1
    for c in out:
        out_volume *= sizes[c]
    key = bad // out_volume
    witness = []
    for c in reversed(box):
        key, i = divmod(key, sizes[c])
        witness.append(i)
    return tuple(reversed(witness))


@cache
def _letters(spec: str, free: str) -> tuple:
    """(T's letters, U's letters, the summed letter) of a term ``spec``
    over the free letters ``free``, or ValueError; cached, as the law
    tables are fixed."""
    t_letters, u_letters = spec.split(",")
    shared = set(t_letters) & set(u_letters)
    l = shared.pop() if len(shared) == 1 else None
    if l is None or sorted((t_letters + u_letters).replace(l, "")) != sorted(free):
        raise ValueError(f"spec {spec!r} does not contract to {free!r}")
    return t_letters, u_letters, l


def _readings(term, sizes) -> list:
    """Every (X, X's letters with l renamed to y) that reads a term as its
    factor X renamed through its other factor D, a Kronecker delta.

    D is one when it has size(l) entries, each 1 with equal indices on l
    and on a free letter y of size(l), and its third letter z has size 1:
    then sum_l X[..l..] D[l, y, z] is X[..y..] at z = 0.  The renamed
    letters and z are the term's free letters, so the letters fix z too.
    Entry counts rule a factor out in O(1); a candidate costs one pass
    over its entries.
    """
    (t_letters, u_letters, l), T, U = term
    n = sizes[l]
    found = []
    for d_letters, D, x_letters, X in ((t_letters, T, u_letters, U), (u_letters, U, t_letters, T)):
        if len(D.entries) != n:
            continue
        q = d_letters.index(l)
        for r, y in enumerate(d_letters):
            z = d_letters.replace(l, "").replace(y, "")
            if y == l or sizes[y] != n or len(z) != 1 or sizes[z] != 1:
                continue
            letters = x_letters.replace(l, y)
            if len(set(letters)) == 3 and all(v == 1 and key[q] == key[r] for key, v in D.entries.items()):
                found.append((X, letters))
    return found


def _pack_bias(terms, sizes, volume, p):
    """The slot bias of the packed path when it decides this law, else None.

    It does over F_p when the volume is nonzero and at most PACK_VOLUME,
    the law is dense (the estimate |T| |U| / size(l) of each term's
    products, summed over both terms, is at least 2 per code) and twice
    the bias fits in a 64-bit slot.  Entries are canonical, in [0, p), so
    every product is below p^2, and a code sums at most size(l) of them
    per term: the bias is the least multiple of p at least size(l)
    (p - 1)^2 for both terms.  Only entry counts are read.
    """
    if not p or volume > PACK_VOLUME:
        return None
    if not 0 < 2 * volume <= sum(len(T.entries) * len(U.entries) / (sizes[l] or 1) for (_, _, l), T, U in terms):
        return None
    bias = -(-max(sizes[l] for (_, _, l), _, _ in terms) * (p - 1) ** 2 // p) * p
    return bias if 2 * bias < 1 << 64 else None


def _grouped(terms, stride, p):
    """The least code of a nonzero coefficient of lhs - rhs, or None, summed in a dict.

    Each term adds sign * sum_l T[..l..] U[..l..] into one dict keyed by
    the free letters' radix code: its smaller factor U is grouped by l
    and the larger T walked against the groups.
    """
    acc = {}
    get = acc.get
    for sign, ((t_letters, u_letters, l), T, U) in zip((1, -1), terms):
        if len(U.entries) > len(T.entries):
            # group the smaller tensor: grouping allocates per entry, iterating does not
            T, U, t_letters, u_letters = U, T, u_letters, t_letters
        if not U.entries:  # an empty factor contributes nothing: skip the walk of the other
            continue
        q = u_letters.index(l)
        u0, u1, u2 = (0 if c == l else stride[c] for c in u_letters)
        groups = {}
        for key, v in U.entries.items():
            i, j, k = key
            groups.setdefault(key[q], []).append((i * u0 + j * u1 + k * u2, v))
        r = t_letters.index(l)
        t0, t1, t2 = (0 if c == l else stride[c] for c in t_letters)
        for key, v in T.entries.items():
            group = groups.get(key[r])
            if group:
                i, j, k = key
                base = i * t0 + j * t1 + k * t2
                v = sign * v
                for offset, v2 in group:
                    code = base + offset
                    acc[code] = get(code, 0) + v * v2
    # Raw sums are ints or Fractions over Q and ints over F_p, so this is
    # canon(v) != 0 without canonicalising every coefficient.
    return min((key for key, v in acc.items() if (v % p if p else v)), default=None)


def _packed(terms, stride, volume, bias, p):
    """The least code of a nonzero coefficient of lhs - rhs over F_p, or
    None, summed in the 64-bit slots of one int (Kronecker substitution),
    slot c holding code c.

    Of each term, the factor U whose free letters span fewer codes is
    packed: per summed index m, one int holding each entry of U with l = m
    in the slot of its offset (the code of its free letters).  Each entry
    of the other factor T then adds v times that int into the row of its
    own offset, its base; as T and U have no free letter in common, base +
    offset is the code of the product, and a code sums at most size(l)
    products of each term.  The rows, lhs added and rhs subtracted, are
    shifted into one accumulator that starts at ``bias`` in every slot.
    ``bias`` is a multiple of p at least any term's slot sum with 2 bias
    below 2^64, so every slot ends in [0, 2 bias]: no slot borrows from
    the next, and slot c is lhs - rhs at c, plus bias, which p divides.
    """
    rows = {}
    get = rows.get
    for sign, ((t_letters, u_letters, l), T, U) in zip((1, -1), terms):
        if _span(u_letters, U.dims, l, stride) > _span(t_letters, T.dims, l, stride):
            T, U, t_letters, u_letters = U, T, u_letters, t_letters
        blank = bytes(8 * (_span(u_letters, U.dims, l, stride) + 1))
        q = u_letters.index(l)
        u0, u1, u2 = (0 if c == l else stride[c] for c in u_letters)
        slots = {}
        for key, v in U.entries.items():
            m = key[q]
            s = slots.get(m)
            if s is None:
                s = slots[m] = memoryview(bytearray(blank)).cast("Q")
            i, j, k = key
            s[i * u0 + j * u1 + k * u2] = v
        packed = {m: sign * int.from_bytes(s, sys.byteorder) for m, s in slots.items()}
        r = t_letters.index(l)
        t0, t1, t2 = (0 if c == l else stride[c] * 64 for c in t_letters)
        for key, v in T.entries.items():
            word = packed.get(key[r])
            if word:
                i, j, k = key
                base = i * t0 + j * t1 + k * t2
                rows[base] = get(base, 0) + v * word
    # sum(row << base), pairwise in order of base: each level of the tree
    # copies about the volume once, where adding one row at a time into
    # the accumulator would copy it once per row
    items = sorted(rows.items())
    while len(items) > 1:
        pairs = [(b, row + (row2 << b2 - b)) for (b, row), (b2, row2) in zip(items[::2], items[1::2])]
        items = pairs + items[2 * len(pairs):]
    acc = int.from_bytes(bias.to_bytes(8, sys.byteorder) * volume, sys.byteorder)
    for b, row in items:
        acc += row << b
    sums = memoryview(acc.to_bytes(8 * volume, sys.byteorder)).cast("Q")
    if not any(map(p.__rmod__, sums)):
        return None
    return next(code for code, s in enumerate(sums) if s % p)


def _span(letters, dims, l, stride) -> int:
    """The largest code a factor's free letters reach."""
    return sum((d - 1) * stride[c] for c, d in zip(letters, dims) if c != l)


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


def first_tensor_difference(lhs: SparseTensor3, rhs: SparseTensor3, width: int):
    """``first_difference`` of two tensors' entries, decided block by block
    when their leaves fill the same boxes.

    A layout's leaves are its blocks, and an eager tensor with entries is
    one leaf at the origin.  Each tensor's boxes are disjoint, so when
    both have as many leaves and every leaf of lhs has a leaf of rhs at
    the same offsets, in the same leg order and with equal entries (the
    same tensor, mostly), the two hold the same entries: they are equal
    and neither is laid out.  Any other pair, a box that differs or a
    differing block is compared on the full entries, so the witness is
    the same.
    """
    ours, theirs = _leaves(lhs), _leaves(rhs)
    if len(ours) == len(theirs):
        placed = {offsets: (U, order) for U, offsets, order in theirs}
        for T, offsets, order in ours:
            U, u_order = placed.get(offsets, (None, None))
            if U is None or u_order != order or U.dims != T.dims or not (U is T or U.entries == T.entries):
                break
        else:
            return None
    return first_difference(lhs.entries, rhs.entries, width)


def _leaves(T: SparseTensor3) -> list:
    """A layout's leaves; an eager tensor is one leaf, or none without entries."""
    if type(T) is Layout:
        return T.leaves
    return [(T, (0, 0, 0), IN_ORDER)] if T.entries else []


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
