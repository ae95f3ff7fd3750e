"""
Dilute planar diagrams and their algebra.

A diagram has n points on each vertical side of a rectangle.  Points are
either vacant or joined pairwise by non-intersecting strings.  Boundary
slots use a single circular index space: 0..n-1 runs down the left side
(site 1 at the top) and n..2n-1 runs up the right side, so the right-side
site s (1-based from the top) is slot 2n-s.  Non-crossing is then simply
non-interleaving of partner pairs in circular order.  A link state is one
half of a diagram |x y~|, so both store their points in one encoding,
the one glue() reads: a point holds its partner's index, VACANT (-1) or,
in a link state, DEFECT (-2).  Both constructors check one rule,
planar_pairing(): a non-crossing pairing of points on a line, each
unpaired point a vacancy or, in a link state, a defect under no pair.

The product glues two diagrams side by side; each closed floating loop
contributes a factor beta, and any string that meets a vacancy kills the
product.  So a product is nonzero only when the vacancies of the left
factor's right side sit where those of the right factor's left side do:
each diagram carries the two side patterns as int masks (`west`, `east`),
and a product of elements glues only the pairs whose masks agree.
glue() is the one routine that follows strings: the product, the action
on link states, the bilinear form and the tile-built central element each
number their nodes, call it and read off the result.  glued_sum() is the
one loop that sums glued pairs with their coefficients and loop weights,
for the product, the action and the cellularity check.

What a glued pair gives, its loop count and result, does not depend on
the coefficient ring.  So the product of two diagrams is memoised per
pair (and the action of a diagram on a link state in link_modules), in a
memo of GLUE_MEMO_SIZE entries shared by every mode and every caller.  A glued result is
built without re-validation: its pairing is planar by construction and
its masks are the outer sides' masks.
One diagram object lives per pairing, in a weak table (hash-consing), so
equality is identity and memos, dicts and sets hash diagrams by address.
The constructor validates before it looks up; a glued result is looked
up before it is built.
"""

from functools import lru_cache
from weakref import WeakValueDictionary

from .ring import GENERIC, beta_power


VACANT = -1  # a point no string meets
DEFECT = -2  # a link state's loose string: in glue(), a string stops here
# Entries in each glue memo (products here, actions in link_modules).  An
# entry took 360-390 bytes at n = 4 and n = 7 under tracemalloc, so a full
# memo holds under 7 MiB.
GLUE_MEMO_SIZE = 1 << 14


class DiluteDiagram:
    """
    An immutable dilute diagram: a pairing array over 2n boundary slots,
    each entry the slot's partner or VACANT.  One object lives per
    pairing, so equality is identity and hashing is by address.
    Bit s of `west` (of `east`) is set when site s+1 of the left (right)
    side is vacant, so a product a*b can be nonzero only if
    a.east == b.west.
    """

    __slots__ = ("n", "pairing", "west", "east", "__weakref__")
    # the live diagram of each pairing; it holds none that no one else holds
    _live = WeakValueDictionary()

    def __new__(cls, n, pairing):
        pairing = tuple(pairing)
        if len(pairing) != 2 * n:
            raise ValueError("a diagram on %d sites has %d slots, not %d"
                             % (n, 2 * n, len(pairing)))
        # counted from slot 2n-1 down, bit s of east is right-side site s+1
        west, east = planar_pairing(pairing)
        mask = (1 << n) - 1
        return cls._glued(len(pairing) // 2, pairing, west & mask, east & mask)

    @classmethod
    def _glued(cls, n, pairing, west, east):
        """The diagram of a planar pairing tuple and its masks, unchecked."""
        d = cls._live.get(pairing)
        if d is None:
            d = object.__new__(cls)
            d.n = n
            d.pairing = pairing
            d.west = west
            d.east = east
            cls._live[pairing] = d
        return d

    def __reduce__(self):
        return DiluteDiagram, (self.n, self.pairing)

    @staticmethod
    def from_pairs(n, pairs):
        size = 2 * n
        pairing = [VACANT] * size
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError("slot pair (%r, %r) outside 0..%d" % (a, b, size - 1))
            pairing[a] = b
            pairing[b] = a
        return DiluteDiagram(n, pairing)

    def pairs(self):
        """Sorted list of partner pairs (a, b) with a < b."""
        return [(i, p) for i, p in enumerate(self.pairing) if i < p]

    def vacant_slots(self):
        return [i for i, p in enumerate(self.pairing) if p == VACANT]

    def left_vacancy_count(self):
        return self.west.bit_count()

    def sort_key(self):
        return self.pairing

    def __repr__(self):
        return "DiluteDiagram(n=%d, pairs=%s, vacant=%s)" % (
            self.n, self.pairs(), self.vacant_slots())

    def to_json_dict(self):
        return {"n": self.n, "pairs": [list(p) for p in self.pairs()],
                "vacant": self.vacant_slots()}

    @staticmethod
    def from_json_dict(d):
        """
        The diagram of a `to_json_dict` record, whose "vacant" field may be
        left out.  Raises ValueError, naming the field, when a field is
        missing or ill-typed or "vacant" contradicts the pairs.
        """
        for field in ("n", "pairs"):
            if not isinstance(d, dict) or field not in d:
                raise ValueError("a diagram record needs the field %r: %r" % (field, d))
        n, pairs = d["n"], d["pairs"]
        if type(n) is not int or n < 0:
            raise ValueError("field 'n' is not a non-negative int: %r" % (n,))
        if not (isinstance(pairs, list) and all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and all(type(s) is int for s in p) for p in pairs)):
            raise ValueError("field 'pairs' is not a list of int pairs: %r" % (pairs,))
        out = DiluteDiagram.from_pairs(n, pairs)
        if "vacant" in d and d["vacant"] != out.vacant_slots():
            raise ValueError("field 'vacant' is %r, but the pairs leave %r vacant"
                             % (d["vacant"], out.vacant_slots()))
        return out


def planar_pairing(points, loose=False):
    """
    Check in one pass that the non-negative int entries of `points` pair
    positions on a line (a diagram's slots, cut at slot 0) as an involution
    without crossings, that every other entry is VACANT or, when loose, a
    DEFECT, and that no pair covers a DEFECT; else raise ValueError naming
    `points`.  Returns the vacant positions as bitmasks counted from each
    end: bit i of the second marks position len(points) - 1 - i.
    """
    size = len(points)
    mask = rmask = 0
    ends = []
    for i, p in enumerate(points):
        if type(p) is not int:
            raise ValueError("point %d is %r, not an int: %r" % (i, p, points))
        if p >= 0:
            if i < p < size and points[p] == i:
                ends.append(p)
            elif not (p < i and ends and ends.pop() == i):
                why = "crosses a pair" if p < i and points[p] == i else "does not pair back"
                raise ValueError("point %d pairs with %r, which %s: %r" % (i, p, why, points))
        elif p == VACANT:
            mask |= 1 << i
            rmask |= 1 << (size - 1 - i)
        elif p != DEFECT or not loose:
            raise ValueError("point %d is %r, neither a partner nor a marker: %r"
                             % (i, p, points))
        elif ends:
            raise ValueError("defect %d lies under a pair: %r" % (i, points))
    return mask, rmask


def planar_points(n, k, dilute):
    """
    The n-tuples that planar_pairing(points, True) accepts with k DEFECT
    points, and with no VACANT unless dilute, in text order (arc opening <
    arc closing < DEFECT < VACANT): link states, or on 2n points with k = 0
    diagrams.
    """
    if not 0 <= k <= n or not dilute and (n - k) % 2:
        return []
    out, points, opened = [], [VACANT] * n, []

    def walk(i, loose):
        if i == n:
            out.append(tuple(points))
            return
        owed = len(opened) + loose  # must fit in the points after i
        if owed < n - i - 1:
            opened.append(i)
            walk(i + 1, loose)
            opened.pop()
        if opened:
            j = opened.pop()
            points[i], points[j] = j, i
            walk(i + 1, loose)
            opened.append(j)
        elif loose:
            points[i] = DEFECT
            walk(i + 1, loose - 1)
        if dilute and owed < n - i:
            points[i] = VACANT
            walk(i + 1, loose)

    walk(0, k)
    return out


def transpose_diagram(d):
    """Mirror a diagram left-right (slot j maps to 2n-1-j)."""
    last = 2 * d.n - 1
    return DiluteDiagram(d.n, [last - p if p >= 0 else p for p in reversed(d.pairing)])


def crossing_count(d):
    """Number of strings with one endpoint on each side."""
    return sum(1 for i, p in enumerate(d.pairing) if i < d.n <= p)


def glue(inner, seam):
    """
    Glue two planar pieces and follow their strings.  Nodes are 0..N-1;
    inner[i] is i's partner inside its own piece, VACANT or DEFECT (where a
    string stops), so a diagram's pairing or a link state's sites is its
    own inner list, and seam[i] the node glued to i across the cut (-1 on
    the outer boundary).  Returns None when a string meets a
    vacancy, otherwise (ends, loops): ends maps each end of an open path
    (an outer node or a DEFECT) to the path's other end, and loops counts
    the closed loops.  Both lists must be involutions on their
    non-negative entries; only the first N entries of seam are read.
    """
    seen = bytearray(len(inner))
    ends = {}
    loops = 0
    # first the paths, from every end; what is left unseen lies on loops
    for first in (True, False):
        for start, p in enumerate(inner):
            if p == VACANT or seen[start]:
                continue
            on_seam = p == DEFECT
            if first and not on_seam and seam[start] >= 0:
                continue
            i = start
            while True:
                seen[i] = 1
                j = seam[i] if on_seam else inner[i]
                if j < 0 or seen[j]:
                    break
                if inner[j] == VACANT:
                    return None
                i = j
                on_seam = not on_seam
            if j < 0:
                ends[start] = i
                ends[i] = start
            else:
                loops += 1
    return ends, loops


def shifted(points, offset):
    """Points as glue() nodes numbered from offset: partners shift, markers stay."""
    return tuple([p + offset if p >= 0 else p for p in points])


@lru_cache(maxsize=None)
def product_seam(n):
    """Seam of a product: a's slots are nodes 0..2n-1, b's slots 2n..4n-1."""
    size = 2 * n
    return ((-1,) * n + tuple(2 * size - 1 - j for j in range(n, size))
            + tuple(size - 1 - t for t in range(n)) + (-1,) * n)


@lru_cache(maxsize=GLUE_MEMO_SIZE)
def multiply_diagrams_raw(a, b):
    """
    Concatenate two diagrams (a on the left).  Returns (loops, diagram) with
    the number of closed floating loops, or (0, None) when the product is
    zero because a string meets a vacancy at the glued boundary.  Memoised
    per pair; __wrapped__ glues afresh.
    """
    if a.n != b.n:
        raise ValueError("diagram sizes differ: %d and %d" % (a.n, b.n))
    if a.east != b.west:  # a string meets a vacancy at the glued boundary
        return 0, None
    n = a.n
    size = 2 * n
    ends, loops = glue(a.pairing + shifted(b.pairing, size), product_seam(n))
    pairing = [VACANT] * size
    for e, o in ends.items():
        pairing[e if e < n else e - size] = o if o < n else o - size
    return loops, DiluteDiagram._glued(n, tuple(pairing), a.west, b.east)


def glued_sum(left, right, raw, mode, keep=None):
    """
    The sum of c_a c_b beta^loops t over the terms a of `left` and b of
    `right` (dicts from term to coefficient), with (loops, t) = raw(a, b)
    for multiply_diagrams_raw or link_modules.act_diagram_raw, as a dict
    from t to nonzero coefficient.  Each a is glued only to the b whose
    west mask equals its east mask, the only pairs that do not vanish;
    coefficients equal to the mode's shared one() are not multiplied; a t
    with keep(t) false is dropped and a sum that cancels is removed as it
    arises.
    """
    one = mode.one()
    by_west = {}
    for b, cb in right.items():
        by_west.setdefault(b.west, []).append((b, cb))
    acc = {}
    for a, ca in left.items():
        group = by_west.get(a.east)
        if group is None:
            continue
        for b, cb in group:
            loops, t = raw(a, b)
            if keep is not None and not keep(t):
                continue
            c = cb if ca is one else ca if cb is one else ca * cb
            if loops:
                c = c * beta_power(mode, loops)
            if t in acc:
                c = acc[t] + c
            if c:
                acc[t] = c
            else:
                acc.pop(t, None)
    return acc


def check_compatible(a, b):
    """
    Raise ValueError unless two linear combinations (algebra elements or
    link-state combinations) have one size and one coefficient ring.
    """
    if a.n != b.n or a.mode != b.mode:
        raise ValueError("operands on %d and %d sites over %r and %r"
                         % (a.n, b.n, a.mode, b.mode))


class Combination:
    """
    A finite linear combination of same-size terms (diagrams or link
    states) with ring coefficients, as a dict from term to nonzero
    coefficient; every result is built as the operand's own class.
    """

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n, mode=GENERIC, terms=None):
        self.n = n
        self.mode = mode
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    if key.n != n:
                        raise ValueError("%s on %d sites in a combination on %d"
                                         % (self._show(key), key.n, n))
                    self.terms[key] = c

    @classmethod
    def _of(cls, n, mode, terms):
        """A combination over a dict of nonzero coefficients on n-site terms, unchecked."""
        out = object.__new__(cls)
        out.n = n
        out.mode = mode
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        check_compatible(self, other)
        t = dict(self.terms)
        for key, c in other.terms.items():
            w = t.get(key, self.mode.zero()) + c
            if w:
                t[key] = w
            else:
                t.pop(key, None)
        return type(self)(self.n, self.mode, t)

    def __sub__(self, other):
        return self + other.scale(self.mode.const(-1))

    def scale(self, c):
        return type(self)(self.n, self.mode, {key: v * c for key, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.n == other.n
                and self.mode == other.mode and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "%s(0, n=%d)" % (type(self).__name__, self.n)
        items = sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        return " + ".join("(%s)*%s" % (c, self._show(key)) for key, c in items)


class AlgebraElem(Combination):
    """A finite linear combination of same-size diagrams with ring coefficients."""

    __slots__ = ()
    _show = repr
    # bound here too: perfbench/tracer.py wraps them from this class's own __dict__
    __add__ = Combination.__add__
    scale = Combination.scale

    @staticmethod
    def from_diagram(d, mode=GENERIC, coeff=None):
        if coeff is None:
            coeff = mode.one()
        return AlgebraElem(d.n, mode, {d: coeff})

    def __mul__(self, other):
        """The product, summed by glued_sum over the product memo."""
        check_compatible(self, other)
        return AlgebraElem._of(self.n, self.mode, glued_sum(
            self.terms, other.terms, multiply_diagrams_raw, self.mode))

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))


@lru_cache(maxsize=64)
def identity(n, mode=GENERIC):
    """The unit, shared: the sum of 2^n diagrams (string or vacancy pair per site)."""
    return _dashed_sum(n, [], range(1, n + 1), mode)


def _dashed_sum(n, fixed_pairs, dashed_sites, mode):
    """
    Element with the given fixed pairs, summing each dashed site over
    (through-string + vacancy pair); every other slot is vacant.
    """
    terms = {}
    dashed = sorted(dashed_sites)
    for mask in range(1 << len(dashed)):
        pairs = list(fixed_pairs)
        for idx, s in enumerate(dashed):
            if mask >> idx & 1:
                pairs.append((s - 1, 2 * n - s))
        terms[DiluteDiagram.from_pairs(n, pairs)] = mode.one()
    return AlgebraElem(n, mode, terms)


def generator(name, i, n, mode=GENERIC):
    """
    The named generator as a combination of diagrams.  Site indices are
    1-based; e and x exist for 1 <= i <= n, the four arc/step generators
    for 1 <= i <= n-1.  Dashed sites expand to (string + vacancy pair).
    """
    def lslot(s):
        return s - 1

    def rslot(s):
        return 2 * n - s

    if name in ("e", "x"):
        if not 1 <= i <= n:
            raise IndexError("site index out of range")
        others = [s for s in range(1, n + 1) if s != i]
        if name == "e":
            return _dashed_sum(n, [(lslot(i), rslot(i))], others, mode)
        return _dashed_sum(n, [], others, mode)

    if not 1 <= i <= n - 1:
        raise IndexError("site index out of range")
    others = [s for s in range(1, n + 1) if s not in (i, i + 1)]
    if name == "a":
        # string from left site i+1 to right site i; vacancies left i, right i+1
        return _dashed_sum(n, [(lslot(i + 1), rslot(i))], others, mode)
    if name == "at":
        return _dashed_sum(n, [(lslot(i), rslot(i + 1))], others, mode)
    if name == "bt":
        # arc on the left side joining sites i and i+1; right side vacant there
        return _dashed_sum(n, [(lslot(i), lslot(i + 1))], others, mode)
    if name == "b":
        return _dashed_sum(n, [(rslot(i), rslot(i + 1))], others, mode)
    raise ValueError("unknown generator %r" % name)


@lru_cache(maxsize=64)
def all_generators(n, mode=GENERIC):
    """All generator elements of the algebra, a tuple of (label, element) pairs; shared."""
    out = []
    for i in range(1, n + 1):
        out.append(("e%d" % i, generator("e", i, n, mode)))
        out.append(("x%d" % i, generator("x", i, n, mode)))
    for i in range(1, n):
        for name in ("a", "at", "b", "bt"):
            out.append(("%s%d" % (name, i), generator(name, i, n, mode)))
    return tuple(out)


def transpose(a):
    """Mirror every diagram left-right; an anti-involution of the algebra."""
    return AlgebraElem(a.n, a.mode, {transpose_diagram(d): c for d, c in a.terms.items()})


def parity_split(a):
    """Split into (even, odd) parts by the parity of each side's vacancy count."""
    even, odd = {}, {}
    for d, c in a.terms.items():
        (even if d.left_vacancy_count() % 2 == 0 else odd)[d] = c
    return AlgebraElem(a.n, a.mode, even), AlgebraElem(a.n, a.mode, odd)


def reduce_mod_ideal(a, k):
    """Keep only the terms with at least k crossing strings."""
    return AlgebraElem._of(a.n, a.mode,
                           {d: c for d, c in a.terms.items() if crossing_count(d) >= k})


def projector_pi(z, mode=GENERIC):
    """
    The idempotent |z z~| for a link state z made of defects and vacancies
    only: through-strings at the defect sites, vacancy pairs elsewhere.
    """
    if z.arcs():
        raise ValueError("projector requires a defect/vacancy-only state")
    n = z.n
    pairs = [(s, 2 * n - 1 - s) for s, p in enumerate(z.sites) if p == DEFECT]
    return AlgebraElem.from_diagram(DiluteDiagram.from_pairs(n, pairs), mode)


DEFAULT_ENUM_CAP = 6


def enumerate_diagrams(n):
    """
    All dilute diagrams of a given size, ordered by sort_key().  The
    count is the Motzkin number of 2n.  Guarded by `DEFAULT_ENUM_CAP`
    because the count grows quickly.
    """
    if n > DEFAULT_ENUM_CAP:
        raise ResourceWarning("diagram enumeration capped at n=%d (asked n=%d)"
                              % (DEFAULT_ENUM_CAP, n))
    return sorted((DiluteDiagram(n, p) for p in planar_points(2 * n, 0, True)),
                  key=DiluteDiagram.sort_key)
