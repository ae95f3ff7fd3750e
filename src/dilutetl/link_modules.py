"""
Link states and the standard modules built on them.

A link state on n sites assigns each site one of: a vacancy (VACANT), a
defect (DEFECT, a loose string), or an endpoint of an arc (its partner's
index), in diagram_core's encoding; the arcs pair sites like a diagram's
strings, and no arc covers a defect (diagram_core.planar_pairing).
States with exactly k defects form the basis of the k-th standard module;
the algebra acts by gluing a diagram on the left, with a factor beta per
closed loop, zero on any string/vacancy mismatch, and removal of strings
that join two defects.  In the standard-module action, resulting states
with fewer than k defects are dropped.  A diagram acts on a state only if
its right side is vacant exactly where the state is: each state carries
its vacancy pattern as an int mask (`west`, compared with a diagram's
`east`).  The glued state and loop count of a (diagram, state) pair are
memoised, ring-free, like products, and `act` sums them with
diagram_core's glued_sum, which glues only the pairs whose masks agree.
Like a diagram, one LinkState object lives per sites tuple, in a weak
table, so equality is identity and states hash by address.
"""

from functools import lru_cache
from math import comb
from weakref import WeakValueDictionary

from .ring import GENERIC, CrossCheckError
from .diagram_core import (DEFECT, GLUE_MEMO_SIZE, VACANT, AlgebraElem, Combination,
                           DiluteDiagram, check_compatible, glue, glued_sum, planar_pairing,
                           planar_points, product_seam, shifted)
from .tl_reference import dim_v, occupied_counts


class LinkState:
    """
    An immutable link state; sites is a tuple of partner indices, VACANT
    and DEFECT that obeys a diagram's rule, planar_pairing, with no arc
    over a DEFECT.  Only text() and from_text() spell the markers V and D.
    Bit i of `west` is set when site i+1 is vacant: the mask faces the
    diagram glued on the state's left, like a diagram's own `west`.  One
    object lives per sites tuple, so equality is identity.
    """

    __slots__ = ("n", "sites", "west", "__weakref__")
    # the live state of each sites tuple; it holds none that no one else holds
    _live = WeakValueDictionary()

    def __new__(cls, sites):
        sites = tuple(sites)
        return cls._glued(sites, planar_pairing(sites, True)[0])

    @classmethod
    def _glued(cls, sites, west):
        """The state of a planar sites tuple and its vacancy mask, unchecked."""
        v = cls._live.get(sites)
        if v is None:
            v = object.__new__(cls)
            v.n = len(sites)
            v.sites = sites
            v.west = west
            cls._live[sites] = v
        return v

    def __reduce__(self):
        return LinkState, (self.sites,)

    def defect_count(self):
        return self.sites.count(DEFECT)

    def vacancy_positions(self):
        return tuple(i for i, s in enumerate(self.sites) if s == VACANT)

    def arcs(self):
        return [(i, s) for i, s in enumerate(self.sites) if s > i]

    def text(self):
        """String form, one character per site from the top: V, D, ( or )."""
        return "".join("V" if s == VACANT else "D" if s == DEFECT else "(" if s > i else ")"
                       for i, s in enumerate(self.sites))

    @staticmethod
    def from_text(text):
        """The state text() writes; LinkState rejects other characters and lone parentheses."""
        sites, opened = [{"V": VACANT, "D": DEFECT}.get(ch, ch) for ch in text], []
        for i, ch in enumerate(text):
            if ch == "(":
                opened.append(i)
            elif ch == ")" and opened:
                j = opened.pop()
                sites[i], sites[j] = j, i
        return LinkState(sites)

    def sort_key(self):
        vac = self.vacancy_positions()
        return (len(vac), vac, self.text())

    def __repr__(self):
        return "LinkState(%s)" % self.text()


class LinComb(Combination):
    """A linear combination of same-size link states with ring coefficients."""

    __slots__ = ()
    _show = staticmethod(LinkState.text)
    # bound here too: perfbench/tracer.py wraps them from this class's own __dict__
    __add__ = Combination.__add__
    scale = Combination.scale

    @staticmethod
    def from_state(v, mode=GENERIC, coeff=None):
        if coeff is None:
            coeff = mode.one()
        return LinComb(v.n, mode, {v: coeff})


@lru_cache(maxsize=None)
def enumerate_links(n, k):
    """
    All link states on n sites with exactly k defects, in the order of
    `LinkState.sort_key`: vacancy count ascending, then vacancy positions,
    then text().
    """
    return tuple(sorted(map(LinkState, planar_points(n, k, True)), key=LinkState.sort_key))


def _trinomial(n, k):
    """Coefficient of x^k in (x + 1 + 1/x)^n, summed over the number j of factors 1/x."""
    k = abs(k)
    return sum(comb(n, j) * comb(n - j, j + k) for j in range((n - k) // 2 + 1))


def dim_standard(n, k):
    """
    Dimension of the k-defect standard module on n sites, computed both as
    a binomial sum over vacancy counts and by a trinomial-coefficient
    difference; the two must agree.
    """
    if not 0 <= k <= n:
        return 0
    by_blocks = sum(count * dim_v(m, k) for m, count in occupied_counts(n, k))
    by_trinomial = _trinomial(n, k) - _trinomial(n, k + 2)
    if by_blocks != by_trinomial:
        raise CrossCheckError("dim U(%d, %d): %d by blocks, %d by trinomials"
                              % (n, k, by_blocks, by_trinomial))
    return by_blocks


@lru_cache(maxsize=GLUE_MEMO_SIZE)
def act_diagram_raw(d, v):
    """
    Glue a diagram to the left of a link state.  Returns (loops, state)
    with the number of closed loops, or (0, None) when a string meets a
    vacancy where the two are glued.  Strings joining two defects are
    removed.  Memoised per pair; __wrapped__ glues afresh.
    """
    n = d.n
    if v.n != n:
        raise ValueError("diagram on %d sites, state on %d" % (n, v.n))
    if d.east != v.west:
        return 0, None
    size = 2 * n
    # nodes: the diagram's slots, then the link sites where a right-hand
    # factor's left slots would be, so the product's seam serves
    ends, loops = glue(d.pairing + shifted(v.sites, size), product_seam(n))
    new_sites = list(d.pairing[:n])  # each non-vacant left slot ends a path
    for e, o in ends.items():
        if e < n:
            new_sites[e] = o if o < n else DEFECT
    return loops, LinkState._glued(tuple(new_sites), d.west)


def act_diagram(d, v, mode=GENERIC, quotient_k=None):
    """
    Act with a single diagram on a single link state.  Returns a LinComb.
    With quotient_k set, output states with fewer than quotient_k defects
    are dropped.
    """
    return act(AlgebraElem.from_diagram(d, mode), v, quotient_k)


def act(u, v, quotient_k=None):
    """
    Bilinear extension of the diagram action to algebra elements, summed
    by glued_sum over the action memo.  With quotient_k set, output states
    with fewer than quotient_k defects are dropped.
    """
    mode = u.mode
    if isinstance(v, LinkState):
        v = LinComb.from_state(v, mode)
    check_compatible(u, v)
    keep = None if quotient_k is None else lambda w: w.defect_count() >= quotient_k
    return LinComb._of(u.n, mode, glued_sum(u.terms, v.terms, act_diagram_raw, mode, keep))


def check_same_module(x, y):
    """Raise ValueError unless two link states have one size and one defect count."""
    if x.n != y.n or x.defect_count() != y.defect_count():
        raise ValueError("states %s and %s differ in size or defect count"
                         % (x.text(), y.text()))


def diagram_from_links(x, y):
    """
    The diagram |x y~| whose left half is x and whose right half is the
    mirror of y; the defects of the two halves are joined in order into
    crossing strings.  Both states must have the same defect count.
    """
    check_same_module(x, y)
    last = 2 * x.n - 1
    pairs = x.arcs() + [(last - i, last - j) for i, j in y.arcs()]
    xd = [i for i, s in enumerate(x.sites) if s == DEFECT]
    yd = [last - i for i, s in enumerate(y.sites) if s == DEFECT]
    return DiluteDiagram.from_pairs(x.n, pairs + list(zip(xd, yd)))


def links_of_diagram(d):
    """
    Split a diagram into its (left, right) link states: same-side strings
    stay arcs, crossing strings become defects, vacancies stay vacancies.
    Both halves are planar, and their vacancy masks are the diagram's
    `west` and `east`.
    """
    n, last = d.n, 2 * d.n - 1
    left = tuple([DEFECT if p >= n else p for p in d.pairing[:n]])
    right = tuple([last - p if p >= n else DEFECT if p >= 0 else p
                   for p in reversed(d.pairing[n:])])
    return LinkState._glued(left, d.west), LinkState._glued(right, d.east)


def enumerate_vd_states(n, k):
    """All states made of k defects and n-k vacancies only."""
    return tuple(v for v in enumerate_links(n, k) if not v.arcs())


def theta(i, v):
    """
    Append-a-site surgery: +1 adds a defect at the bottom, 0 adds a
    vacancy, -1 closes the lowest defect into an arc ending at the new
    bottom site (or gives None when there is no defect).
    """
    if i not in (-1, 0, 1):
        raise ValueError("theta takes -1, 0 or 1, not %r" % (i,))
    if i == 1:
        return LinkState(v.sites + (DEFECT,))
    if i == 0:
        return LinkState(v.sites + (VACANT,))
    defects = [j for j, s in enumerate(v.sites) if s == DEFECT]
    if not defects:
        return None
    low = defects[-1]
    sites = list(v.sites) + [low]
    sites[low] = v.n
    return LinkState(sites)


def restriction_phi(v, k):
    """
    Bottom-extension map into the k-defect module: append a defect when v
    has k-1 defects, a vacancy when it has k.
    """
    dc = v.defect_count()
    if dc == k - 1:
        return theta(1, v)
    if dc == k:
        return theta(0, v)
    raise ValueError("state must have k or k-1 defects")


def restriction_psi(v):
    """
    Remove the bottom site: None (zero) if it carries a defect or vacancy;
    if it closes an arc, the arc's opening site becomes a defect.  A
    0-site state has no bottom site: ValueError.
    """
    if not v.sites:
        raise ValueError("a 0-site state has no bottom site to remove")
    last = v.sites[-1]
    if last < 0:
        return None
    if last >= v.n - 1:
        # LinkState's constructor rules this out
        raise CrossCheckError("the bottom site of %r closes no arc from above"
                              % (v.sites,))
    sites = list(v.sites[:-1])
    sites[last] = DEFECT
    return LinkState(sites)


def base_vd_state(n, k):
    """The defect/vacancy state with vacancies on top and defects below."""
    return LinkState((VACANT,) * (n - k) + (DEFECT,) * k)


def induced_basis(n, k):
    """
    Index set of the induced-module basis: pairs (i, u) with i in
    {1, 0, -1} and u a state on n+1 sites with k+i defects.  Its size is
    the dimension of the k-defect module on n+2 sites.
    """
    out = []
    for i in (1, 0, -1):
        for u in enumerate_links(n + 1, k + i):
            out.append((i, u))
    return out


def phi_iso(i, u):
    """The isomorphism sending a basis index (i, u) to the (n+2)-site state."""
    return theta(-i, u)
