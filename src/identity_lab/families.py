"""Explicit identity families and structural transforms.

Contains the trivial pattern, the two-class separating families (s_k,
s_prime_n, s_doubleprime_n), the meet-respecting structures on binary
strings, the k-simplification coarsening, and the order-forcing extension.
Every constructor refuses a ground above ``core.GROUND_BOUND`` before it
builds anything, on the exponent where the ground has 2^n points or more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Identity,
    _check_valid,
    _class_id_map,
    check_ground,
    check_ground_exponent,
    check_size,
    elems_of,
    identity_from_subsets,
    mask_of,
    permute_mask,
    size_text,
    validate,
)
from .errors import UsageError


def trivial(n: int) -> Identity:
    """Pairs identity on 0..n-1 with every pair class a singleton."""
    check_size(n, "trivial n")
    check_ground(n)
    return Identity(n, "pairs", frozenset())


def trivial_full(n: int) -> Identity:
    """Full-flavor identity on 0..n-1 with every subset class a singleton."""
    check_size(n, "trivial_full n")
    check_ground(n)
    return Identity(n, "full", frozenset())


def s_k(k: int) -> Identity:
    """Two-class family on k + C(k,2) elements.

    Ground elements 0..k-1 index one side; element k + C(l1,2) + l0 is the
    witness for each l0 < l1 < k.  Class A joins {l0, w}, class B joins
    {l1, w}, over all such (l0, l1).  For k=2 both classes have one pair
    each and the stored class set is empty (singletons are implicit).
    """
    check_size(k, "s_k k")
    n = k + k * (k - 1) // 2
    check_ground(n)
    a, b = [], []
    for l1 in range(k):
        for l0 in range(l1):
            w = k + l1 * (l1 - 1) // 2 + l0
            a.append((l0, w))
            b.append((l1, w))
    return identity_from_subsets(n, "pairs", [a, b])


def s_prime_n(n: int) -> Identity:
    """Two-class family on 2n + n*n elements.

    Witness element for (l0, l1) with l0, l1 < n is 2n + n*l0 + l1.  Class
    A joins {l0, w}; class B joins {n + l1, w}.
    """
    check_size(n, "s_prime_n n")
    ground = 2 * n + n * n
    check_ground(ground)
    a, b = [], []
    for l0 in range(n):
        for l1 in range(n):
            w = 2 * n + n * l0 + l1
            a.append((l0, w))
            b.append((n + l1, w))
    return identity_from_subsets(ground, "pairs", [a, b])


def s_doubleprime_n(n: int) -> Identity:
    """Tree-indexed family on 2^n + 2^(2n) elements.

    Ground elements 0..2^n-1 are the length-n binary strings by their
    little-endian value; element 2^n + 2^n*l0 + l1 is the witness for the
    string pair (l0, l1).  For every proper prefix eta (length m < n) and
    side i in {0,1} there is a class joining {l_i, w(l0, l1)} over all
    string pairs whose strings extend eta+(0) and eta+(1) respectively.
    Classes with a single pair (all of them at m = n-1) remain implicit.
    """
    check_size(n, "s_doubleprime_n n")
    check_ground_exponent(2 * n, f"s_doubleprime_n n={size_text(n)}")
    base = 1 << n

    def value(bits) -> int:
        return sum(b << i for i, b in enumerate(bits))

    classes = []
    for m in range(n):
        for eta in itertools.product((0, 1), repeat=m):
            tails = list(itertools.product((0, 1), repeat=n - m - 1))
            ext0 = [value(eta + (0,) + t) for t in tails]
            ext1 = [value(eta + (1,) + t) for t in tails]
            witness = [(l0, l1, base + base * l0 + l1) for l0 in ext0 for l1 in ext1]
            classes.append([(l0, w) for l0, _, w in witness])
            classes.append([(l1, w) for _, l1, w in witness])
    return identity_from_subsets(base + base * base, "pairs", classes)


@dataclass(frozen=True)
class LabeledIdentity:
    """A pairs identity whose ground elements carry binary-string labels."""

    base: Identity
    labels: tuple  # labels[i] is the string of ground element i

    def __post_init__(self):
        if len(self.labels) != self.base.n:
            raise UsageError("label count does not match ground size")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("labels must be injective")
        if len({len(l) for l in self.labels}) > 1:
            raise UsageError("labels must all have the same length")


def meet(x: str, y: str) -> str:
    """Longest common prefix of two strings."""
    i = 0
    while i < min(len(x), len(y)) and x[i] == y[i]:
        i += 1
    return x[:i]


def max_meet_identity(n_str: int) -> LabeledIdentity:
    """Coarsest meet-respecting identity on all binary strings of a length.

    Ground elements are the 2^n_str strings in lexicographic order; two
    pairs are equivalent iff their longest common prefixes coincide.
    """
    check_size(n_str, "max_meet_identity n_str")
    check_ground_exponent(n_str, f"max_meet_identity n_str={size_text(n_str)}")
    strings = ["".join(bits) for bits in itertools.product("01", repeat=n_str)]
    strings.sort()
    groups = {}
    for i, j in itertools.combinations(range(len(strings)), 2):
        groups.setdefault(meet(strings[i], strings[j]), []).append((i, j))
    return LabeledIdentity(
        identity_from_subsets(len(strings), "pairs", groups.values()), tuple(strings)
    )


def is_meet_respecting(s: LabeledIdentity) -> bool:
    """True iff every class's pairs share one longest-common-prefix."""
    for cl in s.base.classes:
        meets = set()
        for b in cl:
            i, j = elems_of(b)
            meets.add(meet(s.labels[i], s.labels[j]))
            if len(meets) > 1:
                return False
    return True


class SimplifyError(RuntimeError):
    """The coarsened relation failed the equivalence-relation audit."""


def simplify_k(s: Identity, k: int) -> Identity:
    """Coarsen a full-flavor identity to its k-subpattern relation.

    Two equal-size subsets b, c become equivalent iff for every subset b'
    of b with |b'| <= k, b' is e-equivalent to its order-isomorphic copy
    inside c.  Both sides list their sub-subsets of at most k positions
    in the same (combinations) order, so this says that their
    k-signatures, the class tokens of those sub-subsets, are equal: an
    equivalence, whose classes are the groups of equal (size, signature).
    Each group is audited pairwise, both ways, by the direct test, and a
    SimplifyError is raised if any pair fails; the audit never repairs
    anything silently.  A malformed identity is refused first.
    """
    check_size(k, "simplify_k k")
    if s.flavor != "full":
        raise UsageError(f"simplify_k needs full flavor, got {s.flavor!r}")
    _check_valid(s)
    ids = _class_id_map(s)

    def related(b: int, c: int) -> bool:
        # all <=k subsets of b must be e-related to their order-isomorphic
        # copies in c
        copy = dict(zip(elems_of(b), elems_of(c)))
        sub = b
        while True:
            if sub.bit_count() <= k and ids[sub] != ids[permute_mask(sub, copy)]:
                return False
            if sub == 0:
                return True
            sub = (sub - 1) & b

    groups = {}
    for b in range(1 << s.n):
        e = elems_of(b)
        signature = tuple(
            ids[mask_of(sub)]
            for j in range(min(k, len(e)) + 1)
            for sub in itertools.combinations(e, j)
        )
        groups.setdefault((len(e), signature), []).append(b)

    classes = []
    for g in groups.values():
        if len(g) >= 2:
            for b, c in itertools.combinations(g, 2):
                if not (related(b, c) and related(c, b)):
                    raise SimplifyError(
                        "coarsened relation is not an equivalence: "
                        f"subsets {elems_of(b)} and {elems_of(c)} share a "
                        f"{k}-signature but are not directly related"
                    )
            classes.append(frozenset(g))
    return Identity(s.n, "full", frozenset(classes))


def order_forcing_extension(s: Identity) -> Identity:
    """Extend a pairs identity so realizations must sort its ground set.

    The result lives on 2n-1 elements: the original pattern is kept and,
    for each l < n-1, the new pair {l, n+l} is placed in the class of
    {l, l+1} (or forms a new class with it when {l, l+1} is a singleton).
    Every added pair lies outside the original ground set, so no two
    original classes are ever merged.  The input is validated first, and
    an output above GROUND_BOUND is refused before anything is built.
    """
    _check_valid(s)
    if s.flavor != "pairs":
        raise UsageError(f"order_forcing_extension needs pairs flavor, got {s.flavor!r}")
    if s.n < 2:
        raise UsageError(f"order_forcing_extension needs n >= 2, got {s.n}")
    check_ground(2 * s.n - 1)
    n = s.n
    grown = {}
    for l in range(n - 1):
        anchor = mask_of((l, l + 1))
        c = s.class_of(anchor) or frozenset([anchor])
        grown.setdefault(c, set(c)).add(mask_of((l, n + l)))
    out = Identity(
        2 * n - 1,
        "pairs",
        s.classes.difference(grown) | {frozenset(g) for g in grown.values()},
    )
    bad = validate(out)
    if bad is not None:
        raise SimplifyError(f"extension produced an invalid structure: {bad}")
    return out
