"""Identity structures: validation, relabeling, canonical forms, embeddings.

An identity is a ground set 0..n-1 with an equivalence relation e on a
family of its subsets such that equivalent subsets have equal cardinality.
Three flavors are supported:

* ``pairs``   e lives on all 2-element subsets,
* ``full``    e lives on all subsets (including the empty set and singletons),
* ``partial`` e lives on an explicitly listed family, closed under e.

Singleton equivalence classes are never stored: ``classes`` holds only the
classes with at least two members, and every domain subset not covered by a
stored class is implicitly alone in its own class.

Subsets are encoded as integer bitmasks (bit i set means element i is in
the subset).  Public constructors and the JSON layer speak element tuples;
the mask encoding is an internal uniformity that keeps relabeling and
restriction cheap.  ``first_injection`` is the one pruned injection search
behind ``embeds`` and the oracle's realization and arrow questions.  Its
targets are bits of an int: each check returns the mask of targets it
allows at its depth, so the search filters the free targets with a few
ANDs before it places any (forward checking), and every free target it
passes counts against SEARCH_GUARD.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

from .errors import SizeGuardError, UsageError

FLAVORS = ("full", "partial", "pairs")

CANONICAL_BOUND = 12  # full-flavor domain bound; the domain has 2^n subsets
SEARCH_GUARD = 1 << 21  # nodes one first_injection search (or budget) may visit
# Largest ground set accepted from input, checked before any C(n,2)
# structure is built; s_doubleprime_n(3) has 72 elements.
GROUND_BOUND = 72


def size_text(value) -> str:
    """A value as a message shows it: its ``repr``, or, where Python cannot
    render an int in decimal (more than 4,300 digits by default), that
    int's sign and bit length; a list or tuple shows its items so."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple)):
            items = ", ".join(map(size_text, value))
            if isinstance(value, list):
                return f"[{items}]"
            return f"({items}{',' if len(value) == 1 else ''})"
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def _size_error(value, name: str, least=1):
    """The refusal of a size that is not a plain int of at least ``least``
    (None: any int), or None for a size that is one.  bool is an int
    subclass that would read as 0 or 1, and a float or a string would fail
    later with a TypeError."""
    if type(value) is int and (least is None or value >= least):
        return None
    bound = "" if least is None else f" >= {least}"
    return f"{name} must be an integer{bound}, got {size_text(value)}"


def check_size(value, name: str, least=1) -> None:
    """Refuse, with a UsageError naming ``name``, a size that is not a plain
    int of at least ``least``: every public entry point's one check."""
    msg = _size_error(value, name, least)
    if msg is not None:
        raise UsageError(msg)


def check_ground(n: int) -> None:
    """Refuse a ground size above GROUND_BOUND with a size-guard error."""
    if n > GROUND_BOUND:
        raise SizeGuardError(
            f"ground size {size_text(n)} exceeds the bound {GROUND_BOUND}"
        )


def check_ground_exponent(exponent: int, what: str) -> None:
    """Refuse a ground of at least 2**exponent points above GROUND_BOUND.

    The exponent decides, so no power of an unchecked input is built;
    ``what`` names the request in the size-guard error.
    """
    if exponent >= GROUND_BOUND.bit_length():
        raise SizeGuardError(
            f"{what} needs at least 2^{size_text(exponent)} points, over the ground "
            f"bound {GROUND_BOUND}"
        )


def mask_of(elems) -> int:
    """Bitmask of an iterable of ground elements."""
    m = 0
    for e in elems:
        m |= 1 << e
    return m


@functools.lru_cache(maxsize=1 << 12)
def elems_of(mask: int) -> tuple:
    """Sorted tuple of elements of a subset bitmask.

    Encodings and reports decode the same few masks again and again (the
    4,096 subsets of 12 elements, or the 2,556 pairs of 72, fit the
    cache), so each decode is a lookup after the first.
    """
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def all_pair_masks(n: int) -> list:
    """All 2-element subset masks of 0..n-1, in lex order of (i, j)."""
    return [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class Identity:
    """An equivalence pattern on subsets of 0..n-1.

    ``classes`` is a frozenset of frozensets of subset masks: the stored
    (non-singleton) equivalence classes.  ``domain`` is None except for the
    partial flavor, where it lists every subset e is defined on.
    """

    n: int
    flavor: str
    classes: frozenset
    domain: frozenset | None = None

    def class_list(self) -> list:
        """Stored classes in deterministic order (sorted by least subset)."""
        return sorted(
            (sorted(c, key=elems_of) for c in self.classes),
            key=lambda cl: elems_of(cl[0]),
        )

    def class_of(self, mask: int):
        """The stored class containing the subset, or None if singleton."""
        for c in self.classes:
            if mask in c:
                return c
        return None

    def active_elements(self) -> tuple:
        """Elements that occur in some stored class.

        Every subset touching only inactive elements sits in an implicit
        singleton class, so pattern questions depend on the active part.
        """
        m = 0
        for c in self.classes:
            for b in c:
                m |= b
        return elems_of(m)


def identity_from_subsets(n: int, flavor: str, classes, domain=None) -> Identity:
    """Build an Identity from element-tuple classes, dropping singletons."""
    enc = frozenset(
        frozenset(mask_of(sub) for sub in c) for c in classes if len(set(map(tuple, map(sorted, c)))) >= 2
    )
    dom = None
    if domain is not None:
        dom = frozenset(mask_of(sub) for sub in domain)
    return Identity(n, flavor, enc, dom)


def _domain_masks(s: Identity) -> list:
    """Every subset e is defined on, as masks, in ``elems_of`` order.

    A full identity has 2^n of them, so n is refused above CANONICAL_BOUND."""
    if s.flavor == "pairs":
        return all_pair_masks(s.n)
    if s.flavor == "full":
        if s.n > CANONICAL_BOUND:
            raise SizeGuardError(
                f"full-flavor domain supports n <= {CANONICAL_BOUND}, got {size_text(s.n)}"
            )
        return sorted(range(1 << s.n), key=elems_of)
    return sorted(s.domain, key=elems_of)


def validate(s: Identity):
    """Check all structural invariants.

    Returns None when the structure is well formed, otherwise a string
    naming the first violated invariant and the offending class.
    """
    if s.flavor not in FLAVORS:
        return f"unknown flavor {s.flavor!r}"
    bad_n = _size_error(s.n, "identity n")
    if bad_n is not None:
        return bad_n
    if s.flavor == "partial":
        if s.domain is None:
            return "partial flavor requires an explicit domain"
        for b in s.domain:
            if b >> s.n:
                return f"domain subset {elems_of(b)} exceeds ground set"
    elif s.domain is not None:
        return f"{s.flavor} flavor must not carry an explicit domain"
    dom = s.domain  # None unless partial: a domain elsewhere was refused above
    seen = set()
    for c in s.classes:
        cl = sorted(c, key=elems_of)
        label = [elems_of(b) for b in cl]
        if len(cl) < 2:
            return f"class {label} stored with fewer than 2 members (singletons are implicit)"
        sizes = {b.bit_count() for b in cl}
        if len(sizes) != 1:
            return f"class {label} mixes subset cardinalities {sorted(sizes)}"
        for b in cl:
            if b >> s.n:
                return f"class {label} contains subset {elems_of(b)} outside the ground set"
            if s.flavor == "pairs" and b.bit_count() != 2:
                return f"class {label} contains non-pair subset {elems_of(b)}"
            if dom is not None and b not in dom:
                return f"class {label} contains subset {elems_of(b)} outside the domain"
            if b in seen:
                return f"subset {elems_of(b)} appears in two classes"
            seen.add(b)
    return None


def _check_valid(s: Identity):
    """Refuse a malformed identity (UsageError) or one whose ground is
    above GROUND_BOUND (SizeGuardError), as ``from_json`` does."""
    msg = validate(s)
    if msg is not None:
        raise UsageError(msg)
    check_ground(s.n)


@dataclass(frozen=True)
class Embedding:
    """An injection between ground sets witnessing pattern preservation."""

    map: tuple
    ordered: bool

    def __post_init__(self):
        if len(set(self.map)) != len(self.map):
            raise UsageError("embedding map is not injective")
        if self.ordered and any(a >= b for a, b in zip(self.map, self.map[1:])):
            raise UsageError("ordered embedding must be strictly increasing")


def permute_mask(mask: int, image) -> int:
    """Push a subset mask through an element map.

    ``image[i]`` is where element i goes; ``image`` may be a tuple (a
    permutation or an injection given as a position list) or a dict
    defined on every element of the subset.
    """
    out = 0
    for i in elems_of(mask):
        out |= 1 << image[i]
    return out


def permute(s: Identity, pi) -> Identity:
    """Relabel every subset through the permutation pi of 0..n-1."""
    pi = tuple(pi)
    if len(pi) != s.n or sorted(pi) != list(range(s.n)):
        raise UsageError(
            f"permutation {size_text(pi)} does not act on 0..{size_text(s.n - 1)}"
        )
    return _relabel(s, pi)


def _relabel(s: Identity, pi: tuple) -> Identity:
    """``permute`` for a pi already known to be a permutation of 0..n-1."""
    classes = frozenset(
        frozenset(permute_mask(b, pi) for b in c) for c in s.classes
    )
    dom = None
    if s.domain is not None:
        dom = frozenset(permute_mask(b, pi) for b in s.domain)
    return Identity(s.n, s.flavor, classes, dom)


def encoding(s: Identity) -> tuple:
    """Deterministic nested-tuple encoding used for ordering and canon.

    Classes are element tuples, sorted within each class and then by their
    least subset: stored classes are disjoint, so their least subsets
    differ and this is the ``class_list`` order.
    """
    cls = tuple(sorted(tuple(sorted(map(elems_of, c))) for c in s.classes))
    dom = None
    if s.domain is not None:
        dom = tuple(sorted(map(elems_of, s.domain)))
    return (s.n, s.flavor, cls, dom)


def canonical_form(s: Identity):
    """Lexicographically minimal relabeling of s, with a witnessing permutation.

    Two identities are isomorphic iff their canonical forms are equal.  The
    minimum of ``encoding`` is taken over the relabelings through every
    permutation of 0..n-1, so the cost is n! relabelings, charged against
    SEARCH_GUARD before any is made (n <= 9 answers); the witness is the
    first minimizing permutation in itertools.permutations order.
    """
    _check_valid(s)
    if math.factorial(s.n) > SEARCH_GUARD:
        raise SizeGuardError(
            f"relabeling scan of {s.n}! permutations exceeds SEARCH_GUARD ({SEARCH_GUARD})"
        )
    pi = min(itertools.permutations(range(s.n)), key=lambda p: encoding(_relabel(s, p)))
    return _relabel(s, pi), pi


def _class_id_map(s: Identity) -> dict:
    """Map each domain subset to a hashable class token.

    Stored classes share a token; implicit singletons get a unique one.
    """
    ids = {}
    for idx, cl in enumerate(s.class_list()):
        for b in cl:
            ids[b] = idx
    for b in _domain_masks(s):
        if b not in ids:
            ids[b] = ("s", b)
    return ids


def first_injection(n_src: int, n_tgt: int, ordered: bool, checks, budget=None):
    """Lex-least injection of 0..n_src-1 into 0..n_tgt-1 (increasing when
    ordered) allowed by every check in ``checks[d]``: each reads the placed
    prefix h[:d] and returns the bitmask of targets it allows for h[d].

    The search tries the allowed free targets in increasing order, so the
    witness is the lex-least one.  Every free target counts as a node of
    ``budget``, a one-item list searches may share (SEARCH_GUARD if None),
    allowed or not: as each allowed one is reached, the free targets up to
    it are charged, and the rest when the depth is exhausted.  Running out
    raises SizeGuardError and leaves -1 in the budget.  Returns a tuple,
    or None, and leaves in the budget what is left.

    The search is one loop over an explicit stack: for each depth below
    the current one, ``rests[d]`` holds its free targets not yet charged
    and ``alloweds[d]`` its allowed targets not yet tried, both above
    h[d]; the budget is counted down in a local."""
    budget = [SEARCH_GUARD] if budget is None else budget
    left, free, h, d = budget[0], (1 << n_tgt) - 1, [], 0
    rests, alloweds = [0] * n_src, [0] * n_src
    while d < n_src:
        rest = free & (-2 << h[-1]) if ordered and d else free
        allowed = rest
        for allow in checks[d]:
            allowed &= allow(h)
        while True:  # charge up to the next allowed target, or backtrack
            low = allowed & -allowed  # 0 once depth d is exhausted: all of rest is reached
            reached = rest & ((low << 1) - 1)
            left -= reached.bit_count()
            if left < 0:
                budget[0] = -1  # where a node-by-node count stops
                raise SizeGuardError(f"injection search of {n_src} into {n_tgt} passed "
                                     f"SEARCH_GUARD ({SEARCH_GUARD} nodes) at depth {d}")
            if low:
                break
            if not d:
                budget[0] = left
                return None
            d -= 1
            free |= 1 << h.pop()
            rest, allowed = rests[d], alloweds[d]
        rests[d], alloweds[d] = rest ^ reached, allowed ^ low
        h.append(low.bit_length() - 1)
        free ^= low
        d += 1
    budget[0] = left
    return tuple(h)


def embeds(src: Identity, tgt: Identity, ordered: bool = False):
    """Search for an injection h with (b e c) iff (h''b e h''c).

    One ``first_injection`` search, one check per depth d: a free t may be
    h[d] iff, under h + [t], each nonempty domain subset with top element
    <= d maps into the target domain and their (source, target) class
    token pairs are one to one; tokens of unequal-size subsets never meet.
    The empty set maps to itself, so it is checked up front.  Returns the
    first witness in lex order, or None.  Both identities are validated
    first, grounds against GROUND_BOUND."""
    _check_valid(src)
    _check_valid(tgt)
    if src.flavor == "pairs":
        tgt = to_pairs(tgt)
    elif src.flavor != tgt.flavor:
        raise UsageError(
            f"cannot embed flavor {src.flavor!r} into flavor {tgt.flavor!r}"
        )
    src_ids, tgt_ids = _class_id_map(src), _class_id_map(tgt)
    if src.n > tgt.n or 0 in src_ids and 0 not in tgt_ids:
        return None
    def allowed(d):
        subs = [b for b in src_ids if 0 < b < 2 << d]
        toks = [src_ids[b] for b in subs]
        width = len(set(toks))

        def one_to_one(g):
            imgs = [tgt_ids.get(permute_mask(b, g)) for b in subs]
            return None not in imgs and len(set(imgs)) == width == len(set(zip(toks, imgs)))
        return lambda h: mask_of(t for t in range(tgt.n) if t not in h and one_to_one(h + [t]))

    h = first_injection(src.n, tgt.n, ordered, [[allowed(d)] for d in range(src.n)])
    return None if h is None else Embedding(h, ordered)


def to_pairs(s: Identity) -> Identity:
    """Restrict the relation to 2-element subsets.

    Accepts full identities, partial identities whose domain contains every
    pair, and pairs identities (returned unchanged, so the map is
    idempotent).
    """
    if s.flavor == "pairs":
        return s
    if s.flavor == "partial":
        need = set(all_pair_masks(s.n))
        if not need <= set(s.domain):
            missing = sorted(need - set(s.domain))[0]
            raise UsageError(
                f"partial domain misses pair {elems_of(missing)}; cannot project"
            )
    classes = []
    for c in s.classes:
        pc = frozenset(b for b in c if b.bit_count() == 2)
        if len(pc) >= 2:
            classes.append(pc)
    return Identity(s.n, "pairs", frozenset(classes))


def to_json(s: Identity) -> dict:
    """Serialize to the interchange dict.

    Subsets are ascending element lists, each class's subsets are sorted,
    and classes are sorted by their least subset, so the output is unique
    per structure: the order of ``encoding``.
    """
    n, flavor, cls, dom = encoding(s)
    d = {"n": n, "flavor": flavor, "classes": [list(map(list, cl)) for cl in cls]}
    if dom is not None:
        d["domain"] = list(map(list, dom))
    return d


def _dump(obj) -> str:
    """Compact JSON text with sorted keys: the byte form of every report."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _mask_from_json(sub, n: int) -> int:
    """Mask of a JSON subset, which must list elements of 0..n-1."""
    if not isinstance(sub, list) or not all(
        type(e) is int and e >= 0 for e in sub
    ):
        raise UsageError(
            f"subset {size_text(sub)} is not a list of non-negative integers"
        )
    if any(e >= n for e in sub):
        raise UsageError(f"subset {size_text(sub)} exceeds the ground set 0..{n - 1}")
    return mask_of(sub)


def from_json(d: dict) -> Identity:
    """Parse and validate the interchange dict."""
    try:
        n = d["n"]
        flavor = d["flavor"]
        classes = [list(cl) for cl in d["classes"]]
        dom = d.get("domain")
        dom = None if dom is None else list(dom)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"identity JSON malformed: {exc!r}") from exc
    check_size(n, "identity n")
    check_ground(n)
    s = Identity(
        n,
        flavor,
        frozenset(
            frozenset(_mask_from_json(sub, n) for sub in cl) for cl in classes
        ),
        None if dom is None else frozenset(_mask_from_json(sub, n) for sub in dom),
    )
    _check_valid(s)
    return s
