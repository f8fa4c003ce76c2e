"""Duplication, restriction, and the catalog they generate.

``duplicate`` copies the tail segment of an identity onto fresh elements,
equating each pattern with its copy; ``restrict`` induces the pattern on a
subset.  ``generate_catalog`` computes every identity of size at most
max_n reachable from the one-element identity by any sequence of the two
operations.

Generation note: a naive fixed-point loop that discards oversized
duplication results is incomplete, because some small members are only
reachable through larger intermediates (the 3-element all-singleton
pattern needs a 4-element parent).  The two operations commute, and every
reachable identity of size <= N can be produced by a chain of two
bounded step shapes: dropping one element, and a generalized partial
duplication (split the ground set at m, double a chosen tail subset B,
and replace a disjoint tail subset D by its copies) whose result also
stays <= N.  Each generalized step equals duplicate followed by one
restrict, so provenance traces still replay through the two public
operations; the equivalence was verified exhaustively at small sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    Identity,
    _domain_masks,
    canonical_form,
    elems_of,
    encoding,
    from_json,
    mask_of,
    permute_mask,
    to_json,
)
from .errors import SizeGuardError, UsageError

GENERATION_BOUND = 8  # catalog sizes beyond this are out of tested range


def duplicate(s: Identity, m: int) -> Identity:
    """Copy the tail segment m..n-1 onto fresh elements n..2n-m-1.

    The copy map g fixes 0..m-1 and sends m+i to n+i.  Every stored class
    C becomes C together with its g-image; every other subset u inside the
    original ground set joins its copy g''u when the two differ; subsets
    meeting both the tail and its copy stay singleton.  With m = n the
    operation is the no-op.

    Pairs flavor implements the pair clauses; full flavor applies the same
    rule to all subsets (a documented extrapolation used by the --full
    catalog).
    """
    if s.flavor == "partial":
        raise UsageError("duplicate is defined for pairs and full flavors")
    if not 0 <= m <= s.n:
        raise UsageError(f"split point m={m} out of range 0..{s.n}")
    n = s.n
    n2 = 2 * n - m
    g = tuple(range(m)) + tuple(range(n, n2))
    covered = set()
    classes = []
    for c in s.classes:
        nc = frozenset(itertools.chain(c, (permute_mask(b, g) for b in c)))
        classes.append(nc)
        covered |= nc
    for u in _domain_masks(s):
        if u in covered:
            continue
        gu = permute_mask(u, g)
        if gu != u and gu not in covered:
            classes.append(frozenset((u, gu)))
    return Identity(n2, s.flavor, frozenset(classes))


def _keep_mask_and_relabel(n: int, keep) -> tuple:
    if isinstance(keep, int):
        kept = elems_of(keep)
    else:
        kept = tuple(sorted(set(keep)))
    if not kept:
        raise UsageError("restriction needs a nonempty keep set")
    if kept[0] < 0 or kept[-1] >= n:
        raise UsageError(f"keep set {kept} exceeds ground set 0..{n - 1}")
    kmask = mask_of(kept)
    relab = {x: i for i, x in enumerate(kept)}
    return kmask, relab, kept


def restrict(s: Identity, keep) -> Identity:
    """Induce the pattern on a subset of the ground set.

    ``keep`` is an iterable of elements or a subset bitmask.  Kept
    elements are relabeled order-preservingly onto 0..|keep|-1; induced
    classes that fall to a single member become implicit singletons.
    """
    kmask, relab, kept = _keep_mask_and_relabel(s.n, keep)
    classes = []
    for c in s.classes:
        nc = frozenset(
            permute_mask(b, relab) for b in c if b & ~kmask == 0
        )
        if len(nc) >= 2:
            classes.append(nc)
    dom = None
    if s.domain is not None:
        dom = frozenset(
            permute_mask(b, relab) for b in s.domain if b & ~kmask == 0
        )
    return Identity(len(kept), s.flavor, frozenset(classes), dom)


def _gpd_trace_steps(n: int, m: int, bset, dset) -> list:
    rset = sorted(bset | dset)
    kept = [x for x in range(n) if x not in dset] + [n + (r - m) for r in rset]
    return [("dup", m), ("res", tuple(kept))]


def _gpd(s: Identity, m: int, bset, dset) -> Identity:
    """Generalized partial duplication: one bounded generation step.

    Duplicate above m, then keep every original element outside dset plus
    the copies of bset | dset; elements of bset end up doubled, elements
    of dset are replaced by their copies.  The intermediate may exceed the
    catalog bound; only the result is size-limited.
    """
    (_, mm), (_, kept) = _gpd_trace_steps(s.n, m, bset, dset)
    return restrict(duplicate(s, mm), kept)


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog member with its construction trace from the 1-element
    identity; replaying the trace reproduces the identity exactly."""

    identity: Identity
    trace: tuple  # steps ("dup", m) and ("res", kept-elements)


@dataclass
class Catalog:
    """Deduplicated store of ordered identities closed under the two
    operations within the size bound.

    Deduplication is by exact ordered encoding; the canonical index used
    for unordered queries is built lazily per (size, class-profile)
    bucket.
    """

    max_n: int
    flavor: str
    entries: dict  # Identity -> CatalogEntry, in discovery order
    _canon_cache: dict = field(default_factory=dict, repr=False)

    def __contains__(self, s: Identity) -> bool:
        return s in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def members(self) -> list:
        return list(self.entries)


def _profile(s: Identity) -> tuple:
    return (
        s.n,
        tuple(sorted(len(c) for c in s.classes)),
        tuple(sorted(tuple(sorted(b.bit_count() for b in c)) for c in s.classes)),
    )


def generate_catalog(max_n: int, flavor: str = "pairs") -> Catalog:
    """All identities of size <= max_n reachable by duplicate/restrict.

    Breadth-first fixed point from the 1-element identity, using the
    bounded generation steps described in the module docstring; traces are
    minimal-depth and replay through the two public operations.
    """
    if max_n < 1:
        raise UsageError(f"catalog bound must be >= 1, got {max_n}")
    if max_n > GENERATION_BOUND:
        raise SizeGuardError(
            f"generate_catalog supports max_n <= {GENERATION_BOUND}, got {max_n}"
        )
    if flavor not in ("pairs", "full"):
        raise UsageError(f"catalog flavor must be pairs or full, got {flavor!r}")
    root = Identity(1, flavor, frozenset())
    entries = {root: CatalogEntry(root, ())}
    frontier = [root]
    while frontier:
        discovered = []
        for s in sorted(frontier, key=encoding):
            base = entries[s].trace
            n = s.n
            produced = []
            if n > 1:
                for x in range(n):
                    kept = tuple(y for y in range(n) if y != x)
                    produced.append(
                        (restrict(s, kept), (("res", kept),))
                    )
            for m in range(n + 1):
                tail = list(range(m, n))
                doubled = None
                for assign in itertools.product((0, 1, 2), repeat=len(tail)):
                    bset = {tail[i] for i, a in enumerate(assign) if a == 1}
                    dset = {tail[i] for i, a in enumerate(assign) if a == 2}
                    if not bset and not dset:
                        continue
                    if n + len(bset) > max_n:
                        continue
                    if doubled is None:
                        doubled = duplicate(s, m)
                    steps = _gpd_trace_steps(n, m, bset, dset)
                    produced.append(
                        (restrict(doubled, steps[1][1]), tuple(steps))
                    )
            for t, steps in produced:
                if t not in entries:
                    entries[t] = CatalogEntry(t, base + steps)
                    discovered.append(t)
        frontier = discovered
    return Catalog(max_n, flavor, entries)


def replay_trace(trace, flavor: str = "pairs") -> Identity:
    """Rebuild an identity from its trace, starting at the 1-element one."""
    s = Identity(1, flavor, frozenset())
    for step in trace:
        op, arg = step
        if op == "dup":
            s = duplicate(s, arg)
        elif op == "res":
            s = restrict(s, tuple(arg))
        else:
            raise UsageError(f"unknown trace step {op!r}")
    return s


def member_of_catalog(cat: Catalog, s: Identity, ordered: bool = False) -> bool:
    """Membership query: exact encoding when ordered, up to relabeling
    otherwise (some permutation of s has an exact match)."""
    if s.n > cat.max_n:
        raise SizeGuardError(
            f"query size {s.n} exceeds catalog bound {cat.max_n}"
        )
    if s.flavor != cat.flavor:
        raise UsageError(
            f"query flavor {s.flavor!r} does not match catalog flavor {cat.flavor!r}"
        )
    if ordered:
        return s in cat.entries
    key = encoding(canonical_form(s)[0])
    prof = _profile(s)
    bucket = cat._canon_cache.get(prof)
    if bucket is None:
        bucket = set()
        for t in cat.entries:
            if _profile(t) == prof:
                bucket.add(encoding(canonical_form(t)[0]))
        cat._canon_cache[prof] = bucket
    return key in bucket


def catalog_to_json(cat: Catalog) -> dict:
    d = {
        "max_n": cat.max_n,
        "entries": [
            {
                "identity": to_json(e.identity),
                "trace": [[op, list(arg) if op == "res" else arg] for op, arg in e.trace],
            }
            for e in cat.entries.values()
        ],
    }
    if cat.flavor != "pairs":
        d["flavor"] = cat.flavor
    return d


def catalog_from_json(d: dict) -> Catalog:
    try:
        max_n = int(d["max_n"])
        raw = d["entries"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"catalog JSON missing field: {exc}") from exc
    flavor = d.get("flavor", "pairs")
    entries = {}
    for item in raw:
        ident = from_json(item["identity"])
        trace = tuple(
            (op, tuple(arg) if op == "res" else int(arg))
            for op, arg in item["trace"]
        )
        entries[ident] = CatalogEntry(ident, trace)
    return Catalog(max_n, flavor, entries)
