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
duplication whose result also stays <= N.  That step splits the ground set
at m < n, duplicates the tail m..n-1, and gives each tail element a fate:
0 keeps the original, 1 keeps the original and its copy (doubling it), 2
keeps only the copy.  It is one duplicate followed by one restrict, so
provenance traces replay through the two public operations.  Only the
fates that fit are enumerated: at least one nonzero fate, and at most
N - n ones, so a size-N parent draws its fates from {0, 2} alone.

The BFS runs neither operation.  A pairs (full) identity is a set
partition of its slots, the C(n,2) pairs (2^n subsets) in ``_domain_masks``
order, keyed by first occurrence: slot i carries the index of the first
slot in its class, a key that is canonical per partition.  Every step
sends each child slot to one parent slot or to a fresh singleton, so it
is a fixed slot map, built once per parent size; a child's key is the
parent's key gathered through the map and renormalized.  Only a new key
becomes an ``Identity``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .core import (
    Identity,
    _domain_masks,
    elems_of,
    encoding,
    from_json,
    mask_of,
    permute_mask,
    relabelings,
    to_json,
)
from .errors import SizeGuardError, UsageError

# catalog(7) has 204,794 entries and took 179 s and 229 MB peak RSS to
# build on a 2-core host; extrapolated, size 8 would run for hours and exhaust memory
GENERATION_BOUND = 7


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


def restrict(s: Identity, keep) -> Identity:
    """Induce the pattern on a subset of the ground set.

    ``keep`` is an iterable of elements or a subset bitmask.  Kept
    elements are relabeled order-preservingly onto 0..|keep|-1; induced
    classes that fall to a single member become implicit singletons.
    """
    kept = elems_of(keep) if isinstance(keep, int) else tuple(sorted(set(keep)))
    if not kept:
        raise UsageError("restriction needs a nonempty keep set")
    if kept[0] < 0 or kept[-1] >= s.n:
        raise UsageError(f"keep set {kept} exceeds ground set 0..{s.n - 1}")
    kmask = mask_of(kept)
    relab = {x: i for i, x in enumerate(kept)}
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

    Deduplication is by exact ordered encoding.  Unordered queries walk
    the query's relabelings against ``entries``; no canonical index is
    kept.
    """

    max_n: int
    flavor: str
    entries: dict  # Identity -> CatalogEntry, in discovery order

    def __contains__(self, s: Identity) -> bool:
        return s in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def members(self) -> list:
        return list(self.entries)


def _slots(n: int, flavor: str) -> list:
    """The slots of a size-n identity: its domain masks, in order."""
    return _domain_masks(Identity(n, flavor, frozenset()))


def _generation_steps(n: int, max_n: int, flavor: str):
    """The generation steps out of size n, in enumeration order.

    Returns ``(fresh, steps)`` with steps ``(trace, size, gather)``; a drop
    is the split at m = n, where duplication is the no-op.  Child slot c
    lifts through ``kept`` to a mask M on the doubled ground, whose parent
    slot is M inside 0..n-1, g^-1 M off the tail m..n-1, and otherwise a
    fresh singleton.  ``gather(key + fresh)`` is the child's raw labels.
    """
    slots = _slots(n, flavor)
    index = {b: i for i, b in enumerate(slots)}
    splits = [(n, tuple(y for y in range(n) if y != x)) for x in range(n if n > 1 else 0)]
    fates = (0, 2) if n == max_n else (0, 1, 2)
    for m in range(n):
        for fate in itertools.product(fates, repeat=n - m):
            if any(fate) and fate.count(1) <= max_n - n:
                splits.append((m, tuple(
                    [x for x in range(n) if x < m or fate[x - m] != 2]
                    + [n + i for i, f in enumerate(fate) if f])))
    steps, width = [], len(slots)
    for m, kept in splits:
        idx, fresh = [], len(slots)
        for c in _slots(len(kept), flavor):
            M = permute_mask(c, kept)
            if M >> n == 0:
                idx.append(index[M])
            elif M >> m & ((1 << (n - m)) - 1) == 0:
                idx.append(index[M & ((1 << m) - 1) | M >> n << m])
            else:
                idx.append(fresh)
                fresh += 1
        width = max(width, fresh)
        # itemgetter needs an index, and with one it returns a bare item
        gather = (operator.itemgetter(*idx) if len(idx) > 1
                  else lambda key, idx=idx: tuple(key[i] for i in idx))
        trace = (("res", kept),) if m == n else (("dup", m), ("res", kept))
        steps.append((trace, len(kept), gather))
    return tuple(range(len(slots), width)), steps


def _identity_of(key: tuple, n: int, flavor: str, shared: dict) -> Identity:
    """Size-n identity with slot labels ``key``; classes interned in ``shared``."""
    groups = {}
    for b, label in zip(_slots(n, flavor), key):
        groups.setdefault(label, []).append(b)
    classes = (frozenset(g) for g in groups.values() if len(g) >= 2)
    return Identity(n, flavor, frozenset(shared.setdefault(c, c) for c in classes))


def generate_catalog(max_n: int, flavor: str = "pairs") -> Catalog:
    """All identities of size <= max_n reachable by duplicate/restrict.

    Breadth-first fixed point from the 1-element identity over the bounded
    steps of the module docstring.  Each frontier member, in ``encoding``
    order, takes its drops, then for m = 0..n-1 its fitting fate tuples in
    lexicographic order (the order of a walk over all 3^(n-m) of them),
    and the first step to reach an identity gives its trace: minimal-depth
    and replayable through the two public operations.  Steps run on slot
    keys: the parent's first-occurrence key is gathered through the step's
    slot map, built once per size, and renormalized with ``raw.index``;
    only a key not seen before becomes an ``Identity``.
    """
    if max_n < 1:
        raise UsageError(f"catalog bound must be >= 1, got {max_n}")
    if max_n > GENERATION_BOUND:
        raise SizeGuardError(
            f"generate_catalog supports max_n <= {GENERATION_BOUND}, got {max_n}"
        )
    if flavor not in ("pairs", "full"):
        raise UsageError(f"catalog flavor must be pairs or full, got {flavor!r}")
    table = {n: _generation_steps(n, max_n, flavor) for n in range(1, max_n + 1)}
    root = Identity(1, flavor, frozenset())
    entries = {root: CatalogEntry(root, ())}
    key = tuple(range(len(_slots(1, flavor))))  # every slot in its own class
    frontier, seen, shared = [(root, key)], {key}, {}
    while frontier:
        discovered = []
        for s, key in sorted(frontier, key=lambda item: encoding(item[0])):
            fresh, steps = table[s.n]
            padded, base = key + fresh, entries[s].trace
            for trace, n, gather in steps:
                raw = gather(padded)
                child = tuple(map(raw.index, raw))
                if child not in seen:
                    seen.add(child)
                    t = _identity_of(child, n, flavor, shared)
                    entries[t] = CatalogEntry(t, base + trace)
                    discovered.append((t, child))
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
    otherwise.

    Unordered queries walk the orbit of s (``core.relabelings``) and stop
    at the first relabeling that is an exact entry.  An absent pattern
    costs n! hash lookups, and n <= max_n <= GENERATION_BOUND.
    """
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
    return any(t in cat.entries for _, t in relabelings(s))


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


def _check_step(op, arg) -> None:
    """A trace step is ("dup", m) or ("res", kept) with m, kept >= 0."""
    if not (
        op == "dup" and type(arg) is int and arg >= 0
        or op == "res" and type(arg) is tuple
        and all(type(x) is int and x >= 0 for x in arg)
    ):
        raise UsageError(f"trace step {[op, arg]!r} is not ['dup', m] or ['res', kept]")


def catalog_from_json(d: dict) -> Catalog:
    """Parse a catalog and check its shape before it is trusted.

    Refused with UsageError: a malformed document, max_n outside
    1..GENERATION_BOUND, a flavor other than pairs/full, an entry larger
    than max_n or of another flavor, a malformed trace step and a
    repeated entry.  Traces are not replayed here; the tests replay every
    stored trace.  Equal classes and equal trace steps are stored once:
    the 4262 entries of the size-6 catalog share 187 distinct classes.
    """
    if not isinstance(d, dict):
        raise UsageError("catalog JSON must be an object")
    max_n, flavor, raw = d.get("max_n"), d.get("flavor", "pairs"), d.get("entries")
    if type(max_n) is not int or not 1 <= max_n <= GENERATION_BOUND:
        raise UsageError(
            f"catalog max_n must be an integer in 1..{GENERATION_BOUND}, got {max_n!r}"
        )
    if flavor not in ("pairs", "full"):
        raise UsageError(f"catalog flavor must be pairs or full, got {flavor!r}")
    if not isinstance(raw, list):
        raise UsageError("catalog entries must be a list")
    shared = {}  # the one stored copy of each class and each trace step
    entries = {}
    for i, item in enumerate(raw):
        try:
            ident = from_json(item["identity"])
            trace = []
            for op, arg in item["trace"]:
                step = (op, tuple(arg) if type(arg) is list else arg)
                if step not in shared:
                    _check_step(*step)
                    shared[step] = step
                trace.append(shared[step])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"catalog entry {i}: {exc!r}") from exc
        if ident.n > max_n or ident.flavor != flavor:
            raise UsageError(
                f"catalog entry {i} is a {ident.flavor} identity on {ident.n} "
                f"elements; the catalog holds {flavor} identities up to {max_n}"
            )
        ident = Identity(
            ident.n, flavor, frozenset(shared.setdefault(c, c) for c in ident.classes)
        )
        if ident in entries:
            raise UsageError(f"catalog entry {i} repeats an earlier entry")
        entries[ident] = CatalogEntry(ident, tuple(trace))
    return Catalog(max_n, flavor, entries)
