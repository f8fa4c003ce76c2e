"""Duplication, restriction, and the catalog they generate.

``duplicate`` copies the tail segment of an identity onto fresh elements,
equating each pattern with its copy; ``restrict`` induces the pattern on a
subset.  ``generate_catalog`` computes every identity of size at most
max_n reachable from the one-element identity by any sequence of the two
operations.

Generation note: a naive fixed-point loop that discards oversized
duplication results is incomplete, because some small members are only
reachable through larger intermediates (the 3-element all-singleton pattern
needs a 4-element parent).  The two operations commute, and every reachable
identity of size <= N comes from a chain of one bounded step: a generalized
partial duplication whose result also stays <= N.  It splits the ground set
at m < n, duplicates the tail m..n-1, and gives each tail element a fate: 0
keeps the original, 1 keeps the original and its copy (doubling it), 2 keeps
only the copy: one duplicate and one restrict, so traces replay through the
public operations.  Only the fates that fit are enumerated: at least one
nonzero fate, and at most N - n ones, so a size-N parent draws its fates
from {0, 2} alone.  No step drops an element: a drop of a step's child is
the same step on a drop of the parent, or the step with one fate changed, so
it is reached no later (a sketch, checked exhaustively up to GENERATION_BOUND).

The BFS runs neither operation.  A pairs (full) identity is a set
partition of its slots, the C(n,2) pairs (2^n subsets) in ``_domain_masks``
order, keyed by first occurrence: byte i of the ``bytes`` key is the index
of the first slot in its class, a key that is canonical per partition (a
restricted growth string, Knuth, TAOCP 7.2.1.5).  Every step sends each
child slot to one parent slot or to a fresh singleton, so it is a fixed
slot map, one ``bytes`` object built once per parent size.  A child's key
is ``slot_map.translate(labels)``, where ``labels`` is the parent's key
and the fresh labels padded to 256 bytes: the C loop of translate sets
byte i to ``labels[slot_map[i]]``, and every map byte indexes a real
label, so the padding is never read.  ``_renormalized`` puts the
result back in first-occurrence form.  Only a new key becomes an
``Identity``.

A relabeling is a slot map too: pi sends slot j's mask back to one slot of
the original, so the orbit of a key is its gathers through one table per
size (``_relabel_gathers``), and unordered membership walks that table
against the catalog's keys without building an ``Identity``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .core import (
    SEARCH_GUARD,
    Identity,
    _domain_masks,
    _dump,
    check_ground,
    check_size,
    elems_of,
    encoding,
    from_json,
    mask_of,
    permute_mask,
    size_text,
    to_json,
)
from .errors import SizeGuardError, UsageError

# catalog(7) has 204,794 entries and took 35 s and 194 MB peak RSS to
# build on a 2-core host (67 s and 290 MB in the full flavor); extrapolated,
# size 8 would run for hours and exhaust memory.
# Up to this bound every slot label fits a byte: a key has at most 128
# slots (full flavor, n = 7) and the fresh labels of a step stay below 256.
GENERATION_BOUND = 7

_REVERSED = tuple(bytes(range(w - 1, -1, -1)) for w in range(256))


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
    check_size(m, "split point m", 0)
    check_ground(s.n)
    if s.flavor == "partial":
        raise UsageError("duplicate is defined for pairs and full flavors")
    if m > s.n:
        raise UsageError(f"split point m={size_text(m)} out of range 0..{s.n}")
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

    ``keep`` is a subset bitmask or an iterable of elements, all plain
    ints (a bool is neither).  Kept elements are relabeled
    order-preservingly onto 0..|keep|-1; induced classes that fall to a
    single member become implicit singletons.
    """
    if type(keep) is int:
        if keep < 0:
            raise UsageError(f"keep mask must be nonnegative, got {size_text(keep)}")
        kept = elems_of(keep)
    else:
        kept = tuple(keep) if isinstance(keep, Iterable) else None
        if kept is None or any(type(x) is not int for x in kept):
            raise UsageError(
                f"keep must be an int mask or an iterable of ints, got {size_text(keep)}"
            )
        kept = tuple(sorted(set(kept)))
    if not kept:
        raise UsageError("restriction needs a nonempty keep set")
    if kept[0] < 0 or kept[-1] >= s.n:
        raise UsageError(
            f"keep set {size_text(kept)} exceeds ground set 0..{size_text(s.n - 1)}"
        )
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


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """A catalog member with its construction trace from the 1-element
    identity; replaying the trace reproduces the identity exactly."""

    identity: Identity
    trace: tuple  # steps ("dup", m) and ("res", kept-elements)


@dataclass
class Catalog:
    """Deduplicated store of ordered identities closed under the two
    operations within the size bound.

    Deduplication is by exact ordered encoding.  ``keys`` holds the
    first-occurrence ``bytes`` slot key of every entry (a key's length
    fixes its size), always derived from ``entries``: it is the set the
    BFS of ``generate_catalog`` calls ``seen``.  Unordered queries gather
    the query's key through every relabeling against ``keys``; no
    canonical index is kept.
    """

    max_n: int
    flavor: str
    entries: dict  # Identity -> CatalogEntry, in discovery order
    keys: set = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = {_slot_key(s) for s in self.entries}

    def __contains__(self, s: Identity) -> bool:
        return s in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def members(self) -> list:
        return list(self.entries)


@functools.lru_cache(maxsize=None)
def _slot_index(n: int, flavor: str) -> dict:
    """Slot number of each domain mask of a size-n identity; its keys are
    the slots, in slot order."""
    return {b: i for i, b in enumerate(_domain_masks(Identity(n, flavor, frozenset())))}


def _slot_key(s: Identity) -> bytes:
    """First-occurrence slot key of a pairs or full identity: byte i is
    the index of the first slot in its class."""
    index = _slot_index(s.n, s.flavor)
    key = list(range(len(index)))
    for c in s.classes:
        slots = sorted(map(index.__getitem__, c))
        for i in slots:
            key[i] = slots[0]
    return bytes(key)


def _renormalized(raw: bytes) -> bytes:
    """The first-occurrence form of the labels ``raw``: byte i becomes the
    position of the first byte equal to raw[i]."""
    # maketrans keeps the last pair for a repeated label, so over the
    # reversed labels each label maps to its first position
    return raw.translate(bytes.maketrans(raw[::-1], _REVERSED[len(raw)]))


def _stored_slots(key: bytes) -> list:
    """The non-singleton classes of a slot key, each the list of its
    slots, in first-slot order.  Pair slots are in lex ``(i, j)`` order,
    so for pairs keys this compares as ``encoding`` compares the
    identities."""
    classes = {}
    for i, first in enumerate(key):
        if first != i:
            classes.setdefault(first, [first]).append(i)
    return sorted(classes.values())


@functools.lru_cache(maxsize=None)
def _relabel_gathers(n: int, flavor: str) -> tuple:
    """One ``bytes`` slot map per permutation pi of 0..n-1, in
    itertools.permutations order: byte j is the slot of pi^-1 of slot j's
    mask, so a key gathered through pi's map (``translate`` of the padded
    key) and put through ``_renormalized`` is the key of
    ``core._relabel(s, pi)``.  Every byte indexes a slot.  Built once per
    size, for n <= GENERATION_BOUND only.
    """
    if n > GENERATION_BOUND:
        raise SizeGuardError(
            f"relabeling tables support n <= {GENERATION_BOUND}, got {n}"
        )
    index = _slot_index(n, flavor)
    gathers = []
    for pi in itertools.permutations(range(n)):
        inverse = [0] * n
        for x, y in enumerate(pi):
            inverse[y] = x
        gathers.append(bytes([index[permute_mask(b, inverse)] for b in index]))
    return tuple(gathers)


def _relabeled_keys(key: bytes, n: int, flavor: str):
    """Walk the orbit of a size-n key: yield the key of each relabeling,
    one per permutation in ``_relabel_gathers`` order.  The key is padded
    to a 256-byte table once per walk."""
    labels = key.ljust(256, b"\0")
    for slot_map in _relabel_gathers(n, flavor):
        yield _renormalized(slot_map.translate(labels))


@functools.lru_cache(maxsize=None)
def _generation_steps(n: int, max_n: int, flavor: str) -> tuple:
    """The generation steps out of size n, in enumeration order, built
    once per ``(n, max_n, flavor)``.

    Returns ``(fresh, steps)`` with steps a tuple of ``(trace, size, slot_map)``,
    each trace ``(("dup", m), ("res", kept))`` with m < n.  Child slot c
    lifts through ``kept`` to a mask M on the doubled ground, whose parent
    slot is M inside 0..n-1, g^-1 M off the tail m..n-1, and otherwise a
    fresh singleton.  ``slot_map`` is ``bytes``, byte c the index of child
    slot c's label in ``key + fresh`` (``fresh`` is ``bytes`` too), so
    ``slot_map.translate((key + fresh).ljust(256, b"\0"))`` is the child's
    raw labels.  A step whose slot map is the identity
    (its child is the parent) or repeats an earlier step's ``(size, map)``
    (its child is already seen) finds nothing and is left out.
    """
    index = _slot_index(n, flavor)
    fates = (0, 2) if n == max_n else (0, 1, 2)
    splits = []
    for m in range(n):
        for fate in itertools.product(fates, repeat=n - m):
            if any(fate) and fate.count(1) <= max_n - n:
                splits.append((m, tuple(
                    [x for x in range(n) if x < m or fate[x - m] != 2]
                    + [n + i for i, f in enumerate(fate) if f])))
    steps, width = [], len(index)
    maps = {(n, tuple(range(len(index))))}
    for m, kept in splits:
        idx, fresh = [], len(index)
        for c in _slot_index(len(kept), flavor):
            M = permute_mask(c, kept)
            if M >> n == 0:
                idx.append(index[M])
            elif M >> m & ((1 << (n - m)) - 1) == 0:
                idx.append(index[M & ((1 << m) - 1) | M >> n << m])
            else:
                idx.append(fresh)
                fresh += 1
        step_map = (len(kept), tuple(idx))
        if step_map in maps:
            continue
        maps.add(step_map)
        width = max(width, fresh)
        steps.append(((("dup", m), ("res", kept)), len(kept), bytes(idx)))
    return bytes(range(len(index), width)), tuple(steps)


def _identity_of(key: bytes, n: int, flavor: str, shared: dict) -> Identity:
    """Size-n identity with slot labels ``key``; classes interned in ``shared``."""
    groups = {}
    for b, label in zip(_slot_index(n, flavor), key):
        groups.setdefault(label, []).append(b)
    classes = (frozenset(g) for g in groups.values() if len(g) >= 2)
    return Identity(n, flavor, frozenset(shared.setdefault(c, c) for c in classes))


def canonical_forms(identities) -> list:
    """The canonical forms of some pairs identities, duplicate-free and
    sorted by ``encoding``.

    Each isomorphism class is walked once, on slot keys: the orbit of one
    key (``_relabeled_keys``) is removed from the rest, and its least key
    by ``_stored_slots`` is the key of ``canonical_form`` of each of them.
    Only that key becomes an ``Identity``.  Sizes are bounded by
    GENERATION_BOUND, the bound of the relabeling tables, and the walks by
    SEARCH_GUARD: each orbit's k! gathers are charged before it is walked.
    """
    by_size = {}
    for s in identities:
        if s.flavor != "pairs":
            raise UsageError(
                f"canonical_forms takes pairs identities, got {s.flavor!r}"
            )
        by_size.setdefault(s.n, set()).add(_slot_key(s))
    forms, shared, spent = [], {}, 0
    for n, keys in sorted(by_size.items()):
        least, walk = [], math.factorial(n)
        while keys:
            if spent + walk > SEARCH_GUARD:
                raise SizeGuardError(
                    f"canonical forms walked {len(forms) + len(least)} orbits in "
                    f"{spent} gathers, and the next, at size {n}, would add {walk}, "
                    f"over SEARCH_GUARD ({SEARCH_GUARD})"
                )
            spent += walk
            orbit = set(_relabeled_keys(keys.pop(), n, "pairs"))
            keys -= orbit
            least.append(min(orbit, key=_stored_slots))
        least.sort(key=_stored_slots)
        forms += [_identity_of(k, n, "pairs", shared) for k in least]
    return forms


def generate_catalog(max_n: int, flavor: str = "pairs") -> Catalog:
    """All identities of size <= max_n reachable by duplicate/restrict.

    Breadth-first fixed point from the 1-element identity over the bounded
    steps of the module docstring.  Each frontier member, in ``encoding``
    order, takes for m = 0..n-1 its fitting fate tuples in lexicographic
    order (the order of a walk over all 3^(n-m) of them), and the first
    step to reach an identity gives its trace: minimal-depth and replayable
    through the two public operations.  Steps run on ``bytes`` slot keys:
    the parent's first-occurrence key and the fresh labels, padded to 256
    bytes once per parent, are gathered through the step's ``bytes`` slot
    map (one ``translate``), built once per size, and put through
    ``_renormalized``; only a key not seen before becomes an ``Identity``.
    """
    check_size(max_n, "catalog max_n")
    if max_n > GENERATION_BOUND:
        raise SizeGuardError(
            f"generate_catalog supports max_n <= {GENERATION_BOUND}, "
            f"got {size_text(max_n)}"
        )
    if flavor not in ("pairs", "full"):
        raise UsageError(f"catalog flavor must be pairs or full, got {flavor!r}")
    table = {n: _generation_steps(n, max_n, flavor) for n in range(1, max_n + 1)}
    root = Identity(1, flavor, frozenset())
    entries = {root: CatalogEntry(root, ())}
    key = bytes(range(len(_slot_index(1, flavor))))  # every slot in its own class
    frontier, seen, shared = [(root, key)], {key}, {}
    while frontier:
        discovered = []
        for s, key in sorted(frontier, key=lambda item: encoding(item[0])):
            fresh, steps = table[s.n]
            labels, base = (key + fresh).ljust(256, b"\0"), entries[s].trace
            for trace, n, slot_map in steps:
                child = _renormalized(slot_map.translate(labels))
                if child not in seen:
                    seen.add(child)
                    t = _identity_of(child, n, flavor, shared)
                    entries[t] = CatalogEntry(t, base + trace)
                    discovered.append((t, child))
        frontier = discovered
    del seen  # freed before the catalog derives the same set from its entries
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

    Unordered queries walk the orbit of s on slot keys
    (``_relabeled_keys``): s's key is gathered through each permutation
    of its size, put through ``_renormalized`` as the BFS does, and
    looked up in the catalog's ``keys``; the walk stops at the first hit
    and builds no ``Identity``.  An absent pattern costs n! gathers and
    lookups, and n <= max_n <= GENERATION_BOUND.
    """
    if s.n > cat.max_n:
        raise SizeGuardError(
            f"query size {size_text(s.n)} exceeds catalog bound {cat.max_n}"
        )
    if s.flavor != cat.flavor:
        raise UsageError(
            f"query flavor {s.flavor!r} does not match catalog flavor {cat.flavor!r}"
        )
    if ordered:
        return s in cat.entries
    return any(t in cat.keys for t in _relabeled_keys(_slot_key(s), s.n, s.flavor))


def catalog_to_json(cat: Catalog) -> dict:
    d = {
        "max_n": cat.max_n,
        "entries": [_entry_to_json(e) for e in cat.entries.values()],
    }
    if cat.flavor != "pairs":
        d["flavor"] = cat.flavor
    return d


def _entry_to_json(e: CatalogEntry) -> dict:
    return {
        "identity": to_json(e.identity),
        "trace": [[op, list(arg) if op == "res" else arg] for op, arg in e.trace],
    }


def _catalog_chunks(cat: Catalog):
    """The catalog file's text, ``_dump(catalog_to_json(cat))`` and a
    newline, in pieces, one per entry, so a writer holds one entry's text
    at a time.  "entries" is the first key in sorted order, so its empty
    list is the first "[]" of the same catalog without entries."""
    empty = _dump(catalog_to_json(Catalog(cat.max_n, cat.flavor, {})))
    cut = empty.index("[]") + 1
    yield empty[:cut]
    for i, e in enumerate(cat.entries.values()):
        yield ("," if i else "") + _dump(_entry_to_json(e))
    yield empty[cut:] + "\n"


def _check_step(op, arg) -> None:
    """A trace step is ("dup", m) or ("res", kept) with m, kept >= 0."""
    if not (
        op == "dup" and type(arg) is int and arg >= 0
        or op == "res" and type(arg) is tuple
        and all(type(x) is int and x >= 0 for x in arg)
    ):
        raise UsageError(f"trace step {[op, arg]!r} is not ['dup', m] or ['res', kept]")


def _cached_identity(d, max_n: int, flavor: str, known: dict, shared: dict):
    """``from_json(d)`` with its classes stored once, or None when only
    the full parse can say.

    Only an entry of the catalog's flavor and of size 1..max_n, with no
    domain and every class a list of lists of ints, is taken here.  Each
    of its classes is validated alone, once per size, by ``from_json`` of
    a one-class identity; the checks left for the entry are the ones
    between classes, and its distinct classes must be disjoint.
    """
    if type(d) is not dict or d.get("domain") is not None:
        return None
    n, classes = d.get("n"), d.get("classes")
    if (type(n) is not int or not 1 <= n <= max_n or d.get("flavor") != flavor
            or type(classes) is not list
            or not set(map(type, classes)) <= {list}
            or not set(map(type, itertools.chain.from_iterable(classes))) <= {list}
            or not set(map(type, itertools.chain.from_iterable(
                itertools.chain.from_iterable(classes)))) <= {int}):
        return None
    found = set()
    for cl in classes:
        k = (n, tuple(map(tuple, cl)))
        c = known.get(k)
        if c is None:
            try:
                (c,) = from_json({"n": n, "flavor": flavor, "classes": [cl]}).classes
            except UsageError:
                return None
            c = known[k] = shared.setdefault(c, c)
        found.add(c)
    if sum(map(len, found)) != len(frozenset().union(*found)):
        return None
    return Identity(n, flavor, frozenset(found))


def catalog_from_json(d: dict) -> Catalog:
    """Parse a catalog and check its shape before it is trusted.

    Refused with UsageError: a malformed document, max_n outside
    1..GENERATION_BOUND, a flavor other than pairs/full, an entry larger
    than max_n or of another flavor, a malformed trace step and a
    repeated entry.  Traces are not replayed here; the tests replay every
    stored trace.  Equal classes and equal trace steps are stored once:
    the 4262 entries of the size-6 catalog share 187 distinct classes,
    and each is validated once per size (``_cached_identity``); an entry
    the cache cannot vouch for takes the full ``from_json``, so every
    refusal keeps its message.
    """
    if not isinstance(d, dict):
        raise UsageError("catalog JSON must be an object")
    max_n, flavor, raw = d.get("max_n"), d.get("flavor", "pairs"), d.get("entries")
    check_size(max_n, "catalog max_n")
    if max_n > GENERATION_BOUND:
        raise UsageError(
            f"catalog max_n must be at most {GENERATION_BOUND}, got {size_text(max_n)}"
        )
    if flavor not in ("pairs", "full"):
        raise UsageError(f"catalog flavor must be pairs or full, got {flavor!r}")
    if not isinstance(raw, list):
        raise UsageError("catalog entries must be a list")
    shared = {}  # the one stored copy of each class and each trace step
    known = {}  # (n, class as nested tuples) -> its validated stored copy
    entries = {}
    for i, item in enumerate(raw):
        try:
            ident = _cached_identity(item["identity"], max_n, flavor, known, shared)
            if ident is None:
                ident = from_json(item["identity"])
                ident = Identity(ident.n, ident.flavor, frozenset(
                    shared.setdefault(c, c) for c in ident.classes), ident.domain)
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
        if ident in entries:
            raise UsageError(f"catalog entry {i} repeats an earlier entry")
        entries[ident] = CatalogEntry(ident, tuple(trace))
    return Catalog(max_n, flavor, entries)
