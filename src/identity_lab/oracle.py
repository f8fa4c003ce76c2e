"""Finite-coloring laboratory.

Builds concrete pair colorings (minimum-revealing, split-prefix on binary
strings, constant, seeded random, and products of colorings) and answers
realization questions by exhaustive search: which identities does a
coloring realize, and does every coloring of a given small ground set
realize a given identity.

Every search here is exhaustive and single-threaded by contract; guards
raise instead of subsampling, because these functions are ground truth for
the package.  Realization and arrow questions run ``core.first_injection``
under its SEARCH_GUARD node budget, arrow over restricted-growth colorings.
The unordered identity list is the canonical closure of the ordered one.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field

from .closure import GENERATION_BOUND, canonical_forms
from .core import (
    SEARCH_GUARD,
    Identity,
    _check_valid,
    _dump,
    check_ground,
    check_ground_exponent,
    check_size,
    elems_of,
    first_injection,
    size_text,
    to_json,
)
from .errors import SizeGuardError, UsageError
from .families import meet

ID_OF_OUTPUT_CAP = 200_000


@dataclass
class Coloring:
    """A color table on the pairs (and optionally vertices) of 0..N-1.

    ``table`` maps sorted element tuples to dense color ids; ``meta``
    optionally carries labels and color-decode side tables for structured
    colorings.
    """

    n_ground: int
    arity: int
    table: dict
    num_colors: int
    meta: dict = field(default_factory=dict)

    def pair(self, i: int, j: int) -> int:
        return self.table[(i, j) if i < j else (j, i)]


def _pairs(n: int):
    return itertools.combinations(range(n), 2)


def _validate_coloring(c: Coloring):
    if c.arity > 2:
        raise UsageError(f"supported arities are 1 and 2, got {size_text(c.arity)}")
    if c.arity >= 2:
        for p in _pairs(c.n_ground):
            if p not in c.table:
                raise UsageError(f"coloring misses pair {p}")
    for key in c.table:
        if not (
            len(key) == 1 and 0 <= key[0] < c.n_ground
            or len(key) == 2 and 0 <= key[0] < key[1] < c.n_ground
        ):
            raise UsageError(
                f"table key {key} is neither an element nor an increasing "
                f"pair of 0..{c.n_ground - 1}"
            )


def _int_param(d: dict, name, least=1) -> int:
    """d[name], which must be a JSON integer of at least ``least`` (any int
    if None): int() would read 3.9, "3" and true as some other coloring."""
    if name not in d:
        raise UsageError(f"coloring needs {name!r}")
    check_size(d[name], f"coloring {name!r}", least)
    return d[name]


_TABLE_KEY = re.compile(r"(0|[1-9][0-9]*)(?:,(0|[1-9][0-9]*))?")


def _table_key(text) -> tuple:
    """Elements of a table key, which must read "i" or "i,j" in canonical
    decimals as coloring_to_json writes it, so each key has one spelling."""
    match = _TABLE_KEY.fullmatch(text) if isinstance(text, str) else None
    try:  # int() refuses a literal past its digit limit
        if match:
            return tuple(int(p) for p in match.groups() if p is not None)
    except ValueError:
        pass
    raise UsageError(f'table key {text!r} is not "i" or "i,j" in canonical decimals')


def builtin_coloring(kind: str, /, **params) -> Coloring:
    """Construct one of the named colorings.

    min_pair(n):          color of {a, b} is min(a, b).
    sierpinski_meet:      ground set = binary strings (default all strings
                          of length ``len``) in lexicographic order; the
                          color of a pair records the unordered pair of
                          one-past-the-meet prefixes together with the
                          order-agreement bit, packed densely with a decode
                          side table in meta.
    constant(n):          one color everywhere.
    random(n, colors, seed): uniform per pair, reproducible; seed required.
    """
    if kind in ("min_pair", "constant", "random"):
        n = _int_param(params, "n", 1 if kind == "constant" else 2)
        check_ground(n)
    if kind == "min_pair":
        table = {(i, j): i for i, j in _pairs(n)}
        return Coloring(n, 2, table, n - 1)
    if kind == "sierpinski_meet":
        strings = params.get("strings")
        if strings is None:
            length = _int_param(params, "len")
            check_ground_exponent(length, f"sierpinski_meet len={size_text(length)}")
            strings = ["".join(b) for b in itertools.product("01", repeat=length)]
        elif not isinstance(strings, (list, tuple)) or not all(
            isinstance(x, str) for x in strings
        ):
            raise UsageError("sierpinski_meet strings must be a list of strings")
        strings = list(strings)
        if not strings:
            raise UsageError("sierpinski_meet needs at least one string")
        if len(set(strings)) != len(strings):
            raise UsageError("sierpinski_meet strings must be distinct")
        check_ground(len(strings))
        strings.sort()
        raw = {}
        for i, j in _pairs(len(strings)):
            x, y = strings[i], strings[j]
            eps = len(meet(x, y))
            prefixes = tuple(sorted((x[: eps + 1], y[: eps + 1])))
            raw[(i, j)] = (prefixes, (x < y) == (i < j))
        return _packed(
            len(strings), raw,
            lambda key: {"prefixes": list(key[0]), "agree": key[1]},
            {"labels": strings},
        )
    if kind == "constant":
        return Coloring(n, 2, {p: 0 for p in _pairs(n)}, 1)
    if kind == "random":
        if "seed" not in params:
            raise UsageError("random coloring requires an explicit seed")
        colors = _int_param(params, "colors")
        rng = random.Random(_int_param(params, "seed", None))
        table = {p: rng.randrange(colors) for p in _pairs(n)}
        return Coloring(n, 2, table, colors)
    raise UsageError(f"unknown builtin coloring {kind!r}")


def _packed(n: int, raw: dict, describe, meta: dict) -> Coloring:
    """Pair coloring with the values of ``raw`` numbered densely by first
    occurrence; ``meta["decode"]`` maps each number to ``describe(value)``."""
    ids = {}
    table = {p: ids.setdefault(v, len(ids)) for p, v in raw.items()}
    decode = {i: describe(v) for v, i in ids.items()}
    return Coloring(n, 2, table, len(ids), {**meta, "decode": decode})


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Compose two pair colorings into their product.

    The color of a pair is the (c1, c2) value pair, packed into dense ids
    by first occurrence over the sorted pair list; meta keeps the decode
    table.
    """
    if c1.n_ground != c2.n_ground:
        raise UsageError("product needs colorings on the same ground set")
    raw = {p: (c1.table[p], c2.table[p]) for p in _pairs(c1.n_ground)}
    return _packed(c1.n_ground, raw, list, {})


@dataclass(frozen=True)
class Realization:
    """A witness injection plus the color each class landed on."""

    embedding: tuple
    ordered: bool
    pulled_colors: tuple  # color per stored class, class_list order


def _stored_pair_classes(s: Identity):
    _check_valid(s)
    if s.flavor != "pairs":
        raise UsageError(
            f"realization search needs a pairs identity, got {s.flavor!r}"
        )
    return [[elems_of(b) for b in cl] for cl in s.class_list()]


def _class_checks(classes, n: int, col, by, colored):
    """``first_injection`` checks making each class monochromatic under the
    pair colors ``col[x][y]``, as masks of allowed targets: ``by[x][v]``
    holds the targets y with ``col[x][y] == v`` and ``colored[x]`` those
    with a color at all (arrow's partial colorings leave pairs uncolored,
    and an uncolored pair matches nothing).  With its pairs sorted by
    larger element, a class's first pair (a0, b0) must be colored, and
    each later pair (a, b) must match it: at depth b > b0 that allows
    ``by[h[a]][col[h[a0]][h[b0]]]``, and at b == b0 the targets that h[a]
    and h[a0] see in equal colors."""
    checks = [[] for _ in range(n)]
    for cl in classes:
        (a0, b0), *rest = sorted(cl, key=max)
        checks[b0].append(lambda h, a0=a0: colored[h[a0]])
        for a, b in rest:
            if b == b0:
                checks[b].append(lambda h, a=a, a0=a0: _equal_colors(by[h[a]], by[h[a0]]))
            else:
                checks[b].append(lambda h, a=a, a0=a0, b0=b0:
                                 by[h[a]].get(col[h[a0]][h[b0]], 0))
    return checks


def _equal_colors(bx: dict, by: dict) -> int:
    """Targets that two vertices, with per-color masks bx and by, see in one color."""
    same = 0
    for v, m in bx.items():
        same |= m & by.get(v, 0)
    return same


def _flip_pair(by, colored, x: int, y: int, v: int) -> None:
    """Toggle pair (x, y) in color v's masks: color it, or uncolor it."""
    by[x][v] = by[x].get(v, 0) ^ 1 << y
    by[y][v] = by[y].get(v, 0) ^ 1 << x
    colored[x] ^= 1 << y
    colored[y] ^= 1 << x


def realizes(c: Coloring, s: Identity, ordered: bool = False):
    """First injection (lex order) forcing equal colors on every class, or
    None.  One ``first_injection`` search (increasing maps when ordered)
    checks each pair of a class against the class's first pair, picking
    candidates from per-vertex color masks.
    """
    classes = _stored_pair_classes(s)
    if s.n > c.n_ground:
        raise UsageError(
            f"identity on {s.n} elements cannot embed in ground {c.n_ground}"
        )
    if c.arity < 2:
        raise UsageError("realization needs a pair layer in the coloring")
    n = c.n_ground
    col, by, colored = [[None] * n for _ in range(n)], [{} for _ in range(n)], [0] * n
    for x, y in _pairs(n):
        col[x][y] = col[y][x] = c.table[(x, y)]
        _flip_pair(by, colored, x, y, col[x][y])
    h = first_injection(s.n, n, ordered, _class_checks(classes, s.n, col, by, colored))
    return None if h is None else Realization(
        h, ordered, tuple(col[h[a]][h[b]] for (a, b), *_ in classes))


# Bell(0..15): a block of m pairs has Bell(m) refinements.  No block indexes
# past the table: up to size 6 a block has at most C(6, 2) = 15 pairs.  At
# size k >= 7 the points of a block of m pairs touch 2m pair ends, so one
# point touches at most 2m/k of them, and dropping it leaves a (k-1)-subset
# whose induced block keeps at least m(k-2)/k >= 5m/7 pairs.  A block of
# 15 or more pairs at size k would thus follow one of 11 or more at size
# k - 1, which the scan, going up by size, has already refused:
# Bell(11) = 678,570 is over ID_OF_OUTPUT_CAP.
_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570,
         4213597, 27644437, 190899322, 1382958545]


def id_of(c: Coloring, max_size: int, ordered: bool = False):
    """Every identity of size <= max_size realized in the coloring.

    An identity is realized when some injection makes each of its classes
    monochromatic; equivalently its relation refines the color partition
    induced by some injection: its classes are disjoint and all lie in
    blocks of one induced partition.  Those relations are closed under
    taking subsets, so one depth-first walk per size lists each once, in
    order (``_ordered_relations``).  Ordered mode returns exact patterns
    over increasing injections, sorted by ``encoding``.  Unordered mode
    returns the canonical forms of the ordered result: an arbitrary
    injection is an increasing one followed by a relabeling, so both
    describe the same isomorphism classes (``closure.canonical_forms``).
    The result is duplicate-free and sorted by ``encoding``.

    Hard guards, each counted before the work it bounds: the partition
    scan's pair lookups, the sum over sizes k of C(N, k) * C(k, 2) on N
    points, at most SEARCH_GUARD; for each size, the refinement expansion
    of the ordered enumeration (the product of Bell numbers of the block
    sizes, charged as each distinct induced partition is found) at most
    ID_OF_OUTPUT_CAP in both modes, every size before any is expanded;
    and, unordered, identities of at most GENERATION_BOUND elements, the
    bound of the relabeling tables, checked before the scan.  Exceeding a
    cap is an error, never a truncation.
    """
    if not ordered:
        check_size(max_size, "id_of max_size")
        if min(max_size, c.n_ground) > GENERATION_BOUND:
            raise SizeGuardError(
                f"unordered id_of relabels identities of at most "
                f"{GENERATION_BOUND} elements, got max_size {size_text(max_size)} on "
                f"{c.n_ground} points"
            )
    found = [Identity(k, "pairs", frozenset(classes[i] for i in r))
             for k, classes, _, relations in _ordered_relations(c, max_size)
             for r in relations]
    return found if ordered else canonical_forms(found)


def _id_of_texts(c: Coloring, max_size: int, ordered: bool) -> list:
    """``_dump(to_json(s))`` for each identity of ``id_of``, in its order.

    Ordered mode builds no identity: the relation walk lists each
    identity's text itself, built from the JSON texts of its classes,
    rendered once per size, in the sorted-key layout of ``_dump``
    (classes < flavor < n).
    """
    if not ordered:
        return [_dump(to_json(s)) for s in id_of(c, max_size)]
    return [text for *_, relations in _ordered_relations(c, max_size, texts=True)
            for text in relations]


def _ordered_relations(c: Coloring, max_size: int, texts: bool = False) -> list:
    """The ordered enumeration behind ``id_of``, one entry per size k:
    ``(k, classes, class_texts, relations)``.

    ``classes`` holds the size's distinct pair classes (frozensets of pair
    masks: every subset of two or more pairs of a distinct induced block)
    in element-tuple order, ``class_texts`` the compact JSON text of each,
    and ``relations`` one entry per identity, in ``encoding`` order: the
    increasing tuple of its class numbers, or with ``texts`` its
    ``_dump(to_json(s))``.  The guards count every size before
    ``_walk_relations`` lists any.
    """
    check_size(max_size, "id_of max_size")
    if c.arity < 2:
        raise UsageError("id_of needs a pair layer in the coloring")
    sizes = range(1, min(max_size, c.n_ground) + 1)
    lookups = sum(math.comb(c.n_ground, k) * math.comb(k, 2) for k in sizes)
    if lookups > SEARCH_GUARD:
        raise SizeGuardError(f"the partition scan on {c.n_ground} points makes "
                             f"{lookups} pair lookups, over SEARCH_GUARD ({SEARCH_GUARD})")
    induced = []  # every size is counted against the cap before any expands
    for k in sizes:
        kp = list(_pairs(k))
        partitions, work = set(), 0
        for h in itertools.combinations(range(c.n_ground), k):
            by = {}
            for a, b in kp:
                # h is increasing, so (h[a], h[b]) is already a sorted key
                v = c.table[(h[a], h[b])]
                by.setdefault(v, []).append((1 << a) | (1 << b))
            part = frozenset(frozenset(v) for v in by.values())
            if part in partitions:
                continue
            partitions.add(part)
            charge = math.prod(_BELL[len(b)] for b in part)
            work += charge
            if work > ID_OF_OUTPUT_CAP:
                raise SizeGuardError(
                    f"refinement expansion at size {k} reaches {work} "
                    f"identities at distinct induced partition "
                    f"{len(partitions)}, which adds {charge}, over the output "
                    f"cap {ID_OF_OUTPUT_CAP}; narrow max_size or the coloring"
                )
        induced.append((k, partitions))
    return [(k, *_walk_relations(partitions, k if texts else None))
            for k, partitions in induced]


def _walk_relations(partitions, k=None) -> tuple:
    """``(classes, class_texts, relations)`` of one size from its distinct
    induced partitions; ``relations`` holds tuples of class numbers, or,
    given the size ``k``, the identity texts.

    The classes are the subsets of two or more pairs of each distinct
    block, numbered in element-tuple order.  Each class carries the
    classes disjoint from it and ``fit``, the bitmask of partitions with a
    block that holds it.  A relation is a set of pairwise-disjoint classes
    fitting one common partition, so relations are closed under subsets:
    a depth-first walk that extends a relation only by higher-numbered
    candidates lists each exactly once, in preorder, which is sorted order.
    The candidates are one bitmask, narrowed by the classes disjoint from
    the one added and, when the common partitions shrink, by the classes
    that fit one of them (memoized per partition set).  A class that fits
    a partition fits every coarser one, so every ``fit`` is closed under
    coarsening and the classes fitting one of a set of partitions are
    those fitting one of its coarsest: the walk tracks the common
    partitions among the coarsest of the size (``top``, those no other
    one coarsens) only, and ORs fewer masks.  The stack is
    explicit (a nested recursive walk would be a reference cycle holding
    these tables).  A frame carries its relation's prefix and the pieces
    that extend it by one class: for tuples the prefix is the tuple and
    every piece a shared one-number tuple, so every relation holds the same
    class-number ints (those above 256 are not cached by Python); for
    texts the prefix is the identity text up to its last class, a root
    child adds the class text and a deeper one a comma and the class text,
    and each listed relation is its prefix plus the closing tail.
    """
    partitions = list(partitions)
    in_parts, keys = {}, {}  # block -> partitions holding it; class -> key
    for p, part in enumerate(partitions):
        for b in part:
            in_parts[b] = in_parts.get(b, 0) | 1 << p
    block_classes = {}
    for b in in_parts:
        pairs = sorted(b, key=elems_of)
        block_classes[b] = [frozenset(cl)
                            for r in range(2, len(pairs) + 1)
                            for cl in itertools.combinations(pairs, r)]
        for cl in block_classes[b]:
            keys.setdefault(cl, tuple(sorted(map(elems_of, cl))))
    classes = sorted(keys, key=keys.get)
    number = {cl: i for i, cl in enumerate(classes)}
    fit, held = [0] * len(classes), {}  # block -> classes it holds
    for b, ps in in_parts.items():
        held[b] = 0
        for cl in block_classes[b]:
            i = number[cl]
            fit[i] |= ps
            held[b] |= 1 << i
    fits = [0] * len(partitions)  # partition -> classes fitting it
    top = 0  # partitions that no other one coarsens
    for p, part in enumerate(partitions):
        coarser = -1
        for b in part:
            fits[p] |= held[b]
            if len(b) > 1:  # a block of two or more pairs is itself a class
                coarser &= fit[number[b]]
        if coarser == 1 << p:
            top |= 1 << p
    every = (1 << len(classes)) - 1
    touching = {}  # pair -> classes holding it
    for i, cl in enumerate(classes):
        for m in cl:
            touching[m] = touching.get(m, 0) | 1 << i
    disjoint = []
    for cl in classes:
        hit = 0
        for m in cl:
            hit |= touching[m]
        disjoint.append(every & ~hit)
    fitting = {}  # partition set -> classes fitting one of its partitions
    class_texts = [_dump(keys[cl]) for cl in classes]
    if k is None:
        head = tail = ()
        first = later = [(i,) for i in range(len(classes))]  # shared class-number ints
    else:
        head, tail = '{"classes":[', '],"flavor":"pairs","n":' + str(k) + "}"
        first, later = class_texts, ["," + t for t in class_texts]
    relations = [head + tail]
    # one frame per relation still extending: (prefix, pieces, common, candidates)
    stack = [(head, first, top, every)] if every else []
    while stack:
        rel, pieces, common, cand = stack.pop()
        low = cand & -cand
        j = low.bit_length() - 1
        cand ^= low
        if cand:
            stack.append((rel, pieces, common, cand))
            cand &= disjoint[j]
        rel += pieces[j]
        relations.append(rel + tail)
        if cand:
            narrowed = common & fit[j]
            if narrowed != common:
                if narrowed not in fitting:
                    fitting[narrowed] = _union_at(fits, narrowed)
                cand &= fitting[narrowed]
            if cand:
                stack.append((rel, later, narrowed, cand))
    return classes, class_texts, relations


def _union_at(masks: list, bits: int) -> int:
    """The OR of ``masks[i]`` over the set bits i of ``bits``."""
    union = 0
    while bits:
        low = bits & -bits
        union |= masks[low.bit_length() - 1]
        bits ^= low
    return union


def arrow_check(N: int, s: Identity, num_colors: int) -> bool:
    """True iff every pair coloring of 0..N-1 with the given palette
    realizes the identity (unordered).

    Backtracks over the pairs in colex order (the first C(k,2) are K_k),
    using color v only after v-1 (restricted growth: realization ignores
    color names).  Each node runs ``first_injection`` on the partial
    coloring: coloring or uncoloring a pair flips its two bits in the
    per-vertex color masks of ``_class_checks``, and an uncolored pair is
    in no mask, so it matches nothing.  The masks have an entry only for
    colors in use, never one per palette color.  A hit settles the
    subtree, a full coloring without one answers False.  All searches
    share one SEARCH_GUARD node budget: by R(3,3) = 6 the 2-colored
    triangle is False at N = 5 and True from 6 on; 3-colored, it is False
    up to 10 and refused at 11.  N is checked against GROUND_BOUND before
    the pair list and color table are built."""
    check_size(N, "arrow_check N")
    check_size(num_colors, "arrow_check num_colors")
    check_ground(N)
    classes = _stored_pair_classes(s)
    if s.n > N:
        return False
    pairs = [(x, y) for y in range(N) for x in range(y)]
    col, by, colored = [[None] * N for _ in range(N)], [{} for _ in range(N)], [0] * N
    checks = _class_checks(classes, s.n, col, by, colored)
    budget = [SEARCH_GUARD]

    def forced(k, used):
        # every completion of pairs[:k] realizes s; the budget bounds the depth
        if first_injection(s.n, N, False, checks, budget) is not None:
            return True
        if k == len(pairs):
            return False
        x, y = pairs[k]
        for v in range(min(used + 1, num_colors)):
            col[x][y] = col[y][x] = v
            _flip_pair(by, colored, x, y, v)
            if not forced(k + 1, max(used, v + 1)):
                return False
            _flip_pair(by, colored, x, y, v)
        col[x][y] = col[y][x] = None
        return True

    return forced(0, 0)


def normalize_vertex_colors(c: Coloring) -> Coloring:
    """Collapse the vertex layer to one constant color.

    Pair entries are kept byte-identical; a coloring without vertex
    entries comes back unchanged.
    """
    if c.arity < 1:
        raise UsageError("normalization needs arity >= 1")
    if not any(len(k) == 1 for k in c.table):
        return c
    table = {
        k: (0 if len(k) == 1 else v) for k, v in c.table.items()
    }
    return Coloring(c.n_ground, c.arity, table, c.num_colors, dict(c.meta))


def coloring_to_json(c: Coloring) -> dict:
    """Serialize to the interchange dict with string-keyed table."""
    return {
        "n": c.n_ground,
        "arity": c.arity,
        "table": {
            ",".join(map(str, k)): v
            for k, v in sorted(c.table.items())
        },
    }


def coloring_from_json(d: dict) -> Coloring:
    """Parse either a literal table or a builtin descriptor."""
    if not isinstance(d, dict):
        raise UsageError("coloring JSON must be an object")
    if "builtin" in d:
        kind = d["builtin"]
        params = {k: v for k, v in d.items() if k != "builtin"}
        return builtin_coloring(kind, **params)
    n, arity, table = _int_param(d, "n"), _int_param(d, "arity"), d.get("table")
    if not isinstance(table, dict):
        raise UsageError(f"coloring table must be an object, got {type(table).__name__}")
    table = {_table_key(k): _int_param(table, k, 0) for k in table}
    check_ground(n)
    num = max(table.values(), default=-1) + 1
    c = Coloring(n, arity, table, max(num, 1))
    _validate_coloring(c)
    return c
