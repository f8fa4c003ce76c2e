"""Brute-force ground truth: colorings, realization search, arrow checks."""

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    SizeGuardError,
    UsageError,
    arrow_check,
    builtin_coloring,
    catalog_from_json,
    check,
    coloring_from_json,
    coloring_to_json,
    duplicate,
    embeds,
    explain,
    from_json,
    generate_catalog,
    id_of,
    max_meet_identity,
    is_meet_respecting,
    LabeledIdentity,
    normalize_vertex_colors,
    permute,
    product_coloring,
    realizes,
    restrict,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    simplify_k,
    to_json,
    trivial,
    trivial_full,
    validate,
)
from identity_lab.core import (
    Identity,
    _dump,
    canonical_form,
    elems_of,
    encoding,
    identity_from_subsets,
    mask_of,
)
from identity_lab import closure, oracle
from identity_lab.closure import canonical_forms
from identity_lab.oracle import Coloring, Realization, _id_of_texts
from test_core import reference_first_injection, shared_budget


def _set_partitions(items):
    """Every partition of a list into blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def brute_realizes(c, s, ordered):
    """Slow oracle for ``realizes``: scan every injection (increasing ones
    when ordered) in lex order; the first one making each class
    monochromatic is the witness."""
    classes = [[elems_of(b) for b in cl] for cl in s.class_list()]
    gen = (itertools.combinations if ordered else itertools.permutations)(
        range(c.n_ground), s.n
    )
    for h in gen:
        colors = [{c.pair(h[a], h[b]) for a, b in cl} for cl in classes]
        if all(len(v) == 1 for v in colors):
            return Realization(h, ordered, tuple(v.pop() for v in colors))
    return None


def brute_arrow(N, s, num_colors):
    """Slow oracle for ``arrow_check``: every coloring of the pairs of
    0..N-1, each scanned against the pair slots of every injection."""
    if s.n > N:
        return False
    index = {p: i for i, p in enumerate(itertools.combinations(range(N), 2))}
    classes = [[elems_of(b) for b in cl] for cl in s.class_list()]
    slot_sets = [
        [[index[tuple(sorted((h[a], h[b])))] for a, b in cl] for cl in classes]
        for h in itertools.permutations(range(N), s.n)
    ]
    for colors in itertools.product(range(num_colors), repeat=len(index)):
        if not any(
            all(len({colors[i] for i in cl}) == 1 for cl in slots)
            for slots in slot_sets
        ):
            return False
    return True


def reference_class_checks(classes, n, col):
    """Per-candidate predicates making each class monochromatic: a class's
    first pair (by larger element) must be colored (>= 0) and each later
    pair must match it, each at its own depth."""
    checks = [[] for _ in range(n)]
    for cl in classes:
        (a0, b0), *rest = sorted(cl, key=max)
        checks[b0].append(lambda h, a0=a0, b0=b0: col[h[a0]][h[b0]] >= 0)
        for a, b in rest:
            checks[b].append(lambda h, a=a, b=b, a0=a0, b0=b0:
                             col[h[a]][h[b]] == col[h[a0]][h[b0]])
    return checks


def reference_realizes(c, s, ordered, budget):
    """``realizes`` as one ``reference_first_injection`` search."""
    classes = [[elems_of(b) for b in cl] for cl in s.class_list()]
    ground = range(c.n_ground)
    col = [[c.pair(x, y) if x != y else None for y in ground] for x in ground]
    h = reference_first_injection(s.n, c.n_ground, ordered,
                                  reference_class_checks(classes, s.n, col), budget)
    return None if h is None else Realization(
        h, ordered, tuple(col[h[a]][h[b]] for (a, b), *_ in classes))


def reference_arrow_check(N, s, num_colors, budget):
    """``arrow_check`` with every search a ``reference_first_injection``
    on ``budget``, each uncolored pair carrying its own negative color."""
    if s.n > N:
        return False
    classes = [[elems_of(b) for b in cl] for cl in s.class_list()]
    pairs = [(x, y) for y in range(N) for x in range(y)]
    col = [[0] * N for _ in range(N)]
    for k, (x, y) in enumerate(pairs):
        col[x][y] = col[y][x] = -1 - k
    checks = reference_class_checks(classes, s.n, col)

    def forced(k, used):
        if reference_first_injection(s.n, N, False, checks, budget) is not None:
            return True
        if k == len(pairs):
            return False
        x, y = pairs[k]
        for v in range(min(used + 1, num_colors)):
            col[x][y] = col[y][x] = v
            if not forced(k + 1, max(used, v + 1)):
                return False
        col[x][y] = col[y][x] = -1 - k
        return True

    return forced(0, 0)


def random_pattern(rng, k, labels):
    """A pairs identity on k elements: each pair draws one of ``labels``
    class labels."""
    by = {}
    for p in itertools.combinations(range(k), 2):
        by.setdefault(rng.randrange(labels), []).append(list(p))
    return identity_from_subsets(k, "pairs", list(by.values()))


def increasing_partitions(c, k):
    """The distinct color partitions of the pair masks of 0..k-1 that the
    increasing injections into the coloring induce."""
    slots = list(itertools.combinations(range(k), 2))
    partitions = set()
    for h in itertools.combinations(range(c.n_ground), k):
        by = {}
        for a, b in slots:
            by.setdefault(c.pair(h[a], h[b]), []).append(mask_of((a, b)))
        partitions.add(frozenset(frozenset(v) for v in by.values()))
    return partitions


def reference_ordered_id_of(c, max_size):
    """Slow oracle for ordered ``id_of``: the plain expansion loop, one
    ``Identity`` per refinement of each induced partition, duplicates
    left to the set."""
    found = set()
    for k in range(1, min(max_size, c.n_ground) + 1):
        for part in increasing_partitions(c, k):
            blocks = [sorted(b) for b in part]
            per_block = [list(_set_partitions(b)) for b in blocks]
            for combo in itertools.product(*per_block):
                classes = frozenset(
                    frozenset(piece)
                    for sub in combo
                    for piece in sub
                    if len(piece) >= 2
                )
                found.add(Identity(k, "pairs", classes))
    return sorted(found, key=encoding)


def reference_ordered_relations(c, max_size):
    """Slow oracle for ``oracle._ordered_relations``: per size, the product
    of every induced partition's refinement rows (each distinct block's set
    partitions, pieces of two or more pairs), each combination sorted into
    a tuple of class numbers, deduplicated by a set and sorted."""
    sizes = []
    for k in range(1, min(max_size, c.n_ground) + 1):
        partitions = increasing_partitions(c, k)
        rows = {b: [[cl for cl in map(frozenset, sub) if len(cl) >= 2]
                    for sub in _set_partitions(sorted(b))]
                for b in set().union(*partitions)}
        keys = {cl: tuple(sorted(map(elems_of, cl)))
                for block in rows.values() for row in block for cl in row}
        classes = sorted(keys, key=keys.get)
        number = {cl: i for i, cl in enumerate(classes)}
        relations = {tuple(sorted(number[cl] for row in combo for cl in row))
                     for part in partitions
                     for combo in itertools.product(*map(rows.get, part))}
        sizes.append((k, classes, [_dump(keys[cl]) for cl in classes],
                      sorted(relations)))
    return sizes


def brute_unordered_id_of(c, max_size):
    """Slow oracle for unordered ``id_of``, from the definition.

    Scans every injection (not only the increasing ones that ``id_of``
    enumerates), takes the color partition it induces on the pair slots,
    expands every refinement of that partition, and keeps the canonical
    form of each resulting identity.  Sorted like ``id_of``.
    """
    found = set()
    for k in range(1, min(max_size, c.n_ground) + 1):
        slots = list(itertools.combinations(range(k), 2))
        partitions = set()
        for h in itertools.permutations(range(c.n_ground), k):
            by = {}
            for a, b in slots:
                by.setdefault(c.pair(h[a], h[b]), []).append(mask_of((a, b)))
            partitions.add(frozenset(frozenset(v) for v in by.values()))
        for part in partitions:
            per_block = [list(_set_partitions(sorted(b))) for b in part]
            for combo in itertools.product(*per_block):
                classes = frozenset(
                    frozenset(piece)
                    for sub in combo
                    for piece in sub
                    if len(piece) >= 2
                )
                found.add(canonical_form(Identity(k, "pairs", classes))[0])
    return sorted(found, key=encoding)


def test_min_pair_colors_by_smaller_endpoint():
    c = builtin_coloring("min_pair", n=5)
    assert c.table[(1, 4)] == 1 and c.table[(0, 2)] == 0
    assert c.num_colors == 4


def test_random_coloring_requires_seed():
    with pytest.raises(UsageError):
        builtin_coloring("random", n=5, colors=2)
    c1 = builtin_coloring("random", n=5, colors=2, seed=9)
    c2 = builtin_coloring("random", n=5, colors=2, seed=9)
    assert c1.table == c2.table


def test_unknown_builtin_rejected():
    with pytest.raises(UsageError):
        builtin_coloring("nope", n=3)


def test_sierpinski_meet_color_count():
    c = builtin_coloring("sierpinski_meet", len=3)
    assert c.n_ground == 8
    assert c.num_colors == 7
    # decode table inverts the dense ids
    assert set(c.meta["decode"]) == set(range(7))
    # up to the ground bound: 2^len strings, 2^len - 1 colors
    for length in (5, 6):
        c = builtin_coloring("sierpinski_meet", len=length)
        assert (c.n_ground, c.num_colors) == (2 ** length, 2 ** length - 1)


def test_realizes_returns_lex_least_witness():
    c = builtin_coloring("min_pair", n=6)
    r = realizes(c, trivial(3), ordered=True)
    assert r is not None and r.embedding == (0, 1, 2)


def test_realizes_finds_nothing_for_splitting_family():
    c = builtin_coloring("min_pair", n=8)
    assert realizes(c, s_k(3), ordered=False) is None


def test_realizes_reports_class_colors():
    c = builtin_coloring("min_pair", n=6)
    s = identity_from_subsets(3, "pairs", [[[0, 1], [0, 2]]])
    r = realizes(c, s, ordered=True)
    assert r is not None
    assert len(r.pulled_colors) == 1
    a, b = r.embedding[0], r.embedding[1]
    assert r.pulled_colors[0] == min(a, b)


def test_ordered_realization_is_harder():
    # any ordered witness also serves unordered
    c = builtin_coloring("random", n=6, colors=2, seed=3)
    s = identity_from_subsets(3, "pairs", [[[0, 1], [1, 2]]])
    ro = realizes(c, s, ordered=True)
    if ro is not None:
        assert realizes(c, s, ordered=False) is not None


def test_sierpinski_realizes_the_meet_pattern_in_place():
    c = builtin_coloring("sierpinski_meet", len=3)
    lab = max_meet_identity(3)
    r = realizes(c, lab.base, ordered=True)
    assert r is not None and r.embedding == tuple(range(8))


def test_min_pair_forces_common_smaller_endpoint():
    # equal colors on two pairs sharing an element force that element low
    c = builtin_coloring("min_pair", n=8)
    for a, b, g in itertools.permutations(range(8), 3):
        pab = c.table[(a, b) if a < b else (b, a)]
        pag = c.table[(a, g) if a < g else (g, a)]
        if pab == pag:
            assert a < b and a < g


def test_id_of_min_pair_small():
    c = builtin_coloring("min_pair", n=5)
    ids = id_of(c, 3)
    assert len(ids) == 4
    assert trivial(1) in ids and trivial(3) in ids
    fan = canonical_form(identity_from_subsets(3, "pairs", [[[0, 1], [0, 2]]]))[0]
    assert fan in ids


def test_id_of_is_monotone_in_size():
    c = builtin_coloring("random", n=6, colors=2, seed=11)
    small = set(id_of(c, 3))
    large = set(id_of(c, 4))
    assert small <= large


def test_restrictions_of_realized_identities_are_realized():
    c = builtin_coloring("random", n=6, colors=3, seed=5)
    for s in id_of(c, 4, ordered=True):
        if s.n < 2:
            continue
        for keep in itertools.combinations(range(s.n), s.n - 1):
            r = restrict(s, keep)
            assert realizes(c, r, ordered=True) is not None


def test_unordered_id_of_is_the_permutation_closure():
    c = builtin_coloring("random", n=5, colors=2, seed=21)
    assert id_of(c, 3, ordered=False) == brute_unordered_id_of(c, 3)


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_color_renaming_never_changes_realized_patterns(seed):
    c = builtin_coloring("random", n=5, colors=3, seed=seed)
    shift = {v: (v + 7) * 13 for v in range(c.num_colors)}
    renamed = Coloring(
        c.n_ground,
        2,
        {p: shift[v] for p, v in c.table.items()},
        max(shift.values()) + 1,
    )
    assert id_of(c, 3) == id_of(renamed, 3)


@pytest.mark.parametrize("n, colors, seed, max_size", [
    (5, 2, 3, 5), (6, 3, 7, 5), (7, 2, 1, 4), (7, 4, 2, 5), (8, 3, 9, 4),
])
def test_ordered_id_of_matches_the_expansion_loop(n, colors, seed, max_size):
    c = builtin_coloring("random", n=n, colors=colors, seed=seed)
    assert id_of(c, max_size, ordered=True) == reference_ordered_id_of(c, max_size)
    assert_walk_is_the_expansion(c, max_size)


def assert_walk_is_the_expansion(c, max_size):
    sizes = oracle._ordered_relations(c, max_size)
    reference = reference_ordered_relations(c, max_size)
    assert sizes == reference
    for _, _, _, relations in sizes:
        assert all(r < t for r, t in zip(relations, relations[1:]))
    # the text walk lists the class texts joined over the same tuples
    assert _id_of_texts(c, max_size, True) == [
        '{"classes":[' + ",".join(texts[i] for i in r) + '],"flavor":"pairs","n":' + str(k) + "}"
        for k, _, texts, relations in reference for r in relations]


@pytest.mark.parametrize("kind, params, max_size", [
    # one 10-pair block: Bell(10) = 115,975 refinements of 1,013 classes
    ("constant", {"n": 5}, 5),
    ("min_pair", {"n": 10}, 6),
    ("random", {"n": 10, "colors": 12, "seed": 1}, 6),
    ("random", {"n": 10, "colors": 20, "seed": 1}, 6),
])
def test_relation_walk_matches_the_expansion_on_wide_colorings(kind, params, max_size):
    assert_walk_is_the_expansion(builtin_coloring(kind, **params), max_size)


@st.composite
def small_colorings(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    colors = draw(st.integers(min_value=1, max_value=4))
    pairs = list(itertools.combinations(range(n), 2))
    table = dict(zip(pairs, draw(st.lists(
        st.integers(min_value=0, max_value=colors - 1),
        min_size=len(pairs), max_size=len(pairs)))))
    return Coloring(n, 2, table, colors)


# sizes up to 4 keep every expansion at Bell(6) = 203 refinements or fewer
@given(c=small_colorings(), max_size=st.integers(min_value=1, max_value=4))
def test_relation_walk_matches_the_expansion_on_small_colorings(c, max_size):
    assert_walk_is_the_expansion(c, max_size)


@pytest.mark.parametrize("n, colors, seed", [
    (5, 3, 2), (6, 3, 1), (7, 3, 4), (8, 4, 6),
])
def test_list_texts_are_the_rendered_identities(n, colors, seed):
    # the --list texts join class texts rendered once per size; the slow
    # renderer dumps each identity's to_json document
    c = builtin_coloring("random", n=n, colors=colors, seed=seed)
    ordered = id_of(c, 5, ordered=True)
    assert ordered == reference_ordered_id_of(c, 5)
    assert _id_of_texts(c, 5, True) == [_dump(to_json(s)) for s in ordered]
    assert _id_of_texts(c, 4, False) == [_dump(to_json(s)) for s in id_of(c, 4)]


def test_unordered_id_of_matches_brute_force_at_size_4():
    c = builtin_coloring("random", n=6, colors=2, seed=13)
    assert id_of(c, 4) == brute_unordered_id_of(c, 4)


def test_unordered_id_of_is_the_canonical_closure_at_size_5():
    # one canonical form per ordered identity, the cost the orbit walk saves
    c = builtin_coloring("random", n=5, colors=3, seed=13)
    ordered = id_of(c, 5, ordered=True)
    assert id_of(c, 5) == sorted(
        {canonical_form(s)[0] for s in ordered}, key=encoding
    )


def test_id_of_guards():
    # each guard error states the measured size next to the limit; no
    # limit on max_size itself: min_pair(5) has no identity above size 5
    c = builtin_coloring("min_pair", n=5)
    assert id_of(c, 7) == id_of(c, 5)
    assert id_of(c, 9, ordered=True) == id_of(c, 5, ordered=True)
    # the partition scan's pair lookups, sum of C(72, k) * C(k, 2) for
    # k <= 4, are counted before it
    with pytest.raises(SizeGuardError, match=r"makes 6354216 pair lookups, over SEARCH_GUARD"):
        id_of(builtin_coloring("min_pair", n=72), 4)
    # one 15-pair block at size 6: Bell(15) refinements, charged as the
    # first partition is found; size 7 is never reached, so no 21-pair
    # block indexes past the Bell table
    for n, ordered in itertools.product((6, 7), (True, False)):
        with pytest.raises(SizeGuardError, match=r"size 6 reaches 1382958545 .* partition 1, "
                                                 r"which adds 1382958545, .*cap 200000"):
            id_of(builtin_coloring("constant", n=n), n, ordered)
    strings = [format(i, "07b") for i in range(73)]
    with pytest.raises(SizeGuardError, match=r"ground size 73 exceeds the bound 72"):
        builtin_coloring("sierpinski_meet", strings=strings)
    with pytest.raises(SizeGuardError, match=r"len=7 needs at least 2\^7 points"):
        builtin_coloring("sierpinski_meet", len=7)


def test_id_of_charges_each_partition_as_it_is_found():
    # the refinement sum passes the cap within one partition's charge,
    # long before the scan would finish (11,646,622 over every partition)
    c = builtin_coloring("random", n=23, colors=15, seed=0)
    with pytest.raises(SizeGuardError) as err:
        id_of(c, 6, ordered=True)
    work, charge = map(int, re.search(r"size 6 reaches (\d+) .*adds (\d+),", str(err.value)).groups())
    assert work - charge <= oracle.ID_OF_OUTPUT_CAP < work < 11_646_622


def test_unordered_id_of_charges_each_orbit_walk(monkeypatch):
    # sum over sizes k of forms_k * k! = 1 + 2 + 3 * 6 + 24 * 24 + 1250 * 120
    c = builtin_coloring("random", n=9, colors=3, seed=0)
    found = id_of(c, 5, ordered=True)
    monkeypatch.setattr(closure, "SEARCH_GUARD", 150_597)
    assert len(canonical_forms(found)) == 1279
    monkeypatch.setattr(closure, "SEARCH_GUARD", 150_596)
    with pytest.raises(SizeGuardError, match=r"walked 1278 orbits in 150477 gathers, and "
                                             r"the next, at size 5, would add 120, over "
                                             r"SEARCH_GUARD \(150596\)"):
        canonical_forms(found)


def test_id_of_answers_past_size_6_within_the_counts(monkeypatch):
    c = builtin_coloring("random", n=9, colors=36, seed=0)
    assert len(id_of(c, 7, ordered=True)) == 1443
    assert len(id_of(c, 8, ordered=True)) == 4475
    # unordered forms need the relabeling tables, so size 8 is refused
    # before any scan starts
    monkeypatch.setattr(oracle, "_ordered_relations", None)
    with pytest.raises(SizeGuardError, match=r"at most 7 elements, got max_size 8 on 9 points"):
        id_of(c, 8)


MIN_PAIR5 = builtin_coloring("min_pair", n=5)


def _validated(n):
    """Raise what ``validate`` says of the empty identity on n points."""
    raise UsageError(validate(Identity(n, "pairs", frozenset())))


# One row per public size: (id template, name in the message, call of one
# size, least size, values that are not plain ints).  Each of those values,
# and each of least - 1, 0 and -3 below least, is refused in one shape.
SIZES = [
    ("trivial-{}", "trivial n", trivial, 1, (3.0, "3", True)),
    ("trivial_full-{}", "trivial_full n", trivial_full, 1, (2.0, True)),
    ("s_k-{}", "s_k k", s_k, 1, (3.0, "3", True)),
    ("s_prime_n-{}", "s_prime_n n", s_prime_n, 1, (2.0, True)),
    ("s_doubleprime_n-{}", "s_doubleprime_n n", s_doubleprime_n, 1, (1.0, True)),
    ("max_meet-{}", "max_meet_identity n_str", max_meet_identity, 1, (2.0, True)),
    ("simplify_k-{}", "simplify_k k", lambda k: simplify_k(trivial_full(3), k), 1,
     (1.5, True)),
    ("generate_catalog-{}", "catalog max_n", generate_catalog, 1, (6.0, True)),
    ("catalog_from_json-{}", "catalog max_n",
     lambda n: catalog_from_json({"max_n": n, "entries": []}), 1, (6.0, True)),
    ("duplicate-{}", "split point m", lambda m: duplicate(trivial(3), m), 0,
     (1.0, True)),
    ("from_json-{}", "identity n",
     lambda n: from_json({"n": n, "flavor": "pairs", "classes": []}), 1, (3.0, True)),
    ("validate-{}", "identity n", _validated, 1, (3.0, "3", True)),
    ("check-{}", "identity n", lambda n: check(Identity(n, "pairs", frozenset())), 1,
     (3.0, "3", True)),
    ("min_pair-{}", "coloring 'n'", lambda n: builtin_coloring("min_pair", n=n), 2,
     (4.0, True)),
    ("constant-{}", "coloring 'n'", lambda n: builtin_coloring("constant", n=n), 1,
     (4.0, True)),
    ("random-n-{}", "coloring 'n'",
     lambda n: builtin_coloring("random", n=n, colors=2, seed=0), 2, ("9", True)),
    ("random-colors-{}", "coloring 'colors'",
     lambda k: builtin_coloring("random", n=4, colors=k, seed=0), 1, (3.5, True)),
    ("sierpinski-len-{}", "coloring 'len'",
     lambda k: builtin_coloring("sierpinski_meet", len=k), 1, ("3", True)),
    ("coloring-n-{}", "coloring 'n'",
     lambda n: coloring_from_json({"n": n, "arity": 2, "table": {}}), 1, (3.9, True)),
    ("coloring-arity-{}", "coloring 'arity'",
     lambda a: coloring_from_json({"n": 2, "arity": a, "table": {"0,1": 0}}), 1,
     (2.0, True)),
    ("id_of-{}", "id_of max_size", lambda k: id_of(MIN_PAIR5, k), 1, (2.5, True)),
    ("id_of-{}-ordered", "id_of max_size", lambda k: id_of(MIN_PAIR5, k, ordered=True),
     1, (2.5, True)),
    ("arrow-N-{}", "arrow_check N", lambda n: arrow_check(n, TRIANGLE, 2), 1,
     (5.0, True)),
    ("arrow-colors-{}", "arrow_check num_colors",
     lambda k: arrow_check(5, TRIANGLE, k), 1, (2.0, True)),
]


@pytest.mark.parametrize("call,value,message", [
    pytest.param(call, value, f"{name} must be an integer >= {least}, got {value!r}",
                 id=template.format(repr(value)))
    for template, name, call, least, others in SIZES
    for value in others + tuple(v for v in sorted({least - 1, 0, -3}, reverse=True)
                                if v < least)
])
def test_sizes_must_be_plain_integers(call, value, message):
    # bool is an int subclass: True would read as size or palette 1, and a
    # float or a string would fail later with a TypeError
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call(value)


HUGE = 10**5000  # past Python's default 4,300-digit limit for str(int)


@pytest.mark.parametrize("call,error,shown", [
    pytest.param(lambda: trivial(HUGE), SizeGuardError, "an", id="trivial"),
    pytest.param(lambda: trivial(-HUGE), UsageError, "a negative", id="trivial-negative"),
    pytest.param(lambda: s_k(HUGE), SizeGuardError, "an", id="s_k"),
    pytest.param(lambda: s_prime_n(HUGE), SizeGuardError, "an", id="s_prime_n"),
    pytest.param(lambda: max_meet_identity(HUGE), SizeGuardError, "an", id="max_meet"),
    pytest.param(lambda: generate_catalog(HUGE), SizeGuardError, "an", id="catalog"),
    pytest.param(lambda: catalog_from_json({"max_n": HUGE, "entries": []}), UsageError,
                 "an", id="catalog_from_json"),
    pytest.param(lambda: duplicate(trivial(2), HUGE), UsageError, "an", id="duplicate"),
    pytest.param(lambda: from_json({"n": HUGE, "flavor": "pairs", "classes": []}),
                 SizeGuardError, "an", id="from_json"),
    pytest.param(lambda: builtin_coloring("min_pair", n=HUGE), SizeGuardError, "an",
                 id="min_pair"),
    pytest.param(lambda: arrow_check(HUGE, TRIANGLE, 2), SizeGuardError, "an", id="arrow"),
    # elements, element lists and the n of an Identity built directly
    pytest.param(lambda: restrict(trivial(3), [HUGE]), UsageError, "an", id="restrict"),
    pytest.param(lambda: restrict(trivial(3), -HUGE), UsageError, "a negative",
                 id="restrict-mask"),
    pytest.param(lambda: restrict(trivial(3), [HUGE, "0"]), UsageError, "an",
                 id="restrict-not-int"),
    pytest.param(lambda: restrict(Identity(HUGE, "pairs", frozenset()), [-1]), UsageError,
                 "an", id="restrict-ground"),
    pytest.param(lambda: permute(trivial(3), [HUGE, 0, 1]), UsageError, "an", id="permute"),
    pytest.param(lambda: permute(Identity(HUGE, "pairs", frozenset()), [0, 1, 2]),
                 UsageError, "an", id="permute-ground"),
    pytest.param(lambda: from_json({"n": 3, "flavor": "pairs", "classes": [[[0, HUGE]]]}),
                 UsageError, "an", id="from_json-subset"),
    pytest.param(lambda: from_json({"n": 3, "flavor": "pairs", "classes": [[[0, -HUGE]]]}),
                 UsageError, "a negative", id="from_json-negative"),
    pytest.param(lambda: closure.member_of_catalog(
        generate_catalog(2), Identity(HUGE, "pairs", frozenset())), SizeGuardError, "an",
        id="member"),
    pytest.param(lambda: canonical_form(Identity(HUGE, "pairs", frozenset())),
                 SizeGuardError, "an", id="canonical_form"),
    pytest.param(lambda: simplify_k(Identity(HUGE, "full", frozenset()), 1),
                 SizeGuardError, "an", id="simplify_k"),
    pytest.param(lambda: embeds(Identity(HUGE, "full", frozenset()), trivial_full(2)),
                 SizeGuardError, "an", id="embeds"),
    pytest.param(lambda: embeds(trivial(3), Identity(HUGE, "pairs", frozenset())),
                 SizeGuardError, "an", id="embeds-target"),
    pytest.param(lambda: id_of(builtin_coloring("min_pair", n=9), HUGE), SizeGuardError,
                 "an", id="id_of-unordered"),
])
def test_huge_sizes_are_refused_by_their_bit_length(call, error, shown):
    # str() of HUGE raises ValueError, so a refusal that printed the value
    # would crash in its own message; s_k and s_prime_n name their ground
    with pytest.raises(error, match=f"{shown} integer of [0-9]+ bits"):
        call()


@pytest.mark.parametrize("n", [73, HUGE], ids=["73", "huge"])
@pytest.mark.parametrize("call", [
    pytest.param(check, id="check"),
    pytest.param(lambda s: explain(check(trivial(3)), s), id="explain"),
    pytest.param(lambda s: realizes(builtin_coloring("constant", n=4), s), id="realizes"),
    pytest.param(lambda s: arrow_check(4, s, 2), id="arrow_check"),
    pytest.param(lambda s: duplicate(s, 0), id="duplicate"),
])
def test_identities_built_above_the_ground_bound_are_refused(call, n):
    # from_json refuses such a ground; an Identity built directly is held
    # to the same bound before any C(n,2) structure is built
    with pytest.raises(SizeGuardError, match="exceeds the bound 72"):
        call(Identity(n, "pairs", frozenset()))


def test_id_of_answers_grounds_within_the_scan_count():
    # the scan count, not a ground size, decides which grounds answer
    assert len(id_of(builtin_coloring("min_pair", n=12), 6, ordered=True)) == 7964
    for n in (20, 30):
        c = builtin_coloring("random", n=n, colors=3, seed=0)
        assert len(id_of(c, 4, ordered=True)) == 210, n
    assert len(id_of(builtin_coloring("min_pair", n=72), 3)) == 4


def test_arrow_check_frozen_example():
    path = identity_from_subsets(3, "pairs", [[[0, 1], [1, 2]]])
    assert arrow_check(3, path, 2) is True


def test_arrow_check_negative():
    # 3 colors on 3 elements: color all pairs differently, no merge possible
    s = identity_from_subsets(3, "pairs", [[[0, 1], [1, 2], [0, 2]]])
    assert arrow_check(3, s, 3) is False


TRIANGLE = identity_from_subsets(3, "pairs", [[[0, 1], [0, 2], [1, 2]]])
CHERRY = identity_from_subsets(3, "pairs", [[[0, 1], [0, 2]]])


def test_arrow_check_guard():
    # no class to make monochromatic: the first injection is a hit at the root
    assert arrow_check(6, trivial(3), 3) is True
    # every injection search of one call draws on one shared node budget
    with pytest.raises(SizeGuardError, match="2097152"):
        arrow_check(11, TRIANGLE, 3)  # R(3,3,3) = 17 is far out of reach


def test_arrow_check_sizes_masks_by_the_colors_used():
    # K4 has 6 pairs, so no coloring uses more than 6 of a billion colors
    assert arrow_check(4, TRIANGLE, 10**9) is arrow_check(4, TRIANGLE, 6) is False


def test_realizes_guard_counts_every_free_target():
    # refused at the same node and depth as the per-candidate search
    with pytest.raises(SizeGuardError, match=r"2097152 nodes\) at depth 5"):
        realizes(builtin_coloring("min_pair", n=16), s_k(4))


def test_arrow_check_refuses_ground_above_the_bound():
    triangle = identity_from_subsets(3, "pairs", [[[0, 1], [0, 2], [1, 2]]])
    with pytest.raises(SizeGuardError, match=r"ground size 73 exceeds the bound 72"):
        arrow_check(73, triangle, 2)
    for n in (0, -3):
        with pytest.raises(UsageError, match=r"arrow_check N must be an integer >= 1"):
            arrow_check(n, triangle, 2)


def test_arrow_check_ramsey_anchor():
    # R(3,3) = 6 (Greenwood & Gleason, 1955)
    assert [arrow_check(N, TRIANGLE, 2) for N in (5, 6, 7, 8, 9, 12)] == [
        False, True, True, True, True, True
    ]
    # R(3,3,3) = 17 (Greenwood & Gleason, 1955): below 17 points some
    # 3-coloring has no monochromatic triangle
    assert [arrow_check(N, TRIANGLE, 3) for N in (8, 9, 10)] == [False, False, False]
    # K5 has chromatic index 5, so 4 colors force two touching equal pairs
    assert arrow_check(5, CHERRY, 4) is True


def test_arrow_check_matches_brute_force(cat4):
    for N in range(1, 7):
        for colors in range(1, 7):
            if colors ** (N * (N - 1) // 2) > 1 << 16:
                continue
            for s in cat4.members():
                assert arrow_check(N, s, colors) == brute_arrow(N, s, colors), (
                    N, colors, to_json(s))


def test_realizes_spends_the_reference_search_budget(monkeypatch):
    # same witness and same nodes as the per-candidate search, on budgets
    # shared by every query
    budget, ref = shared_budget(monkeypatch, oracle), [1 << 40]
    rng = random.Random(13)
    colorings = [builtin_coloring("min_pair", n=n) for n in (6, 9, 12)]
    colorings += [builtin_coloring("sierpinski_meet", len=n) for n in (3, 4)]
    colorings += [builtin_coloring("random", n=rng.randint(6, 10),
                                   colors=rng.randint(1, 4), seed=seed)
                  for seed in range(8)]
    for c in colorings:
        patterns = [random_pattern(rng, rng.randint(3, 6), rng.randint(1, 4))
                    for _ in range(6)]
        h = rng.sample(range(c.n_ground), 5)  # a pattern c surely realizes
        by = {}
        for a, b in itertools.combinations(range(5), 2):
            by.setdefault(c.pair(h[a], h[b]), []).append([a, b])
        patterns += [identity_from_subsets(5, "pairs", list(by.values())), s_k(3)]
        for s in patterns:
            for ordered in (False, True):
                assert realizes(c, s, ordered) == reference_realizes(c, s, ordered, ref), (
                    coloring_to_json(c), to_json(s), ordered)
                assert budget == ref


def test_arrow_check_spends_the_reference_search_budget(cat4, monkeypatch):
    budget, ref = shared_budget(monkeypatch, oracle), [1 << 40]
    for N in range(1, 8):
        for colors in (1, 2, 3):
            for s in cat4.members():
                assert arrow_check(N, s, colors) == reference_arrow_check(N, s, colors, ref), (
                    N, colors, to_json(s))
                assert budget == ref


def test_realizes_matches_brute_force():
    # id_of of a constant coloring is every pairs pattern up to that size
    patterns = id_of(builtin_coloring("constant", n=3), 3, ordered=True)
    patterns.append(s_k(3))
    for seed in range(40):
        rng = random.Random(seed)
        c = builtin_coloring(
            "random", n=rng.randint(3, 7), colors=rng.randint(1, 3), seed=seed
        )
        for s in patterns:
            if s.n > c.n_ground:
                continue
            for ordered in (False, True):
                assert realizes(c, s, ordered) == brute_realizes(c, s, ordered), (
                    seed, to_json(s), ordered)


def test_product_coloring_realization_implies_both_factors():
    a = builtin_coloring("random", n=6, colors=2, seed=31)
    b = builtin_coloring("min_pair", n=6)
    prod = product_coloring(a, b)
    s = identity_from_subsets(3, "pairs", [[[0, 1], [0, 2]]])
    r = realizes(prod, s, ordered=False)
    if r is not None:
        for c in (a, b):
            # the same injection works coordinatewise
            h = r.embedding
            for cl in s.class_list():
                seen = set()
                for m in cl:
                    x, y = (h[t] for t in elems_of(m))
                    seen.add(c.table[(x, y) if x < y else (y, x)])
                assert len(seen) == 1


def test_product_coloring_needs_shared_ground():
    with pytest.raises(UsageError):
        product_coloring(
            builtin_coloring("min_pair", n=5), builtin_coloring("min_pair", n=6)
        )


def test_normalize_vertex_colors_keeps_pair_layer():
    c = builtin_coloring("random", n=5, colors=3, seed=41)
    n = normalize_vertex_colors(c)
    assert n.table == c.table and n.num_colors == c.num_colors


def test_coloring_json_round_trips():
    lit = builtin_coloring("random", n=5, colors=3, seed=1)
    back = coloring_from_json(coloring_to_json(lit))
    assert back.table == lit.table and back.num_colors == lit.num_colors

    for desc in (
        {"builtin": "min_pair", "n": 8},
        {"builtin": "sierpinski_meet", "len": 3},
        {"builtin": "random", "n": 7, "colors": 3, "seed": 42},
    ):
        c = coloring_from_json(desc)
        again = coloring_from_json(coloring_to_json(c))
        assert again.table == c.table


def test_coloring_json_reads_integers_and_canonical_keys_only():
    pairs3 = {"0,1": 0, "0,2": 0, "1,2": 1}
    c = coloring_from_json({"n": 3, "arity": 2, "table": {**pairs3, "0": 1}})
    assert c.table == {(0, 1): 0, (0, 2): 0, (1, 2): 1, (0,): 1}
    assert coloring_from_json(coloring_to_json(c)).table == c.table
    wide = builtin_coloring("min_pair", n=12)  # two-digit keys
    assert coloring_from_json(coloring_to_json(wide)).table == wide.table
    # int() would read every one of these as some coloring
    refused = [
        {"n": 3.9, "arity": 2, "table": {"0,1": 0, "0,2": True, "1,2": 1.7}},
        {"n": "3", "arity": 2, "table": pairs3},
        {"n": True, "arity": 1, "table": {}},
        {"n": 3, "arity": 2.0, "table": pairs3},
        {"n": 3, "arity": True, "table": pairs3},
        {"builtin": "random", "n": "9", "colors": 3.5, "seed": "1"},
        {"builtin": "random", "n": 9, "colors": 3, "seed": "1"},
        {"builtin": "random", "n": 9, "colors": True, "seed": 1},
        {"builtin": "min_pair", "n": 4.0},
        {"builtin": "constant", "n": True},
        {"builtin": "sierpinski_meet", "len": "3"},
        # a coloring needs at least one point
        {"n": -5, "arity": 2, "table": {}},
        {"n": 0, "arity": 2, "table": {}},
        {"builtin": "sierpinski_meet", "strings": []},
    ]
    refused += [{"n": 3, "arity": 2, "table": {**pairs3, "1,2": v}}
                for v in (True, 1.0, 1.7, "1", None)]
    refused += [{"n": 3, "arity": 2, "table": {**pairs3, key: 1}}
                for key in (" 0, 1", "0, 1", "0,1_2", "0_1,2", "01,2", "+0,1",
                            "-0,1", "\uff10,1", "0,1,", ",1", "", "0,1,2", 1,
                            "9" * 5000)]
    for desc in refused:
        with pytest.raises(UsageError):
            coloring_from_json(desc)


def test_meet_pullback_through_any_realization():
    c = builtin_coloring("sierpinski_meet", len=2)
    for s in id_of(c, 3, ordered=False):
        if s.n < 2:
            continue
        r = realizes(c, s, ordered=False)
        labels = tuple(c.meta["labels"][x] for x in r.embedding)
        assert is_meet_respecting(LabeledIdentity(s, labels))
