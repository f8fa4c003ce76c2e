"""Generation fixed point: the two operations, the catalog, provenance."""

import hashlib
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    SizeGuardError,
    UsageError,
    catalog_from_json,
    catalog_to_json,
    check,
    duplicate,
    explain,
    generate_catalog,
    member_of_catalog,
    permute,
    replay_trace,
    restrict,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    to_json,
    to_pairs,
    trivial,
)
from identity_lab import closure
from identity_lab.cli import _dump
from identity_lab.closure import (
    GENERATION_BOUND,
    Catalog,
    CatalogEntry,
    _generation_steps,
    _identity_of,
    _relabel_gathers,
    _renormalized,
    _slot_key,
    _stored_slots,
    canonical_forms,
)
from identity_lab.core import (
    Identity,
    _domain_masks,
    _relabel,
    canonical_form,
    elems_of,
    encoding,
    identity_from_subsets,
    mask_of,
)

# sha256 of each catalog as `catalog --max-size n [--full]` writes it
CATALOG_SHA256 = {
    ("pairs", 1): "485344581778982b1ea4c7303bf435870e9292ddb668c41fe2eab18d76b29fd3",
    ("pairs", 2): "c027d2de8fbad0a4edab48a484350e9894425072c702071c45ad905bf31d5de0",
    ("pairs", 3): "4ada66fe54843e269f12e675c4723a8b4c3ee606a8f1f13f66587a4d69b8ef4e",
    ("pairs", 4): "8e211a0b597253692ca5d995f10482c6a0278fac4990b8c03abcf57a2346363c",
    ("pairs", 5): "3d51c5fdedc36f9dfb4992e2cf5322e36783bc40f40d87662b1868764f5efe2c",
    ("pairs", 6): "6dd956271bd0f926b828d747255a723dea36805631b2d3528e905038369da069",
    ("full", 1): "037d85993fd4ce8b33180bcdcaa50db8b2dfe492888b355fb3383cbedfc5b625",
    ("full", 2): "7f0aceed4233528c79581b4ca244442ac711b1afaf0c0bca8ce4537ca2f7c481",
    ("full", 3): "784423dcfce3cfc9d981b132eea94ceeae373375f5d525326e74109f004e76ef",
    ("full", 4): "cb78cad8a2b28f0f4b8b165d2384e8da960ab88e302c3a3bf21d83875f1a188b",
    ("full", 5): "ae4d53252518a534298ce34aabe29a624987cedc517e585145c5c5600b2a78b9",
    ("full", 6): "ed93a8e04f85cc246571403f1f39b15b614dbc3840bb129d07444aba87f2ac87",
}


def reference_catalog(max_n, flavor):
    """Slow reference for the catalog BFS: every 3^|tail| assignment.

    Each tail element of a split at m gets 0 (original kept), 1 (in
    bset: original and copy kept) or 2 (in dset: only the copy kept);
    all-zero assignments and those that overflow max_n are filtered out
    after their sets are built.  Returns the entries dict in discovery
    order.
    """
    root = Identity(1, flavor, frozenset())
    entries = {root: CatalogEntry(root, ())}
    frontier = [root]
    while frontier:
        discovered = []
        for s in sorted(frontier, key=encoding):
            n = s.n
            produced = []
            if n > 1:
                for x in range(n):
                    kept = tuple(y for y in range(n) if y != x)
                    produced.append((restrict(s, kept), (("res", kept),)))
            for m in range(n + 1):
                tail = list(range(m, n))
                doubled = duplicate(s, m)
                for assign in itertools.product((0, 1, 2), repeat=len(tail)):
                    bset = {tail[i] for i, a in enumerate(assign) if a == 1}
                    dset = {tail[i] for i, a in enumerate(assign) if a == 2}
                    if not bset and not dset or n + len(bset) > max_n:
                        continue
                    kept = tuple(
                        [x for x in range(n) if x not in dset]
                        + [n + (r - m) for r in sorted(bset | dset)]
                    )
                    produced.append(
                        (restrict(doubled, kept), (("dup", m), ("res", kept)))
                    )
            for t, steps in produced:
                if t not in entries:
                    entries[t] = CatalogEntry(t, entries[s].trace + steps)
                    discovered.append(t)
        frontier = discovered
    return entries


def restrict_catalog(max_n, flavor):
    """Reference for the slot-key BFS: the same walk on identities.

    Every step runs ``duplicate`` and ``restrict`` and is deduplicated by
    the resulting ``Identity``; only the fates that fit are enumerated, in
    the same order as ``generate_catalog``.  Returns the entries dict in
    discovery order.
    """
    root = Identity(1, flavor, frozenset())
    entries = {root: CatalogEntry(root, ())}
    frontier = [root]
    while frontier:
        discovered = []
        for s in sorted(frontier, key=encoding):
            n = s.n
            produced = []
            if n > 1:
                for x in range(n):
                    kept = tuple(y for y in range(n) if y != x)
                    produced.append((restrict(s, kept), (("res", kept),)))
            fates = (0, 2) if n == max_n else (0, 1, 2)
            for m in range(n):
                doubled = duplicate(s, m)
                for fate in itertools.product(fates, repeat=n - m):
                    if not any(fate) or fate.count(1) > max_n - n:
                        continue
                    kept = tuple(
                        [x for x in range(n) if x < m or fate[x - m] != 2]
                        + [n + i for i, f in enumerate(fate) if f]
                    )
                    produced.append(
                        (restrict(doubled, kept), (("dup", m), ("res", kept)))
                    )
            for t, steps in produced:
                if t not in entries:
                    entries[t] = CatalogEntry(t, entries[s].trace + steps)
                    discovered.append(t)
        frontier = discovered
    return entries


def slot_key(s):
    """First-occurrence slot key: byte i is the index of the first slot in
    its class, slots in ``_domain_masks`` order."""
    masks = _domain_masks(s)
    return bytes(min(map(masks.index, s.class_of(b) or (b,))) for b in masks)


class BucketIndex:
    """Slow reference for unordered membership: the canonical-form index.

    Catalog entries are grouped by class profile (size, class sizes,
    member sizes).  A query is a member iff its canonical form equals the
    canonical form of some entry in its profile's bucket; entries' forms
    are computed by brute force when first compared, and kept.
    """

    def __init__(self, cat):
        self.buckets = {}
        for t in cat.entries:
            self.buckets.setdefault(self.profile(t), []).append(t)
        self.forms = {}

    @staticmethod
    def profile(s):
        return (
            s.n,
            tuple(sorted(len(c) for c in s.classes)),
            tuple(sorted(tuple(sorted(b.bit_count() for b in c)) for c in s.classes)),
        )

    def form(self, t):
        if t not in self.forms:
            self.forms[t] = canonical_form(t)[0]
        return self.forms[t]

    def __contains__(self, s):
        key = canonical_form(s)[0]
        return any(self.form(t) == key for t in self.buckets.get(self.profile(s), ()))


@pytest.fixture(scope="module")
def cat6_index(cat6):
    return BucketIndex(cat6)


def test_duplicate_at_full_overlap_is_identity():
    s = s_k(3)
    assert duplicate(s, s.n) == s
    assert duplicate(trivial(2), 2) == trivial(2)


def test_duplicate_pairs_uncovered_subsets_with_their_copies():
    # no stored classes in, one orbit out: {0,1} ~ {0,1'}
    d = duplicate(trivial(2), 1)
    assert d.n == 3
    assert d.classes == frozenset({frozenset({mask_of((0, 1)), mask_of((0, 2))})})


def test_duplicate_keeps_cross_pairs_singleton():
    # elements 0,1 copied to 2,3; pairs meeting both halves stay singleton
    d = duplicate(trivial(2), 0)
    assert to_json(d) == {
        "n": 4,
        "flavor": "pairs",
        "classes": [[[0, 1], [2, 3]]],
    }


def test_duplicate_expansion_above_a_common_part():
    d = duplicate(trivial(3), 1)
    assert to_json(d)["classes"] == [
        [[0, 1], [0, 3]],
        [[0, 2], [0, 4]],
        [[1, 2], [3, 4]],
    ]


def test_restrict_relabels_order_preserving():
    s = s_k(3)
    r = restrict(s, (0, 3, 4, 5))
    assert r.n == 4
    # kept pairs {0,3},{0,4} stay a class under relabel 3->1, 4->2
    assert to_json(r)["classes"] == [[[0, 1], [0, 2]]]


def test_restrict_drops_collapsed_classes():
    s = identity_from_subsets(3, "pairs", [[[0, 1], [1, 2]]])
    assert restrict(s, (0, 1)) == trivial(2)


def test_restrict_accepts_masks_and_iterables():
    s = s_k(3)
    assert restrict(s, (0, 1, 2)) == restrict(s, mask_of((0, 1, 2)))


def test_restrict_rejects_empty_keep():
    with pytest.raises(UsageError):
        restrict(trivial(3), ())
    # a negative mask is no keep set, not its two's complement
    for keep in (-1, -5, -64):
        with pytest.raises(UsageError, match=f"keep mask must be nonnegative, got {keep}"):
            restrict(s_k(3), keep)
    # a bool is no mask and no element, and a float neither
    for keep in (True, [True, 2], [1, True], [1.5], 1.0, None, "01"):
        with pytest.raises(UsageError, match="keep must be an int mask or an iterable of ints"):
            restrict(trivial(3), keep)


def test_duplicate_rejects_bad_split_points():
    with pytest.raises(UsageError, match="split point m=4 out of range 0..3"):
        duplicate(trivial(3), 4)
    for m in (-1, True, 1.0, None):
        with pytest.raises(UsageError, match="split point m must be an integer >= 0"):
            duplicate(trivial(3), m)


def test_catalog_counts(cat4, cat6):
    assert len(generate_catalog(1)) == 1
    assert len(generate_catalog(2)) == 2
    assert len(cat4) == 15
    by = {}
    for s in cat6.members():
        by[s.n] = by.get(s.n, 0) + 1
    assert by == {1: 1, 2: 1, 3: 2, 4: 11, 5: 151, 6: 4096}
    assert len(cat6) == 4262


def test_catalog_guard_and_usage():
    for max_n in (8, 9):
        with pytest.raises(SizeGuardError, match=f"max_n <= 7, got {max_n}"):
            generate_catalog(max_n)
    with pytest.raises(UsageError):
        generate_catalog(0)
    with pytest.raises(UsageError):
        generate_catalog(3, "partial")
    for max_n in (6.0, "6", True, None):
        with pytest.raises(UsageError, match="catalog max_n must be an integer"):
            generate_catalog(max_n)


def test_monotone_generation(cat4, cat6):
    small = {s for s in cat6.members() if s.n <= 4}
    assert small == set(cat4.members())


def test_catalog_is_closed_under_dropping_one_element(cat6, full5, full6):
    # the promise of Catalog: a restriction to n - 1 elements stays inside
    for cat in (cat6, full5, full6):
        for s in cat.members():
            for x in range(s.n if s.n > 1 else 0):
                assert restrict(s, (1 << s.n) - 1 - (1 << x)) in cat, (s, x)


def test_restrict_then_duplicate_recovers(cat4):
    # keeping exactly the originals undoes any duplication
    for s in cat4.members():
        for m in range(s.n + 1):
            assert restrict(duplicate(s, m), range(s.n)) == s


@pytest.mark.parametrize("flavor", ["pairs", "full"])
@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
def test_catalog_equals_reference_enumeration(max_n, flavor):
    # same entries, same discovery order, same trace for every entry
    got = list(generate_catalog(max_n, flavor).entries.items())
    assert got == list(restrict_catalog(max_n, flavor).items())
    assert got == list(reference_catalog(max_n, flavor).items())


@pytest.mark.parametrize("max_n", [4, 6])
@pytest.mark.parametrize("flavor", ["pairs", "full"])
def test_generation_steps_equal_duplicate_then_restrict(cat4, flavor, max_n):
    # every slot map, against the two operations it stands for
    members = cat4 if flavor == "pairs" else generate_catalog(4, "full")
    for s in members.members():
        fresh, steps = _generation_steps(s.n, max_n, flavor)
        labels = slot_key(s) + fresh
        for trace, size, slot_map in steps:
            # each map byte names a parent slot or a fresh label
            assert type(slot_map) is bytes and all(i < len(labels) for i in slot_map)
            want = s
            for op, arg in trace:
                want = duplicate(want, arg) if op == "dup" else restrict(want, arg)
            raw = bytes(labels[i] for i in slot_map)
            key = bytes(map(raw.index, raw))
            assert size == want.n and key == slot_key(want), (s, trace)
            assert _identity_of(key, size, flavor, {}) == want, (s, trace)


@given(st.data())
def test_slot_map_translate_is_a_gather(data):
    # the gather of the BFS and the orbit walks: a map whose bytes index
    # the key never reads the padding
    k = data.draw(st.binary(min_size=1, max_size=256))
    m = bytes(data.draw(st.lists(st.integers(0, len(k) - 1), max_size=256)))
    assert m.translate(k.ljust(256, b"\0")) == bytes(k[i] for i in m)


@given(st.lists(st.integers(0, 255), max_size=255))
def test_renormalized_is_first_occurrence_form(labels):
    t = tuple(labels)
    assert _renormalized(bytes(t)) == bytes(map(t.index, t))


@pytest.mark.parametrize("flavor", ["pairs", "full"])
def test_generation_step_labels_fit_a_byte(flavor):
    # the bytes keys rely on it: parent slots and fresh labels stay below 256
    for max_n in range(1, GENERATION_BOUND + 1):
        for n in range(1, max_n + 1):
            fresh, _ = _generation_steps(n, max_n, flavor)
            slots = _domain_masks(Identity(n, flavor, frozenset()))
            assert type(fresh) is bytes and len(slots) + len(fresh) <= 256, (n, max_n)


@pytest.mark.parametrize("flavor", ["pairs", "full"])
def test_generation_steps_skip_maps_that_find_nothing(flavor):
    # no step is the identity map (its child is the parent) or repeats an
    # earlier step's (size, map) (its child is already seen), and every
    # step is a growth step: no step drops an element alone
    counts = []
    for n in range(1, 7):
        fresh, steps = _generation_steps(n, 6, flavor)
        width = len(_domain_masks(Identity(n, flavor, frozenset())))
        maps = [(size, slot_map) for _, size, slot_map in steps]
        for _, slot_map in maps:
            assert type(slot_map) is bytes
            assert all(i < width + len(fresh) for i in slot_map), (n, slot_map)
        assert (n, bytes(range(width))) not in maps
        assert len(set(maps)) == len(maps)
        for trace, _, _ in steps:
            (dup, m), (res, kept) = trace
            assert dup == "dup" and res == "res" and 0 <= m < n, trace
            assert type(kept) is tuple
        counts.append(len(steps))
    assert counts == {
        "pairs": [1, 5, 29, 96, 173, 114],
        "full": [1, 8, 33, 102, 181, 114],
    }[flavor]


@pytest.mark.parametrize(("flavor", "max_n"), list(CATALOG_SHA256))
def test_catalog_serialization_pinned(request, flavor, max_n):
    # entries, their order and their traces, byte for byte
    fixture = {("pairs", 6): "cat6", ("full", 5): "full5", ("full", 6): "full6"}
    name = fixture.get((flavor, max_n))
    cat = request.getfixturevalue(name) if name else generate_catalog(max_n, flavor)
    text = _dump(catalog_to_json(cat)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[flavor, max_n]


def test_traces_replay(cat6):
    for s, entry in cat6.entries.items():
        assert replay_trace(entry.trace) == s


def test_traces_replay_full(full5):
    for s, entry in full5.entries.items():
        assert replay_trace(entry.trace, "full") == s


def test_member_queries(cat6):
    assert member_of_catalog(cat6, trivial(6), ordered=True)
    assert not member_of_catalog(cat6, s_k(3), ordered=True)
    assert not member_of_catalog(cat6, s_k(3), ordered=False)


def test_member_unordered_sees_relabelings(cat6):
    mem = next(s for s in cat6.members() if s.n == 5 and s.classes)
    pi = (4, 0, 3, 1, 2)
    moved = permute(mem, pi)
    assert member_of_catalog(cat6, moved, ordered=False)


def test_member_matches_bucket_index_on_s_prime_2_restrictions(cat6, cat6_index):
    sp2 = s_prime_n(2)
    absent = 0
    for keep in itertools.combinations(range(sp2.n), 6):
        r = restrict(sp2, keep)
        member = member_of_catalog(cat6, r, ordered=False)
        assert member == (r in cat6_index), keep
        absent += not member
    assert absent == 8


def test_member_matches_bucket_index_on_s_prime_3_sample(cat6, cat6_index):
    sp3 = s_prime_n(3)
    keeps = random.Random(4).sample(
        list(itertools.combinations(range(sp3.n), 6)), 40
    )
    for keep in keeps:
        r = restrict(sp3, keep)
        assert member_of_catalog(cat6, r, ordered=False) == (r in cat6_index), keep


@given(data=st.data())
def test_member_matches_bucket_index_on_relabeled_entries(cat6, cat6_index, data):
    # entries up to size 5 keep the reference's buckets cheap (n! <= 120);
    # the restriction tests above cover size 6
    s = data.draw(st.sampled_from([t for t in cat6.members() if t.n <= 5]))
    moved = permute(s, data.draw(st.permutations(range(s.n))))
    assert member_of_catalog(cat6, moved, ordered=False)
    assert moved in cat6_index


@pytest.mark.parametrize(
    "family, absent_expected",
    [(s_prime_n(3), 72), (s_doubleprime_n(2), 8)],
    ids=["s_prime_3", "s_doubleprime_2"],
)
def test_six_subset_sweep(cat6, cat6_index, family, absent_expected):
    # both halves of the certificate: the order/rank criterion accepts the
    # family (audited), yet some 6-element restriction is outside catalog(6)
    verdict = check(family)
    assert verdict.accepted
    explain(verdict, family)  # re-verifies the witness; raises on a mismatch
    # every 6-element restriction, answered once per distinct pattern
    answers = {}
    absent = 0
    for keep in itertools.combinations(range(family.n), 6):
        r = restrict(family, keep)
        if r not in answers:
            answers[r] = member_of_catalog(cat6, r, ordered=False)
        absent += not answers[r]
    for r, member in answers.items():
        if not member:
            assert r not in cat6_index
    assert absent == absent_expected


# Each family member against catalog(6): the first 6-subset of its active
# elements, in combinations order, whose restriction is no unordered
# member, and how many subsets that order reaches it in.  Every earlier
# subset is swept where that takes well under a second; the sweeps of
# s_prime_n(6) and (7) take 1-4 s, so only their subset is pinned.
SEPARATION = [
    (s_prime_n, 2, (0, 1, 2, 4, 5, 6), 7, True),
    (s_prime_n, 3, (0, 1, 3, 6, 7, 9), 303, True),
    (s_prime_n, 4, (0, 1, 4, 8, 9, 12), 2_882, True),
    (s_prime_n, 5, (0, 1, 5, 10, 11, 15), 14_873, True),
    (s_prime_n, 6, (0, 1, 6, 12, 13, 18), 54_780, False),
    (s_prime_n, 7, (0, 1, 7, 14, 15, 21), 162_382, False),
    (s_doubleprime_n, 2, (0, 1, 2, 5, 7, 13), 7, True),
    (s_doubleprime_n, 3, (0, 1, 2, 9, 11, 25), 1_658, True),
]


@pytest.mark.parametrize(
    "make, n, first_absent, scanned, sweep", SEPARATION,
    ids=[f"{make.__name__}_{n}" for make, n, *_ in SEPARATION],
)
def test_family_members_pass_the_criterion_yet_leave_catalog6(
        cat6, make, n, first_absent, scanned, sweep):
    # the paper's separation on every member: the order/rank criterion
    # accepts it (audited), yet a 6-element restriction is outside catalog(6)
    s = make(n)
    verdict = check(s)
    assert verdict.accepted
    assert explain(verdict, s)["lines"][-1] == "independent re-verification passed"
    earlier = list(itertools.islice(itertools.combinations(s.active_elements(), 6), scanned))
    assert earlier.pop() == first_absent
    assert not member_of_catalog(cat6, restrict(s, first_absent), ordered=False)
    if sweep:
        for keep in earlier:
            assert member_of_catalog(cat6, restrict(s, keep), ordered=False), keep


def test_degenerate_doubled_family_member_is_in_catalog6(cat6):
    # s_doubleprime_n(1) stores no class: it is the trivial 6-point member
    s = s_doubleprime_n(1)
    assert not s.active_elements() and check(s).accepted
    assert member_of_catalog(cat6, s, ordered=False)


def relabeling_member(cat, s):
    """Slow reference for unordered membership: is some relabeling of s an
    exact entry?"""
    return any(_relabel(s, pi) in cat.entries
               for pi in itertools.permutations(range(s.n)))


def random_identity(rng, n, flavor):
    """A seeded random pairs or full identity: each cardinality layer of
    the slots is split into about half as many classes as it has slots."""
    layers = {}
    for b in _domain_masks(Identity(n, flavor, frozenset())):
        layers.setdefault(b.bit_count(), []).append(b)
    classes = []
    for layer in layers.values():
        groups = {}
        for b in layer:
            groups.setdefault(rng.randrange(len(layer) // 2 + 1), []).append(b)
        classes += [frozenset(g) for g in groups.values() if len(g) >= 2]
    return Identity(n, flavor, frozenset(classes))


@pytest.mark.parametrize(
    "max_n, flavor", [(1, "pairs"), (2, "pairs"), (2, "full"), (6, "pairs"), (5, "full")]
)
def test_key_walk_matches_relabelings_and_bucket_index(cat6, full5, max_n, flavor):
    # relabeled entries and seeded random patterns, every size up to the
    # bound; sizes 1 and 2 have keys of 0/1 (pairs) and 2/4 (full) slots
    cat = {(6, "pairs"): cat6, (5, "full"): full5}.get((max_n, flavor))
    cat = cat or generate_catalog(max_n, flavor)
    index, rng = BucketIndex(cat), random.Random(11)
    entries = [t for t in cat.members() if t.n <= 5]
    queries = [_relabel(t, tuple(rng.sample(range(t.n), t.n)))
               for t in rng.sample(entries, min(40, len(entries)))]
    queries += [random_identity(rng, rng.randint(1, min(max_n, 5)), flavor) for _ in range(40)]
    answers = []
    for s in queries:
        member = member_of_catalog(cat, s)
        assert member == relabeling_member(cat, s) == (s in index), to_json(s)
        answers.append(member)
    assert all(answers[:len(queries) - 40])
    if max_n >= 5:
        assert answers.count(False) >= 10  # the random half is mostly absent


@pytest.mark.parametrize("flavor", ["pairs", "full"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relabel_gathers_are_the_slot_form_of_relabel(cat6, full5, n, flavor):
    # every entry of the size, and every one-class identity on two slots
    # of equal cardinality, which together pin each slot of each gather
    slots = _domain_masks(Identity(n, flavor, frozenset()))
    pinning = [Identity(n, flavor, frozenset([frozenset((b, c))]))
               for b, c in itertools.combinations(slots, 2) if b.bit_count() == c.bit_count()]
    cat = cat6 if flavor == "pairs" else full5
    sample = [t for t in cat.members() if t.n == n] + pinning
    gathers = _relabel_gathers(n, flavor)
    perms = list(itertools.permutations(range(n)))
    assert len(gathers) == len(perms)
    for pi, slot_map in zip(perms, gathers):
        # a relabeling permutes the slots: every map byte names a slot
        # (is below len(slots)), each slot once
        assert type(slot_map) is bytes
        assert sorted(slot_map) == list(range(len(slots)))
        for s in sample:
            key = slot_key(s)
            raw = bytes(key[i] for i in slot_map)
            assert bytes(map(raw.index, raw)) == slot_key(_relabel(s, pi)), (pi, to_json(s))


def test_canonical_forms_match_canonical_form(cat6):
    rng = random.Random(5)
    idents = [t for t in cat6.members() if t.n <= 5]
    idents += [_relabel(t, tuple(rng.sample(range(t.n), t.n))) for t in idents[::3]]
    idents += [random_identity(rng, rng.randint(1, 5), "pairs") for _ in range(40)]
    expected = sorted({canonical_form(t)[0] for t in idents}, key=encoding)
    assert canonical_forms(idents) == expected
    with pytest.raises(UsageError):
        canonical_forms([Identity(2, "full", frozenset())])


def test_relabel_gathers_stop_at_the_generation_bound():
    with pytest.raises(SizeGuardError):
        _relabel_gathers(8, "pairs")


def test_catalog_keys_are_the_entries_keys(cat6, full5):
    for cat in (cat6, full5):
        expected = {slot_key(s) for s in cat.entries}
        assert cat.keys == expected and len(expected) == len(cat)
        # the public constructor derives the same set from the entries
        assert Catalog(cat.max_n, cat.flavor, dict(cat.entries)).keys == expected
        back = catalog_from_json(catalog_to_json(cat))
        assert back.keys == expected
        assert list(back.entries) == list(cat.entries)


def test_catalog_loader_keys_and_refusals(cat4):
    d = catalog_to_json(cat4)
    # classes and subsets listed in another order, and a class listed
    # twice, load as the same catalog with the same keys
    shuffled = json.loads(json.dumps(d))
    for item in shuffled["entries"]:
        item["identity"]["classes"] = [[sub[::-1] for sub in cl[::-1]]
                                       for cl in item["identity"]["classes"][::-1]]
    twice = json.loads(json.dumps(d))
    last = twice["entries"][-1]["identity"]
    last["classes"].append(last["classes"][0])
    for doc in (shuffled, twice):
        back = catalog_from_json(doc)
        assert list(back.entries) == list(cat4.entries) and back.keys == cat4.keys
    # subsets equal to valid ones as Python values (booleans, a float, a
    # tuple), and two overlapping classes, are refused with from_json's
    # messages even after the same classes loaded as valid
    a, b = [[0, 1], [2, 3]], [[0, 1], [1, 3]]
    refused = "not a list of non-negative integers"
    for classes, message in (([[[False, True], [2, 3]]], refused),
                             ([[[0, 1.0], [2, 3]]], refused),
                             ([[(0, 1), [2, 3]]], refused),
                             ([a, b], r"subset \(0, 1\) appears in two classes")):
        doc = {"max_n": 4, "entries": [
            {"identity": {"n": 4, "flavor": "pairs", "classes": cls}, "trace": []}
            for cls in ([a], [b], classes)]}
        with pytest.raises(UsageError, match=message):
            catalog_from_json(doc)


def load_outcome(doc):
    """A loaded catalog as (entries with traces, keys), or its refusal."""
    try:
        cat = catalog_from_json(doc)
    except UsageError as exc:
        return str(exc)
    return [(s, e.trace) for s, e in cat.entries.items()], cat.keys


# Classes that validate, and look-alikes that equal them as Python values
# (booleans, floats, tuples), overlap them, repeat a subset, mix sizes or
# leave the ground, so that a class cached by one entry is met again in
# another form by the next.
loader_classes = st.sampled_from((
    [[0, 1], [2, 3]], [[3, 2], [1, 0]], [[0, 1], [2, 3], [0, 1]], [[0, 2], [1, 3]],
    [[0, 1], [0, 2]], [[0], [1]], [[0, 1], [0]], [[0, 1]], [[0, 1], [2, 5]],
    [[True, 0], [2, 3]], [[0, 1.0], [2, 3]], [(0, 1), [2, 3]], ([0, 1], [2, 3]),
))
loader_identities = st.fixed_dictionaries(
    {"n": st.sampled_from((4, 4, 4, 2, 6, 4.0, True, "4")),
     "flavor": st.sampled_from(("pairs", "pairs", "full")),
     "classes": st.lists(loader_classes, max_size=3)},
    optional={"domain": st.sampled_from((None, [], [[0, 1]]))},
)


@given(identities=st.lists(loader_identities, min_size=1, max_size=4))
def test_class_cache_loads_as_the_full_parse(identities):
    doc = {"max_n": 4, "entries": [{"identity": d, "trace": []} for d in identities]}
    with mock.patch.object(closure, "_cached_identity", lambda *args: None):
        full = load_outcome(doc)
    assert load_outcome(doc) == full


def test_member_rejects_oversized_query(cat4):
    with pytest.raises(SizeGuardError):
        member_of_catalog(cat4, trivial(5), ordered=True)


# identities built directly on 3 points, each refused by from_json
MALFORMED_QUERIES = {
    "non-pair subset": Identity(3, "pairs", frozenset({frozenset({0b011, 0b111})})),
    "one-member class": Identity(3, "pairs", frozenset({frozenset({0b011})})),
    "overlapping classes": Identity(3, "pairs", frozenset(
        {frozenset({0b011, 0b101}), frozenset({0b011, 0b110})})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_QUERIES))
@pytest.mark.parametrize("query", ["unordered member", "ordered member", "canonical_form"])
def test_member_and_canonical_form_refuse_malformed_queries(cat4, name, query):
    s = MALFORMED_QUERIES[name]
    with pytest.raises(UsageError):
        if query == "canonical_form":
            canonical_form(s)
        else:
            member_of_catalog(cat4, s, ordered=query == "ordered member")


def assert_one_subset_order(idents):
    """Domain masks are in ``elems_of`` order, and slot keys sorted by
    ``(len(key), _stored_slots(key))`` sort their identities by ``encoding``."""
    for s in idents:
        masks = _domain_masks(s)
        assert masks == sorted(masks, key=elems_of), to_json(s)

    def key_order(s):
        key = _slot_key(s)
        return len(key), _stored_slots(key)

    assert sorted(idents, key=key_order) == sorted(idents, key=encoding)


def test_slot_key_order_is_encoding_order_on_catalogs(cat6, full5):
    for cat in (cat6, full5):
        assert_one_subset_order(cat.members())


@given(st.sampled_from(["pairs", "full"]),
       st.lists(st.tuples(st.integers(1, 5), st.integers(0, 1 << 32)), min_size=1, max_size=8))
def test_slot_key_order_is_encoding_order_on_random_identities(flavor, draws):
    idents = {random_identity(random.Random(seed), n, flavor) for n, seed in draws}
    assert_one_subset_order(list(idents))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n))))
def test_partial_domain_masks_are_in_elems_of_order(drawn):
    n, domain = drawn
    masks = _domain_masks(Identity(n, "partial", frozenset(), frozenset(domain)))
    assert masks == sorted(domain, key=elems_of)


def test_full_catalog_counts_and_projection(full5, cat6):
    assert len(full5) == 166
    by = {}
    for s in full5.members():
        by[s.n] = by.get(s.n, 0) + 1
    assert by == {1: 1, 2: 1, 3: 2, 4: 11, 5: 151}
    pairs5 = {s for s in cat6.members() if s.n <= 5}
    assert {to_pairs(s) for s in full5.members()} == pairs5


def test_catalog_json_round_trip(cat4, full5):
    for cat in (cat4, full5):
        back = catalog_from_json(catalog_to_json(cat))
        assert back.max_n == cat.max_n and back.flavor == cat.flavor
        assert set(back.members()) == set(cat.members())
        for s in cat.members():
            assert back.entries[s].trace == cat.entries[s].trace


def test_duplicate_full_flavor_small():
    from identity_lab import trivial_full, validate

    d = duplicate(trivial_full(2), 1)
    assert d.flavor == "full" and d.n == 3
    assert validate(d) is None
    # pair layer agrees with the pairs-flavor expansion
    assert to_pairs(d) == duplicate(trivial(2), 1)
