"""Ground-type plumbing: masks, validation, relabeling, embeddings, JSON."""

import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    Embedding,
    Identity,
    SizeGuardError,
    UsageError,
    canonical_form,
    embeds,
    from_json,
    identity_from_subsets,
    permute,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    to_json,
    to_pairs,
    trivial,
    trivial_full,
    validate,
)
from identity_lab import core
from identity_lab.closure import generate_catalog
from identity_lab.core import (
    SEARCH_GUARD,
    _class_id_map,
    _domain_masks,
    all_pair_masks,
    elems_of,
    encoding,
    first_injection,
    mask_of,
    permute_mask,
)


def reference_first_injection(n_src, n_tgt, ordered, checks, budget=None):
    """Slow oracle for ``first_injection``: place every free target in
    increasing order, spend a node on it, then run the predicates of
    ``checks[d]`` on the partial map h up to h[d]."""
    budget = [SEARCH_GUARD] if budget is None else budget
    h = []

    def extend(d):
        if d == n_src:
            return True
        for t in range(h[-1] + 1 if ordered and h else 0, n_tgt):
            if t in h:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise SizeGuardError(f"injection search of {n_src} into {n_tgt} passed "
                                     f"SEARCH_GUARD ({SEARCH_GUARD} nodes) at depth {d}")
            h.append(t)
            if all(ok(h) for ok in checks[d]) and extend(d + 1):
                return True
            h.pop()
        return False

    return tuple(h) if extend(0) else None


def shared_budget(monkeypatch, module):
    """Make every ``first_injection`` call of ``module`` spend one budget
    list, whatever budget the caller passes, and return that list."""
    budget = [1 << 40]
    monkeypatch.setattr(module, "first_injection",
                        lambda n_src, n_tgt, ordered, checks, _=None:
                        first_injection(n_src, n_tgt, ordered, checks, budget))
    return budget


def reference_embeds(src, tgt, ordered, budget):
    """``embeds`` as one ``reference_first_injection`` search: its domain
    and equivalence predicates, each run on the partial map."""
    if src.flavor == "pairs":
        tgt = to_pairs(tgt)
    src_ids, tgt_ids = _class_id_map(src), _class_id_map(tgt)
    if src.n > tgt.n or 0 in src_ids and 0 not in tgt_ids:
        return None
    checks = [[] for _ in range(src.n)]
    for b in filter(None, src_ids):
        checks[b.bit_length() - 1].append(lambda h, b=b: permute_mask(b, h) in tgt_ids)
    for b, c in itertools.combinations(_domain_masks(src), 2):
        if b.bit_count() == c.bit_count():
            same = src_ids[b] == src_ids[c]
            checks[(b | c).bit_length() - 1].append(lambda h, b=b, c=c, same=same: (
                tgt_ids[permute_mask(b, h)] == tgt_ids[permute_mask(c, h)]) == same)
    h = reference_first_injection(src.n, tgt.n, ordered, checks, budget)
    return None if h is None else Embedding(h, ordered)


def brute_embeds(src, tgt, ordered=False):
    """Slow oracle for ``embeds``: scan every injection (increasing ones
    when ordered) in lex order against every pair of domain subsets."""
    if src.flavor != tgt.flavor:
        tgt = to_pairs(tgt)
    if src.n > tgt.n:
        return None
    src_ids, tgt_ids = _class_id_map(src), _class_id_map(tgt)
    pairs = list(itertools.combinations(_domain_masks(src), 2))
    gen = (itertools.combinations if ordered else itertools.permutations)(
        range(tgt.n), src.n
    )
    for h in gen:
        if all(
            tgt_ids.get(permute_mask(b, h)) is not None
            and tgt_ids.get(permute_mask(c, h)) is not None
            and (src_ids[b] == src_ids[c])
            == (tgt_ids[permute_mask(b, h)] == tgt_ids[permute_mask(c, h)])
            for b, c in pairs
        ):
            return Embedding(h, ordered)
    return None


def bit_loop_elems_of(mask):
    """Slow oracle for ``elems_of``: shift the mask one bit at a time."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def bit_loop_permute_mask(mask, image):
    """Slow oracle for ``permute_mask``: shift the mask one bit at a time."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << image[i]
        mask >>= 1
        i += 1
    return out


def class_list_encoding(s):
    """Slow oracle for ``encoding``: read the classes through ``class_list``."""
    cls = tuple(tuple(bit_loop_elems_of(b) for b in cl) for cl in s.class_list())
    dom = None
    if s.domain is not None:
        dom = tuple(sorted(bit_loop_elems_of(b) for b in s.domain))
    return (s.n, s.flavor, cls, dom)


def class_list_to_json(s):
    """Slow oracle for ``to_json``: a second walk through ``class_list``."""
    d = {
        "n": s.n,
        "flavor": s.flavor,
        "classes": [[list(bit_loop_elems_of(b)) for b in cl] for cl in s.class_list()],
    }
    if s.domain is not None:
        d["domain"] = sorted([list(bit_loop_elems_of(b)) for b in s.domain])
    return d


def test_elems_of_matches_bit_loop():
    rng = random.Random(0)
    masks = list(range(1 << 12))
    masks += [1 << b for b in range(72)] + [(1 << b) - 1 for b in range(73)]
    masks += all_pair_masks(72) + [rng.getrandbits(72) for _ in range(5000)]
    for m in masks:
        assert elems_of(m) == bit_loop_elems_of(m), m


def test_permute_mask_matches_bit_loop():
    rng = random.Random(0)
    small = tuple(rng.sample(range(12), 12))
    for m in range(1 << 12):
        assert permute_mask(m, small) == bit_loop_permute_mask(m, small), m
    wide = tuple(rng.sample(range(72), 72))
    masks = [1 << b for b in range(72)] + [(1 << b) - 1 for b in range(73)]
    masks += all_pair_masks(72) + [rng.getrandbits(72) for _ in range(2000)]
    for m in masks:
        assert permute_mask(m, wide) == bit_loop_permute_mask(m, wide), m
        # an injection given as a dict on the subset's elements only
        inj = dict(zip(elems_of(m), rng.sample(range(72), m.bit_count())))
        assert permute_mask(m, inj) == bit_loop_permute_mask(m, inj), m


def test_encoding_and_json_match_class_list_versions(cat6, full5):
    families = [s_k(3), s_k(4), s_prime_n(2), s_prime_n(3),
                s_doubleprime_n(2), s_doubleprime_n(3)]
    for s in cat6.members() + full5.members() + PARTIALS + families:
        assert encoding(s) == class_list_encoding(s), to_json(s)
        assert to_json(s) == class_list_to_json(s)


def test_mask_round_trip():
    assert mask_of((0, 3, 5)) == 0b101001
    assert elems_of(0b101001) == (0, 3, 5)
    assert elems_of(mask_of(())) == ()


def test_all_pair_masks_count():
    assert len(all_pair_masks(6)) == 15
    assert all(m.bit_count() == 2 for m in all_pair_masks(6))


def test_identity_from_subsets_drops_singletons():
    s = identity_from_subsets(4, "pairs", [[[0, 1], [2, 3]], [[0, 2]]])
    assert len(s.classes) == 1
    assert s.class_of(mask_of((0, 2))) is None


def test_class_list_is_deterministic():
    s = s_k(3)
    cl = s.class_list()
    assert [elems_of(c[0]) for c in cl] == sorted(elems_of(c[0]) for c in cl)


def test_active_elements():
    s = identity_from_subsets(6, "pairs", [[[1, 3], [1, 4]]])
    assert s.active_elements() == (1, 3, 4)
    assert trivial(4).active_elements() == ()


@pytest.mark.parametrize(
    "builder",
    [
        lambda: trivial(5),
        lambda: trivial_full(3),
        lambda: s_k(3),
        lambda: s_k(4),
        lambda: s_prime_n(2),
    ],
)
def test_validate_accepts_constructors(builder):
    assert validate(builder()) is None


def test_validate_rejects_mixed_cardinalities():
    s = Identity(
        3, "pairs", frozenset({frozenset({mask_of((0, 1)), mask_of((0, 1, 2))})})
    )
    assert validate(s) is not None


def test_validate_rejects_out_of_range_elements():
    s = Identity(2, "pairs", frozenset({frozenset({mask_of((0, 1)), mask_of((1, 2))})}))
    assert validate(s) is not None


def test_validate_rejects_overlapping_classes():
    a = frozenset({mask_of((0, 1)), mask_of((1, 2))})
    b = frozenset({mask_of((0, 1)), mask_of((0, 2))})
    assert validate(Identity(3, "pairs", frozenset({a, b}))) is not None


def test_validate_rejects_stored_singleton():
    s = Identity(3, "pairs", frozenset({frozenset({mask_of((0, 1))})}))
    assert validate(s) is not None


def test_partial_needs_domain_closure():
    # domain must contain every subset of every stored class
    cls = frozenset({frozenset({mask_of((0, 1)), mask_of((1, 2))})})
    dom = frozenset({mask_of((0, 1))})
    assert validate(Identity(3, "partial", cls, dom)) is not None
    dom_ok = frozenset({mask_of((0, 1)), mask_of((1, 2))})
    assert validate(Identity(3, "partial", cls, dom_ok)) is None


def _members_up_to_4():
    from identity_lab.closure import generate_catalog

    return generate_catalog(4).members()


_SMALL = _members_up_to_4()


@given(
    data=st.data(),
    idx=st.integers(min_value=0, max_value=len(_SMALL) - 1),
)
def test_permute_is_a_group_action(data, idx):
    s = _SMALL[idx]
    pi = data.draw(st.permutations(range(s.n)))
    rho = data.draw(st.permutations(range(s.n)))
    composed = [rho[pi[i]] for i in range(s.n)]
    assert permute(permute(s, pi), rho) == permute(s, composed)


@given(
    data=st.data(),
    idx=st.integers(min_value=0, max_value=len(_SMALL) - 1),
)
def test_canonical_form_is_orbit_invariant(data, idx):
    s = _SMALL[idx]
    pi = data.draw(st.permutations(range(s.n)))
    assert canonical_form(permute(s, pi))[0] == canonical_form(s)[0]


@pytest.mark.parametrize("pi", [(0, 0, 1), (0, 1), (0, 1, 2, 3)])
def test_permute_rejects_non_permutations(pi):
    with pytest.raises(UsageError):
        permute(trivial(3), pi)


def test_canonical_form_is_idempotent():
    for s in (s_k(3), s_prime_n(2), trivial(4)):
        canon, _ = canonical_form(s)
        assert canonical_form(canon)[0] == canon


def test_canonical_form_counts_its_relabelings():
    # 10! = 3,628,800 relabelings are over SEARCH_GUARD, so the scan is
    # refused before it starts; 9! answers
    with pytest.raises(SizeGuardError, match=r"10! permutations exceeds SEARCH_GUARD"):
        canonical_form(trivial(10))
    assert canonical_form(trivial(9)) == (trivial(9), tuple(range(9)))


def test_canonical_witness_reproduces_the_form():
    s = s_k(3)
    canon, pi = canonical_form(s)
    assert permute(s, pi) == canon


def test_embeds_is_reflexive():
    for s in (trivial(3), s_k(3), s_prime_n(2)):
        w = embeds(s, s)
        assert w is not None and w.map == tuple(range(s.n))


def test_embeds_composes():
    a, b, c = trivial(2), trivial(4), trivial(6)
    w1, w2 = embeds(a, b), embeds(b, c)
    composed = tuple(w2.map[i] for i in w1.map)
    assert embeds(a, c) is not None
    # the composite is itself a witness: push a's pattern through directly
    assert len(set(composed)) == len(composed)


def test_embeds_requires_the_pattern_both_ways():
    # a pattern never fits into all-singleton ground: merges must map to
    # merges and non-merges to non-merges
    assert embeds(s_k(3), trivial(6)) is None
    assert embeds(trivial(3), trivial(6)) is not None
    # elements 0,1,2 of the splitting family have no pair merged among
    # themselves, so the all-singleton triple embeds right at the start
    w = embeds(trivial(3), s_k(3))
    assert w is not None and w.map == (0, 1, 2)


def _partial(n, classes, domain):
    return identity_from_subsets(n, "partial", classes, domain)


# partial identities; the first, third and fifth hold the empty set
PARTIALS = [
    _partial(3, [[[0], [1]]], [[], [0], [1], [0, 1]]),
    _partial(4, [[[0, 1], [2, 3]]], [[0], [1], [2], [3], [0, 1], [2, 3]]),
    _partial(4, [[[0], [1]], [[0, 1], [2, 3]]],
             [[], [0], [1], [2], [3], [0, 1], [2, 3]]),
    _partial(3, [[[0], [2]]], [[0], [1], [2]]),
    _partial(2, [], [[], [0], [1]]),
    _partial(2, [], [[0], [1]]),
]


def test_embeds_matches_brute_force(cat4):
    pool = [trivial(3), trivial(5), s_k(3), s_prime_n(2)]
    full = generate_catalog(4, "full").members() + [trivial_full(5)]
    cases = [(s, t) for s in cat4.members() for t in pool + full]
    cases += [(s, t) for s in full for t in full]
    cases += [(s, t) for s in PARTIALS for t in PARTIALS]
    for src, tgt in cases:
        for ordered in (False, True):
            assert embeds(src, tgt, ordered) == brute_embeds(src, tgt, ordered), (
                to_json(src), to_json(tgt), ordered)
    # the empty set maps to itself, so it needs the empty set in the target
    assert embeds(PARTIALS[4], PARTIALS[5]) is None
    assert embeds(PARTIALS[4], PARTIALS[2]) == Embedding((0, 2), False)


def test_embeds_spends_the_reference_search_budget(cat4, monkeypatch):
    # same witness and same nodes as the per-candidate search, on budgets
    # shared by every query
    budget, ref = shared_budget(monkeypatch, core), [1 << 40]
    pool = [trivial(4), s_k(3), s_prime_n(2)] + cat4.members()
    full = generate_catalog(3, "full").members() + [trivial_full(4)]
    cases = [(s, t) for s in cat4.members() for t in pool]
    cases += [(s, t) for s in full for t in full] + [(s, t) for s in PARTIALS for t in PARTIALS]
    for src, tgt in cases:
        for ordered in (False, True):
            assert embeds(src, tgt, ordered) == reference_embeds(src, tgt, ordered, ref), (
                to_json(src), to_json(tgt), ordered)
            assert budget == ref


def test_embeds_matches_the_reference_on_wide_domains(monkeypatch):
    # deeper than brute force reaches: the one token check a depth gives
    # the pairwise reference's witness and spends its nodes
    budget, ref = shared_budget(monkeypatch, core), [1 << 40]
    cases = [(s_k(3), s_prime_n(2)), (trivial(8), s_prime_n(2)), (s_prime_n(2), s_prime_n(3))]
    cases += [(s, trivial_full(6)) for s in generate_catalog(4, "full").members()]
    for src, tgt in cases:
        for ordered in (False, True):
            assert embeds(src, tgt, ordered) == reference_embeds(src, tgt, ordered, ref), (
                to_json(src), to_json(tgt), ordered)
            assert budget == ref
    # 3,265,290 and 1,350,030 pairs of equal-size subsets, one check a depth
    assert embeds(trivial(72), trivial(72)) == Embedding(tuple(range(72)), False)
    assert embeds(trivial_full(12), trivial_full(12)) == Embedding(tuple(range(12)), False)


@given(n_src=st.integers(0, 5), n_tgt=st.integers(0, 8), ordered=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(0, 300))
def test_first_injection_matches_the_reference(n_src, n_tgt, ordered, seed, nodes):
    # per-prefix check masks from a seeded table, zero to two checks a
    # depth: the loop and the per-candidate search give the same witness,
    # None or refusal text, and leave the same budget
    rng = random.Random(seed)
    density = rng.randrange(1, 4)  # a mask allows about 1 - 2^-density of the targets
    tables = [[{p: functools.reduce(int.__or__, (rng.getrandbits(n_tgt) for _ in range(density)))
                for p in itertools.permutations(range(n_tgt), d)}
               for _ in range(rng.randrange(3))] for d in range(n_src)]
    fast = [[lambda h, m=m: m[tuple(h)] for m in ms] for ms in tables]
    slow = [[lambda h, m=m: m[tuple(h[:-1])] >> h[-1] & 1 for m in ms] for ms in tables]

    def run(search, checks):
        budget = [nodes]
        try:
            return search(n_src, n_tgt, ordered, checks, budget), budget
        except SizeGuardError as exc:
            return str(exc), budget

    assert run(first_injection, fast) == run(reference_first_injection, slow)


def test_ordered_embedding_must_increase():
    with pytest.raises(UsageError):
        Embedding((2, 1, 0), True)
    assert Embedding((2, 1, 0), False).map == (2, 1, 0)


def test_to_pairs_is_idempotent():
    s = s_k(3)
    assert to_pairs(s) is s
    f = trivial_full(3)
    assert to_pairs(to_pairs(f)) == to_pairs(f)
    assert to_pairs(f) == trivial(3)


def test_to_pairs_keeps_only_pair_layers():
    f = identity_from_subsets(
        4, "full", [[[0, 1], [2, 3]], [[0, 1, 2], [0, 1, 3]]]
    )
    p = to_pairs(f)
    assert p.flavor == "pairs"
    assert p.classes == frozenset({frozenset({mask_of((0, 1)), mask_of((2, 3))})})


def test_json_round_trip_families():
    for s in (trivial(5), s_k(3), s_k(4), s_prime_n(2), trivial_full(3)):
        assert from_json(to_json(s)) == s


def test_json_is_sorted_and_unique():
    d = to_json(s_k(3))
    assert d == {
        "n": 6,
        "flavor": "pairs",
        "classes": [
            [[0, 3], [0, 4], [1, 5]],
            [[1, 3], [2, 4], [2, 5]],
        ],
    }


def test_json_round_trip_partial():
    cls = [[[0, 1], [1, 2]]]
    dom = [[0, 1], [1, 2], [0, 2]]
    s = identity_from_subsets(3, "partial", cls, dom)
    assert validate(s) is None
    assert from_json(to_json(s)) == s


def test_from_json_rejects_garbage():
    with pytest.raises(UsageError):
        from_json({"n": 3, "flavor": "pairs"})
    with pytest.raises(UsageError):
        from_json({"n": 2, "flavor": "pairs", "classes": [[[0, 1], [1, 2]]]})


@pytest.mark.parametrize("n", [3.9, "3", True])
def test_from_json_refuses_n_that_is_not_an_int(n):
    # int() would read these as 3, 3 and 1
    with pytest.raises(UsageError, match=r"n must be an integer"):
        from_json({"n": n, "flavor": "pairs", "classes": []})


@given(idx=st.integers(min_value=0, max_value=len(_SMALL) - 1))
def test_json_round_trip_catalog_members(idx):
    s = _SMALL[idx]
    assert from_json(to_json(s)) == s


def test_encoding_orders_by_size_first():
    assert encoding(trivial(2)) < encoding(trivial(3))
