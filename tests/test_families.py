import itertools

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    Identity,
    LabeledIdentity,
    SimplifyError,
    SizeGuardError,
    UsageError,
    check,
    from_json,
    identity_from_subsets,
    is_meet_respecting,
    max_meet_identity,
    meet,
    order_forcing_extension,
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
    _class_id_map,
    canonical_form,
    elems_of,
    mask_of,
    permute_mask,
)


def test_trivial_has_no_stored_classes():
    for n in (1, 3, 8):
        s = trivial(n)
        assert s.n == n and s.flavor == "pairs" and not s.classes


def test_trivial_full_identifies_nothing():
    s = trivial_full(3)
    assert s.flavor == "full" and not s.classes
    assert validate(s) is None


def test_family_constructors_refuse_grounds_above_the_bound():
    # checked on the computed ground size, before any pair list is built
    for make, arg, ground in ((trivial, 73, 73), (trivial_full, 73, 73),
                              (s_k, 12, 78), (s_prime_n, 8, 80),
                              (s_k, 10 ** 6, 500_000_500_000)):
        with pytest.raises(SizeGuardError, match=f"ground size {ground} exceeds"):
            make(arg)
    assert (s_k(11).n, s_prime_n(7).n, trivial(72).n) == (66, 63, 72)


def test_s_k_frozen_value():
    assert to_json(s_k(3)) == {
        "n": 6,
        "flavor": "pairs",
        "classes": [
            [[0, 3], [0, 4], [1, 5]],
            [[1, 3], [2, 4], [2, 5]],
        ],
    }


def test_s_k_degenerate_case_has_no_classes():
    s = s_k(2)
    assert s.n == 3 and not s.classes


@pytest.mark.parametrize("k", [3, 4, 5])
def test_s_k_class_profile(k):
    # two stored classes, each of size C(k, 2)
    s = s_k(k)
    assert validate(s) is None
    sizes = sorted(len(c) for c in s.classes)
    assert sizes == [k * (k - 1) // 2] * 2


def test_s_prime_frozen_value():
    assert to_json(s_prime_n(2))["classes"] == [
        [[0, 4], [0, 5], [1, 6], [1, 7]],
        [[2, 4], [2, 6], [3, 5], [3, 7]],
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_s_prime_class_profile(n):
    s = s_prime_n(n)
    assert validate(s) is None
    assert s.n == 2 * n + n * n
    sizes = sorted(len(c) for c in s.classes)
    assert sizes == [n * n] * 2


def test_s_prime_degenerate_case():
    s = s_prime_n(1)
    assert s.n == 3 and not s.classes


def test_s_doubleprime_frozen_value():
    s = s_doubleprime_n(2)
    assert s.n == 20
    assert to_json(s)["classes"] == [
        [[0, 5], [0, 7], [2, 13], [2, 15]],
        [[1, 5], [1, 13], [3, 7], [3, 15]],
    ]


def test_s_doubleprime_degenerate_and_guard():
    assert s_doubleprime_n(1).n == 6
    assert not s_doubleprime_n(1).classes
    for n in (4, 10 ** 12):
        with pytest.raises(SizeGuardError, match=f"s_doubleprime_n n={n} needs at least"):
            s_doubleprime_n(n)


def test_s_doubleprime_3_validates():
    s = s_doubleprime_n(3)
    assert s.n == 2 ** 3 + 2 ** 6
    assert validate(s) is None
    # frozen regression: six candidate classes survive with two members or
    # more at n=3 (two at n=2)
    assert len(s.classes) == 6


def test_meet_is_longest_common_prefix():
    assert meet("0010", "0011") == "001"
    assert meet("10", "01") == ""
    assert meet("11", "11") == "11"


def test_max_meet_identity_frozen_value():
    lab = max_meet_identity(2)
    assert lab.labels == ("00", "01", "10", "11")
    assert to_json(lab.base)["classes"] == [
        [[0, 2], [0, 3], [1, 2], [1, 3]]
    ]


def test_max_meet_identity_is_meet_respecting():
    for n_str in (1, 2, 3):
        assert is_meet_respecting(max_meet_identity(n_str))


def test_max_meet_guard():
    # decided on the exponent: 2^(10^12) is never built
    for n_str in (7, 10 ** 12):
        with pytest.raises(SizeGuardError, match=f"n_str={n_str} needs at least 2\\^{n_str} points"):
            max_meet_identity(n_str)
    for n_str in (5, 6):  # 32 and 64 points, within the ground bound
        s = max_meet_identity(n_str)
        assert s.base.n == 2 ** n_str and is_meet_respecting(s)
        assert check(s.base).accepted


def test_is_meet_respecting_detects_violations():
    base = identity_from_subsets(4, "pairs", [[[0, 1], [2, 3]]])
    # {00,01} meet "0" but {10,11} meet "1": one class, two meets
    assert not is_meet_respecting(LabeledIdentity(base, ("00", "01", "10", "11")))


def test_labeled_identity_rejects_bad_labels():
    base = trivial(3)
    with pytest.raises(UsageError):
        LabeledIdentity(base, ("0", "1"))  # wrong count
    with pytest.raises(UsageError):
        LabeledIdentity(base, ("0", "0", "1"))  # not injective
    with pytest.raises(UsageError):
        LabeledIdentity(base, ("0", "01", "1"))  # ragged lengths


def test_simplify_needs_full_flavor():
    with pytest.raises(UsageError):
        simplify_k(trivial(3), 2)


def reference_simplify_k(s: Identity, k: int) -> Identity:
    """simplify_k as first written: relate every pair of equal-size subsets
    directly, merge related pairs with a union-find, then audit each class."""
    if s.flavor != "full":
        raise UsageError(f"simplify_k needs full flavor, got {s.flavor!r}")
    if k < 1:
        raise UsageError(f"simplify_k needs k >= 1, got {k}")
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

    by_size = {}
    for mask in range(1 << s.n):
        by_size.setdefault(mask.bit_count(), []).append(mask)

    classes = []
    for size, masks in by_size.items():
        parent = {m: m for m in masks}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b, c in itertools.combinations(masks, 2):
            if related(b, c):
                parent[find(b)] = find(c)
        groups = {}
        for m in masks:
            groups.setdefault(find(m), []).append(m)
        for g in groups.values():
            if len(g) >= 2:
                for b, c in itertools.combinations(g, 2):
                    if not (related(b, c) and related(c, b)):
                        raise SimplifyError(
                            "coarsened relation is not an equivalence: "
                            f"subsets {elems_of(b)} and {elems_of(c)} were "
                            "merged transitively but are not directly related"
                        )
                classes.append(frozenset(g))
    return Identity(s.n, "full", frozenset(classes))


@st.composite
def full_identities_and_k(draw):
    # every size layer of the 2^n subsets cut into random blocks
    n = draw(st.integers(1, 6))
    classes = []
    for size in range(n + 1):
        layer = [m for m in range(1 << n) if m.bit_count() == size]
        blocks = draw(st.integers(1, len(layer)))
        labels = draw(st.lists(st.integers(0, blocks - 1),
                               min_size=len(layer), max_size=len(layer)))
        by_label = {}
        for m, label in zip(layer, labels):
            by_label.setdefault(label, set()).add(m)
        classes += [frozenset(g) for g in by_label.values() if len(g) >= 2]
    return Identity(n, "full", frozenset(classes)), draw(st.integers(1, n))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_simplify_matches_the_reference_on_catalog(full5, k):
    for s in full5.members():
        assert simplify_k(s, k) == reference_simplify_k(s, k)


@given(case=full_identities_and_k())
def test_simplify_matches_the_reference_on_random_identities(case):
    s, k = case
    assert simplify_k(s, k) == reference_simplify_k(s, k)


def test_simplify_square_example():
    # the singletons are one class and the pairs {0,1}~{2,3}, {0,2}~{1,3}:
    # k = 1 sees only singletons, so each size layer becomes one class;
    # k >= 2 sees the pairs and keeps the input as it is
    s = from_json({"n": 4, "flavor": "full", "classes": [
        [[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 2], [1, 3]]]})
    layers = [[list(sub) for sub in itertools.combinations(range(4), j)] for j in (1, 2, 3)]
    coarse = from_json({"n": 4, "flavor": "full", "classes": layers})
    for k, expected in ((1, coarse), (2, s), (3, s)):
        assert simplify_k(s, k) == reference_simplify_k(s, k) == expected


def test_simplify_keeps_trivial_trivial():
    # a subset is never related to its shifted copy when nothing else is,
    # so the all-singleton identity is a fixed point
    s = simplify_k(trivial_full(3), 2)
    assert validate(s) is None
    assert s == trivial_full(3)


def test_simplify_output_validates_on_catalog(full5):
    for s in list(full5.members())[:40]:
        out = simplify_k(s, 2)
        assert validate(out) is None
        assert out.n == s.n


def test_simplify_is_monotone_in_k(full5):
    # a larger k distinguishes at least as much as a smaller one
    for s in list(full5.members())[:20]:
        coarse = simplify_k(s, 1)
        fine = simplify_k(s, 2)
        coarse_ids = {}
        for idx, cl in enumerate(coarse.class_list()):
            for b in cl:
                coarse_ids[b] = idx
        for cl in fine.class_list():
            owners = {coarse_ids.get(b, ("s", b)) for b in cl}
            assert len(owners) == 1


def test_order_forcing_extension_shape():
    s = s_k(3)
    ext = order_forcing_extension(s)
    assert ext.n == 2 * s.n - 1
    assert validate(ext) is None
    # each fresh pair {l, n+l} joins the class of {l, l+1}
    for l in range(s.n - 1):
        fresh = mask_of((l, s.n + l))
        anchor = mask_of((l, l + 1))
        cl = ext.class_of(fresh)
        assert cl is not None and anchor in cl


def test_order_forcing_extension_restricts_back(cat4):
    for s in cat4.members():
        if s.n < 2:
            continue
        ext = order_forcing_extension(s)
        back = restrict(ext, range(s.n))
        assert canonical_form(back)[0] == canonical_form(s)[0]


def test_order_forcing_extension_rejects_tiny_ground():
    with pytest.raises(UsageError):
        order_forcing_extension(trivial(1))


def test_order_forcing_extension_refuses_an_output_above_the_ground_bound():
    # 2n - 1 points: 79 for n = 40 is refused, 71 for n = 36 is built
    with pytest.raises(SizeGuardError, match="ground size 79 exceeds the bound 72"):
        order_forcing_extension(trivial(40))
    assert order_forcing_extension(trivial(36)).n == 71


@pytest.mark.parametrize("s", [
    pytest.param(Identity(4, "pairs", frozenset({frozenset({0b0011, 0b0111})})),
                 id="mixed cardinalities"),
    pytest.param(Identity(3.0, "pairs", frozenset()), id="float n"),
])
def test_order_forcing_extension_refuses_malformed_input(s):
    with pytest.raises(UsageError):
        order_forcing_extension(s)


@pytest.mark.parametrize("s", [
    pytest.param(Identity(3, "full", frozenset(
        {frozenset({0b011, 0b101}), frozenset({0b101, 0b110})})), id="overlapping classes"),
    pytest.param(Identity(3.0, "full", frozenset()), id="float n"),
])
def test_simplify_refuses_malformed_input(s):
    with pytest.raises(UsageError):
        simplify_k(s, 1)
