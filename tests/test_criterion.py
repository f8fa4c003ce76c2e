"""Ranked-order membership test: verdicts, witnesses, invariances."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    SizeGuardError,
    UsageError,
    generate_catalog,
    permute,
    restrict,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    trivial,
    trivial_full,
)
from identity_lab.core import elems_of, from_json, identity_from_subsets, mask_of
from identity_lab.criterion import (
    _audit_accept,
    _constraint_graph,
    _order_search,
    _rank_or_cycle,
    check,
    explain,
)

# one acyclic class on 12 active elements with the triangle 3-4-8, so no
# order passes; an order search that does not memoize dead states needs
# about 15M nodes to find that out
DEEP_ORDER_SEARCH = {"n": 12, "flavor": "pairs", "classes": [[
    [0, 5], [0, 6], [0, 11], [1, 2], [1, 8], [2, 6], [3, 4], [3, 8], [4, 7],
    [4, 8], [4, 9], [4, 10], [5, 9], [5, 10], [7, 10], [7, 11], [8, 10], [8, 11],
]]}

# two acyclic classes on 20 active elements, each bipartite, whose order
# search still passes SEARCH_GUARD (2**21 nodes), at depth 14
ORDER_SEARCH_PAST_GUARD = {"n": 20, "flavor": "pairs", "classes": [
    [[0, 2], [0, 17], [0, 18], [2, 4], [4, 5], [4, 6], [4, 14], [4, 15], [4, 17],
     [5, 10], [5, 11], [6, 11], [8, 10], [9, 14], [10, 13], [10, 14], [10, 15]],
    [[1, 8], [1, 16], [2, 19], [3, 17], [5, 12], [5, 16], [7, 19], [13, 14],
     [14, 17], [15, 19], [16, 19]],
]}


def cherry_chain(n, seed):
    """Classes {{s[t-1], s[t]}, {s[t-1], s[t+1]}} along a greedy random walk
    s on n points that never reuses a pair; each class feeds the next."""
    rng = random.Random(seed)
    walk, used, classes = [0, 1], {(0, 1)}, []
    while True:
        a, b = walk[-2:]
        fresh = [x for x in range(n) if x not in (a, b)
                 and tuple(sorted((b, x))) not in used
                 and tuple(sorted((a, x))) not in used]
        if not fresh:
            return classes
        x = rng.choice(fresh)
        used |= {tuple(sorted((b, x))), tuple(sorted((a, x)))}
        classes.append([[a, b], [a, x]])
        walk.append(x)


def test_trivial_accepted_with_increasing_order():
    v = check(trivial(8))
    assert v.accepted and v.order == tuple(range(8))
    assert check(trivial(8), strengthened=True).accepted


def test_splitting_family_rejected_both_modes():
    for k in range(3, 12):  # up to s_k(11), the largest within the ground bound
        assert not check(s_k(k)).accepted
        assert not check(s_k(k), strengthened=True).accepted


def test_two_block_splitting_family_passes_the_order_test():
    # the rank conditions alone do not exclude this family; its exclusion
    # is a catalog-restriction fact (see the closure tests)
    assert check(s_prime_n(2)).accepted
    assert check(s_prime_n(2), strengthened=True).accepted
    for n in (3, 4):  # 15 and 24 active elements
        v = check(s_prime_n(n))
        assert v.accepted
        _audit_accept(v, s_prime_n(n))


def test_doubled_splitting_family_passes_the_order_test():
    for n in (2, 3):  # s_doubleprime_n(3) has 32 active elements
        v = check(s_doubleprime_n(n), strengthened=True)
        assert v.accepted
        _audit_accept(v, s_doubleprime_n(n))


def test_rejects_non_pairs_input():
    with pytest.raises(UsageError):
        check(trivial_full(3))


def test_fifteen_active_elements_are_answered():
    cls = [[[2 * i, 2 * i + 1], [2 * i, 2 * i + 2]] for i in range(0, 7)]
    big = identity_from_subsets(16, "pairs", cls)
    v = check(big)
    assert v.accepted
    _audit_accept(v, big)


def test_order_search_node_guard():
    with pytest.raises(SizeGuardError, match="2097152"):
        check(from_json(ORDER_SEARCH_PAST_GUARD))


def is_bipartite(pairs):
    """BFS two-coloring oracle for a pair graph."""
    nbrs = {}
    for a, b in pairs:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    side = {}
    for root in nbrs:
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def test_one_class_passes_iff_its_pair_graph_is_bipartite():
    # one class alone passes (i)+(ii) under some order iff its pairs can be
    # oriented from one side of a two-coloring to the other, and it has no
    # rank cycle; DEEP_ORDER_SEARCH is such a class with a triangle
    assert not is_bipartite(DEEP_ORDER_SEARCH["classes"][0])
    assert not check(from_json(DEEP_ORDER_SEARCH)).accepted
    rng = random.Random(7)
    outcomes = set()
    for _ in range(25):  # 10-16 active elements: a random tree plus 0-3 pairs
        n = rng.randint(10, 16)
        perm = rng.sample(range(n), n)
        cl = {tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)}
        cl |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3))}
        s = identity_from_subsets(n, "pairs", [sorted(cl)])
        assert check(s).accepted == is_bipartite(cl), sorted(cl)
        outcomes.add(is_bipartite(cl))
    assert outcomes == {True, False}


def reference_ranks(edges):
    """Longest-path-in ranks, strictly increasing along every edge, or None
    when the edges cycle: one in-degree (Kahn) pass, no recursion."""
    rank = dict.fromkeys(edges, 0)
    indeg = dict.fromkeys(edges, 0)
    for ws in edges.values():
        for w in ws:
            rank[w] = 0
            indeg[w] = indeg.get(w, 0) + 1
    ready = [v for v, d in indeg.items() if d == 0]
    for v in ready:
        for w in edges.get(v, ()):
            rank[w] = max(rank[w], rank[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return rank if len(ready) == len(rank) else None


def reference_find_cycle(edges):
    """A directed cycle among stored-class nodes, or None.

    Depth-first from each node in ``edges`` order, class successors in
    index order (singleton classes have no out-edges), so the reported
    cycle does not depend on set order.  The walk keeps its own stack, so
    any number of classes is fine.
    """
    def successors(v):
        return iter(sorted(u for u in edges.get(v, ()) if isinstance(u, int)))

    color = {}
    for root in edges:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, successors(root))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                c = color.get(w)
                if c == 1:
                    path = [u for u, _ in stack]
                    return path[path.index(w):]
                if c is None:
                    color[w] = 1
                    stack.append((w, successors(w)))
                    break
            else:
                stack.pop()
                color[v] = 2
    return None


def reference_constraint_edges(s):
    """Condition (iii) read off the definition: class idx points at the
    class of every pair drawn from its endpoint union that is not itself
    in class idx; a pair in no stored class is the node ("p", mask)."""
    classes = [{elems_of(b) for b in cl} for cl in s.class_list()]
    edges = {}
    for idx, cl in enumerate(classes):
        union = sorted({x for pair in cl for x in pair})
        edges[idx] = set()
        for pair in itertools.combinations(union, 2):
            if pair in cl:
                continue
            owners = [j for j, other in enumerate(classes) if pair in other]
            edges[idx].add(owners[0] if owners else ("p", mask_of(pair)))
    return edges


def ranks_matching_references(edges):
    """The ranks of ``_rank_or_cycle``, after checking its ranks and cycle
    against the two references."""
    rank, cycle = _rank_or_cycle(edges)
    assert rank == reference_ranks(edges)
    assert cycle == reference_find_cycle(edges)
    assert (rank is None) != (cycle is None)
    return rank


def test_rank_or_cycle_matches_references(cat6):
    families = [s_k(k) for k in range(1, 7)] + [s_prime_n(n) for n in range(1, 5)]
    families += [s_doubleprime_n(n) for n in range(1, 4)]
    outcomes = set()
    for s in list(cat6.members()) + families:
        outcomes.add(ranks_matching_references(_constraint_graph(s)[1]) is None)
    assert outcomes == {True, False}


@st.composite
def constraint_digraphs(draw):
    """Class nodes 0..k-1 pointing at classes, themselves included, and at
    tagged singleton sinks."""
    k = draw(st.integers(min_value=1, max_value=8))
    targets = st.one_of(
        st.integers(min_value=0, max_value=k - 1),
        st.integers(min_value=1, max_value=6).map(lambda m: ("p", m)),
    )
    return {i: draw(st.sets(targets, max_size=4)) for i in range(k)}


@given(edges=constraint_digraphs())
def test_rank_or_cycle_matches_references_on_digraphs(edges):
    ranks_matching_references(edges)


def test_ranks_take_one_pass_without_recursion():
    chain = {i: {i + 1} for i in range(4999)} | {4999: set()}
    assert _rank_or_cycle(chain)[0][4999] == 4999
    assert _rank_or_cycle({0: {1}, 1: {0}})[0] is None
    # 1,027 classes on 72 points, each feeding the next: the rank pass
    # answers, and the order search then runs out of nodes
    chained = identity_from_subsets(72, "pairs", cherry_chain(72, 3))
    assert len(chained.classes) == 1027
    with pytest.raises(SizeGuardError, match="2097152"):
        check(chained)


def brute_order(stored, active):
    """Slow oracle for ``_order_search``: the first permutation of the
    active elements, in lex order, under which no class has an element
    that is both a left and a right endpoint."""
    for order in itertools.permutations(active):
        pos = {x: i for i, x in enumerate(order)}
        if all(
            not {min(elems_of(b), key=pos.get) for b in cl}
            & {max(elems_of(b), key=pos.get) for b in cl}
            for cl in stored
        ):
            return order
    return None


def test_order_search_matches_brute_force():
    rng = random.Random(0)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        classes = [[] for _ in range(rng.randint(1, 3))]
        for p in pairs[: rng.randint(2, len(pairs))]:
            rng.choice(classes).append(p)
        s = identity_from_subsets(n, "pairs", classes)
        stored, _ = _constraint_graph(s)
        found = _order_search(stored, s.active_elements())
        assert found == brute_order(stored, s.active_elements()), classes
        outcomes.add(found is None)
    assert outcomes == {True, False}


def test_inactive_elements_do_not_matter():
    # padding with isolated elements changes nothing but the order length
    s = s_k(3)
    padded = identity_from_subsets(9, "pairs", [
        [[0, 3], [0, 4], [1, 5]],
        [[1, 3], [2, 4], [2, 5]],
    ])
    assert check(s).accepted == check(padded).accepted


_SMALL = generate_catalog(4).members()


@given(
    data=st.data(),
    idx=st.integers(min_value=0, max_value=len(_SMALL) - 1),
)
def test_acceptance_is_relabeling_invariant(data, idx):
    s = _SMALL[idx]
    pi = data.draw(st.permutations(range(s.n)))
    assert check(permute(s, pi)).accepted == check(s).accepted
    assert (
        check(permute(s, pi), strengthened=True).accepted
        == check(s, strengthened=True).accepted
    )


def test_acceptance_survives_restriction(cat4):
    # an accepted structure stays accepted under every restriction
    for s in cat4.members():
        if s.n < 2 or not check(s).accepted:
            continue
        for sz in range(1, s.n):
            for keep in itertools.combinations(range(s.n), sz):
                assert check(restrict(s, keep)).accepted


def _endpoint_conditions_hold(v, s):
    """Independent spot check of the emitted witness."""
    pos = {x: i for i, x in enumerate(v.order)}
    ranks = {}
    stored = s.class_list()
    for idx, cl in enumerate(stored):
        ranks[frozenset(cl)] = v.class_ranks[idx]
    for idx, cl in enumerate(stored):
        e0, e1 = v.endpoints[idx]
        if set(e0) & set(e1):
            return False
        for b in cl:
            x, y = sorted(elems_of(b), key=lambda t: pos[t])
            if x not in e0 or y not in e1:
                return False
    return True


def test_accepted_witness_satisfies_endpoint_conditions(cat6):
    sample = [s for s in cat6.members() if s.n == 6][:200]
    for s in sample:
        v = check(s)
        assert v.accepted
        assert _endpoint_conditions_hold(v, s)


def test_rank_increases_along_constraint_edges(cat6):
    sample = [s for s in cat6.members() if s.classes][:300]
    for s in sample:
        v = check(s)
        assert v.accepted
        edges = reference_constraint_edges(s)
        assert _constraint_graph(s)[1] == edges
        pair_rank = {mask_of(p): r for p, r in v.pair_ranks}
        for i, outs in edges.items():
            for t in outs:
                if isinstance(t, int):
                    assert v.class_ranks[t] > v.class_ranks[i]
                else:
                    assert pair_rank.get(t[1], 0) > v.class_ranks[i]


def test_accepted_witnesses_pass_the_independent_audit(cat6):
    from identity_lab.criterion import _audit_accept

    sample = [s for s in cat6.members()][:400]
    for s in sample:
        for strengthened in (False, True):
            v = check(s, strengthened=strengthened)
            assert v.accepted
            _audit_accept(v, s)  # raises on any condition mismatch


def test_explain_accepted_includes_witness_lines():
    out = explain(check(trivial(4)), trivial(4))
    assert out["accepted"] is True
    assert any("re-verification passed" in ln for ln in out["lines"])


def test_explain_rejected_reports_cycle_and_orders():
    s = s_k(3)
    out = explain(check(s), s)
    assert out["accepted"] is False
    assert any("cycle" in ln for ln in out["lines"])
    assert len(out["orders"]) == 720
    assert all(o["violation"] for o in out["orders"])


def test_explain_reports_rank_cycles_above_the_bound():
    # s_k(5) and s_k(6) have 15 and 21 active elements, past the per-order
    # forensics bound; the constraint cycle explains them without orders
    for k in (5, 6):
        s = s_k(k)
        assert explain(check(s), s) == {
            "accepted": False, "lines": ["constraint cycle among classes: [0, 1]"]}
    # an acyclic rejection that wide has no short explanation
    s = from_json(DEEP_ORDER_SEARCH)
    with pytest.raises(SizeGuardError, match="at most 7 active elements, got 12"):
        explain(check(s), s)


def test_find_cycle_needs_no_recursion():
    edges = {i: {(i + 1) % 5000, ("p", 3)} for i in range(5000)}
    assert _rank_or_cycle(edges)[1] == list(range(5000))
    del edges[4999]
    assert _rank_or_cycle(edges)[1] is None


def test_explain_guard_on_wide_active_sets():
    s = s_prime_n(2)
    v = check(s)
    assert v.accepted  # accepted branch audits instead of enumerating
    out = explain(v, s)
    assert out["accepted"] is True


def test_plain_and_strengthened_agree_on_catalog(cat6):
    sample = [s for s in cat6.members()][:500]
    for s in sample:
        assert check(s).accepted == check(s, strengthened=True).accepted
