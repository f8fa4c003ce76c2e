"""Ranked-coloring membership criterion for pairs identities.

Accepts an identity iff some linear order of the ground set and some rank
function h on pair classes satisfy, for every class a with left endpoint
set a0 and right endpoint set a1 (per the chosen order):

  (i)   a0 and a1 are disjoint,
  (ii)  each pair of a has its smaller element in a0 and larger in a1,
  (iii) every pair drawn from a's endpoints that is not itself in a sits
        in a class ranked strictly above a.

The strengthened mode additionally demands, for every two distinct
non-singleton classes, that at least one of them has no foreign pairs
inside the other's span (no mutual feeding).  Mutual feeding is a 2-cycle
in the constraint graph of (iii), which every accepted identity lacks, so
the strengthened verdict always equals the plain one; the mode only marks
the verdict, and the audit in ``explain`` re-checks mutual feeding
independently for strengthened verdicts.

This is a necessary condition for realizability by every coloring at the
target cardinals, not a full membership decision: some patterns outside
the duplication/restriction catalog still pass it (the two-class splitting
families do).  Non-membership for those is certified by catalog
restriction queries instead; see the closure module.

Implementation note: condition (iii)'s constraint graph does not depend
on the chosen order, because a class's endpoint union equals the union of
its pairs under every order.  The checker therefore tests acyclicity, and
ranks the classes, once in one depth-first walk, and searches orders only
for (i)/(ii), which is semantically identical to the per-order
formulation but prunes entire searches.  The search itself
enumerates orders lexicographically with prefix pruning: a prefix dies as
soon as a class has some element on both sides.  Verdict ties break to the
lexicographically least accepting order.

Size guard: the search runs on the active elements (those in stored
classes); every other element only forms singleton sink classes that
cannot affect any condition.  The subtree under a search state depends
only on the placed elements and their right-endpoint bits, so states
whose every candidate failed are memoized and never searched again.
Every candidate the order search tries counts against
``core.SEARCH_GUARD`` (2^21 nodes): a search that would need more raises
a size-guard error (exit 4 on the CLI) instead of answering after many
seconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import SEARCH_GUARD, Identity, _check_valid, elems_of, mask_of
from .errors import SizeGuardError, UsageError

EXPLAIN_BOUND = 7  # per-order forensics enumerate all orders: factorial


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the check, carrying witnesses when accepted.

    order: permutation of the whole ground set inducing the linear order.
    h: rank per stored class (aligned with Identity.class_list()) plus
       ranks for the singleton pair classes that receive constraints;
       unlisted singletons implicitly rank 0.
    endpoints: per stored class, the (a0, a1) element tuples.
    """

    accepted: bool
    strengthened: bool
    order: tuple | None = None
    class_ranks: tuple | None = None
    pair_ranks: tuple | None = None  # ((i, j), rank) pairs
    endpoints: tuple | None = None


def _span(cl) -> int:
    m = 0
    for b in cl:
        m |= b
    return m


def _constraint_graph(s: Identity):
    """Stored classes as pair lists, and an edge idx -> node for every
    foreign pair inside a class's span.

    Nodes 0..k-1 are the stored classes (class_list order); a singleton
    pair class is the tagged node ("p", mask), so it can never alias a
    class index.
    """
    stored = [tuple(sorted(c)) for c in s.class_list()]
    owner = {}
    for idx, cl in enumerate(stored):
        for b in cl:
            owner[b] = idx
    edges = {i: set() for i in range(len(stored))}
    for i, cl in enumerate(stored):
        span = elems_of(_span(cl))
        members = set(cl)
        for a, b in itertools.combinations(span, 2):
            p = (1 << a) | (1 << b)
            if p in members:
                continue
            edges[i].add(owner.get(p, ("p", p)))
    return stored, edges


def _rank_or_cycle(edges):
    """``(rank, None)`` with longest-path-in ranks, strictly increasing
    along every edge, or ``(None, cycle)`` when the edges cycle.

    One depth-first walk from each node in ``edges`` order, class
    successors in index order (singleton classes have no out-edges), so
    the reported cycle does not depend on set order.  The walk keeps its
    own stack, so any number of classes is fine.  Without a cycle, the
    reverse finishing order is topological, so relaxing each node's
    out-edges in that order ranks every node, singleton sinks included.
    """
    def successors(v):
        return iter(sorted(u for u in edges.get(v, ()) if isinstance(u, int)))

    color = {}
    finished = []
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
                    return None, path[path.index(w):]
                if c is None:
                    color[w] = 1
                    stack.append((w, successors(w)))
                    break
            else:
                stack.pop()
                color[v] = 2
                finished.append(v)
    rank = {}
    for v in reversed(finished):
        rank.setdefault(v, 0)
        for w in edges.get(v, ()):
            rank[w] = max(rank.get(w, 0), rank[v] + 1)
    return rank, None


def _endpoints(cl, position):
    """Left and right endpoint sets of a class under an order's positions."""
    a0, a1 = set(), set()
    for b in cl:
        i, j = elems_of(b)
        lo, hi = (i, j) if position[i] < position[j] else (j, i)
        a0.add(lo)
        a1.add(hi)
    return a0, a1


def _order_search(stored, active):
    """Lex-least order of the active elements passing (i)+(ii), or None.

    Depth-first over positions, smallest element first.  The state is
    passed down by value: ``placed`` is a bitmask of the ordered elements,
    and bit ``w*idx + x`` of ``right`` says x closes a pair of class idx
    from the right (only placed elements have such bits).  Placing x after
    a partner makes that partner a left endpoint, so x dies iff some
    partner in the same class is already a right endpoint there.  The
    subtree under a state depends only on ``(placed, right)``, so a state
    whose every candidate failed goes into ``dead`` and fails at once when
    reached again.  Every candidate tried spends one of SEARCH_GUARD
    nodes; running out raises SizeGuardError.
    """
    w = max(active, default=0) + 1
    blocked = dict.fromkeys(active, 0)  # right bits of x's partners
    closes = {x: {} for x in active}  # x's right bit -> x's partners there
    for idx, cl in enumerate(stored):
        for b in cl:
            for x, y in (elems_of(b), elems_of(b)[::-1]):
                blocked[x] |= 1 << w * idx + y
                bit = 1 << w * idx + x
                closes[x][bit] = closes[x].get(bit, 0) | 1 << y
    full = mask_of(active)
    nodes = 0
    dead = set()

    def extend(placed, right):
        nonlocal nodes
        if placed == full:
            return ()
        if (placed, right) in dead:
            return None
        for x in active:
            if placed >> x & 1:
                continue
            nodes += 1
            if nodes > SEARCH_GUARD:
                raise SizeGuardError(
                    f"order search over {len(active)} active elements passed "
                    f"SEARCH_GUARD ({SEARCH_GUARD} nodes) at depth {placed.bit_count()}"
                )
            if right & blocked[x]:
                continue
            grown = right
            for bit, partners in closes[x].items():
                if placed & partners:
                    grown |= bit
            rest = extend(placed | 1 << x, grown)
            if rest is not None:
                return (x,) + rest
        dead.add((placed, right))
        return None

    return extend(0, 0)


def check(s: Identity, strengthened: bool = False) -> CriterionVerdict:
    """Decide the ranked-coloring criterion.

    Rejects when the constraint graph has a cycle or no order passes the
    endpoint conditions; otherwise returns the lex-least accepting order,
    the topological ranks, and the per-class endpoint sets.  The
    ``strengthened`` flag is recorded in the verdict and changes nothing
    else: its extra condition is implied by the acyclicity test.
    """
    _check_valid(s)
    if s.flavor != "pairs":
        raise UsageError(f"criterion needs pairs flavor, got {s.flavor!r}")
    active = s.active_elements()
    stored, edges = _constraint_graph(s)
    rank, _ = _rank_or_cycle(edges)
    if rank is None:
        return CriterionVerdict(False, strengthened)
    order_active = _order_search(stored, active)
    if order_active is None:
        return CriterionVerdict(False, strengthened)
    inactive = sorted(set(range(s.n)).difference(active))
    order = tuple(order_active) + tuple(inactive)
    posn = {x: i for i, x in enumerate(order)}
    endpoints = [
        tuple(tuple(sorted(side)) for side in _endpoints(cl, posn)) for cl in stored
    ]
    class_ranks = tuple(rank.get(i, 0) for i in range(len(stored)))
    pair_ranks = tuple(
        sorted(
            (elems_of(v[1]), r)
            for v, r in rank.items()
            if not isinstance(v, int) and r > 0
        )
    )
    return CriterionVerdict(
        True, strengthened, order, class_ranks, pair_ranks, tuple(endpoints)
    )


def _audit_accept(verdict: CriterionVerdict, s: Identity):
    """Independent re-verification of an accepted verdict.

    Recomputes every condition directly from the definition, sharing no
    code with the search; raises RuntimeError on the first failure.
    """
    order = verdict.order
    if order is None or sorted(order) != list(range(s.n)):
        raise RuntimeError("verdict order is not a permutation of the ground set")
    position = {x: i for i, x in enumerate(order)}
    stored = [tuple(sorted(c)) for c in s.class_list()]
    if verdict.class_ranks is None or len(verdict.class_ranks) != len(stored):
        raise RuntimeError("verdict ranks do not match the class list")
    pair_rank = {mask_of(p): r for p, r in (verdict.pair_ranks or ())}

    def rank_of(pmask):
        for idx, cl in enumerate(stored):
            if pmask in cl:
                return verdict.class_ranks[idx]
        return pair_rank.get(pmask, 0)

    for idx, cl in enumerate(stored):
        a0 = {min((i, j), key=position.get) for b in cl for i, j in [elems_of(b)]}
        a1 = {max((i, j), key=position.get) for b in cl for i, j in [elems_of(b)]}
        if a0 & a1:
            raise RuntimeError(
                f"class {idx}: endpoint sets intersect at {sorted(a0 & a1)}"
            )
        if verdict.endpoints is not None:
            e0, e1 = verdict.endpoints[idx]
            if set(e0) != a0 or set(e1) != a1:
                raise RuntimeError(f"class {idx}: endpoint sets do not match order")
        h_a = verdict.class_ranks[idx]
        for x, y in itertools.combinations(sorted(a0 | a1), 2):
            p = (1 << x) | (1 << y)
            if p in cl:
                continue
            if rank_of(p) <= h_a:
                raise RuntimeError(
                    f"class {idx}: pair {(x, y)} inside the span ranks "
                    f"{rank_of(p)} <= {h_a}"
                )
    if verdict.strengthened:
        for i, j in itertools.combinations(range(len(stored)), 2):
            si = _span(stored[i])
            sj = _span(stored[j])
            i_feeds_j = any(b & ~si == 0 and b not in stored[i] for b in stored[j])
            j_feeds_i = any(b & ~sj == 0 and b not in stored[j] for b in stored[i])
            if i_feeds_j and j_feeds_i:
                raise RuntimeError(f"classes {i} and {j} feed each other")


def _first_violation(stored, order):
    """Tag the first failed condition for one candidate order."""
    position = {x: i for i, x in enumerate(order)}
    for idx, cl in enumerate(stored):
        a0, a1 = _endpoints(cl, position)
        both = a0 & a1
        if both:
            return f"class {idx}: element {min(both)} is both a left and a right endpoint"
    return None


def explain(verdict: CriterionVerdict, s: Identity) -> dict:
    """Human-readable forensics for a verdict.

    For an accepted verdict, re-verifies every condition independently and
    reports the witnesses (re-verification failure raises, since it means
    the checker and the auditor disagree).  For a rejected verdict, lists
    either the constraint cycle or, per candidate order of the active
    elements, the first violated condition.  Above EXPLAIN_BOUND active
    elements a rejection is explained by its constraint cycle alone, with
    no per-order list; an acyclic one is a size-guard error.
    """
    _check_valid(s)
    stored, edges = _constraint_graph(s)
    lines = []
    if verdict.accepted:
        _audit_accept(verdict, s)
        lines.append(f"accepted; order {list(verdict.order)}")
        for idx, cl in enumerate(stored):
            e0, e1 = verdict.endpoints[idx]
            lines.append(
                f"class {idx} {[elems_of(b) for b in cl]}: rank "
                f"{verdict.class_ranks[idx]}, left {list(e0)}, right {list(e1)}"
            )
        for p, r in verdict.pair_ranks:
            lines.append(f"singleton pair {tuple(p)}: rank {r}")
        lines.append("independent re-verification passed")
        return {"accepted": True, "lines": lines}
    _, cycle = _rank_or_cycle(edges)
    if cycle is not None:
        lines.append(f"constraint cycle among classes: {cycle}")
    active = s.active_elements()
    if len(active) > EXPLAIN_BOUND:
        if cycle is not None:  # no order can pass, so none is listed
            return {"accepted": False, "lines": lines}
        raise SizeGuardError(
            f"per-order forensics supports at most {EXPLAIN_BOUND} active "
            f"elements, got {len(active)}"
        )
    orders = []
    for order in itertools.permutations(active):
        tag = _first_violation(stored, order)
        if tag is None:
            if cycle is None:
                raise RuntimeError(
                    "verdict/identity mismatch: this order satisfies every "
                    f"condition yet the verdict says rejected: {list(order)}"
                )
            tag = (
                "endpoint conditions hold but the rank constraints cycle: "
                f"classes {cycle}"
            )
        orders.append({"order": list(order), "violation": tag})
    lines.append(f"all {len(orders)} candidate orders fail")
    return {"accepted": False, "lines": lines, "orders": orders}
