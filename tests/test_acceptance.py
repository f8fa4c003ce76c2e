"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <nn> PASS|FAIL: <measurements>` before its
assertions, so the suite log carries one line per criterion regardless of
outcome.  Time tolerances are asserted with the stated budgets.

Criterion 02 checks how the two-block splitting family is rejected: by a
6-element restriction outside the size-6 catalog, not by the ranked-order
test, which is only a necessary condition and accepts the family.  The
test asserts both halves: the restriction is absent, and the criterion's
acceptance is audited and matches a brute force over all orders.  The
certificate test right after it counts every absent restriction.  See also
the criterion module notes.
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time

import conftest
import pytest

from identity_lab import (
    LabeledIdentity,
    builtin_coloring,
    catalog_from_json,
    catalog_to_json,
    coloring_from_json,
    coloring_to_json,
    duplicate,
    from_json,
    id_of,
    is_meet_respecting,
    member_of_catalog,
    order_forcing_extension,
    product_coloring,
    realizes,
    restrict,
    s_k,
    s_prime_n,
    simplify_k,
    to_json,
)
from identity_lab.core import elems_of
from identity_lab.criterion import check, explain
from test_oracle import brute_unordered_id_of


def _line(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.acceptance_report.append(line)


def test_acceptance_01_splitting_family_rejected():
    t0 = time.time()
    sk3 = (check(s_k(3)).accepted, check(s_k(3), strengthened=True).accepted)
    t3 = time.time() - t0
    t0 = time.time()
    sk4 = (check(s_k(4)).accepted, check(s_k(4), strengthened=True).accepted)
    t4 = time.time() - t0
    # plain-mode verdicts double as regression values: both reject via the
    # same two-class constraint cycle, before any order enumeration
    ok = sk3 == (False, False) and sk4 == (False, False) and t3 < 1 and t4 < 60
    _line(1, ok, f"s_k(3) verdicts {sk3} in {t3:.2f}s (<1s); "
                 f"s_k(4) verdicts {sk4} in {t4:.2f}s (<60s)")
    assert sk3 == (False, False)
    assert sk4 == (False, False)
    assert t3 < 1 and t4 < 60


def _accepting_orders(s):
    """Every order of 0..n-1 passing conditions (i)-(iii), by brute force.

    Written straight from the definition and sharing no code with the
    criterion module, so it serves as that module's slow oracle.  (ii) holds
    by construction, since a0/a1 are the smaller/larger endpoints under the
    order.  (iii) is the same for every order (a class's endpoints are the
    elements of its pairs under any order): ranks exist iff the graph from
    each class to the classes of the foreign pairs in its span is acyclic.
    """
    classes = [[elems_of(b) for b in cl] for cl in s.class_list()]
    owner = {p: idx for idx, cl in enumerate(classes) for p in cl}
    feeds = []
    for idx, cl in enumerate(classes):
        span = sorted({x for p in cl for x in p})
        # singleton pairs are sinks: their span holds no foreign pair
        feeds.append({
            owner[p] for p in itertools.combinations(span, 2)
            if p in owner and owner[p] != idx
        })
    left = set(range(len(classes)))
    while sinks := {i for i in left if not feeds[i] & left}:
        left -= sinks
    if left:
        return []
    out = []
    for order in itertools.permutations(range(s.n)):
        pos = {x: i for i, x in enumerate(order)}
        if all(
            not ({min(p, key=pos.get) for p in cl}
                 & {max(p, key=pos.get) for p in cl})
            for cl in classes
        ):
            out.append(order)
    return out


def test_acceptance_02_two_block_family_rejected(cat6):
    # s_prime_n(2) is excluded by restriction: the catalog is closed under
    # restriction (acceptance 04), so a restriction outside it rules the
    # family out.  The order/rank test is only a necessary condition and
    # accepts the family; that acceptance is audited and cross-checked
    # against a brute force over all orders.
    sp2 = s_prime_n(2)
    witness = (0, 1, 2, 4, 5, 6)
    absent = not member_of_catalog(cat6, restrict(sp2, witness), ordered=False)
    t0 = time.time()
    v = check(sp2, strengthened=True)
    el = time.time() - t0
    plain = check(sp2)
    audited = (
        v.accepted
        and "independent re-verification passed" in explain(v, sp2)["lines"]
    )
    orders = _accepting_orders(sp2)
    lex_least = orders[0] if orders else None
    ok = (absent and v.accepted and plain.accepted and plain.order == v.order
          and audited and lex_least == v.order and el < 10)
    _line(2, ok, f"rejected by restriction: {witness} restriction outside "
                 f"the size-6 catalog={absent}; the order/rank criterion "
                 f"accepts in both modes with order {v.order} in {el:.2f}s "
                 f"(<10s), audited={audited}; brute force: "
                 f"{len(orders)}/{math.factorial(sp2.n)} accepting orders, "
                 f"lex-least {lex_least}")
    assert absent
    assert v.accepted and plain.accepted
    assert plain.order == v.order
    assert audited
    assert lex_least == v.order
    assert el < 10


def test_acceptance_02_certificate_via_catalog(cat6):
    t0 = time.time()
    sp2 = s_prime_n(2)
    witness = (0, 1, 2, 4, 5, 6)
    r = restrict(sp2, witness)
    absent = not member_of_catalog(cat6, r, ordered=False)
    missing = sum(
        1
        for keep in itertools.combinations(range(sp2.n), 6)
        if not member_of_catalog(cat6, restrict(sp2, keep), ordered=False)
    )
    el = time.time() - t0
    ok = absent and missing == 8
    _line(2, ok, f"certificate: restriction to {witness} is outside the "
                 f"size-6 catalog; {missing}/28 six-element restrictions "
                 f"absent in {el:.1f}s")
    assert absent
    assert missing == 8


def test_acceptance_03_catalog_members_all_accepted(cat6):
    t0 = time.time()
    rejected = 0
    for s in cat6.members():
        if not check(s).accepted or not check(s, strengthened=True).accepted:
            rejected += 1
    el = time.time() - t0
    ok = rejected == 0 and el < 300
    _line(3, ok, f"{len(cat6)} entries x both modes, {rejected} rejections "
                 f"in {el:.1f}s (<300s)")
    assert rejected == 0
    assert el < 300


def test_acceptance_04_closure_laws(cat6):
    t0 = time.time()
    violations = 0
    for s in cat6.members():
        n = s.n
        for m in range(n + 1):
            if 2 * n - m <= cat6.max_n and duplicate(s, m) not in cat6:
                violations += 1
            if restrict(duplicate(s, m), range(n)) != s:
                violations += 1
        if n > 1:
            for size in range(1, n):
                for keep in itertools.combinations(range(n), size):
                    if restrict(s, keep) not in cat6:
                        violations += 1
    el = time.time() - t0
    ok = violations == 0 and el < 300
    _line(4, ok, f"duplicate/restrict closure plus recovery over "
                 f"{len(cat6)} entries, {violations} violations in "
                 f"{el:.1f}s (<300s)")
    assert violations == 0
    assert el < 300


def test_acceptance_05_two_simplification_stays_in_catalog(full5):
    t0 = time.time()
    failures = 0
    for s in full5.members():
        if not member_of_catalog(full5, simplify_k(s, 2), ordered=False):
            failures += 1
    el = time.time() - t0
    ok = failures == 0 and el < 600
    _line(5, ok, f"simplify(s, 2) lands in the catalog for all "
                 f"{len(full5)} subset-level entries, {failures} failures "
                 f"in {el:.1f}s (<600s)")
    assert failures == 0
    assert el < 600


def test_acceptance_06_unordered_equals_permuted_ordered():
    t0 = time.time()
    mismatches = 0
    for i in range(50):
        n = 4 + i % 3
        colors = 2 + i % 2
        c = builtin_coloring("random", n=n, colors=colors, seed=1000 + i)
        if id_of(c, max_size=4, ordered=False) != brute_unordered_id_of(c, 4):
            mismatches += 1
    el = time.time() - t0
    ok = mismatches == 0 and el < 300
    _line(6, ok, f"50 seeded colorings (n<=6, <=3 colors), unordered id_of "
                 f"against the all-injection brute force: {mismatches} "
                 f"mismatches in {el:.1f}s (<300s)")
    assert mismatches == 0
    assert el < 300


def test_acceptance_07_negative_witness_and_min_pair_property():
    t0 = time.time()
    none_found = realizes(builtin_coloring("min_pair", n=8), s_k(3), ordered=False)
    t_a = time.time() - t0
    t0 = time.time()
    violations = 0
    c = builtin_coloring("min_pair", n=8)
    for a, b, g in itertools.permutations(range(8), 3):
        vab = c.table[(a, b) if a < b else (b, a)]
        vag = c.table[(a, g) if a < g else (g, a)]
        if vab == vag and not (a < b and a < g):
            violations += 1
    t_b = time.time() - t0
    ok = none_found is None and violations == 0 and t_a < 1 and t_b < 1
    _line(7, ok, f"splitting family unrealized in {t_a:.2f}s (<1s); "
                 f"equal colors force the shared low endpoint, {violations} "
                 f"violations in {t_b:.2f}s (<1s)")
    assert none_found is None
    assert violations == 0
    assert t_a < 1 and t_b < 1


def test_acceptance_08_meet_pullback():
    t0 = time.time()
    c = builtin_coloring("sierpinski_meet", len=3)
    checked = failures = 0
    for s in id_of(c, 4, ordered=False):
        if s.n < 2:
            continue
        r = realizes(c, s, ordered=False)
        labels = tuple(c.meta["labels"][x] for x in r.embedding)
        checked += 1
        if not is_meet_respecting(LabeledIdentity(s, labels)):
            failures += 1
    el = time.time() - t0
    ok = failures == 0 and checked > 0 and el < 30
    _line(8, ok, f"{checked} realized patterns pull back meet-respecting, "
                 f"{failures} failures in {el:.1f}s (<30s)")
    assert failures == 0 and checked > 0
    assert el < 30


def test_acceptance_09_extension_forces_increasing_prefix(cat4):
    t0 = time.time()
    realizations = violations = 0
    base = builtin_coloring("min_pair", n=7)
    for s in cat4.members():
        if s.n < 2:
            continue
        ext = order_forcing_extension(s)
        classes = [
            [tuple(sorted(elems_of(b))) for b in cl] for cl in ext.class_list()
        ]
        for seed in range(10):
            c = product_coloring(
                builtin_coloring("random", n=7, colors=3, seed=2000 + seed), base
            )
            for h in itertools.permutations(range(7), ext.n):
                fits = True
                for cl in classes:
                    col = None
                    for a, b in cl:
                        x, y = h[a], h[b]
                        v = c.table[(x, y) if x < y else (y, x)]
                        if col is None:
                            col = v
                        elif col != v:
                            fits = False
                            break
                    if not fits:
                        break
                if fits:
                    realizations += 1
                    prefix = [h[i] for i in range(s.n)]
                    if prefix != sorted(prefix):
                        violations += 1
    el = time.time() - t0
    detail = (
        f"{realizations} realizations across 14 patterns x 10 seeds, "
        f"{violations} non-increasing prefixes in {el:.1f}s (<300s)"
    )
    if realizations == 0:
        detail += " (report-only: corpus yielded no realizations)"
    ok = violations == 0 and el < 300
    _line(9, ok, detail)
    assert violations == 0
    assert el < 300


def test_acceptance_10_determinism_and_round_trips(tmp_path, cat4, full5):
    t0 = time.time()
    cli = shutil.which("identity-lab")
    base = [cli] if cli else [sys.executable, "-m", "identity_lab.cli"]

    def same_across_seeds(*args):
        # two fixed hash seeds, so output that follows set order differs
        a, b = (subprocess.run(base + list(args), capture_output=True, text=True,
                               env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in "01")
        return a == b

    sk3 = tmp_path / "sk3.json"
    sk3.write_text(json.dumps(to_json(s_k(3))))
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"builtin": "random", "n": 6, "colors": 2, "seed": 17}))
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps({"n": 5, "flavor": "pairs", "classes": [
        [[0, 1], [2, 4]], [[1, 2], [1, 3]], [[1, 4], [2, 3]]]}))

    runs_identical = same_across_seeds("check", "--in", str(sk3), "--json")
    lists_identical = same_across_seeds(
        "oracle", "--coloring", str(col), "--list", "--max-size", "4", "--json")
    explain_identical = same_across_seeds("explain", "--in", str(cyc), "--json")

    identities_ok = all(
        from_json(to_json(s)) == s for s in list(cat4.members()) + [s_k(4), s_prime_n(2)]
    )
    col_obj = coloring_from_json(json.loads(col.read_text()))
    colorings_ok = coloring_from_json(coloring_to_json(col_obj)).table == col_obj.table
    catalogs_ok = all(
        set(catalog_from_json(catalog_to_json(cat)).members()) == set(cat.members())
        for cat in (cat4, full5)
    )
    el = time.time() - t0
    ok = (runs_identical and lists_identical and explain_identical
          and identities_ok and colorings_ok and catalogs_ok)
    _line(10, ok, f"byte-identical reports across hash seeds 0/1: check={runs_identical} "
                  f"oracle --list={lists_identical} explain={explain_identical}; "
                  f"round trips identities="
                  f"{identities_ok} colorings={colorings_ok} catalogs="
                  f"{catalogs_ok} in {el:.1f}s")
    assert runs_identical and lists_identical and explain_identical
    assert identities_ok and colorings_ok and catalogs_ok
