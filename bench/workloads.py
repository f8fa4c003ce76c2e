"""The benchmark's three workloads: catalog, certify and oracle.

Each workload makes its inputs from a seed in ``__init__`` (no program
code runs there), builds the state a user has before the first answer in
``setup``, and times one pass of operations in ``run_pass``.  ``check``
then marks each answer right or wrong, outside any timed or traced
region; a wrong answer or an exception is counted as a failed operation,
never raised.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from identity_lab import cli, closure, core, criterion, families, oracle

DATA = Path(__file__).resolve().parent / "data"
# Size-6 pairs catalog written by ``identity-lab catalog --max-size 6``
# (see make_catalog.py); the certificate queries run against it.
CATALOG6 = DATA / "catalog6.json"


@dataclass
class Op:
    kind: str
    seconds: float
    answer: object = None  # JSON-serialisable summary of the answer
    problem: str | None = None  # why the answer is wrong, if it is


@dataclass
class Pass:
    seconds: float
    ops: list

    def times(self, *kinds) -> list:
        return [op.seconds for op in self.ops if op.kind in kinds]


def checked_pass(workload, state, runs) -> Pass:
    """Check a pass's answers; its time is the sum of its timed operations."""
    gc.unfreeze()  # frozen by timed()
    workload.check(state, runs)
    ops = [op for op, _ in runs]
    return Pass(sum(op.seconds for op in ops), ops)


def timed(kind: str, func, *args) -> tuple:
    """Run one operation on a collected heap; return (Op, result).

    Objects alive before the operation (the benchmark's answer keys and
    earlier results among them) are frozen until ``checked_pass``, so the
    garbage collector's cost depends only on what the operation itself
    allocates, and the collection before each operation stays cheap.
    Exceptions become a failed Op: guard errors, usage errors and crashes
    all count against error_rate instead of stopping the run.
    """
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        result = func(*args)
    except Exception as exc:  # counted, reported, and the run goes on
        seconds = time.perf_counter() - start
        return Op(kind, seconds, None, f"{type(exc).__name__}: {exc}"), None
    return Op(kind, time.perf_counter() - start), result


def identity_digest(idents) -> str:
    """SHA-256 of the sorted JSON texts of a set of identities."""
    texts = sorted(json.dumps(core.to_json(s), sort_keys=True) for s in idents)
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quantile(values, q: int):
    """q-th percentile (statistics.quantiles, n=100)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100)[q - 1]


class CatalogWorkload:
    """One pairs catalog at size 6 amid sixteen full-flavor catalogs at size 5.

    Isolates the closure BFS (``restrict``/``duplicate``); no canonical
    forms, criterion or oracle run.  The input is fixed by the sizes, so
    the seed changes nothing here.
    """

    FULL_BUILDS = 16
    # (entries, identity_digest) recorded at the commit that defined the benchmark
    PAIRS6 = (4262, "848965607614b790d14487c58b1a043e9ff58a4cad72a061a1564ca718bce409")
    FULL5 = (166, "ba9f67a0f2aa0ed9335fe1d6b1ac6e501b6cf83c34102886eadd62926eb2f202")

    def __init__(self, seed: int, workdir: Path):
        pass  # no random input: the sizes fix the whole workload

    def setup(self):
        """Load the expected size-6 catalog, traces included."""
        return closure.catalog_from_json(json.loads(CATALOG6.read_text()))

    def _check(self, cat, expected, reference=None):
        size, digest = len(cat), identity_digest(cat.members())
        if (size, digest) != expected:
            return [size, digest], f"catalog has {size} entries, digest {digest}"
        if reference is not None and any(
            entry.trace != reference.entries[ident].trace
            for ident, entry in cat.entries.items()
        ):
            return [size, digest], "traces differ from the stored catalog"
        return [size, digest], None

    def run_pass(self, reference) -> list:
        # Full builds on both sides of the size-6 build, so their mean
        # does not come from one stretch of a noisy machine.
        full = lambda: timed("full5", closure.generate_catalog, 5, "full")
        before = self.FULL_BUILDS // 2
        runs = [full() for _ in range(before)]
        runs.append(timed("pairs6", closure.generate_catalog, 6))
        runs += [full() for _ in range(self.FULL_BUILDS - before)]
        return runs

    def check(self, reference, runs) -> None:
        for op, cat in runs:
            if cat is not None:
                if op.kind == "pairs6":
                    op.answer, op.problem = self._check(cat, self.PAIRS6, reference)
                else:
                    op.answer, op.problem = self._check(cat, self.FULL5)

    @staticmethod
    def report(passes: list) -> dict:
        full = [t for p in passes for t in p.times("full5")]
        return {
            "catalog_s": (_median([t for p in passes for t in p.times("pairs6")]), "s"),
            # The mean, not the median: on a shared host a build runs in one
            # of two speed states (about 0.5 s and 0.7 s), and a median
            # jumps between them with the states' shares.
            "catalog_full_s": (statistics.fmean(full), "s"),
            "catalog_full_samples": (len(full), "count"),
        }

    @staticmethod
    def headline(report: dict) -> dict:
        return {
            "primary_s": report["catalog_s"][0],
            "secondary_s": report["catalog_full_s"][0],
        }


class CertifyWorkload:
    """The restriction certificate for ``s_prime_n(2)``, cold, then
    seeded restrictions of ``s_prime_n(3)`` against a size-6 catalog.

    Each query runs ``check`` and an unordered ``member_of_catalog``.
    Brute-force canonical forms at n=6 do almost all the work; the closure
    BFS does none.
    """

    WITNESS = (0, 1, 2, 4, 5, 6)
    SP2_GROUND = 8  # s_prime_n(2): 2n + n*n elements
    SP3_GROUND = 15
    SP3_QUERIES = 1000
    SP2_ABSENT = 8  # of the 28 six-element restrictions of s_prime_n(2)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        subsets = list(itertools.combinations(range(self.SP3_GROUND), 6))
        self.sp3_keeps = rng.sample(subsets, self.SP3_QUERIES)
        self._expected = None

    def setup(self):
        cat = closure.catalog_from_json(json.loads(CATALOG6.read_text()))
        sp2, sp3 = families.s_prime_n(2), families.s_prime_n(3)
        sp2_queries = [
            ("sp2", closure.restrict(sp2, keep))
            for keep in itertools.combinations(range(self.SP2_GROUND), 6)
        ]
        sp3_queries = [("sp3", closure.restrict(sp3, keep)) for keep in self.sp3_keeps]
        # In the certificate's order: the witness cold, then the other 27
        # restrictions, whose cold index buckets the seeded queries reuse.
        queries = [("witness", closure.restrict(sp2, self.WITNESS))]
        return cat, queries + sp2_queries + sp3_queries

    @staticmethod
    def _query(cat, s):
        verdict = criterion.check(s)
        return closure.member_of_catalog(cat, s), verdict.accepted

    def _brute_force(self, cat, queries) -> list:
        """Is any of the n! relabelings of each query an exact entry?"""
        return [
            any(core.permute(s, pi) in cat.entries
                for pi in itertools.permutations(range(s.n)))
            for _, s in queries
        ]

    def run_pass(self, state) -> list:
        cat, queries = state
        return [timed(kind, self._query, cat, s) for kind, s in queries]

    def check(self, state, runs) -> None:
        cat, queries = state
        if self._expected is None:  # same queries on every pass
            self._expected = self._brute_force(cat, queries)
        for i, (op, answer) in enumerate(runs):
            if answer is None:
                continue
            member, accepted = answer
            op.answer = [member, accepted]
            if member != self._expected[i]:
                op.problem = f"query {i}: member={member}, brute force says {not member}"
            elif member and not accepted:
                op.problem = f"query {i}: catalog member rejected by check"
        witness, sp2 = runs[0][0], [op for op, _ in runs if op.kind == "sp2"]
        if witness.answer and witness.answer[0]:
            witness.problem = "witness restriction reported as a member"
        absent = sum(1 for op in sp2 if op.answer and not op.answer[0])
        if absent != self.SP2_ABSENT and not sp2[0].problem:
            sp2[0].problem = f"{absent}/28 restrictions absent, expected {self.SP2_ABSENT}"

    @staticmethod
    def report(passes: list) -> dict:
        queries = [t for p in passes for t in p.times("witness", "sp2", "sp3")]
        return {
            "first_query_s": (_median([t for p in passes for t in p.times("witness")]), "s"),
            "certificate_s": (_median([sum(p.times("witness", "sp2")) for p in passes]), "s"),
            "certify_s": (_median([p.seconds for p in passes]), "s"),
            "query_p50_ms": (_quantile(queries, 50) * 1e3, "ms"),
            "query_p95_ms": (_quantile(queries, 95) * 1e3, "ms"),
            "query_samples": (len(queries), "count"),
            "sp3_mean_ms": (_median([statistics.fmean(p.times("sp3")) for p in passes]) * 1e3, "ms"),
        }

    @staticmethod
    def headline(report: dict) -> dict:
        # The whole certificate, not the witness query alone: one 8 s
        # operation spreads by about 20% between runs on a shared machine.
        # The mean, not p50: query cost is bimodal (about 4 ms and 11 ms by
        # pattern), so the median jumps with the seed's mix.
        return {
            "primary_s": report["certificate_s"][0],
            "secondary_s": report["sp3_mean_ms"][0] / 1e3,
        }


def _pairs(n: int):
    return itertools.combinations(range(n), 2)


def _table_json(n: int, table: dict) -> dict:
    return {"n": n, "arity": 2,
            "table": {f"{a},{b}": v for (a, b), v in sorted(table.items())}}


def _pairs_identity_json(n: int, classes) -> dict:
    return {"n": n, "flavor": "pairs",
            "classes": [[list(p) for p in cl] for cl in classes if len(cl) >= 2]}


class OracleWorkload:
    """The coloring oracles through in-process ``cli.main([... "--json"])``.

    ``--list`` runs ordered (max size 5) and unordered (max size 4) on two
    random 3-colorings of K9, negative and positive ``--identity``
    realization queries, and three ``arrow`` questions.  Canonical forms
    run here at n <= 4, many times: the opposite of ``certify``.
    """

    LIST_COLORINGS = 2
    POSITIVES = 8
    POSITIVE_SIZE = 4
    # s_k(3) as built and reversed; the labels set where the exhaustive
    # scan's early exits fall, so they are fixed rather than seeded
    NEGATIVE_PERMS = ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        # Random 3-colorings of K9 drawn once (seeds 0 and 1); list work
        # varies by about 20% between random colorings, so the seed only
        # renames colors and list work is the same for every seed.
        self.colorings = []
        for base in range(self.LIST_COLORINGS):
            draw = random.Random(base)
            names = rng.sample(range(3), 3)
            self.colorings.append(
                {p: names[draw.randrange(3)] for p in _pairs(9)})
        self.positive_maps = [rng.sample(range(16), self.POSITIVE_SIZE)
                              for _ in range(self.POSITIVES)]

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def setup(self):
        """Write every input file; return the invocation list."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        lists, calls = [], []  # (kind, argv, expected exit code, check data)
        for i, table in enumerate(self.colorings):
            path = self._write(f"random{i}.json", _table_json(9, table))
            lists.append(("list", ["oracle", "--coloring", path, "--list",
                                   "--ordered", "--max-size", "5", "--json"],
                          0, ("ordered", i)))
            lists.append(("list", ["oracle", "--coloring", path, "--list",
                                   "--max-size", "4", "--json"],
                          0, ("unordered", i)))
        min_pair = self._write("min_pair12.json", _table_json(
            12, {(a, b): a for a, b in _pairs(12)}))
        sk3 = families.s_k(3)
        for i, perm in enumerate(self.NEGATIVE_PERMS):
            ident = self._write(f"sk3_{i}.json", core.to_json(core.permute(sk3, perm)))
            calls.append(("realize", ["oracle", "--coloring", min_pair,
                                      "--identity", ident, "--json"], 3, None))
        meet = oracle.builtin_coloring("sierpinski_meet", len=4)
        meet_path = self._write("meet4.json", oracle.coloring_to_json(meet))
        for i, h in enumerate(self.positive_maps):
            # the pattern h induces, so h itself realizes it
            by_color = {}
            for a, b in _pairs(self.POSITIVE_SIZE):
                by_color.setdefault(meet.pair(h[a], h[b]), []).append((a, b))
            classes = sorted(by_color.values())
            ident = self._write(f"meet_pattern{i}.json", _pairs_identity_json(
                self.POSITIVE_SIZE, classes))
            calls.append(("realize", ["oracle", "--coloring", meet_path,
                                      "--identity", ident, "--json"],
                          0, (meet, [cl for cl in classes if len(cl) >= 2])))
        triangle = self._write("triangle.json", _pairs_identity_json(
            3, [[(0, 1), (0, 2), (1, 2)]]))
        # Fixed labels: moving the cherry's centre changes the cost of the
        # full 4^10 scan by about 20%.
        cherry = self._write("cherry.json", _pairs_identity_json(
            3, [[(0, 1), (0, 2)]]))
        # R(3,3) = 6; K5 has chromatic index 5, so 4 colors force a cherry
        for n, ident, colors, arrow in (("5", triangle, "2", False),
                                        ("6", triangle, "2", True),
                                        ("5", cherry, "4", True)):
            calls.append(("arrow", ["arrow", "--n", n, "--identity", ident,
                                    "--colors", colors, "--json"],
                          0 if arrow else 3, arrow))
        # Spread the searches between the lists, so that each kind samples
        # the whole pass, not one stretch of it.
        schedule = []
        for k, call in enumerate(lists):
            schedule.append(call)
            schedule += calls[k::len(lists)]
        return schedule

    @staticmethod
    def _invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, calls) -> list:
        return [timed(kind, self._invoke, argv) for kind, argv, _, _ in calls]

    def check(self, calls, runs) -> None:
        lists = {}
        for (kind, argv, want_code, data), (op, result) in zip(calls, runs):
            if result is None:
                continue
            code, text = result
            if code != want_code:
                op.problem = f"{' '.join(argv[:2])}: exit {code}, expected {want_code}"
                continue
            output = json.loads(text)["output"]
            if kind == "list":
                lists[data] = (op, output["identities"])
                op.answer = hashlib.sha256(
                    json.dumps(output, sort_keys=True).encode()).hexdigest()
            else:
                op.answer = output
                op.problem = self._check_search(kind, output, data)
        for i in range(self.LIST_COLORINGS):
            if ("ordered", i) in lists and ("unordered", i) in lists:
                op, unordered = lists[("unordered", i)]
                problem = self._check_lists(lists[("ordered", i)][1], unordered)
                if problem:
                    op.problem = f"coloring {i}: {problem}"

    @staticmethod
    def _check_lists(ordered, unordered):
        """Unordered ``--list`` equals the canonical closure of the
        ordered one, cut to the same size bound."""
        closure_texts = {
            json.dumps(core.to_json(core.canonical_form(core.from_json(d))[0]),
                       sort_keys=True)
            for d in ordered if d["n"] <= 4
        }
        texts = {json.dumps(d, sort_keys=True) for d in unordered}
        if texts != closure_texts or len(texts) != len(unordered):
            return (f"{len(unordered)} unordered identities, canonical closure "
                    f"of the ordered list has {len(closure_texts)}")
        return None

    @staticmethod
    def _check_search(kind, output, data):
        if kind == "arrow":
            return None if output["arrow"] is data else f"arrow says {output['arrow']}"
        real = output["realization"]
        if data is None:
            return None if real is None else f"unexpected realization {real}"
        if real is None:
            return "realized pattern reported as unrealized"
        coloring, classes = data
        h = real["embedding"]
        if len(set(h)) != len(h) or not all(0 <= x < coloring.n_ground for x in h):
            return f"embedding {h} is not an injection into the ground set"
        colors = []
        for cl in classes:
            seen = {coloring.pair(h[a], h[b]) for a, b in cl}
            if len(seen) != 1:
                return f"embedding {h} gives class {cl} colors {sorted(seen)}"
            colors.append(seen.pop())
        if colors != real["pulled_colors"]:
            return f"pulled colors {real['pulled_colors']}, read back {colors}"
        return None

    @staticmethod
    def report(passes: list) -> dict:
        per_kind = {
            kind: (_median([sum(p.times(kind)) for p in passes]), "s")
            for kind in ("list", "realize", "arrow")
        }
        return {
            "oracle_s": (_median([p.seconds for p in passes]), "s"),
            "list_s": per_kind["list"],
            "realize_s": per_kind["realize"],
            "arrow_s": per_kind["arrow"],
        }

    @staticmethod
    def headline(report: dict) -> dict:
        return {
            "primary_s": report["list_s"][0],
            "secondary_s": report["realize_s"][0] + report["arrow_s"][0],
        }


WORKLOADS = {
    "catalog": CatalogWorkload,
    "certify": CertifyWorkload,
    "oracle": OracleWorkload,
}
