"""End-to-end command runs: exit codes, pinned output shapes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from identity_lab import (
    SizeGuardError,
    UsageError,
    catalog_from_json,
    coloring_from_json,
    from_json,
    permute,
    to_json,
    trivial,
)
from identity_lab.cli import _build_parser, _dump, main
from identity_lab.closure import catalog_to_json, generate_catalog
from test_closure import CATALOG_SHA256
from test_criterion import ORDER_SEARCH_PAST_GUARD
from test_oracle import brute_unordered_id_of, reference_ordered_id_of

# explain reports the constraint cycle [0, 1, 2] here under every hash seed
CYCLE_EXAMPLE = {"n": 5, "flavor": "pairs",
                 "classes": [[[0, 1], [2, 4]], [[1, 2], [1, 3]], [[1, 4], [2, 3]]]}

CLI = shutil.which("identity-lab")


def pinned_json(argv, stdout):
    """A --json report is exactly ``_dump`` of itself, on one line."""
    if "--json" in argv and stdout:
        assert stdout == _dump(json.loads(stdout)) + "\n"


def run(*args, **kw):
    cmd = [CLI, *args] if CLI else [sys.executable, "-m", "identity_lab.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, **kw)
    pinned_json(args, proc.stdout)
    return proc


def report(proc):
    return json.loads(proc.stdout)


def main_in_process(*argv):
    """Exit code and stdout of ``cli.main`` run in this interpreter."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    pinned_json(argv, out.getvalue())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def sk3_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ids") / "sk3.json"
    out = report(run("builtin", "--family", "sk", "--k", "3", "--json"))
    p.write_text(json.dumps(out["output"]))
    return str(p)


@pytest.fixture(scope="module")
def trivial5_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ids") / "trivial5.json"
    out = report(run("builtin", "--family", "trivial", "--n", "5", "--json"))
    p.write_text(json.dumps(out["output"]))
    return str(p)


def test_version_string():
    proc = run("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("identity-lab ")


def test_builtin_emits_pinned_pattern():
    proc = run("builtin", "--family", "sk", "--k", "3", "--json")
    assert proc.returncode == 0
    out = report(proc)["output"]
    assert out == {
        "n": 6,
        "flavor": "pairs",
        "classes": [
            [[0, 3], [0, 4], [1, 5]],
            [[1, 3], [2, 4], [2, 5]],
        ],
    }


def test_builtin_labels_for_meet_family():
    out = report(run("builtin", "--family", "max-meet", "--len", "2", "--json"))
    assert out["output"]["labels"] == {"0": "00", "1": "01", "2": "10", "3": "11"}


def test_report_envelope_fields():
    out = report(run("builtin", "--family", "trivial", "--n", "3", "--json"))
    assert set(out) == {"command", "inputs_digest", "tool_version", "output"}
    assert out["tool_version"].startswith("identity-lab ")


def test_check_rejects_splitting_family(sk3_file):
    proc = run("check", "--in", sk3_file)
    assert proc.returncode == 3


def test_check_accepts_trivial(trivial5_file):
    proc = run("check", "--in", trivial5_file)
    assert proc.returncode == 0
    assert "accepted" in proc.stdout


def test_check_json_carries_both_modes(sk3_file):
    out = report(run("check", "--in", sk3_file, "--json"))
    assert out["output"]["plain"]["accepted"] is False
    assert out["output"]["strengthened"]["accepted"] is False


def test_usage_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run("check", "--in", str(bad)).returncode == 2
    assert run("check", "--in", str(tmp_path / "missing.json")).returncode == 2
    assert run("builtin", "--family", "trivial").returncode == 2  # missing --n
    # input that is not UTF-8 is a usage error, not a decode traceback
    bom = tmp_path / "utf16.json"
    bom.write_bytes(b"\xff\xfe{}")
    for argv in (("check", "--in", str(bom)),
                 ("oracle", "--coloring", str(bom), "--list")):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert "UTF-8" in proc.stderr and "Traceback" not in proc.stderr

    # an integer literal past Python's int-string limit is a usage error,
    # not a ValueError traceback from json.loads
    huge = tmp_path / "huge_n.json"
    huge.write_text('{"n": ' + "9" * 5000 + ', "flavor": "pairs", "classes": []}')
    proc = run("check", "--in", str(huge))
    assert proc.returncode == 2
    assert "huge_n.json" in proc.stderr and "Traceback" not in proc.stderr
    assert main_in_process("check", "--in", str(huge))[0] == 2

    # identity elements must be non-negative integers (booleans excluded)
    for i, pair in enumerate(([0, -1], [0, "a"], [0, 1.5], [0, True])):
        f = tmp_path / f"bad_elem{i}.json"
        f.write_text(json.dumps(
            {"n": 3, "flavor": "pairs", "classes": [[[0, 2], pair]]}
        ))
        proc = run("check", "--in", str(f))
        assert proc.returncode == 2, pair
        assert "Traceback" not in proc.stderr

    # the ground size must be a JSON integer: int() would read these as 3, 3, 1
    for i, n in enumerate((3.9, "3", True)):
        f = tmp_path / f"bad_n{i}.json"
        f.write_text(json.dumps({"n": n, "flavor": "pairs", "classes": []}))
        proc = run("check", "--in", str(f))
        assert proc.returncode == 2, n
        assert "n must be an integer" in proc.stderr and "Traceback" not in proc.stderr
        assert main_in_process("check", "--in", str(f))[0] == 2, n

    ident = tmp_path / "trivial2.json"
    ident.write_text(json.dumps({"n": 2, "flavor": "pairs", "classes": []}))
    pairs3 = {"0,1": 0, "0,2": 0, "1,2": 1}
    for i, desc in enumerate((
        {"builtin": "min_pair"},  # missing n
        {"builtin": "random", "n": "x", "colors": 2, "seed": 1},
        {"n": 3, "arity": 2, "table": {**pairs3, "5,9": 0}},  # outside ground
        {"n": 3, "arity": 2, "table": {**pairs3, "2,1": 0}},  # not increasing
        {"n": 3, "arity": 2, "table": {**pairs3, "0,1,2": 0}},
        {"n": 3, "arity": 2, "table": 4},  # table is not an object
        # numbers must be JSON integers and keys canonical: int() would
        # read each of these as some coloring
        {"n": 3.9, "arity": 2, "table": {"0,1": 0, "0,2": True, "1,2": 1.7}},
        {"builtin": "random", "n": "9", "colors": 3.5, "seed": "1"},
        {"n": 3, "arity": 2, "table": {**pairs3, " 0, 1": 1}},
        {"n": 3, "arity": 2, "table": {**pairs3, "0_1,2": 0}},
        # a coloring needs at least one point
        {"n": -5, "arity": 2, "table": {}},
        {"n": 0, "arity": 2, "table": {}},
        {"builtin": "sierpinski_meet", "strings": []},
        # no pair layer, whatever the ground size
        {"n": 11, "arity": 1, "table": {}},
    )):
        col = tmp_path / f"bad_col{i}.json"
        col.write_text(json.dumps(desc))
        proc = run("oracle", "--coloring", str(col), "--identity", str(ident))
        assert proc.returncode == 2, desc
        assert "Traceback" not in proc.stderr
        assert main_in_process("oracle", "--coloring", str(col), "--list")[0] == 2, desc
    col = tmp_path / "bad_col10.json"  # n = -5
    proc = run("oracle", "--coloring", str(col), "--list")
    assert proc.returncode == 2, col.read_text()
    assert "coloring 'n' must be an integer >= 1, got -5" in proc.stderr
    assert "Traceback" not in proc.stderr
    for n in ("0", "-3"):
        argv = ("arrow", "--n", n, "--identity", str(ident), "--colors", "2")
        proc = run(*argv)
        assert proc.returncode == 2, n
        assert f"arrow_check N must be an integer >= 1, got {n}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert main_in_process(*argv)[0] == 2, n

    # catalogs are checked on load
    entry = {"identity": {"n": 2, "flavor": "pairs", "classes": []}, "trace": []}
    for i, cat in enumerate((
        [],
        {"max_n": 6, "entries": [1]},
        {"max_n": 6, "entries": 5},
        {"max_n": "x", "entries": []},
        {"max_n": 0, "entries": []},
        {"max_n": 8, "entries": []},
        {"max_n": 9, "entries": []},
        {"max_n": 6, "flavor": "partial", "entries": []},
        {"max_n": 1, "entries": [entry]},  # entry larger than max_n
        {"max_n": 6, "entries": [
            {**entry, "identity": {"n": 2, "flavor": "full", "classes": []}}]},
        {"max_n": 6, "entries": [{**entry, "trace": [["zap", 1]]}]},
        {"max_n": 6, "entries": [{**entry, "trace": [["res", [0, [1]]]]}]},
        {"max_n": 6, "entries": [{**entry, "trace": 5}]},
        {"max_n": 6, "entries": [entry, {**entry, "trace": [["dup", 2]]}]},
    )):
        f = tmp_path / f"bad_cat{i}.json"
        f.write_text(json.dumps(cat))
        proc = run("member", "--catalog", str(f), "--in", str(ident))
        assert proc.returncode == 2, cat
        assert "Traceback" not in proc.stderr


def test_size_guards_exit_4(tmp_path):
    for size in ("8", "9"):
        proc = run("catalog", "--max-size", size, "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 4 and "Traceback" not in proc.stderr
    # a ground of 2^len points is refused on the exponent, before any power
    for argv in (("sdoubleprime", "--n", "4"), ("max-meet", "--len", "7"),
                 ("max-meet", "--len", "1000000000000")):
        proc = run("builtin", "--family", *argv)
        assert proc.returncode == 4, argv
        assert argv[-1] in proc.stderr and "Traceback" not in proc.stderr

    # ground sizes above the input bound are refused before any pair table
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 3000, "flavor": "pairs", "classes": []}))
    proc = run("check", "--in", str(big))
    assert proc.returncode == 4
    assert "3000" in proc.stderr and "72" in proc.stderr
    ident = tmp_path / "trivial2.json"
    ident.write_text(json.dumps({"n": 2, "flavor": "pairs", "classes": []}))
    sk4 = tmp_path / "sk4.json"
    sk4.write_text(json.dumps(report(run("builtin", "--family", "sk", "--k", "4", "--json"))["output"]))
    for desc, shown, s in (
        ({"builtin": "min_pair", "n": 3000}, "3000", ident),
        ({"builtin": "sierpinski_meet", "len": 40}, "40", ident),
        # the injection search's node guard, 2**21
        ({"builtin": "min_pair", "n": 16}, "2097152", sk4),
    ):
        col = tmp_path / "big_col.json"
        col.write_text(json.dumps(desc))
        proc = run("oracle", "--coloring", str(col), "--identity", str(s))
        assert proc.returncode == 4, desc
        assert shown in proc.stderr and "Traceback" not in proc.stderr
    # arrow refuses N above the bound before it builds the pair table
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps(
        {"n": 3, "flavor": "pairs", "classes": [[[0, 1], [0, 2], [1, 2]]]}))
    proc = run("arrow", "--n", "73", "--identity", str(triangle), "--colors", "2")
    assert proc.returncode == 4
    assert "ground size 73 exceeds the bound 72" in proc.stderr
    # a full identity's 2^n domain is refused before it is built
    full = tmp_path / "full16.json"
    full.write_text(json.dumps({"n": 16, "flavor": "full", "classes": []}))
    proc = run("simplify", "--in", str(full), "--k", "2")
    assert proc.returncode == 4 and "Traceback" not in proc.stderr
    assert "n <= 12, got 16" in proc.stderr


def test_builtin_refuses_families_above_the_ground_bound():
    # the ground size is checked before the family is built: s_k(100) has
    # 5,050 points, which no loader would take back
    for argv, ground in ((("sk", "--k", "12"), 78), (("sk", "--k", "100"), 5050),
                         (("sprime", "--n", "8"), 80), (("trivial", "--n", "73"), 73)):
        proc = run("builtin", "--family", *argv)
        assert proc.returncode == 4, argv
        assert f"ground size {ground} exceeds the bound 72" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert run("builtin", "--family", "sk", "--k", "11").returncode == 0


def test_extend_order_refuses_an_output_above_the_ground_bound(tmp_path):
    # 2n - 1 points: 40 points would extend to 79, which no loader takes back
    for n, ground in ((40, 79), (36, 71)):
        src, out = tmp_path / f"trivial{n}.json", tmp_path / f"ext{n}.json"
        src.write_text(run("builtin", "--family", "trivial", "--n", str(n)).stdout)
        proc = run("extend-order", "--in", str(src))
        assert "Traceback" not in proc.stderr
        if ground > 72:
            assert proc.returncode == 4
            assert f"ground size {ground} exceeds the bound 72" in proc.stderr
        else:
            assert proc.returncode == 0 and json.loads(proc.stdout)["n"] == ground
            out.write_text(proc.stdout)
            assert run("check", "--in", str(out)).returncode == 0


def test_order_search_guard_exits_4(tmp_path):
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(ORDER_SEARCH_PAST_GUARD))
    for cmd in ("check", "explain"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([cmd, "--in", str(probe)]) == 4
        assert "2097152" in err.getvalue() and "Traceback" not in err.getvalue()


def test_catalog_member_flow(tmp_path, sk3_file):
    cat = tmp_path / "cat4.json"
    proc = run("catalog", "--max-size", "4", "--out", str(cat))
    assert proc.returncode == 0
    data = json.loads(cat.read_text())
    assert data["max_n"] == 4 and len(data["entries"]) == 15

    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps(report(run("builtin", "--family", "trivial", "--n", "3", "--json"))["output"]))
    assert run("member", "--catalog", str(cat), "--in", str(t3)).returncode == 0
    # oversized queries are a guard, not a negative
    assert run("member", "--catalog", str(cat), "--in", sk3_file).returncode == 4


def test_full_catalog_member_flow(tmp_path):
    cat = tmp_path / "full5.json"
    proc = run("catalog", "--max-size", "5", "--full", "--json", "--out", str(cat))
    assert proc.returncode == 0
    assert report(proc)["output"] == {"entries": 166, "max_n": 5, "out": str(cat)}
    assert hashlib.sha256(cat.read_bytes()).hexdigest() == CATALOG_SHA256["full", 5]

    # a size-5 entry reversed, which is not itself an entry: a member up
    # to relabeling (exit 0) but not in order (exit 3)
    entries = catalog_from_json(json.loads(cat.read_text())).entries
    moved = (permute(s, range(4, -1, -1)) for s in entries if s.n == 5)
    query = tmp_path / "moved5.json"
    query.write_text(json.dumps(to_json(next(t for t in moved if t not in entries))))
    assert run("member", "--catalog", str(cat), "--in", str(query)).returncode == 0
    proc = run("member", "--catalog", str(cat), "--in", str(query), "--ordered")
    assert proc.returncode == 3
    # a pairs query against a full catalog is a usage error
    query.write_text(json.dumps(to_json(trivial(3))))
    assert run("member", "--catalog", str(cat), "--in", str(query)).returncode == 2


@pytest.mark.parametrize("flavor", ["pairs", "full"])
def test_catalog_written_entry_by_entry_is_pinned(tmp_path, flavor):
    # the file goes out one entry at a time; its bytes and the report's
    # inputs_digest are the pinned digest of the whole text
    for n in range(1, 6):
        out = tmp_path / f"{flavor}{n}.json"
        argv = ["catalog", "--max-size", str(n), "--out", str(out), "--json"]
        code, text = main_in_process(*argv, *(["--full"] if flavor == "full" else []))
        assert code == 0
        pinned = CATALOG_SHA256[flavor, n]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned, n
        assert json.loads(text)["inputs_digest"] == pinned, n


def test_member_negative_on_missing_pattern(tmp_path, cat6):
    # the session's size-6 catalog, written as `catalog --max-size 6` writes it
    cat = tmp_path / "cat6.json"
    cat.write_text(_dump(catalog_to_json(cat6)) + "\n", encoding="utf-8")
    sk3 = tmp_path / "sk3.json"
    sk3.write_text(json.dumps(report(run("builtin", "--family", "sk", "--k", "3", "--json"))["output"]))
    assert run("member", "--catalog", str(cat), "--in", str(sk3)).returncode == 3


def test_oracle_flow(tmp_path, sk3_file, trivial5_file):
    col = tmp_path / "minpair.json"
    col.write_text(json.dumps({"builtin": "min_pair", "n": 8}))
    assert run("oracle", "--coloring", str(col), "--identity", sk3_file).returncode == 3
    proc = run("oracle", "--coloring", str(col), "--identity", trivial5_file, "--ordered")
    assert proc.returncode == 0
    assert "embedding" in proc.stdout


def test_one_parser_serves_every_call(tmp_path, trivial5_file):
    # main parses every argv with one parser: a usage error and another
    # command between two runs leave the second run's answer unchanged
    col = tmp_path / "minpair.json"
    col.write_text(json.dumps({"builtin": "min_pair", "n": 8}))
    tri = tmp_path / "triangle.json"
    tri.write_text(json.dumps({"n": 3, "flavor": "pairs", "classes": [[[0, 1], [0, 2], [1, 2]]]}))
    realize = ("oracle", "--coloring", str(col), "--identity", trivial5_file, "--ordered", "--json")
    first = main_in_process(*realize)
    assert first[0] == 0 and '"embedding":[0,1,2,3,4]' in first[1]
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["oracle", "--coloring", str(col), "--max-size", "two"])
    assert exc.value.code == 2
    assert main_in_process("arrow", "--n", "5", "--identity", str(tri), "--colors", "2") == (3, "false\n")
    assert main_in_process(*realize) == first
    assert _build_parser() is _build_parser()


def test_coloring_kind_key_is_ignored(tmp_path):
    # "kind" is a stray key like any other, not a second builtin name
    outs = []
    for i, desc in enumerate((
        {"builtin": "min_pair", "n": 4},
        {"builtin": "min_pair", "kind": 1, "n": 4},
    )):
        col = tmp_path / f"kind{i}.json"
        col.write_text(json.dumps(desc))
        proc = run("oracle", "--coloring", str(col), "--list", "--max-size", "3")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_oracle_list(tmp_path):
    col = tmp_path / "minpair5.json"
    col.write_text(json.dumps({"builtin": "min_pair", "n": 5}))
    proc = run("oracle", "--coloring", str(col), "--list", "--max-size", "3")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


def test_oracle_list_output_is_pinned(tmp_path):
    col = tmp_path / "random9.json"
    col.write_text(json.dumps({"builtin": "random", "n": 9, "colors": 3, "seed": 0}))
    argv = ["oracle", "--coloring", str(col), "--list", "--ordered", "--max-size"]
    code, out = main_in_process(*argv, "5", "--json")
    assert code == 0 and out == _dump(json.loads(out)) + "\n"
    output = json.loads(out)["output"]
    assert len(output["identities"]) == 45_421
    assert hashlib.sha256(_dump(output).encode()).hexdigest() == (
        "f78450f3995b84cbcf83bcde767de9d97ba04cbff092675b17e83157c7719886")
    # text mode prints each identity document of the JSON report, one a line
    code, out4 = main_in_process(*argv, "4", "--json")
    for max_size, docs in (("4", json.loads(out4)["output"]["identities"]),
                           ("5", output["identities"])):
        code, text = main_in_process(*argv, max_size)
        assert code == 0 and docs
        assert text == "".join(_dump(d) + "\n" for d in docs)


@pytest.mark.parametrize("n, colors, seed", [
    (5, 3, 2), (6, 3, 1), (7, 3, 4), (8, 4, 6),
])
def test_oracle_list_documents_are_to_json_of_the_references(tmp_path, n, colors, seed):
    # --list renders each identity from shared class documents; the slow
    # references rendered by to_json must give the same report and lines
    desc = {"builtin": "random", "n": n, "colors": colors, "seed": seed}
    col = tmp_path / "random.json"
    col.write_text(json.dumps(desc))
    c = coloring_from_json(desc)
    for flags, reference in (
        (["--ordered", "--max-size", "5"], reference_ordered_id_of(c, 5)),
        (["--max-size", "4"], brute_unordered_id_of(c, 4)),
    ):
        expected = [to_json(s) for s in reference]
        argv = ["oracle", "--coloring", str(col), "--list", *flags]
        code, out = main_in_process(*argv, "--json")
        assert code == 0
        assert json.loads(out)["output"] == {"identities": expected}
        code, text = main_in_process(*argv)
        assert code == 0
        assert text == "".join(_dump(d) + "\n" for d in expected)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cat = root / "cat3.json"
    cat.write_text(_dump(catalog_to_json(generate_catalog(3))) + "\n")
    ident = root / "trivial2.json"
    ident.write_text(json.dumps({"n": 2, "flavor": "pairs", "classes": []}))
    return root, str(cat), str(ident)


@given(data=st.binary(max_size=64))
def test_arbitrary_input_bytes_never_escape(fuzz_files, data):
    # whatever the bytes, the CLI answers with a contract exit code
    root, cat, ident = fuzz_files
    f = root / "input.json"
    f.write_bytes(data)
    for argv in (
        ("check", "--in", str(f)),
        ("oracle", "--coloring", str(f), "--list"),
        ("member", "--catalog", cat, "--in", str(f)),
        ("member", "--catalog", str(f), "--in", ident),
    ):
        code, _ = main_in_process(*argv)
        assert code in (0, 2, 3, 4), argv


# Documents shaped like the interchange formats (identities, builtin and
# table colorings, catalogs), nested into JSON trees over the formats' own
# keys, so that inputs reach each loader's later checks, not only its first.
# Ground sizes are small or at and above the bound of 72, so no example runs
# a real search.
FORMAT_KEYS = ("n", "flavor", "classes", "domain", "builtin", "colors", "seed",
               "len", "strings", "arity", "table", "entries", "max_n",
               "identity", "trace")
small = st.integers(-1, 6)
grounds = st.integers(2, 6) | st.sampled_from((0, 72, 73, 3000))
flavors = st.sampled_from(("pairs", "pairs", "full", "partial", "sets"))
leaves = (st.none() | st.booleans() | small | st.just(0.5)
          | st.sampled_from(("", "pairs", "0,1", "dup")))
subsets = (st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True).map(sorted)
           | st.lists(small, max_size=3))
identity_docs = st.fixed_dictionaries(
    {"n": grounds, "flavor": flavors,
     "classes": st.lists(st.lists(subsets, min_size=2, max_size=3), max_size=3)},
    optional={"domain": st.lists(subsets, max_size=4)},
)
coloring_docs = st.fixed_dictionaries(
    {"builtin": st.sampled_from(("min_pair", "constant", "random", "sierpinski_meet", "x"))},
    optional={"n": grounds, "colors": small, "seed": small, "len": small,
              "strings": st.lists(st.sampled_from(("", "0", "1", "01", "10")), max_size=4)},
) | st.fixed_dictionaries({
    "n": grounds, "arity": st.integers(0, 3),
    "table": st.dictionaries(st.sampled_from(("0,1", "0,2", "1,2", "2,1", "0", "0,1,2", "a")),
                             small | leaves, max_size=4),
})
catalog_docs = st.fixed_dictionaries(
    {"max_n": grounds | leaves,
     "entries": st.lists(st.fixed_dictionaries({
         "identity": identity_docs,
         "trace": st.lists(st.tuples(st.sampled_from(("dup", "res", "zap")),
                                     small | st.lists(small, max_size=3)).map(list),
                           max_size=2),
     }), max_size=3)},
    optional={"flavor": flavors},
)
documents = identity_docs | coloring_docs | catalog_docs
json_trees = documents | st.recursive(
    documents | leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS), kids, max_size=4),
    max_leaves=8,
)


@given(doc=json_trees)
def test_loaders_raise_only_contract_errors(doc):
    for load in (from_json, coloring_from_json, catalog_from_json):
        try:
            load(doc)
        except (UsageError, SizeGuardError):
            pass


@given(doc=json_trees)
def test_structured_inputs_exit_with_contract_codes(fuzz_files, doc):
    root, _, _ = fuzz_files
    f = root / "tree.json"
    f.write_text(json.dumps(doc))
    for argv in (
        ("arrow", "--n", "4", "--colors", "2", "--identity", str(f)),
        ("oracle", "--coloring", str(f), "--list", "--max-size", "2"),
    ):
        code, _ = main_in_process(*argv)
        assert code in (0, 2, 3, 4), argv


def test_arrow_flow(tmp_path):
    ident = tmp_path / "path.json"
    ident.write_text(json.dumps({"n": 3, "flavor": "pairs", "classes": [[[0, 1], [1, 2]]]}))
    assert run("arrow", "--n", "3", "--identity", str(ident), "--colors", "2").returncode == 0


def test_explain_flow(tmp_path, sk3_file, trivial5_file):
    proc = run("explain", "--in", sk3_file)
    assert proc.returncode == 3
    assert "cycle" in proc.stdout
    # past the per-order bound a rank cycle is still an answer, not a guard
    for k in ("5", "6"):
        sk = tmp_path / f"sk{k}.json"
        sk.write_text(json.dumps(report(run("builtin", "--family", "sk", "--k", k, "--json"))["output"]))
        proc = run("explain", "--in", str(sk))
        assert proc.returncode == 3
        assert proc.stdout == "constraint cycle among classes: [0, 1]\n"
    proc = run("explain", "--in", trivial5_file)
    assert proc.returncode == 0


def test_simplify_flow(tmp_path):
    f = tmp_path / "full.json"
    f.write_text(json.dumps({"n": 3, "flavor": "full", "classes": []}))
    proc = run("simplify", "--in", str(f), "--k", "2", "--json")
    assert proc.returncode == 0
    assert report(proc)["output"]["flavor"] == "full"


def test_extend_order_flow(sk3_file):
    out = report(run("extend-order", "--in", sk3_file, "--json"))
    assert out["output"]["n"] == 11


def test_json_reports_are_byte_identical(tmp_path, sk3_file):
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps(CYCLE_EXAMPLE))
    # two fixed hash seeds, so a report that follows set order must differ
    for argv in (("check", "--in", sk3_file), ("explain", "--in", str(cyc))):
        a, b = (run(*argv, "--json", env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in "01")
        assert a == b
    assert "constraint cycle among classes: [0, 1, 2]" in json.loads(a)["output"]["lines"]


def test_threads_flag_is_rejected(tmp_path, sk3_file):
    col = tmp_path / "rand.json"
    col.write_text(json.dumps({"builtin": "random", "n": 6, "colors": 2, "seed": 17}))
    for argv in (
        ["oracle", "--coloring", str(col), "--list", "--threads", "2"],
        ["check", "--in", sk3_file, "--threads", "2"],
        ["--threads", "2", "check", "--in", sk3_file],
    ):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr
