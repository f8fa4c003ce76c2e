"""Golden digests: each answer pinned as the SHA-256 of its texts.

A digest says that an answer changed; the reference searches in the other
modules say what changed.  A change meant to alter an answer updates its
pin here and says so.
"""

import hashlib
import itertools
import random

import pytest

from identity_lab import SizeGuardError, UsageError, check, coloring_from_json, explain
from identity_lab.cli import _verdict_json
from identity_lab.closure import (
    _catalog_chunks,
    canonical_forms,
    generate_catalog,
    member_of_catalog,
    restrict,
)
from identity_lab.core import _dump, canonical_form, permute, to_json
from identity_lab.families import (
    max_meet_identity,
    order_forcing_extension,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    simplify_k,
    trivial,
    trivial_full,
)
from identity_lab.oracle import _id_of_texts, arrow_check, builtin_coloring, realizes
from test_cli import main_in_process
from test_closure import CATALOG_SHA256, random_identity


def _pin(texts) -> tuple:
    """(count, SHA-256 of the texts joined by newlines)."""
    return len(texts), hashlib.sha256("\n".join(texts).encode()).hexdigest()


ID_OF_COLORINGS = {
    "random9s0": {"builtin": "random", "n": 9, "colors": 3, "seed": 0},
    "random9s1": {"builtin": "random", "n": 9, "colors": 3, "seed": 1},
    "min_pair12": {"builtin": "min_pair", "n": 12},
    "sierpinski4": {"builtin": "sierpinski_meet", "len": 4},
    "constant6": {"builtin": "constant", "n": 6},
    "random20": {"builtin": "random", "n": 20, "colors": 3, "seed": 0},
}

# (coloring, max_size, ordered) -> (identities, sha256 of the texts joined
# by newlines), or None where a size guard refuses.  The unordered closure
# of min_pair12 at max_size 6 and 7 takes seconds to minutes and is left out.
ID_OF_SHA256 = {
    ("random9s0", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random9s0", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random9s0", 3, True): (7, "61065db9069745ced16c2074ecf62ddd68b0c239aee313091d0e20b740cb38b2"),
    ("random9s0", 4, True): (193, "bd6c4270e3018dfe4177f5bcff6a4d77512d2f7cdd195743d6d906e72a8e068f"),
    ("random9s0", 5, True): (45421, "25df473d00a7102692ca3101bea67b29f216f2189a554157ba57cceff6e5a790"),
    ("random9s0", 6, True): None,
    ("random9s0", 7, True): None,
    ("random9s0", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random9s0", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random9s0", 3, False): (5, "9fc11d9361dc15ba904c199838fc85e6f907034a682461e78b425a644dac91db"),
    ("random9s0", 4, False): (29, "d75952c08a31ce99466428bca8f52b2efe26347634468ac4940edb09e2997590"),
    ("random9s0", 5, False): (1279, "9a40bea41302984ee7d74f2be9e898d1d936aa16cdcbbcc78311d6d319bda3ad"),
    ("random9s0", 6, False): None,
    ("random9s0", 7, False): None,
    ("random9s1", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random9s1", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random9s1", 3, True): (7, "61065db9069745ced16c2074ecf62ddd68b0c239aee313091d0e20b740cb38b2"),
    ("random9s1", 4, True): (210, "856b6c80a784721b3d10d71392ac558f4433225a1ab46c638ccbc13a07fcd58a"),
    ("random9s1", 5, True): (46693, "6feeac71ab0c57a3d666197e80a4e5e3e24cec853665415f760576f0851959f4"),
    ("random9s1", 6, True): None,
    ("random9s1", 7, True): None,
    ("random9s1", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random9s1", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random9s1", 3, False): (5, "9fc11d9361dc15ba904c199838fc85e6f907034a682461e78b425a644dac91db"),
    ("random9s1", 4, False): (30, "4cd7ff518b112c34d050f8cefd14924886eb9b434f135c6e1397cb385f71e74c"),
    ("random9s1", 5, False): (1304, "ea2a6ee4c5645b4d6aea3358305351a2ccb1da903c36ec850599f3235e8e2233"),
    ("random9s1", 6, False): None,
    ("random9s1", 7, False): None,
    ("min_pair12", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("min_pair12", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("min_pair12", 3, True): (4, "3ea3a87c49815196ba862ff5decbbf792c6d6a9244cafbce7ba8d11fc6df2cee"),
    ("min_pair12", 4, True): (14, "09840666855fd9bdbca642d209d83df84be1969fac52a4680438e0895866aab5"),
    ("min_pair12", 5, True): (164, "b2689631cec90a43dc65da244afd40f23492583daf0799e0536b095105bd3b2b"),
    ("min_pair12", 6, True): (7964, "d0a71923f99b9b13228d83dfa6591adac79d40b7a5670102ef124de2705a94e0"),
    ("min_pair12", 7, True): None,
    ("min_pair12", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("min_pair12", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("min_pair12", 3, False): (4, "3ea3a87c49815196ba862ff5decbbf792c6d6a9244cafbce7ba8d11fc6df2cee"),
    ("min_pair12", 4, False): (10, "0d937909d01c70979197ae06853bba6eb783328b1374f2371427eba07d9bb172"),
    ("min_pair12", 5, False): (59, "41f478f2bd849ecd1d334c001559bad04427dcd35845b4b35271ca6bf91bdc51"),
    ("sierpinski4", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("sierpinski4", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("sierpinski4", 3, True): (5, "ef695c90b6493da5302aa4dcbe7360bd9cc54c241b7b13ea892c974e33f168a6"),
    ("sierpinski4", 4, True): (39, "e2a37f1584042f20d59d9b1ece300ea95c51f2f6c9ecdcf3a7d0b45374f17b7f"),
    ("sierpinski4", 5, True): (1903, "0da5f62ab151b5452c1290bfd6a97b516d50ca123e659e7346e6a38f2c6aa061"),
    ("sierpinski4", 6, True): None,
    ("sierpinski4", 7, True): None,
    ("sierpinski4", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("sierpinski4", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("sierpinski4", 3, False): (4, "3ea3a87c49815196ba862ff5decbbf792c6d6a9244cafbce7ba8d11fc6df2cee"),
    ("sierpinski4", 4, False): (14, "45dbe64d44c9e05bd35b702e28d48d9be50fb95a90a451eb00a10ddc2296f28f"),
    ("sierpinski4", 5, False): (158, "593b9e6dae0fb1e429752ae576752da806ef858a837d2a12c4d0217f26170bae"),
    ("sierpinski4", 6, False): None,
    ("sierpinski4", 7, False): None,
    ("constant6", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("constant6", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("constant6", 3, True): (7, "61065db9069745ced16c2074ecf62ddd68b0c239aee313091d0e20b740cb38b2"),
    ("constant6", 4, True): (210, "856b6c80a784721b3d10d71392ac558f4433225a1ab46c638ccbc13a07fcd58a"),
    ("constant6", 5, True): (116185, "deca0883e0833d46014ce8d19105b958b74b6b4cb66d5c8cd59f59e35f52488c"),
    ("constant6", 6, True): None,
    ("constant6", 7, True): None,
    ("constant6", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("constant6", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("constant6", 3, False): (5, "9fc11d9361dc15ba904c199838fc85e6f907034a682461e78b425a644dac91db"),
    ("constant6", 4, False): (30, "4cd7ff518b112c34d050f8cefd14924886eb9b434f135c6e1397cb385f71e74c"),
    ("constant6", 5, False): (1329, "b41b13a6d9af7f5b338f51094c9e29aa2ffe27d8b0c509886befb63c6341cab1"),
    ("constant6", 6, False): None,
    ("constant6", 7, False): None,
    ("random20", 1, True): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random20", 2, True): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random20", 3, True): (7, "61065db9069745ced16c2074ecf62ddd68b0c239aee313091d0e20b740cb38b2"),
    ("random20", 4, True): (210, "856b6c80a784721b3d10d71392ac558f4433225a1ab46c638ccbc13a07fcd58a"),
    ("random20", 5, True): None,
    ("random20", 6, True): None,
    ("random20", 7, True): None,
    ("random20", 1, False): (1, "56efbdc127e7c6e75756eb0532d35c261e9b06d1d7f26548b024b7daabe05fc0"),
    ("random20", 2, False): (2, "2b7d3d0dbc10fa3b06a282c41beecb29a73719ec9243acd50565683b8b96e7b8"),
    ("random20", 3, False): (5, "9fc11d9361dc15ba904c199838fc85e6f907034a682461e78b425a644dac91db"),
    ("random20", 4, False): (30, "4cd7ff518b112c34d050f8cefd14924886eb9b434f135c6e1397cb385f71e74c"),
    ("random20", 5, False): None,
    ("random20", 6, False): None,
    ("random20", 7, False): None,
}


@pytest.mark.parametrize("name,max_size,ordered", sorted(ID_OF_SHA256))
def test_id_of_texts_are_pinned(name, max_size, ordered):
    c = coloring_from_json(ID_OF_COLORINGS[name])
    pinned = ID_OF_SHA256[name, max_size, ordered]
    if pinned is None:
        with pytest.raises(SizeGuardError):
            _id_of_texts(c, max_size, ordered)
        return
    assert _pin(_id_of_texts(c, max_size, ordered)) == pinned


# The family constructors and the transforms, over the inputs they answer

def _max_meet_texts(n_str):
    m = max_meet_identity(n_str)
    return [_dump(to_json(m.base)), _dump(list(m.labels))]


# family -> (sizes, the texts of one member)
FAMILY_TEXTS = {
    "trivial": (range(1, 9), lambda n: [_dump(to_json(trivial(n)))]),
    "trivial_full": (range(1, 7), lambda n: [_dump(to_json(trivial_full(n)))]),
    "s_k": (range(1, 12), lambda k: [_dump(to_json(s_k(k)))]),
    "s_prime_n": (range(1, 8), lambda n: [_dump(to_json(s_prime_n(n)))]),
    "s_doubleprime_n": (range(1, 4), lambda n: [_dump(to_json(s_doubleprime_n(n)))]),
    "max_meet_identity": (range(1, 7), _max_meet_texts),
}

FAMILY_SHA256 = {
    "max_meet_identity": (12, "66d9291abc782bfc5c782be1edf5313804a2775e9d9af01257884b86b28be41c"),
    "s_doubleprime_n": (3, "24d263d4aca9052922cb33b97acdf4ff33cf57b096f17d5c2a7413105bcb1bfa"),
    "s_k": (11, "32307a0ee4c1f5afa587c189703f7cc768dbc6844dc07bbef0781d951571a610"),
    "s_prime_n": (7, "1d7813300f61e1c9770c1bb1407c7574567fa207bb35159798932e43cf8c417a"),
    "trivial": (8, "81f9b1c0ff26d2110e5c9ccb43858a9f188e737031ed6eca36aa0d5ac440a645"),
    "trivial_full": (6, "cede211e19b06e8dfc1cdae96a7aaf217c6fd6a526cae07ae4ecaca6bdae63b8"),
}
SIMPLIFY_K_SHA256 = (498, "8e69a66cbef5aac10be85dd7fa14403cd20062444e2d2dd2eab50c97654207f1")
ORDER_FORCING_SHA256 = (165, "89b41d5e0f1cc4f18521fc7149abbfdb5b0bd35d525cf43202cbc489c3a22ea6")


@pytest.mark.parametrize("family", sorted(FAMILY_TEXTS))
def test_family_texts_are_pinned(family):
    sizes, texts_of = FAMILY_TEXTS[family]
    texts = [t for size in sizes for t in texts_of(size)]
    assert _pin(texts) == FAMILY_SHA256[family]


def test_simplify_k_on_full_catalog5_is_pinned(full5):
    texts = [_dump(to_json(simplify_k(s, k)))
             for s in full5.members() for k in (1, 2, 3)]
    assert _pin(texts) == SIMPLIFY_K_SHA256


def test_order_forcing_extension_on_catalog5_is_pinned():
    texts = [_dump(to_json(order_forcing_extension(s)))
             for s in generate_catalog(5).members() if s.n >= 2]
    assert _pin(texts) == ORDER_FORCING_SHA256


# The two unordered walks on slot keys, over catalog(6)

CANONICAL_FORMS_SHA256 = (333, "f699e147e9ae5a9ff22351004d185e26ec5446337e5238f7aa561e9199ebf87a")
# [kept elements, unordered member] for every 6-element restriction of
# s_prime_n(3), in combinations order; 72 are absent
S_PRIME_3_MEMBERS_SHA256 = (5005, "8af4ea0e91c6be7d4bfd08dfce6a3d2b18677fdeb2ec20299b87ddf9c9ac765f")


def test_canonical_forms_of_catalog6_are_pinned(cat6):
    texts = [_dump(to_json(f)) for f in canonical_forms(cat6.members())]
    assert _pin(texts) == CANONICAL_FORMS_SHA256


def test_unordered_members_among_s_prime_3_restrictions_are_pinned(cat6):
    s = s_prime_n(3)
    answers = [[list(keep), member_of_catalog(cat6, restrict(s, keep))]
               for keep in itertools.combinations(range(s.n), 6)]
    assert sum(not member for _, member in answers) == 72
    assert _pin([_dump(a) for a in answers]) == S_PRIME_3_MEMBERS_SHA256


# canonical_form, form and witness, over catalog(5), relabeled entries and
# seeded pairs identities of 6 and 7 points

def _canonical_form_inputs(cat5):
    rng = random.Random(28)
    entries = cat5.members()
    relabeled = []
    for s in entries:
        pi = list(range(s.n))
        rng.shuffle(pi)
        relabeled.append(permute(s, pi))
    seeded = [random_identity(rng, 6, "pairs") for _ in range(100)]
    seeded += [random_identity(rng, 7, "pairs") for _ in range(10)]
    return entries + relabeled + seeded


CANONICAL_FORM_SHA256 = (442, "923c70b64804f9a14639e62f3cf42adabf5be201feb551363d3a7a4622257989")


def test_canonical_form_and_witness_are_pinned():
    texts = []
    for s in _canonical_form_inputs(generate_catalog(5)):
        form, pi = canonical_form(s)
        texts.append(_dump([to_json(form), list(pi)]))
    assert _pin(texts) == CANONICAL_FORM_SHA256


# check verdicts and explain output, over catalog(6) and the splitting
# families; a refusal is pinned as its exception's name

def _check_texts(s) -> list:
    try:
        verdict = check(s)
        return [_dump(_verdict_json(verdict)), _dump(explain(verdict, s))]
    except (SizeGuardError, UsageError) as exc:
        return [type(exc).__name__]


CHECK_CATALOG6_SHA256 = (8524, "5880da7be285806c5ef11fe1cad83d97e8a45b2c55585b3cc9d304787c7017de")
CHECK_FAMILIES_SHA256 = (26, "3cabbb6359184b1d46b1f02187befce118b8f19ad0c3d4a6ac676b260c1ae394")


def test_check_and_explain_on_catalog6_are_pinned(cat6):
    texts = [t for s in cat6.members() for t in _check_texts(s)]
    assert _pin(texts) == CHECK_CATALOG6_SHA256


def test_check_and_explain_on_families_are_pinned():
    members = ([s_k(k) for k in range(1, 7)] + [s_prime_n(n) for n in range(1, 5)]
               + [s_doubleprime_n(n) for n in range(1, 4)])
    texts = [t for s in members for t in _check_texts(s)]
    assert _pin(texts) == CHECK_FAMILIES_SHA256


# realizes witnesses and arrow_check verdicts over catalog(4)

# seeded random colorings, four seeds each, dense to sparse: some members
# have no realization, more of them in ordered mode
REALIZES_COLORINGS = [(n, colors, seed) for n, colors in ((5, 3), (5, 6), (6, 8), (7, 4), (8, 8))
                      for seed in range(4)]
# ordered -> (texts, sha256): [embedding, pulled_colors] per coloring and
# member, or null
REALIZES_SHA256 = {
    False: (300, "c432368f971f49c520c1c0188e9d85a906b660b3741842b64a5010260a2a1a9b"),
    True: (300, "ff3db5296d73d84bab879f9d27a0e7e3026da3eca7224df58c528c11a7d7549b"),
}
# the verdict of every member at N = 1..7 with 2 colors: 58 true, 47 false
ARROW_CHECK_SHA256 = (105, "258025f08f8bd542d06ba46a6719c0fd179e4121c73e7af9ff89b1e3fa5c8c14")


@pytest.mark.parametrize("ordered", [False, True])
def test_realizes_witnesses_on_catalog4_are_pinned(ordered):
    members = generate_catalog(4).members()
    texts = []
    for n, colors, seed in REALIZES_COLORINGS:
        c = builtin_coloring("random", n=n, colors=colors, seed=seed)
        for s in members:
            r = realizes(c, s, ordered)
            texts.append(_dump(None if r is None else [list(r.embedding), list(r.pulled_colors)]))
    assert _pin(texts) == REALIZES_SHA256[ordered]


def test_arrow_check_verdicts_on_catalog4_are_pinned():
    texts = [_dump(arrow_check(N, s, 2)) for s in generate_catalog(4).members()
             for N in range(1, 8)]
    assert _pin(texts) == ARROW_CHECK_SHA256


# Every CLI command's --json report, one input each, run in process from a
# scratch directory with relative paths so the command echo is stable

def _cli_inputs():
    """Input files by name: a pairs catalog(4) entry, a full-flavor size-4
    entry reversed (a member of full catalog(4) up to relabeling only),
    s_k(3), a seeded coloring and full catalog(4) as `catalog` writes it."""
    full4 = generate_catalog(4, "full")
    full = next(t for t in (permute(s, range(3, -1, -1)) for s in full4.members()
                            if s.n == 4) if t not in full4)
    return {
        "pairs.json": _dump(to_json(generate_catalog(4).members()[-1])),
        "full.json": _dump(to_json(full)),
        "sk3.json": _dump(to_json(s_k(3))),
        "coloring.json": _dump({"builtin": "random", "n": 7, "colors": 3, "seed": 0}),
        "full4.json": "".join(_catalog_chunks(full4)),
    }


CLI_RUNS = {
    "builtin": ["builtin", "--family", "sk", "--k", "3"],
    "check": ["check", "--in", "pairs.json"],
    "explain": ["explain", "--in", "sk3.json"],
    "catalog": ["catalog", "--max-size", "4", "--full", "--out", "written.json"],
    "member": ["member", "--catalog", "full4.json", "--in", "full.json"],
    "oracle --identity": ["oracle", "--coloring", "coloring.json", "--identity", "pairs.json"],
    "oracle --list": ["oracle", "--coloring", "coloring.json", "--list", "--max-size", "4"],
    "arrow": ["arrow", "--n", "6", "--identity", "pairs.json", "--colors", "2"],
    "simplify": ["simplify", "--in", "full.json", "--k", "2"],
    "extend-order": ["extend-order", "--in", "pairs.json"],
}
# command -> (exit code, sha256 of the report line)
CLI_REPORT_SHA256 = {
    "arrow": (0, "d2f739c6fb4da02b441bd61c1827aedfbabd991491ffd5f881119b855693b2ee"),
    "builtin": (0, "99d4e27a2cc45777a6b8b235981379c5f61dab9c83beebd1c340ff0ea23b99c2"),
    "catalog": (0, "9e8a12e61eb4c4904f7575fe3889e365bb3484128c80e8738c423397665c5819"),
    "check": (0, "0e0138064b9175c61d86604cc02c7bb70c2ee70df5dd2eefb0be1f89c09ac659"),
    "explain": (3, "0b08129f1005475a2b1f92b908c791fe1ba5d70278ae968bf36884f32a5b815c"),
    "extend-order": (0, "9d8b008dc4d0972ca03981ef13d08aa1e7e6e9c80fcf0d9eb29ecadd7d8bd97f"),
    "member": (0, "43c711c51d696f8df004d79b38492dd62be20278718d77ba4583276668b51a3c"),
    "oracle --identity": (0, "a977666c80e378effb80ceaa978951e14931660e45f6e2cb7d1de98f6cad64a3"),
    "oracle --list": (0, "c21416ebb6a22f8d78936cdeb9270848a4b3fb1a51711b5509c9af4cf0579bf9"),
    "simplify": (0, "89a8d7315dba44aff7f0410a13f7d059b245a69a3378db147a55e881bbe0b44f"),
}


@pytest.mark.parametrize("command", sorted(CLI_RUNS))
def test_cli_json_reports_are_pinned(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _cli_inputs().items():
        (tmp_path / name).write_text(text)
    code, out = main_in_process(*CLI_RUNS[command], "--json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_REPORT_SHA256[command]
    if command == "catalog":
        written = (tmp_path / "written.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == CATALOG_SHA256["full", 4]
