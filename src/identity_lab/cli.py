"""Command-line entry point.

Exit codes: 0 success / accepted / true; 3 rejected / false / no
realization; 2 usage errors; 4 size-guard errors.  With --json a
machine-readable report goes to stdout; reports are byte-identical across
runs, so wall time is printed to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .closure import (
    _catalog_chunks,
    catalog_from_json,
    generate_catalog,
    member_of_catalog,
)
from .core import _dump, from_json, to_json
from .criterion import check, explain
from .errors import SizeGuardError, UsageError
from .families import (
    max_meet_identity,
    order_forcing_extension,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    simplify_k,
    trivial,
)
from .oracle import _id_of_texts, arrow_check, coloring_from_json, realizes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_GUARD = 4


def _read_json(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text), data
    except ValueError as exc:  # JSONDecodeError, and an integer too long to parse
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _digest(*parts):
    """SHA-256 of a command's inputs, in order: the report's inputs_digest."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest


def _report(args, digest, output_text) -> str:
    """The report envelope around the output's JSON text: ``_dump`` of the
    report dict, keys in sorted order, without re-encoding the output."""
    return (
        f'{{"command":{_dump(args._argv)},'
        f'"inputs_digest":{_dump(digest.hexdigest())},'
        f'"output":{output_text},'
        f'"tool_version":{_dump(f"identity-lab {__version__}")}}}'
    )


def _emit(args, digest, output_text, text_lines):
    if args.json:
        print(_report(args, digest, output_text))
    elif text_lines:  # one write: a --list runs to 10^5 lines, too many for a print each
        sys.stdout.write("\n".join(text_lines) + "\n")


def _verdict_json(v):
    if not v.accepted:
        return {"accepted": False, "strengthened": v.strengthened}
    return {
        "accepted": True,
        "strengthened": v.strengthened,
        "order": list(v.order),
        "class_ranks": list(v.class_ranks),
        "pair_ranks": [[list(p), r] for p, r in v.pair_ranks],
        "endpoints": [[list(a), list(b)] for a, b in v.endpoints],
    }


def _require(value, flag: str, fam: str):
    if value is None:
        raise UsageError(f"family {fam!r} needs {flag}")
    return value


def _cmd_builtin(args):
    fam = args.family
    if fam == "max-meet":
        labeled = max_meet_identity(_require(args.len, "--len", fam))
        d = to_json(labeled.base)
        d["labels"] = {str(i): lab for i, lab in enumerate(labeled.labels)}
    else:
        make, flag, value = {
            "trivial": (trivial, "--n", args.n),
            "sk": (s_k, "--k", args.k),
            "sprime": (s_prime_n, "--n", args.n),
            "sdoubleprime": (s_doubleprime_n, "--n", args.n),
        }[fam]  # argparse admits only these choices
        d = to_json(make(_require(value, flag, fam)))
    text = _dump(d)
    _emit(args, _digest(text.encode()), text, [text])
    return EXIT_OK


def _cmd_check(args):
    raw, data = _read_json(args.infile)
    ident = from_json(raw)
    plain = check(ident)
    # the strengthened condition is implied by the plain search (see the
    # criterion module), so its verdict differs only in the mode flag
    strong = dataclasses.replace(plain, strengthened=True)
    governing = strong if args.strengthened else plain
    if args.witness and governing.accepted:
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write(_dump(_verdict_json(governing)) + "\n")
    out = {"plain": _verdict_json(plain), "strengthened": _verdict_json(strong)}
    lines = [
        f"plain: {'accepted' if plain.accepted else 'rejected'}",
        f"strengthened: {'accepted' if strong.accepted else 'rejected'}",
    ]
    if governing.accepted:
        lines.append(f"order: {list(governing.order)}")
    _emit(args, _digest(data), _dump(out), lines)
    return EXIT_OK if governing.accepted else EXIT_NEGATIVE


def _cmd_catalog(args):
    cat = generate_catalog(args.max_size, "full" if args.full else "pairs")
    digest = hashlib.sha256()
    with open(args.out, "w", encoding="utf-8") as fh:
        for chunk in _catalog_chunks(cat):
            fh.write(chunk)
            digest.update(chunk.encode())
    out = {"entries": len(cat), "max_n": cat.max_n, "out": args.out}
    _emit(
        args,
        digest,
        _dump(out),
        [f"{len(cat)} entries up to size {cat.max_n} written to {args.out}"],
    )
    return EXIT_OK


def _cmd_member(args):
    cat_raw, cat_data = _read_json(args.catalog)
    s_raw, s_data = _read_json(args.infile)
    cat = catalog_from_json(cat_raw)
    ident = from_json(s_raw)
    hit = member_of_catalog(cat, ident, ordered=args.ordered)
    _emit(
        args,
        _digest(cat_data, s_data),
        _dump({"member": hit, "ordered": args.ordered}),
        ["member" if hit else "not a member"],
    )
    return EXIT_OK if hit else EXIT_NEGATIVE


def _cmd_oracle(args):
    col_raw, col_data = _read_json(args.coloring)
    coloring = coloring_from_json(col_raw)
    if args.list:
        texts = _id_of_texts(coloring, args.max_size, args.ordered)
        # text mode prints the texts alone: join the report only for --json
        joined = '{"identities":[' + ",".join(texts) + "]}" if args.json else None
        _emit(args, _digest(col_data), joined, texts)
        return EXIT_OK
    if not args.identity:
        raise UsageError("oracle needs --identity or --list")
    s_raw, s_data = _read_json(args.identity)
    ident = from_json(s_raw)
    real = realizes(coloring, ident, ordered=args.ordered)
    if real is None:
        _emit(args, _digest(col_data, s_data), _dump({"realization": None}), ["none"])
        return EXIT_NEGATIVE
    out = {
        "realization": {
            "embedding": list(real.embedding),
            "pulled_colors": list(real.pulled_colors),
        }
    }
    _emit(args, _digest(col_data, s_data), _dump(out), [f"embedding {list(real.embedding)}"])
    return EXIT_OK


def _cmd_arrow(args):
    s_raw, s_data = _read_json(args.identity)
    ident = from_json(s_raw)
    ok = arrow_check(args.n, ident, args.colors)
    _emit(
        args,
        _digest(s_data),
        _dump({"arrow": ok, "n": args.n, "colors": args.colors}),
        ["true" if ok else "false"],
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_simplify(args):
    raw, data = _read_json(args.infile)
    ident = from_json(raw)
    text = _dump(to_json(simplify_k(ident, args.k)))
    _emit(args, _digest(data), text, [text])
    return EXIT_OK


def _cmd_extend_order(args):
    raw, data = _read_json(args.infile)
    ident = from_json(raw)
    text = _dump(to_json(order_forcing_extension(ident)))
    _emit(args, _digest(data), text, [text])
    return EXIT_OK


def _cmd_explain(args):
    raw, data = _read_json(args.infile)
    ident = from_json(raw)
    verdict = check(ident, strengthened=args.strengthened)
    report = explain(verdict, ident)
    _emit(args, _digest(data), _dump(report), report["lines"])
    return EXIT_OK if verdict.accepted else EXIT_NEGATIVE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state between
    calls, and help reads the terminal width only when it is printed."""
    parser = argparse.ArgumentParser(
        prog="identity-lab",
        description="finite identity structures: catalogs, criterion, oracles",
    )
    parser.add_argument(
        "--version", action="version", version=f"identity-lab {__version__}"
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="JSON report on stdout"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("builtin", help="emit a named identity family member")
    p.add_argument(
        "--family",
        required=True,
        choices=["trivial", "sk", "sprime", "sdoubleprime", "max-meet"],
    )
    p.add_argument("--k", type=int, help="parameter for sk")
    p.add_argument("--n", type=int, help="parameter for trivial/sprime/sdoubleprime")
    p.add_argument("--len", type=int, help="string length for max-meet")
    p.set_defaults(run=_cmd_builtin)

    p = add_parser("check", help="run the ranked-coloring criterion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strengthened", action="store_true")
    p.add_argument("--witness", help="write the accepting witness JSON here")
    p.set_defaults(run=_cmd_check)

    p = add_parser("catalog", help="generate the closure catalog")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--full", action="store_true", help="full-subset duplication")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_catalog)

    p = add_parser("member", help="catalog membership query")
    p.add_argument("--catalog", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ordered", action="store_true")
    p.set_defaults(run=_cmd_member)

    p = add_parser("oracle", help="realization search in a coloring")
    p.add_argument("--coloring", required=True)
    p.add_argument("--identity")
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--list", action="store_true", help="list realized identities")
    p.add_argument("--max-size", type=int, default=4)
    p.set_defaults(run=_cmd_oracle)

    p = add_parser("arrow", help="does every coloring realize the identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--colors", type=int, required=True)
    p.set_defaults(run=_cmd_arrow)

    p = add_parser("simplify", help="coarsen to the k-subpattern relation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_simplify)

    p = add_parser(
        "extend-order", help="order-forcing extension of a pairs identity"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(run=_cmd_extend_order)

    p = add_parser("explain", help="criterion verdict with forensics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strengthened", action="store_true")
    p.set_defaults(run=_cmd_explain)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    args._argv = argv
    started = time.monotonic()
    try:
        code = args.run(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        elapsed = time.monotonic() - started
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
