"""Command-line front end emitting JSON reports.

Every subcommand prints a report object {command, inputs_digest, results,
timings_ms}.  A handler only computes and returns (command, inputs, results,
exit code); run is the one place that parses, times and prints a report.
run parses with one parser, built on first use and kept for the process
(build_parser), so a call pays only for its own command.  catalog export,
the one special case in run, prints the raw interchange document instead, so
the output round-trips through the importer bit-identically.  Loading a set
checks its listed contexts once, into the one ContextSystem its command reads
(enumerated when none are listed).  Exit codes: 0 success, 1 verification
failure (a colorable set, an imperfect strategy, a non-unique null space), 2
any refusal (usage, ValueError or OSError: bad input or an exceeded budget).
Any other exception is a fault and propagates.  Exact rationals are
serialized as "num/den" strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import catalog as catalog_mod
from . import scan
from .game import classical_value_report, verify_perfect_strategy
from .ks_sets import (
    Context,
    ContextSystem,
    VectorSet,
    check_ks_property,
    complete_set,
    parse_decimal,
    system_from_json_dict,
    to_json_dict,
)
from .selftest import certify, general_d_selftest
from .supersinglet import (
    DENSE_CHECK_MAX_D,
    STATE_MAX_D,
    build_supersinglet,
    check_state_budget,
    check_unitary_invariance,
    check_unitary_invariance_exact,
    random_signed_permutation,
    random_special_unitary,
    reexpand_in_basis,
)

# what a handler returns: (command, inputs, results, exit code)
_Report = tuple[str, dict, dict, int]


def _fr(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _emit(command: str, inputs: dict, results: dict, t0: float) -> None:
    report = {
        "command": command,
        "inputs_digest": _digest(inputs),
        "results": results,
        "timings_ms": {"total": round((time.monotonic() - t0) * 1000.0, 3)},
    }
    print(json.dumps(report, indent=2))


def _load_set(args: argparse.Namespace) -> tuple[VectorSet, ContextSystem | None, dict]:
    """Resolve --builtin/--set to a vector set, its listed contexts checked, a digest payload."""
    if getattr(args, "builtin", None):
        vset, contexts = catalog_mod.load_builtin(args.builtin)
        listed = None if contexts is None else ContextSystem.of(vset, contexts)
        inputs = {"builtin": args.builtin}
    else:
        with open(args.set, "r", encoding="utf-8") as fh:
            vset, listed = system_from_json_dict(json.load(fh))
        inputs = {}
    inputs["doc"] = to_json_dict(vset, None if listed is None else listed.contexts)
    return vset, listed, inputs


def _load_system(args: argparse.Namespace) -> tuple[ContextSystem, dict]:
    """_load_set's listed contexts, an empty list included, else the enumerated ones."""
    vset, listed, inputs = _load_set(args)
    return ContextSystem.of(vset) if listed is None else listed, inputs


def _cmd_catalog(args: argparse.Namespace) -> _Report:
    names = catalog_mod.builtin_names()
    results = {"builtins": names, "families": ["merged<d> for integer d >= 4"]}
    return "catalog list", {"names": names}, results, 0


def _export(args: argparse.Namespace) -> int:
    """catalog export: the interchange document itself, not a report."""
    _, _, inputs = _load_set(args)
    text = json.dumps(inputs["doc"], indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_ks(args: argparse.Namespace) -> _Report:
    if args.ks_cmd == "complete":
        vset, _, inputs = _load_set(args)
        completed = complete_set(vset)
        results = {
            "original_size": vset.n,
            "completed_size": completed.n,
            "added": [list(v) for v in completed.vectors[vset.n:]],
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(to_json_dict(completed), fh, indent=1)
                fh.write("\n")
        return "ks complete", inputs, results, 0
    system, inputs = _load_system(args)
    if args.ks_cmd == "contexts":
        results = {"count": len(system.contexts), "contexts": [list(c) for c in system.contexts]}
        return "ks contexts", inputs, results, 0
    inputs = {**inputs, "edges_from_contexts_only": args.edges_from_contexts_only}
    decision = check_ks_property(system, edges_from_contexts_only=args.edges_from_contexts_only)
    results = {
        "verdict": decision.verdict,
        "contexts": len(system.contexts),
        "nodes": decision.nodes,
    }
    if decision.witness is not None:
        results["witness"] = list(decision.witness)
    return "ks verify", inputs, results, 0 if decision.uncolorable else 1


def _cmd_state(args: argparse.Namespace) -> _Report:
    if args.state_cmd == "expand":
        system, inputs = _load_system(args)
        vset, contexts = system.vset, system.contexts
        if not 0 <= args.context < len(contexts):
            raise ValueError(
                f"context index {args.context} out of range (set has {len(contexts)})"
            )
        ctx = contexts[args.context]
        state = build_supersinglet(vset.dim)
        expansion = reexpand_in_basis(state, [vset.vectors[i] for i in ctx])
        terms = [
            {
                "outcome": list(t),
                "coeff": _fr(a.coeff),
                "scale": _fr(a.scale),
                "probability": _fr(a.probability),
            }
            for t, a in sorted(expansion.coefficients.items())
        ]
        results = {
            "context": list(ctx),
            "terms": terms,
            "total_probability": _fr(expansion.total_probability()),
        }
        return "state expand", {**inputs, "context": args.context}, results, 0
    d = args.d
    if args.samples < 0 or args.signed < 0:
        raise ValueError("--samples and --signed must be non-negative")
    if not 0 <= args.tolerance < math.inf:
        raise ValueError("--tolerance must be finite and non-negative")
    if args.samples > 0 and not 2 <= d <= DENSE_CHECK_MAX_D:
        raise ValueError(f"--samples needs 2 <= --d <= {DENSE_CHECK_MAX_D} for the dense check")
    check_state_budget(d)
    inputs = {
        "d": d,
        "samples": args.samples,
        "signed": args.signed,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }
    state = build_supersinglet(d)
    dense = [check_unitary_invariance(state, random_special_unitary(d, args.seed + k), args.tolerance)
             for k in range(args.samples)]
    exact = [check_unitary_invariance_exact(state, random_signed_permutation(d, args.seed + k))
             for k in range(args.signed)]
    signed_ok = all(rep.equals_det_times_state for rep in exact)
    results = {
        "d": d,
        "special_unitary_samples": args.samples,
        "max_deviation_identity": max((rep.max_deviation_identity for rep in dense), default=0.0),
        "max_deviation_det_covariance": max((rep.max_deviation_det for rep in dense), default=0.0),
        "tolerance": args.tolerance,
        "signed_permutation_samples": args.signed,
        "signed_exact_det_covariance": signed_ok,
        "signed_determinants": [_fr(rep.determinant) for rep in exact],
    }
    invariant = all(rep.invariant for rep in dense)
    return "state invariance", inputs, results, 0 if signed_ok and invariant else 1


def _cmd_game(args: argparse.Namespace) -> _Report:
    system, inputs = _load_system(args)
    if args.game_cmd == "quantum-verify":
        report = verify_perfect_strategy(system)
        results = {
            "per_input": [
                {"x": x, "y": y, "p": _fr(p)} for x, y, p in report.per_input
            ],
            "min": _fr(report.min_success),
            "perfect": report.perfect,
        }
        return "game quantum-verify", inputs, results, 0 if report.perfect else 1
    report = classical_value_report(system)
    results = {
        "value": _fr(report.value),
        "best_total": report.best_total,
        "trials": report.trials,
        "n": report.n,
        "contexts": report.m,
        "lane": scan.LANE,
        "witness_strategy": {
            "assignment": list(report.assignment),
            "context_choices": [list(c) for c in report.context_choices],
        },
    }
    return "game classical-bound", inputs, results, 0


def _parse_context_args(raw: list[str]) -> list[Context]:
    contexts = []
    for chunk in raw:
        ctx = tuple(parse_decimal(p) for p in chunk.split(","))
        if None in ctx:
            raise ValueError(f"context {chunk!r} is not a comma-separated index list")
        contexts.append(ctx)
    return contexts


def _witness_json(witness) -> dict[str, str] | None:
    if witness is None:
        return None
    return {
        ",".join(map(str, p)): _fr(v) for p, v in sorted(witness.terms.items())
    }


def _cmd_selftest(args: argparse.Namespace) -> _Report:
    if args.d is not None:
        if args.contexts:
            raise ValueError("--contexts needs --builtin or --set, not --d")
        report = general_d_selftest(args.d, all_contexts=args.all_contexts)
        inputs = {"d": args.d, "all_contexts": args.all_contexts}
    else:
        if args.all_contexts:
            raise ValueError("--all-contexts needs --d")
        system, inputs = _load_system(args)
        if not args.contexts:
            raise ValueError("selftest needs --d or --contexts")
        chosen = _parse_context_args(args.contexts)
        report = certify(system, chosen)
        inputs = {**inputs, "contexts": [list(c) for c in chosen]}
    results = {"d": report.d, "variables": report.variables}
    if args.d is None:
        results["canonical_context"] = list(report.canonical_context)
    results.update(
        contexts=[list(c) for c in report.contexts],
        rows=report.row_count,
        rank=report.rank,
        nullity=report.nullity,
        unique=report.unique,
        witness=_witness_json(report.witness),
    )
    return "selftest", inputs, results, 0 if report.unique else 1


def integer(text: str) -> int:
    """argparse type: an optional '-' before parse_decimal's digits, '-0' refused.

    int() would read +4, Arabic-Indic digits, 04, 4_0 and " 4" all as 4; a
    sign is kept so negative values still reach each command's range check.
    """
    value = parse_decimal(text.removeprefix("-"))
    if value is None or text == "-0":
        raise ValueError(text)
    return -value if text.startswith("-") else value


def real(text: str) -> float:
    """argparse type: float() of ASCII text with no '_' and no surrounding space.

    float() alone would also read Arabic-Indic digits, 1_0 and " 0.5"; nan, inf
    and negative values still reach the command's range check.
    """
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return float(text)


def _add_set_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="built-in set name (see catalog list)")
    group.add_argument("--set", help="path to an interchange JSON document")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kspt argument parser, built on the first call and shared by every later one.

    Sharing is safe: parse_args gives each call a fresh namespace, subparsers
    included, no default is mutable, and help and usage are formatted when
    printed.  build_parser.__wrapped__() builds a new one.
    """
    parser = argparse.ArgumentParser(
        prog="kspt",
        description="Vector-set contextuality games: verification, exact values, certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="built-in vector sets")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_cmd", required=True)
    catalog_sub.add_parser("list", help="list built-in set names")
    p_export = catalog_sub.add_parser("export", help="emit a set as interchange JSON")
    _add_set_source(p_export)
    p_export.add_argument("--out", help="write to a file instead of stdout")

    p_ks = sub.add_parser("ks", help="uncolorability, contexts, completion")
    ks_sub = p_ks.add_subparsers(dest="ks_cmd", required=True)
    p_verify = ks_sub.add_parser("verify", help="decide the assignment property")
    _add_set_source(p_verify)
    p_verify.add_argument(
        "--edges-from-contexts-only",
        action="store_true",
        help="restrict the no-two-ones condition to pairs co-occurring in a context",
    )
    p_contexts = ks_sub.add_parser("contexts", help="list the set's contexts")
    _add_set_source(p_contexts)
    p_complete = ks_sub.add_parser("complete", help="close the set under edge completion")
    _add_set_source(p_complete)
    p_complete.add_argument("--out", help="write the completed set to a file")

    p_state = sub.add_parser("state", help="the antisymmetric state")
    state_sub = p_state.add_subparsers(dest="state_cmd", required=True)
    p_expand = state_sub.add_parser("expand", help="re-expansion in a context's basis")
    _add_set_source(p_expand)
    p_expand.add_argument("--context", type=integer, required=True, help="context index")
    p_inv = state_sub.add_parser("invariance", help="tensor-power invariance checks")
    p_inv.add_argument("--d", type=integer, required=True)
    p_inv.add_argument("--samples", type=integer, default=20, help="random special unitaries")
    p_inv.add_argument("--signed", type=integer, default=5, help="signed permutation matrices")
    p_inv.add_argument("--seed", type=integer, default=0)
    p_inv.add_argument("--tolerance", type=real, default=1e-10)

    p_game = sub.add_parser("game", help="quantum and classical game values")
    game_sub = p_game.add_subparsers(dest="game_cmd", required=True)
    p_qv = game_sub.add_parser("quantum-verify", help="exact reference-strategy values")
    _add_set_source(p_qv)
    p_cb = game_sub.add_parser("classical-bound", help="exact optimum over deterministic strategies")
    _add_set_source(p_cb)

    p_selftest = sub.add_parser("selftest", help="constraint-system uniqueness certification")
    group = p_selftest.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=integer, help=f"merged-family dimension (4 to {STATE_MAX_D})")
    group.add_argument("--builtin", help="built-in set name")
    group.add_argument("--set", help="path to an interchange JSON document")
    p_selftest.add_argument(
        "--all-contexts",
        action="store_true",
        help="with --d, stack rows from every context instead of the window bases",
    )
    p_selftest.add_argument(
        "--contexts",
        nargs="+",
        help="with a set, row contexts as comma-separated index lists, e.g. 0,3,4 1,5,6",
    )
    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "ks": _cmd_ks,
    "state": _cmd_state,
    "game": _cmd_game,
    "selftest": _cmd_selftest,
}


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        if args.command == "catalog" and args.catalog_cmd == "export":
            return _export(args)
        command, inputs, results, code = _HANDLERS[args.command](args)
        _emit(command, inputs, results, t0)
        return code
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
