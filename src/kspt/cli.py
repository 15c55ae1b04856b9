"""Command-line front end emitting JSON reports.

Every subcommand prints a report object {command, inputs_digest, results,
timings_ms}; catalog export instead prints the raw interchange document so
the output round-trips through the importer bit-identically.  Exit codes:
0 success, 1 verification failure (a colorable set, an imperfect strategy, a
non-unique null space), 2 usage errors, malformed input, or exceeded search
budgets.  Exact rationals are serialized as "num/den" strings, never floats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import catalog as catalog_mod
from . import scan
from .game import (
    GameSpec,
    SearchBudgetError,
    classical_value_report,
    verify_perfect_strategy,
)
from .ks_sets import (
    Context,
    VectorSet,
    check_ks_property,
    complete_set,
    enumerate_contexts,
    from_json_dict,
    to_json_dict,
)
from .selftest import certify, general_d_selftest
from .supersinglet import (
    build_supersinglet,
    check_unitary_invariance,
    check_unitary_invariance_exact,
    random_signed_permutation,
    random_special_unitary,
    reexpand_in_basis,
)


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


def _load_set(args: argparse.Namespace) -> tuple[VectorSet, list[Context] | None, dict]:
    """Resolve --builtin/--set to a vector set, optional contexts, and a digest payload."""
    if getattr(args, "builtin", None):
        vset, contexts = catalog_mod.load_builtin(args.builtin)
        payload = to_json_dict(vset, contexts)
        return vset, contexts, {"builtin": args.builtin, "doc": payload}
    with open(args.set, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    vset, contexts = from_json_dict(doc)
    return vset, contexts, {"doc": to_json_dict(vset, contexts)}


def _contexts_or_enumerated(vset: VectorSet, contexts: list[Context] | None) -> list[Context]:
    return contexts if contexts else enumerate_contexts(vset)


def _cmd_catalog(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.catalog_cmd == "list":
        results = {
            "builtins": catalog_mod.builtin_names(),
            "families": ["merged<d> for integer d >= 4"],
        }
        _emit("catalog list", {"names": results["builtins"]}, results, t0)
        return 0
    vset, contexts, _ = _load_set(args)
    doc = to_json_dict(vset, contexts)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_ks(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    vset, contexts, inputs = _load_set(args)
    contexts = _contexts_or_enumerated(vset, contexts)
    if args.ks_cmd == "contexts":
        results = {"count": len(contexts), "contexts": [list(c) for c in contexts]}
        _emit("ks contexts", inputs, results, t0)
        return 0
    if args.ks_cmd == "complete":
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
        _emit("ks complete", inputs, results, t0)
        return 0
    inputs = {**inputs, "edges_from_contexts_only": args.edges_from_contexts_only}
    decision = check_ks_property(
        vset, contexts, edges_from_contexts_only=args.edges_from_contexts_only
    )
    results = {
        "verdict": decision.verdict,
        "contexts": len(contexts),
        "nodes": decision.nodes,
    }
    if decision.witness is not None:
        results["witness"] = list(decision.witness)
    _emit("ks verify", inputs, results, t0)
    return 0 if decision.uncolorable else 1


def _cmd_state(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.state_cmd == "expand":
        vset, contexts, inputs = _load_set(args)
        contexts = _contexts_or_enumerated(vset, contexts)
        if not 0 <= args.context < len(contexts):
            raise ValueError(
                f"context index {args.context} out of range (set has {len(contexts)})"
            )
        ctx = contexts[args.context]
        d = vset.dim
        state = build_supersinglet(d)
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
        _emit("state expand", {**inputs, "context": args.context}, results, t0)
        return 0
    d = args.d
    inputs = {
        "d": d,
        "samples": args.samples,
        "signed": args.signed,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }
    state = build_supersinglet(d)
    max_dev_id = 0.0
    max_dev_det = 0.0
    for k in range(args.samples):
        u = random_special_unitary(d, args.seed + k)
        rep = check_unitary_invariance(d, u, tolerance=args.tolerance)
        max_dev_id = max(max_dev_id, rep.max_deviation_identity)
        max_dev_det = max(max_dev_det, rep.max_deviation_det)
    signed_ok = True
    dets = []
    for k in range(args.signed):
        m = random_signed_permutation(d, args.seed + k)
        rep = check_unitary_invariance_exact(state, m)
        dets.append(_fr(rep.determinant))
        signed_ok = signed_ok and rep.equals_det_times_state
    results = {
        "d": d,
        "special_unitary_samples": args.samples,
        "max_deviation_identity": max_dev_id,
        "max_deviation_det_covariance": max_dev_det,
        "tolerance": args.tolerance,
        "signed_permutation_samples": args.signed,
        "signed_exact_det_covariance": signed_ok,
        "signed_determinants": dets,
    }
    _emit("state invariance", inputs, results, t0)
    ok = signed_ok and max_dev_id <= args.tolerance
    return 0 if ok else 1


def _cmd_game(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    vset, contexts, inputs = _load_set(args)
    contexts = _contexts_or_enumerated(vset, contexts)
    spec = GameSpec(d=vset.dim, vset=vset, contexts=tuple(contexts))
    if args.game_cmd == "quantum-verify":
        report = verify_perfect_strategy(spec)
        results = {
            "per_input": [
                {"x": x, "y": y, "p": _fr(p)} for x, y, p in report.per_input
            ],
            "min": _fr(report.min_success),
            "perfect": report.perfect,
        }
        _emit("game quantum-verify", inputs, results, t0)
        return 0 if report.perfect else 1
    report = classical_value_report(spec)
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
    _emit("game classical-bound", inputs, results, t0)
    return 0


def _parse_context_args(raw: list[str]) -> list[Context]:
    contexts = []
    for chunk in raw:
        try:
            contexts.append(tuple(int(p) for p in chunk.split(",")))
        except ValueError:
            raise ValueError(f"context {chunk!r} is not a comma-separated index list")
    return contexts


def _witness_json(witness) -> dict[str, str] | None:
    if witness is None:
        return None
    return {
        ",".join(map(str, p)): _fr(v) for p, v in sorted(witness.entries.items())
    }


def _cmd_selftest(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.d is not None:
        if args.contexts:
            raise ValueError("--contexts needs --builtin or --set, not --d")
        report = general_d_selftest(args.d, all_contexts=args.all_contexts)
        inputs = {"d": args.d, "all_contexts": args.all_contexts}
    else:
        if args.all_contexts:
            raise ValueError("--all-contexts needs --d")
        vset, contexts, inputs = _load_set(args)
        if not args.contexts:
            raise ValueError("selftest needs --d or --contexts")
        chosen = _parse_context_args(args.contexts)
        report = certify(vset, _contexts_or_enumerated(vset, contexts), chosen)
        inputs = {**inputs, "contexts": [list(c) for c in chosen]}
    results = {"d": report.d, "variables": report.variables}
    if args.d is None:
        results["canonical_context"] = list(report.support.canonical_context)
    results.update(
        contexts=[list(c) for c in report.contexts],
        rows=report.row_count,
        rank=report.rank,
        nullity=report.nullity,
        unique=report.unique,
        witness=_witness_json(report.witness),
    )
    _emit("selftest", inputs, results, t0)
    return 0 if report.unique else 1


def _add_set_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="built-in set name (see catalog list)")
    group.add_argument("--set", help="path to an interchange JSON document")


def build_parser() -> argparse.ArgumentParser:
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
    p_expand.add_argument("--context", type=int, required=True, help="context index")
    p_inv = state_sub.add_parser("invariance", help="tensor-power invariance checks")
    p_inv.add_argument("--d", type=int, required=True)
    p_inv.add_argument("--samples", type=int, default=20, help="random special unitaries")
    p_inv.add_argument("--signed", type=int, default=5, help="signed permutation matrices")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--tolerance", type=float, default=1e-10)

    p_game = sub.add_parser("game", help="quantum and classical game values")
    game_sub = p_game.add_subparsers(dest="game_cmd", required=True)
    p_qv = game_sub.add_parser("quantum-verify", help="exact reference-strategy values")
    _add_set_source(p_qv)
    p_cb = game_sub.add_parser("classical-bound", help="exact optimum over deterministic strategies")
    _add_set_source(p_cb)

    p_selftest = sub.add_parser("selftest", help="constraint-system uniqueness certification")
    group = p_selftest.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="merged-family dimension (4 to 6)")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
