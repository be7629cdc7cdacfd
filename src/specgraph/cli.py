"""Command-line front end for the graph, spectral, and sequence solvers.

Subcommands either generate graphs (``gen``), analyze a graph read as JSON
(``spectrum``, ``cheeger``, ``dual-cheeger``, ``kappa``), drive the summable
complete-graph solver (``kgraph``, ``trace``), or run the whole check suite
(``verify``).  ``-`` means stdin; output goes to stdout unless ``--out`` is
given.  All reports are JSON except ``trace``, which emits CSV; floating
point output is fixed to 17 significant digits so runs compare bit-for-bit.

Exit codes: 0 success, 1 computation error (a machine-readable
``{"error": ..., "message": ...}`` line goes to stderr), 2 usage error.
The enumeration commands and ``verify`` take ``--max-n`` to move the
enumeration caps.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .errors import BadParameter, PoleProximity, SpecgraphError
from .families import FAMILIES, FamilySpec, _check_edges, generate
from .graph import WeightedGraph, _graph_payload, graph_from_json
from .harness import SuiteConfig, run_suite
from .invariants import cheeger_constant_exact, dual_cheeger_exact, kappa_exact
from .kgraph import (
    PSequence,
    asymmetry_K,
    delta_eigenvalue,
    hilbert_schmidt_sum,
    kappa_K,
    mu_top_refined,
    secular_F,
    trivial_root,
    truncate_K,
)
from .spectral import spectrum

__all__ = ["main"]


# ------------------------------------------------------------- serialization


def _fmt(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        # Same non-finite spellings the stdlib json module reads back.
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    return format(x, ".17g")


def _to_json(obj) -> str:
    """JSON text with every float at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(key))}: {_to_json(value)}"
            for key, value in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(x) for x in obj) + "]"
    if dataclasses.is_dataclass(obj):
        # Shallow, in field order; ``asdict`` would deep-copy every field.
        return _to_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _read_graph(path: str) -> WeightedGraph:
    if path == "-":
        return graph_from_json(sys.stdin.read())
    with open(path) as fh:
        return graph_from_json(fh.read())


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise BadParameter(f"expected comma-separated numbers, got {text!r}")


# ----------------------------------------------------------------- commands


def _cmd_gen(args: argparse.Namespace) -> int:
    p = None
    if args.p_head is not None or args.p_ratio is not None:
        if args.p_head is None or args.p_ratio is None:
            raise BadParameter("--p-head and --p-ratio go together")
        p = PSequence(_parse_floats(args.p_head), args.p_ratio)
    spec = FamilySpec(args.family, args.n, r=args.r, rho=args.rho, p=p)
    if args.renormalize:
        if args.family != "K_m1" or p is None:
            raise BadParameter("--renormalize applies to K_m1 only")
        _check_edges(spec)
        graph = truncate_K(p, args.n, renormalize=True)
    else:
        graph = generate(spec)
    _emit(_to_json(_graph_payload(graph)), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    spec = spectrum(graph, eigenvectors=args.eigenvectors)
    if args.eigenvectors:
        payload = {
            "values": spec.values.tolist(),
            "eigenvectors": spec.eigenvectors.T.tolist(),
            "max_residual": spec.max_residual,
        }
        _emit(_to_json(payload), args.out)
    else:
        _emit(_to_json(spec.values.tolist()), args.out)
    return 0


def _cmd_cheeger(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    report = cheeger_constant_exact(
        graph, args.max_n, connected_only=args.connected_only
    )
    _emit(_to_json(report.to_payload()), args.out)
    return 0


def _cmd_dual_cheeger(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    report = dual_cheeger_exact(graph, args.max_n)
    _emit(_to_json(report.to_payload()), args.out)
    return 0


def _cmd_kappa(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    report = kappa_exact(graph, args.max_n)
    _emit(_to_json(report.to_payload()), args.out)
    return 0


def _cmd_kgraph(args: argparse.Namespace) -> int:
    p = PSequence(_parse_floats(args.head), args.tail_ratio)
    if args.roots < 1:
        raise BadParameter("need at least one root")
    roots = [delta_eigenvalue(p, i, args.tol) for i in range(1, args.roots + 1)]
    top_lo, top_hi = mu_top_refined(p)
    hs_value, hs_report = hilbert_schmidt_sum(p)
    payload = {
        "sequence": p.to_payload(),
        "roots": roots,
        "trivial": trivial_root(p),
        "top_interval": [top_lo, top_hi],
        "kappa": kappa_K(p),
        "hilbert_schmidt": {
            "value": hs_value,
            "bound": hs_report.rhs,
            "passed": hs_report.passed,
        },
    }
    if args.asymmetry:
        asym_lo, asym_hi = asymmetry_K(p, args.tol)
        payload["asymmetry"] = [asym_lo, asym_hi]
    _emit(_to_json(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = SuiteConfig(
        seeds=args.seeds,
        n_min=args.n_min,
        n_max=args.n_max,
        edge_probability=args.edge_probability,
        base_seed=args.base_seed,
        max_n=args.max_n,
        include_families=not args.no_families,
    )
    summary = run_suite(config)
    _emit(_to_json(summary), args.out)
    return 0 if summary["ok"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    p = PSequence(_parse_floats(args.head), args.tail_ratio)
    if args.points < 2:
        raise BadParameter("need at least two sample points")
    if not args.lo < args.hi:
        raise BadParameter(f"empty sample interval [{args.lo}, {args.hi}]")
    walk = args.variable == "walk"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("lambda", "F", "tail_bound") if walk else ("mu", "G", "tail_bound"))
    for x in np.linspace(args.lo, args.hi, args.points).tolist():
        try:
            # The reciprocal-pole form is G(mu) = F(1 - mu), term by term.
            value, tail = secular_F(p, x if walk else 1.0 - x)
        except PoleProximity:
            continue
        writer.writerow([_fmt(x), _fmt(value), _fmt(tail)])
    _emit(buf.getvalue().rstrip("\r\n"), args.out)
    return 0


# ------------------------------------------------------------------- parser


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input", nargs="?", default="-", help="graph JSON path (- for stdin)"
    )
    parser.add_argument("--out", help="write the report here instead of stdout")


def _add_sequence_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--head",
        required=True,
        help="comma-separated explicit weights, e.g. 0.9,0.09,0.009",
    )
    parser.add_argument(
        "--tail-ratio",
        type=float,
        required=True,
        help="geometric ratio continuing the head",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="spectral and isoperimetric analysis of weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph as JSON")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True, help="truncation size")
    gen.add_argument("--r", type=float, help="geometric weight ratio")
    gen.add_argument("--rho", type=float, help="ladder rail ratio")
    gen.add_argument("--p-head", help="probability sequence head (K_m1)")
    gen.add_argument("--p-ratio", type=float, help="probability tail ratio (K_m1)")
    gen.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale kept K_m1 weights to sum to 1",
    )
    gen.add_argument("--out")

    spect = sub.add_parser("spectrum", help="Laplacian spectrum of a graph")
    _add_graph_input(spect)
    spect.add_argument(
        "--eigenvectors",
        action="store_true",
        help="include eigenfunctions and the worst eigenpair residual",
    )

    cheeger = sub.add_parser("cheeger", help="exact Cheeger constant")
    _add_graph_input(cheeger)
    cheeger.add_argument("--max-n", type=int, help="enumeration cap override")
    cheeger.add_argument(
        "--connected-only",
        action="store_true",
        help="restrict the search to connected witnesses",
    )

    dual = sub.add_parser("dual-cheeger", help="exact dual Cheeger constant")
    _add_graph_input(dual)
    dual.add_argument("--max-n", type=int, help="enumeration cap override")

    kappa = sub.add_parser("kappa", help="exact bipartiteness defect")
    _add_graph_input(kappa)
    kappa.add_argument("--max-n", type=int, help="enumeration cap override")

    kgraph = sub.add_parser(
        "kgraph", help="certified eigenvalues of the summable complete graph"
    )
    _add_sequence_flags(kgraph)
    kgraph.add_argument("--roots", type=int, default=2, help="eigenvalues to solve")
    kgraph.add_argument("--tol", type=float, default=1e-9, help="residual target")
    kgraph.add_argument(
        "--asymmetry",
        action="store_true",
        help="also certify the spectral reflection asymmetry",
    )
    kgraph.add_argument("--out")

    verify = sub.add_parser("verify", help="run the full check suite")
    verify.add_argument("--seeds", type=int, default=200)
    verify.add_argument("--n-min", type=int, default=4)
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--edge-probability", type=float, default=0.5)
    verify.add_argument("--base-seed", type=int, default=0)
    verify.add_argument("--max-n", type=int, help="enumeration cap override")
    verify.add_argument(
        "--no-families",
        action="store_true",
        help="sweep random graphs only",
    )
    verify.add_argument("--out")

    trace = sub.add_parser(
        "trace", help="CSV samples of the secular function over an interval"
    )
    _add_sequence_flags(trace)
    trace.add_argument(
        "--variable",
        choices=("walk", "laplacian"),
        default="walk",
        help="sample F over walk eigenvalues or G over Laplacian ones",
    )
    trace.add_argument("--from", dest="lo", type=float, required=True)
    trace.add_argument("--to", dest="hi", type=float, required=True)
    trace.add_argument("--points", type=int, default=200)
    trace.add_argument("--out")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "cheeger": _cmd_cheeger,
    "dual-cheeger": _cmd_dual_cheeger,
    "kappa": _cmd_kappa,
    "kgraph": _cmd_kgraph,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SpecgraphError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
