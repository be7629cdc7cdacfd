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
enumeration caps, up to the ceiling of ``invariants.N_MAX`` (28) vertices at
most.

The parser is built once per process.  Each subcommand names its handler
with ``set_defaults``; ``cheeger``, ``dual-cheeger`` and ``kappa`` share one
handler that finds its solver by name in this module when it runs, as every
handler finds the library functions it calls.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from .errors import BadParameter, MalformedGraph, PoleProximity, SpecgraphError, TooLarge
from .families import FAMILIES, FamilySpec, generate
from .graph import WeightedGraph, _graph_payload, _real, graph_from_json
from .harness import SuiteConfig, run_suite
from .invariants import N_MAX, cheeger_constant_exact, dual_cheeger_exact, kappa_exact
from .kgraph import (
    SIZE_LIMIT,
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
    if isinstance(obj, np.ndarray):
        # A finite array of Python-float entries (float16 to float64) goes one
        # row per "%.17g" template, the text ``_fmt`` gives each entry.
        if obj.dtype.kind == "f" and obj.itemsize <= 8 and obj.ndim in (1, 2):
            if np.isfinite(obj).all():
                template = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"
                rows = obj.tolist() if obj.ndim == 2 else [obj.tolist()]
                text = ", ".join([template % tuple(row) for row in rows])
                return text if obj.ndim == 1 else "[" + text + "]"
        return _to_json(obj.tolist())
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
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedGraph(f"not UTF-8 text: {exc}") from None
    return graph_from_json(text)


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
            "values": spec.values,
            "eigenvectors": spec.eigenvectors.T,
            "max_residual": spec.max_residual,
        }
        _emit(_to_json(payload), args.out)
    else:
        _emit(_to_json(spec.values), args.out)
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    options = {"connected_only": args.connected_only} if "connected_only" in args else {}
    report = globals()[args.solver](graph, args.max_n, **options)
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
    fields = dataclasses.fields(SuiteConfig)
    config = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields if f.name in args})
    summary = run_suite(config)
    _emit(_to_json(summary), args.out)
    return 0 if summary["ok"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    p = PSequence(_parse_floats(args.head), args.tail_ratio)
    if args.points < 2:
        raise BadParameter("need at least two sample points")
    if args.points > SIZE_LIMIT:
        raise TooLarge(f"{args.points} sample points, more than the {SIZE_LIMIT} a trace may take")
    lo, hi = _real(args.lo, "--from"), _real(args.hi, "--to")
    if not lo < hi:
        raise BadParameter(f"empty sample interval [{lo}, {hi}]")
    walk = args.variable == "walk"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("lambda", "F", "tail_bound") if walk else ("mu", "G", "tail_bound"))
    for x in np.linspace(lo, hi, args.points).tolist():
        try:
            # The reciprocal-pole form is G(mu) = F(1 - mu), term by term.
            value, tail = secular_F(p, x if walk else 1.0 - x)
        except PoleProximity:
            continue
        writer.writerow([_fmt(x), _fmt(value), _fmt(tail)])
    _emit(buf.getvalue().rstrip("\r\n"), args.out)
    return 0


# ------------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    cap_help = f"enumeration cap override, up to the ceiling of {N_MAX} vertices"
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report here instead of stdout")
    graph_input = argparse.ArgumentParser(add_help=False, parents=[out])
    graph_input.add_argument(
        "input", nargs="?", default="-", help="graph JSON path (- for stdin)"
    )
    sequence = argparse.ArgumentParser(add_help=False, parents=[out])
    sequence.add_argument(
        "--head",
        required=True,
        help="comma-separated explicit weights, e.g. 0.9,0.09,0.009",
    )
    sequence.add_argument(
        "--tail-ratio",
        type=float,
        required=True,
        help="geometric ratio continuing the head",
    )

    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="spectral and isoperimetric analysis of weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph as JSON", parents=[out])
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
    gen.set_defaults(handler=_cmd_gen)

    spect = sub.add_parser(
        "spectrum", help="Laplacian spectrum of a graph", parents=[graph_input]
    )
    spect.add_argument(
        "--eigenvectors",
        action="store_true",
        help="include eigenfunctions and the worst eigenpair residual",
    )
    spect.set_defaults(handler=_cmd_spectrum)

    # Solvers go by name: a parser default must not hold a library function.
    for name, solver, about in (
        ("cheeger", "cheeger_constant_exact", "exact Cheeger constant"),
        ("dual-cheeger", "dual_cheeger_exact", "exact dual Cheeger constant"),
        ("kappa", "kappa_exact", "exact bipartiteness defect"),
    ):
        invariant = sub.add_parser(name, help=about, parents=[graph_input])
        invariant.add_argument("--max-n", type=int, help=cap_help)
        invariant.set_defaults(handler=_cmd_invariant, solver=solver)
    sub.choices["cheeger"].add_argument(
        "--connected-only",
        action="store_true",
        help="restrict the search to connected witnesses",
    )

    kgraph = sub.add_parser(
        "kgraph",
        help="certified eigenvalues of the summable complete graph",
        parents=[sequence],
    )
    kgraph.add_argument("--roots", type=int, default=2, help="eigenvalues to solve")
    kgraph.add_argument("--tol", type=float, default=1e-9, help="residual target")
    kgraph.add_argument(
        "--asymmetry",
        action="store_true",
        help="also certify the spectral reflection asymmetry",
    )
    kgraph.set_defaults(handler=_cmd_kgraph)

    # Options left off stay off the namespace, so SuiteConfig fills them in.
    verify = sub.add_parser(
        "verify",
        help="run the full check suite",
        parents=[out],
        argument_default=argparse.SUPPRESS,
    )
    verify.add_argument("--seeds", type=int)
    verify.add_argument("--n-min", type=int)
    verify.add_argument("--n-max", type=int)
    verify.add_argument("--edge-probability", type=float)
    verify.add_argument("--base-seed", type=int)
    verify.add_argument("--max-n", type=int, help=cap_help)
    verify.add_argument(
        "--no-families",
        dest="include_families",
        action="store_false",
        help="sweep random graphs only",
    )
    verify.set_defaults(handler=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="CSV samples of the secular function over an interval",
        parents=[sequence],
    )
    trace.add_argument(
        "--variable",
        choices=("walk", "laplacian"),
        default="walk",
        help="sample F over walk eigenvalues or G over Laplacian ones",
    )
    trace.add_argument("--from", dest="lo", type=float, required=True)
    trace.add_argument("--to", dest="hi", type=float, required=True)
    trace.add_argument("--points", type=int, default=200)
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SpecgraphError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
