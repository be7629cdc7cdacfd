"""Release gate: ten numbered end-to-end checks with stated tolerances.

Each test prints one ``ACCEPTANCE <k> PASS/FAIL`` line (run with ``-s`` to
see them all; failures also carry the line in their captured output).  Two
checks are expected to fail — the geometric half-line does not reach its
limiting constant by N = 20 for slow decay, and the equal-ratio ladder's
exact two-sided constant sits well above the alternating-partition value;
see the project notes for the analysis.  The tests state the targets
faithfully rather than papering over the gap.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import complete, cycle
from specgraph.families import FamilySpec, generate, tail_ratio_trace
from specgraph.graph import WeightedGraph
from specgraph.harness import RandomGraphSpec, SuiteConfig, run_suite, sample_graph
from specgraph.invariants import (
    cheeger_constant_exact,
    dual_cheeger_exact,
    is_bipartite,
    kappa_exact,
)
from specgraph.kgraph import (
    PSequence,
    asymmetry_K,
    delta_eigenvalue,
    kappa_K,
    mu_top_refined,
    truncate_K,
)
from specgraph.spectral import spectrum

DECADE = PSequence((0.9,), 0.1)  # p_i = 9 * 10^-i


def _report(num: int, ok: bool, detail: str) -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {state} — {detail}")
    return ok


def test_acceptance_01_certified_top_eigenvalues():
    start = time.perf_counter()
    mu1 = delta_eigenvalue(DECADE, 1, tol=1e-10)
    mu2 = delta_eigenvalue(DECADE, 2, tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = (
        1.94747 <= mu1.value <= 2.0
        and 1.00908 <= mu2.value <= 1.099
        and mu1.residual + mu1.tail_bound <= 1e-10
        and mu2.residual + mu2.tail_bound <= 1e-10
        and elapsed < 1.0
    )
    assert _report(
        1,
        ok,
        f"mu1={mu1.value:.16g} mu2={mu2.value:.16g} in {elapsed * 1e3:.1f} ms",
    )


def test_acceptance_02_return_probability_and_reflection():
    est = kappa_K(DECADE)
    kappa_ok = est.certified and est.value == 1.0 - 0.9
    kappa_ok = kappa_ok and abs(est.value - 0.1) <= 1e-16
    lo, hi = asymmetry_K(DECADE)
    asym_ok = 0.00908 <= lo <= hi <= 0.099 and hi <= 2.0 * est.value
    mu1 = delta_eigenvalue(DECADE, 1)
    # everything except the top eigenvalue sits below r_2; the top sits
    # above 1.8, so the middle band (1.2, 1.8) is spectrum-free
    band_ok = DECADE.r(2) < 1.2 and mu1.value - mu1.uncertainty > 1.8
    ok = kappa_ok and asym_ok and band_ok
    assert _report(
        2,
        ok,
        f"kappa={est.value!r} asymmetry=[{lo:.16g}, {hi:.16g}] band_free={band_ok}",
    )


def test_acceptance_03_two_pole_refinement_coefficients():
    rest = 1.0 - DECADE.p(1) - DECADE.p(2)
    x_plus = rest / (1.0 - DECADE.r(1))
    x_minus = rest * DECADE.r(3) / (DECADE.r(3) - DECADE.r(2))
    x_plus_ref = -0.01 / 9.0
    x_minus_ref = -0.01 / ((0.991 / 0.91) - 1.0)
    lo, hi = mu_top_refined(DECADE)
    mu1 = delta_eigenvalue(DECADE, 1).value
    ok = (
        abs(x_plus - x_plus_ref) <= 1e-5 * abs(x_plus_ref)
        and abs(x_minus - x_minus_ref) <= 1e-5 * abs(x_minus_ref)
        and lo <= mu1 <= hi
    )
    assert _report(
        3,
        ok,
        f"x+={x_plus:.10g} x-={x_minus:.10g} interval=[{lo:.10g}, {hi:.10g}]",
    )


def test_acceptance_04_complete_graph_gaps():
    worst = 0.0
    for n in range(3, 13):
        gap = spectrum(complete(n)).gap
        worst = max(worst, abs(gap - n / (n - 1.0)))
    ok = worst <= 1e-9
    assert _report(4, ok, f"max |gap - n/(n-1)| = {worst:.3g} over n=3..12")


def test_acceptance_05_geometric_halfline_convergence():
    details = []
    ok = True
    for r in (0.3, 0.5, 0.7):
        limit = (1.0 - r) / (1.0 + r)
        dists = []
        for size in range(6, 21):
            g = generate(FamilySpec("halfline_m4", size, r=r))
            h = cheeger_constant_exact(g, max_n=21).value
            dists.append(abs(h - limit))
        monotone = all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))
        ok = ok and monotone and dists[-1] <= 1e-10
        details.append(f"r={r}: final dist {dists[-1]:.3g} monotone={monotone}")
    assert _report(5, ok, "; ".join(details))


def test_acceptance_06_ladder_two_sided_constant():
    spec = FamilySpec("ladder_L", 10, r=0.5)
    g = generate(spec)
    exact = dual_cheeger_exact(g, max_n=21).value
    target = 4.0 * 0.5 / (3.0 * 0.5 + 1.0)
    analytic = tail_ratio_trace(spec, [2])[0]
    ok = abs(exact - 0.8) <= 0.01 and analytic == target == 0.8
    assert _report(
        6,
        ok,
        f"exact={exact:.10g} vs 0.8 (analytic partition value {analytic})",
    )


def test_acceptance_07_closed_form_return_probabilities():
    ok = True
    details = []
    for n in range(2, 9):
        value = kappa_exact(complete(n + 1)).value
        expected = math.ceil((n - 1) / 2) / n
        if value != expected:
            ok = False
            details.append(f"K_{n + 1}: {value} != {expected}")
    for n in range(3, 10):
        value = kappa_exact(cycle(n)).value
        expected = 0.0 if n % 2 == 0 else 0.5
        if value != expected:
            ok = False
            details.append(f"C_{n}: {value} != {expected}")
    assert _report(7, ok, "; ".join(details) or "all 14 closed forms match exactly")


def test_acceptance_08_zero_defect_is_bipartiteness():
    checked = 0
    ok = True
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in range(1, 1 << len(pairs)):
            edges = [(u, v, 1.0) for bit, (u, v) in enumerate(pairs) if keep >> bit & 1]
            if len({x for u, v, _ in edges for x in (u, v)}) < n:
                continue
            g = WeightedGraph(edges)
            if not g.is_connected():
                continue
            checked += 1
            if (kappa_exact(g).value == 0.0) != is_bipartite(g)[0]:
                ok = False
    exhaustive = checked
    for seed in range(500):
        g = sample_graph(RandomGraphSpec(n=4 + seed % 9, seed=seed))
        checked += 1
        if (kappa_exact(g).value == 0.0) != is_bipartite(g)[0]:
            ok = False
    ok = ok and exhaustive == 27475
    assert _report(
        8, ok, f"{exhaustive} exhaustive + 500 random graphs, equivalence holds={ok}"
    )


def test_acceptance_09_default_verification_sweep():
    start = time.perf_counter()
    summary = run_suite(SuiteConfig())
    elapsed = time.perf_counter() - start
    ok = (
        summary["ok"]
        and summary["failures"] == []
        and summary["uncovered_checks"] == []
        and elapsed < 60.0
    )
    assert _report(
        9,
        ok,
        f"{summary['instances']} instances, "
        f"{sum(e['count'] for e in summary['checks'].values())} checks "
        f"in {elapsed:.1f} s",
    )


def test_acceptance_10_finite_sections_reach_the_certified_root():
    g = truncate_K(DECADE, 200)
    values = spectrum(g).values
    mu1 = delta_eigenvalue(DECADE, 1).value
    diff = abs(values[-1] - mu1)
    small_count = int(np.count_nonzero(values < 1.0))
    ok = diff <= 1e-6 and small_count == 1
    assert _report(
        10, ok, f"|top - mu1| = {diff:.3g}, {small_count} eigenvalue(s) below 1"
    )
