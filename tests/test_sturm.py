"""The LDL^T Sturm count and the search for its steps, apart from their callers."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import dislospec
from dislospec.oracle import FD_STEP_TOL
from dislospec.quantization import NEWTON_RTOL
from dislospec.sturm import counter, find_steps, gershgorin

SRC = Path(dislospec.__file__).parent


def package_imports(module):
    """The dislospec modules that the source of dislospec.<module> imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = "dislospec" + (f".{node.module}" if node.module else "") if node.level else node.module
            found.update(f"{mod}.{a.name}" if mod == "dislospec" else mod for a in node.names)
    return {m for m in found if m.split(".")[0] == "dislospec"}


def test_the_oracle_shares_only_the_kernel_with_the_slope_solve():
    # The FD oracle must not share the series ansatz: of the package it reads
    # only core (HeunParams) and the Sturm kernel, which reads none of it.
    assert package_imports("oracle") == {"dislospec.core", "dislospec.sturm"}
    assert package_imports("sturm") == set()
    # The kernel owns the matrix format: no other module squares the
    # off-diagonal or picks the pivot floor.
    names = {
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in ("off2", "pivmin")
    }
    assert names == {"sturm"}


def matrix(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_counter_counts_and_differentiates_as_the_eigenvalues_do():
    rng = np.random.default_rng(5)
    diag, off = rng.normal(size=8), rng.normal(size=7)
    exact = np.linalg.eigvalsh(matrix(diag, off))
    lo, hi = gershgorin(diag.tolist(), off.tolist())
    assert lo <= exact[0] and exact[-1] <= hi
    fixed = counter(diag.tolist(), off.tolist())
    # T(x) = T + x/2 has the slope 1/2 - 1 in each diagonal entry of T(x) - x.
    moving = counter(lambda x: ((diag + 0.5 * x).tolist(), [-0.5] * 8), off.tolist())
    for x in np.linspace(-4.0, 4.0, 41):
        count, dlog = fixed(x)
        assert count == np.count_nonzero(exact < x)
        assert dlog == pytest.approx(np.sum(1.0 / (x - exact)), rel=1e-9)
        count, dlog = moving(x)
        assert count == np.count_nonzero(exact < 0.5 * x)
        assert dlog == pytest.approx(0.5 * np.sum(1.0 / (0.5 * x - exact)), rel=1e-9)


def test_zero_pivot_counts_and_stays_finite():
    # Bisection's first probe, the midpoint of the Gershgorin bracket (-2, 5), is
    # d_0, so the first pivot is exactly zero there; 1.5 is no eigenvalue.
    diag, off = np.array([1.5, 0.0, 4.0]), np.array([1.0, 1.0])
    exact = np.linalg.eigvalsh(matrix(diag, off))
    sturm = counter(diag.tolist(), off.tolist())
    assert sturm(1.5)[0] == np.count_nonzero(exact < 1.5) == 1
    for index, want in enumerate(exact):
        (got,) = find_steps(sturm, [(-2.0, 5.0, 0, 3)], FD_STEP_TOL, range(index, index + 1))
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-10)


def test_kappa_lt1_root_on_a_zero_pivot():
    # A pass on the step itself can set its last LDL^T pivot to -pivmin and
    # overflow d log|det| to infinity.  Here the first Newton point, the
    # bracket's midpoint, is the root.  One probe inside the bracket proves the
    # step there; a search that bisects on a non-finite d log|det| takes 94.
    root, passes = 2.0, []

    def sturm(x):  # one eigenvalue at root: count and d log|root - x|/dx
        passes.append(x)
        return int(x >= root), math.inf if x == root else 1.0 / (x - root)

    (got,) = find_steps(sturm, [(0.0, 4.0, 0, 1)], NEWTON_RTOL, range(1))
    assert passes[0] == root
    assert len(passes) <= 4
    assert got == pytest.approx(root, rel=NEWTON_RTOL, abs=0.0)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 5.0), (-1e154, 1e152)])
def test_never_finite_passes_end(lo, hi):
    # An FD matrix whose squared off-diagonal overflows makes d log|det| NaN on
    # every pass.  A probe one step rtol inside the bracket after each would take
    # about 1e11 probes across (-1e154, 1e152); bisecting from the second
    # non-finite pass in a row takes a few hundred.
    passes = []

    def sturm(x):
        passes.append(x)
        if len(passes) > 10_000:
            raise RuntimeError("the search does not end")
        return int(x > 0.3), math.nan

    (got,) = find_steps(sturm, [(lo, hi, 0, 1)], NEWTON_RTOL, range(1))
    assert got == pytest.approx(0.3, rel=NEWTON_RTOL, abs=0.0)


def steps_at(roots, rising=True):
    """A synthetic count over one eigenvalue per root: (count, d log|det|/dx)."""

    def sturm(x):
        below = sum(x >= r for r in roots)
        dlog = math.inf if x in roots else sum(1.0 / (x - r) for r in roots)
        return below if rising else len(roots) - below, dlog

    return sturm


def test_sturm_roots_on_a_falling_step():
    # The pencil's brackets may see the count fall across a root.
    (got,) = find_steps(steps_at([2.3], rising=False), [(0.0, 4.0, 1, 0)], NEWTON_RTOL, range(1))
    assert got == pytest.approx(2.3, rel=NEWTON_RTOL, abs=0.0)


@pytest.mark.parametrize("rising", [True, False])
def test_sturm_roots_splits_a_bracket_of_three_steps(rising):
    roots = [0.7, 1.9, 3.1]
    counts = (0, 3) if rising else (3, 0)
    got = find_steps(steps_at(roots, rising), [(0.0, 4.0, *counts)], NEWTON_RTOL, range(3))
    assert got == pytest.approx(roots, rel=NEWTON_RTOL, abs=0.0)
    assert got == sorted(got)
    # wanted picks one step: the one between counts 1 and 2, rising or falling.
    (middle,) = find_steps(steps_at(roots, rising), [(0.0, 4.0, *counts)], NEWTON_RTOL, range(1, 2))
    assert middle == got[1]


