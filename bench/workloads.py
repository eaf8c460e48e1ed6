"""Seeded workload generator.

A workload is a list of CLI invocations that make up one pass.  The seed
draws only the torsion `chi`, the nonzero wavenumber `K` and a flux offset;
every cell count and every column layout is fixed, so two seeds differ only
in the physics parameters.  Each invocation carries, beside its argv, the
parameters the checker needs to recompute the expected output without
reading it back from the argv.

Held-out seed: 9973.  It was never run while the benchmark was tuned
(seeds 1-10 were); a change that claims a gain should also show it there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Column layouts the CLI promises (README "Command line").
SPECTRUM_COLUMNS = [
    "scenario", "n", "l", "k", "flux", "root_index", "branch", "eff_momentum",
    "nu_solved", "e_plus", "e_minus", "truncation_residual", "status",
]
ORACLE_COLUMNS = ["ode_residual", "fd_match"]
CURRENT_COLUMNS = [
    "n", "l", "k", "flux", "sigma", "branch", "current_analytic",
    "current_numeric", "abs_discrepancy", "status",
]

# Spacing of the seeded flux sweeps, in q*Phi_B/(2 pi) units.
FLUX_STEP = 0.05
# A seeded current cell whose sigma lands closer to 0 than this (but not on
# it) would make the KINK status depend on where the zero sits inside the
# difference stencil; the generator redraws instead.
MIN_SIGMA = 0.01


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the parameters its output is checked against."""

    command: str  # spectrum | current | verify
    scenario: str
    argv: tuple[str, ...]
    chi: float = 0.0
    b: float = 0.0
    ks: tuple[float, ...] = (0.0,)
    ls: tuple[int, ...] = (0, 1, 2)
    ns: tuple[int, ...] = (1,)
    fluxes: tuple[float, ...] = (0.0,)
    oracle: bool = False


@dataclass(frozen=True)
class Params:
    chi: float
    k: float
    flux_offset: float


@dataclass
class Workload:
    name: str
    params: Params
    invocations: list[Invocation]


def sweep(start: float, stop: float, step: float) -> tuple[float, ...]:
    """The flux points `--flux start:stop:step` expands to (same arithmetic as the CLI)."""
    count = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(count))


CURRENT_SWEEP = (0.0, 1.0, 0.5)
CURRENT_FLUX = sweep(*CURRENT_SWEEP)


def draw_params(seed: int) -> Params:
    rng = random.Random(seed)
    while True:
        chi = round(rng.uniform(0.05, 0.45), 4)
        k = round(rng.uniform(0.3, 1.2), 4)
        offset = round(rng.uniform(0.0, FLUX_STEP), 4)
        # The current sweep's k = K cells sit at sigma = -chi*K + t.
        if min(abs(t - chi * k) for t in CURRENT_FLUX) >= MIN_SIGMA:
            return Params(chi, k, offset)


def _fmt(x: float) -> str:
    return repr(float(x))


def _range(vals: tuple[int, ...]) -> str:
    return str(vals[0]) if len(vals) == 1 else f"{vals[0]}..{vals[-1]}"


def _args(command, scenario, chi, b, ks, ls, flux):
    """argv shared by all subcommands; flux is None, one value or (start, stop, step)."""
    argv = [command, "--scenario", scenario]
    if chi:
        argv.append(f"--chi={_fmt(chi)}")
    if b:
        argv.append(f"--b={_fmt(b)}")
    fluxes = (0.0,)
    if isinstance(flux, tuple):
        argv.append("--flux=" + ":".join(_fmt(x) for x in flux))
        fluxes = sweep(*flux)
    elif flux is not None:
        argv.append(f"--flux={_fmt(flux)}")
        fluxes = (float(flux),)
    argv += [f"--l={_range(ls)}", "--k", ",".join(_fmt(k) for k in ks)]
    return argv, fluxes


def spectrum(scenario, *, chi=0.0, b=0.0, ks=(0.0,), ls=(0, 1, 2), ns=(1,),
             flux=None, oracle=False) -> Invocation:
    argv, fluxes = _args("spectrum", scenario, chi, b, ks, ls, flux)
    argv += ["--n", _range(ns)] + (["--oracle"] if oracle else [])
    return Invocation("spectrum", scenario, tuple(argv), chi, b, ks, ls, ns, fluxes, oracle)


def current(*, chi=0.0, ks=(0.0,), ls=(0,), ns=(1,), flux=0.0) -> Invocation:
    argv, fluxes = _args("current", "ab", chi, 0.0, ks, ls, flux)
    argv += ["--n", _range(ns)]
    return Invocation("current", "ab", tuple(argv), chi, 0.0, ks, ls, ns, fluxes)


def verify(scenario, *, chi=0.0, b=0.0, ks=(0.0,), ls=(0, 1, 2), flux=None) -> Invocation:
    argv, fluxes = _args("verify", scenario, chi, b, ks, ls, flux)
    return Invocation("verify", scenario, tuple(argv), chi, b, ks, ls, (1,), fluxes)


def flux_sweep(p: Params) -> list[Invocation]:
    # The ROADMAP's 315-cell AB sweep: 21 flux points x l=-2..2 x n=1..3.
    return [spectrum("ab", chi=p.chi, ks=(p.k,), ls=(-2, -1, 0, 1, 2), ns=(1, 2, 3),
                     flux=(p.flux_offset, round(p.flux_offset + 1.0, 4), FLUX_STEP))]


def oracle_table(p: Params) -> list[Invocation]:
    ks = (0.0, p.k)
    half = (p.flux_offset, round(p.flux_offset + 0.5, 4), 0.25)
    return [
        spectrum("free", chi=p.chi, ks=ks, ls=(0, 1, 2, 3), ns=(1, 2, 3), oracle=True),
        spectrum("free", chi=p.chi, ks=(p.k,), ls=(0, 1), ns=(6, 7, 8), oracle=True),
        spectrum("coulomb", chi=p.chi, b=0.1, ks=ks, ls=(0, 1), ns=(1, 2, 3), oracle=True),
        spectrum("coulomb", chi=p.chi, b=-0.1, ks=ks, ls=(0, 1), ns=(1, 2, 3), oracle=True),
        spectrum("ab", chi=p.chi, ks=(p.k,), ls=(0, 1), ns=(1, 2), flux=half, oracle=True),
    ]


def current_verify(p: Params) -> list[Invocation]:
    ks = (0.0, p.k)
    return [
        # k = 0 cells at t = 0 sit exactly on sigma = 0 and must read KINK.
        current(chi=p.chi, ks=ks, ls=(0,), ns=(1, 2, 3), flux=CURRENT_SWEEP),
        verify("free", chi=p.chi, ks=ks, ls=(0, 1, 2)),
        verify("coulomb", chi=p.chi, b=0.1, ks=ks, ls=(0, 1)),
        verify("ab", chi=p.chi, ks=ks, ls=(0, 1),
               flux=(p.flux_offset, round(p.flux_offset + 0.5, 4), 0.25)),
        # The README's one-shot commands, unseeded.
        spectrum("free", ls=(0, 1, 2)),
        spectrum("coulomb", b=0.1, ls=(0, 1), oracle=True),
        current(flux=0.5),
    ]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "flux_sweep": flux_sweep,
    "oracle_table": oracle_table,
    "current_verify": current_verify,
}


def make(name: str, seed: int) -> Workload:
    params = draw_params(seed)
    return Workload(name, params, WORKLOADS[name](params))
