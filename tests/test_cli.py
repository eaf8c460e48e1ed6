import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import namedtuple
from itertools import product

import pytest

from dislospec import cli, oracle
from dislospec.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VERIFY,
    UsageError,
    main,
    parse_flux,
    parse_int_range,
    parse_float_list,
)
from dislospec.core import QuantumNumbers
from dislospec.heun import build_coefficients
from dislospec.quantization import energy_from_lambda, solve_general_n
from test_quantization import SCAN_CELLS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The Coulomb strength where the n = 1 closed form's branch denominator
# 4b^2 eta + 8b^2 - 2 eta - 1 vanishes at l = k = 0 (there eta = b).
B_STAR = "0.43870187285001877"

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


class TestParsers:
    def test_int_range(self):
        assert parse_int_range("-2..2") == (-2, -1, 0, 1, 2)
        assert parse_int_range("3") == (3,)

    def test_int_range_rejects_empty(self):
        with pytest.raises(UsageError):
            parse_int_range("3..1")

    def test_float_list(self):
        assert parse_float_list("0,0.5,1") == (0.0, 0.5, 1.0)
        with pytest.raises(UsageError):
            parse_float_list(",")

    def test_flux_sweep(self):
        vals = parse_flux("0:1:0.25")
        assert vals == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))
        assert parse_flux("0.3") == (0.3,)

    def test_flux_rejects_bad_sweep(self):
        with pytest.raises(UsageError):
            parse_flux("1:0:0.1")
        with pytest.raises(UsageError):
            parse_flux("0:1:0.1:9")


class TestSpectrum:
    def test_ground_row(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "0"
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "OK"
        assert row["scenario"] == "free"
        assert float(row["nu_solved"]) == pytest.approx(1.5, rel=1e-10)
        assert float(row["e_plus"]) == pytest.approx(math.sqrt(6.0), rel=1e-10)
        assert float(row["e_minus"]) == pytest.approx(-math.sqrt(6.0), rel=1e-10)

    def test_flux_sweep_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--scenario", "ab", "--flux", "0:1:0.05", "--l", "0", "--k", "0",
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 21
        assert [float(r["flux"]) for r in rows] == pytest.approx(
            [0.05 * i for i in range(21)]
        )
        # one flux quantum reproduces the l+1 spectrum at zero flux
        eff_end = float(rows[-1]["eff_momentum"])
        assert eff_end == pytest.approx(1.0, abs=1e-12)

    def test_eff_momentum_is_l_minus_chi_k_plus_flux(self, capsys):
        # The flux ratio t enters the effective momentum as given, so each row
        # prints l - chi*k + t to the last digit.  A round trip of t through
        # Phi_B = 2 pi t printed -1.3 for l = -2, t = 0.70000000000000007.
        chi = 0.1037
        code, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "ab", f"--chi={chi}", "--flux", "0:1:0.05",
            "--l=-2..2", "--k", "0,1.0627", "--n", "1..2",
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 2 * 21 * 5 * 2
        for r in rows:
            want = int(r["l"]) - chi * float(r["k"]) + float(r["flux"])
            assert r["eff_momentum"] == "%.17g" % want

    @pytest.mark.parametrize("label,n,l,k,b,t", SCAN_CELLS)
    def test_every_row_names_its_cell(self, capsys, label, n, l, k, b, t):
        # The label is "coulomb" where b != 0, else "ab" where the flux is nonzero,
        # else "free", and eff_momentum is l - chi*k + t, on solved and status rows
        # alike; fd_match is blank exactly where b != 0.
        argv = f"--scenario {label} --b {b!r} --flux {t!r} --chi 0.25 --n {n} --l {l} --k {k!r}"
        code, out, _ = run_cli(capsys, "spectrum", *argv.split(), "--oracle")
        rows = read_csv(out)
        assert code == (EXIT_OK if rows[0]["status"] == "OK" else EXIT_SOLVER)
        for row in rows:
            assert row["scenario"] == label
            assert row["eff_momentum"] == "%.17g" % (l - 0.25 * k + t)
            assert (row["fd_match"] == "") == (b != 0.0 or row["status"] != "OK")

    def test_energies_in_units_of_m(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--m", "2", "--l", "0", "--k", "0")
        rows = read_csv(out)
        assert float(rows[0]["e_plus"]) == pytest.approx(math.sqrt(6.0), rel=1e-10)
        code, out, _ = run_cli(
            capsys, "spectrum", "--m", "2", "--l", "0", "--k", "0", "--absolute"
        )
        rows = read_csv(out)
        assert float(rows[0]["e_plus"]) == pytest.approx(2.0 * math.sqrt(6.0), rel=1e-10)

    def test_coulomb_branch_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "coulomb", "--b", "0.1", "--l", "0", "--k", "0"
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert {r["branch"] for r in rows} == {"+", "-"}
        by_branch = {r["branch"]: r for r in rows}
        assert float(by_branch["+"]["e_plus"]) == pytest.approx(
            1.9847497547372752, rel=1e-10
        )
        assert by_branch["+"]["e_minus"] == ""
        assert float(by_branch["-"]["e_minus"]) == pytest.approx(
            -3.640663733231899, rel=1e-10
        )

    def test_coulomb_cell_with_flux(self, capsys):
        # A cell with b != 0 and flux != 0 is a Coulomb cell (b is tested first),
        # and the flux reaches its eta through the effective momentum.
        t, argv = 0.3, "--scenario coulomb --b 0.1 --chi 0.2 --flux 0.3 --k 0.7 --n 2"
        code, out, _ = run_cli(capsys, "spectrum", *argv.split(), "--l", "0..1")
        assert code == EXIT_OK
        rows = read_csv(out)
        assert {r["scenario"] for r in rows} == {"coulomb"}
        want = [
            (l, pt)
            for l in (0, 1)
            for pt in solve_general_n(QuantumNumbers(2, l, 0.7), 1.0, chi=0.2, b=0.1, flux=t)
        ]
        assert len(rows) == len(want) >= 4
        for row, (l, pt) in zip(rows, want):
            assert int(row["l"]) == l
            assert row["eff_momentum"] == "%.17g" % (l - 0.2 * 0.7 + t)
            assert float(row["nu_solved"]) == pt.nu_solved
            assert float(row["e_plus"] or row["e_minus"]) == pt.energies[0]
        # One flux quantum is one step of l.
        for l in (0, 1):
            up = solve_general_n(QuantumNumbers(2, l, 0.7), 1.0, chi=0.2, b=0.1, flux=t + 1)
            base = solve_general_n(QuantumNumbers(2, l + 1, 0.7), 1.0, chi=0.2, b=0.1, flux=t)
            assert len(up) == len(base)
            for pa, pb in zip(up, base):
                assert pa.branch == pb.branch
                assert pa.nu_solved == pytest.approx(pb.nu_solved, rel=1e-12, abs=0.0)
                assert pa.energies == pytest.approx(pb.energies, rel=1e-12, abs=0.0)

    def test_no_real_solution_row_exits_solver(self, capsys):
        code, out, err = run_cli(
            capsys,
            "spectrum", "--scenario", "coulomb", "--b", "1", "--l", "0", "--k", "10",
        )
        assert code == EXIT_SOLVER
        rows = read_csv(out)
        assert rows[0]["status"] == "NO_REAL_SOLUTION"
        assert rows[0]["nu_solved"] == ""
        assert "NO_REAL_SOLUTION" in err

    def test_underflowing_closed_form_does_not_hide_proven_states(self, capsys):
        # b^2 underflows to 0, so the n = 1 closed form divides by zero, but the
        # solver proves both branches of this all but free state, and they print.
        code, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "coulomb", "--b", "1e-300", "--l", "0", "--k", "1"
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert [(r["branch"], r["nu_solved"], r["status"]) for r in rows] == [
            ("+", "1.5", "OK"), ("-", "1.5", "OK")
        ]

    def test_degenerate_denominator_cell_prints_its_state(self, capsys):
        # The closed form degenerates here, but the solver proves the state, and
        # it is the closed form's d -> 0 limit E = (2b+1)(2b+3) / (8b(b+1)).
        argv = ["spectrum", "--scenario", "coulomb", "--b", B_STAR, "--l", "0", "--n", "1"]
        code, out, _ = run_cli(capsys, *argv, "--k", "0")
        assert code == EXIT_OK
        (row,) = read_csv(out)
        assert (row["branch"], row["status"]) == ("+", "OK")
        b = float(B_STAR)
        want = (2 * b + 1) * (2 * b + 3) / (8 * b * (b + 1))
        assert float(row["e_plus"]) == pytest.approx(want, rel=1e-14)
        # At k = 3 the closed form has a real branch, but none with nu > 0.
        code, out, err = run_cli(capsys, *argv, "--k", "3")
        assert code == EXIT_SOLVER
        assert [r["status"] for r in read_csv(out)] == ["NO_ROOTS"]
        assert "NO_ROOTS" in err

    def test_oracle_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--l", "1", "--k", "0", "--oracle"
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert float(rows[0]["ode_residual"]) < 1e-8
        assert float(rows[0]["fd_match"]) < 1e-3

    def test_oracle_fd_blank_for_coulomb(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--scenario", "coulomb", "--b", "0.1", "--l", "1", "--k", "0",
            "--oracle",
        )
        assert code == EXIT_OK
        for row in read_csv(out):
            assert float(row["ode_residual"]) < 1e-8
            assert row["fd_match"] == ""

    def test_oracle_matches_each_root_at_its_own_level(self, capsys):
        # Roots 6 and 7 have no partner among the lowest six FD levels.
        code, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "0", "--n", "16",
            "--oracle",
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert [r["root_index"] for r in rows[6:]] == ["6", "7"]
        assert all(float(r["fd_match"]) < 1e-3 for r in rows)

    @pytest.mark.parametrize(
        "argv,rows",
        [("--b 0.3 --k 5 --l 1 --n 5", 6), ("--b 1.5 --k 2 --l 1 --n 16", 16)],
    )
    def test_counted_coulomb_roots_all_print(self, capsys, argv, rows):
        # The roots at alpha = 27.2 and 28.56 read the largest truncation
        # residuals of their cells, 2.4e-13 and 1.4e-12.  The eigenvalue count
        # proves them; the residual is a diagnostic and gates nothing.
        code, out, err = run_cli(capsys, "spectrum", "--scenario", "coulomb", *argv.split())
        assert (code, err) == (EXIT_OK, "")
        got = read_csv(out)
        assert [r["status"] for r in got] == ["OK"] * rows
        if rows == 16:
            assert max(float(r["truncation_residual"]) for r in got) > 1e-12

    @pytest.mark.parametrize(
        "argv,rows,nu",
        [
            # The closed form nu = m^2 (|eff| + 3/2), at alpha = 0.0099998.
            ("--scenario free --l 40000 --n 1", 1, 40001.5),
            # The fourth root is at alpha = 57.48.
            ("--scenario coulomb --b 0.5 --l 0 --k 1.99 --n 3", 4, 1.2107e-3),
            # The third root is at alpha = 0.0042, 0.0126 and 0.0416.
            ("--scenario coulomb --b 0.001 --l 0 --k 0 --n 2", 3, None),
            ("--scenario coulomb --b 0.003 --l 0 --k 0 --n 2", 3, None),
            ("--scenario coulomb --b 0.01 --l 0 --k 0 --n 2", 3, None),
            # One search splits each branch's bracket among all its roots: all
            # 480 cells, n up to 60, print their 7440 states.
            ("--scenario free --l 0..3 --k 0,0.7 --chi 0.2 --n 1..60", 7440, None),
            # Past n = 32 the c > 0 branch takes the pencil and the c < 0 branch
            # the count; each proves 22 roots with alpha > 0.
            ("--scenario coulomb --b 0.3 --k 3 --l 0 --n 44", 44, None),
        ],
    )
    def test_roots_below_0_01_and_above_50_print(self, capsys, argv, rows, nu):
        # Every root with alpha > 0 that the eigenvalue count proves is a state,
        # however far it lies from alpha of order 1.
        code, out, err = run_cli(capsys, "spectrum", *argv.split())
        assert (code, err) == (EXIT_OK, "")
        got = read_csv(out)
        assert [r["status"] for r in got] == ["OK"] * rows
        if nu is not None:
            assert min(abs(float(r["nu_solved"]) / nu - 1.0) for r in got) < 1e-4

    def test_nan_truncation_residual_is_no_roots(self, capsys):
        # k = 1e160 overflows E to inf and the truncation residual to NaN.
        code, out, err = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "1e160"
        )
        assert code == EXIT_SOLVER
        assert read_csv(out)[0]["status"] == "NO_ROOTS"
        assert "NO_ROOTS" in err

    @pytest.mark.parametrize("argv", ["--b 0.3 --k 1e160", "--b 0.3 --k 1e300", "--b 1e307 --k 3"])
    def test_degenerate_pencil_cells_are_no_roots(self, capsys, argv):
        # c > 0, kappa >= 1 cells whose pencil degenerates.  At k = 1e160 and
        # 1e300, k^2 overflows, so r = sqrt(A/B) = 0 and every root maps to
        # alpha = 0, where the count does not step; at b = 1e307 its leading
        # coefficient L overflows.
        # Each prints one NO_ROOTS row and exits 2.
        argv = ["--scenario", "coulomb", "--l", "0", "--n", "2", *argv.split()]
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert code == EXIT_SOLVER
        assert [r["status"] for r in read_csv(out)] == ["NO_ROOTS"]
        assert "NO_ROOTS" in err

    @pytest.mark.parametrize(
        "argv,want",
        [
            (
                "--scenario ab --flux 0:0.5:0.5",
                [("free", "OK"), ("ab", "OK"), ("free", "NO_ROOTS"), ("ab", "NO_ROOTS")],
            ),
            ("--scenario coulomb --b 0", [("free", "OK"), ("free", "NO_ROOTS")]),
        ],
    )
    def test_status_row_labels_its_couplings(self, capsys, argv, want):
        # The k = 1e160 cells read NO_ROOTS.  Their rows name the couplings as the
        # solved k = 0 rows of the same flux do: zero flux and b = 0 are free.
        code, out, _ = run_cli(capsys, "spectrum", *argv.split(), "--l", "0", "--k", "0,1e160")
        assert code == EXIT_SOLVER
        assert [(r["scenario"], r["status"]) for r in read_csv(out)] == want
        assert "free,1,0,1e+160,0,0,,0,,,,,NO_ROOTS" in out.splitlines()

    def test_output_does_not_depend_on_charge(self, capsys, tmp_path):
        # --flux is q*Phi_B/(2 pi) already, so q must not enter a cell: dividing
        # by a subnormal q overflowed the effective momentum to inf.
        argv = ["spectrum", "--scenario", "ab", "--flux", "0.3", "--l", "0", "--k", "0"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": 1e-310}))
        plain = run_cli(capsys, *argv)
        assert plain[0] == EXIT_OK
        assert run_cli(capsys, *argv, "--config", str(cfg)) == plain
        # In current q only scales the current.
        code, out, _ = run_cli(capsys, "current", *argv[1:], "--q", "1e-310")
        assert code == EXIT_OK
        assert read_csv(out)[0]["status"] == "OK"

    def test_free_with_coulomb_coupling_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--scenario", "free", "--b", "0.1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_free_with_flux_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--scenario", "free", "--flux", "0.3")
        assert code == EXIT_USAGE


class TestCurrent:
    def test_requires_flux_scenario(self, capsys):
        code, _, err = run_cli(capsys, "current", "--scenario", "free")
        assert code == EXIT_USAGE
        assert "scenario ab" in err

    def test_flux_scenario_rule_leaves_out_file_alone(self, capsys, tmp_path):
        # The rule is checked with the other scenario rules, before --out is opened.
        target = tmp_path / "keep.csv"
        target.write_bytes(b"kept\n")
        code, _, err = run_cli(
            capsys, "current", "--scenario", "free", "--l", "0", "--k", "0", "--out", str(target)
        )
        assert code == EXIT_USAGE
        assert err == "dislospec: error: current requires --scenario ab\n"
        assert target.read_bytes() == b"kept\n"

    def test_analytic_numeric_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "current", "--scenario", "ab", "--flux", "0.5", "--l", "0", "--k", "0"
        )
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert row["status"] == "OK"
        assert float(row["sigma"]) == pytest.approx(0.5, abs=1e-15)
        assert float(row["current_analytic"]) == pytest.approx(
            -0.22648145447019166, rel=1e-12
        )
        assert float(row["abs_discrepancy"]) < 1e-8

    def test_branch_flips_sign(self, capsys):
        _, out_p, _ = run_cli(
            capsys,
            "current", "--scenario", "ab", "--flux", "0.5", "--l", "0", "--k", "0",
            "--branch", "plus",
        )
        _, out_m, _ = run_cli(
            capsys,
            "current", "--scenario", "ab", "--flux", "0.5", "--l", "0", "--k", "0",
            "--branch", "minus",
        )
        a = float(read_csv(out_p)[0]["current_analytic"])
        b = float(read_csv(out_m)[0]["current_analytic"])
        assert a == -b

    # The stencil t +- 1e-5 reaches sigma = 0 for every |sigma| <= 1e-5.
    @pytest.mark.parametrize("flux", ["0", "0.000001", "0.0000099"])
    def test_kink_row(self, capsys, flux):
        code, out, _ = run_cli(
            capsys, "current", "--scenario", "ab", "--flux", flux, "--l", "0", "--k", "0"
        )
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert row["status"] == "KINK"
        assert row["current_analytic"] == row["current_numeric"] == row["abs_discrepancy"] == ""
        # In JSON the row type's blank columns are null.
        argv = ["current", "--scenario", "ab", "--flux", flux, "--l", "0", "--k", "0"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        assert row["status"] == "KINK"
        assert row["current_analytic"] is row["current_numeric"] is row["abs_discrepancy"] is None

    def test_two_solves_per_row_and_none_on_a_kink(self, capsys, monkeypatch):
        calls = []

        def counting_solve(*args, **bg):
            calls.append(args)
            return solve_general_n(*args, **bg)

        monkeypatch.setattr(cli, "solve_general_n", counting_solve)
        code, out, _ = run_cli(
            capsys, "current", "--scenario", "ab", "--flux", "0:1:0.5", "--l", "0", "--k", "0"
        )
        assert code == EXIT_OK
        assert [r["status"] for r in read_csv(out)] == ["KINK", "OK", "OK"]
        assert len(calls) == 4

    def test_second_level_numeric_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "current", "--scenario", "ab", "--flux", "0.3", "--l", "0", "--k", "0",
            "--n", "2",
        )
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert row["status"] == "OK"
        assert row["current_analytic"] == ""
        assert float(row["current_numeric"]) != 0.0


class TestVerify:
    """verify's tests that a FAULT_ROWS row cannot make: each patches a function
    other than the solver, reads a config file, or asserts an absence or a bound."""

    def test_nan_measurement_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "ode_residual", lambda *args: math.nan)
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free")
        assert code == EXIT_VERIFY
        line = next(x for x in out.splitlines() if " ode_residual " in x)
        assert line.startswith("FAIL ode_residual")
        assert "measured=nan" in line

    def test_nan_in_a_series_tail_fails(self, capsys, monkeypatch):
        # Python's max(0.0, nan) drops the NaN, so verify's maxima must keep it.
        # The NaN is the last tail coefficient of each l = 2 cell's last state,
        # the population's last state among them, where a plain max over the
        # tail and then over the states would drop it twice.  The cascade builds
        # each tail from the parameters its printed values rebuild, so the NaN
        # goes into the series built from those.
        marked = []

        def marking_solve(qn, m, **bg):
            points = solve_general_n(qn, m, **bg)
            if qn.l == 2:
                marked.append(points[-1].params(m, bg["b"]))
            return points

        def nan_tail_build(params, n_max):
            series = build_coefficients(params, n_max)
            if params not in marked:
                return series
            return series[:-1] + (math.nan,)

        monkeypatch.setattr(cli, "solve_general_n", marking_solve)
        monkeypatch.setattr(cli, "build_coefficients", nan_tail_build)
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free")
        assert code == EXIT_VERIFY
        failed = [x for x in out.splitlines() if x.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].split()[:3] == ["FAIL", "truncation_cascade", "measured=nan"]

    def test_overflowing_residual_is_a_quiet_nan(self):
        # At n = 300 xi^s G(xi) overflows: the NaN is the report (verify FAILs on
        # it, JSON writes null), so numpy must not also warn on stderr.
        pt = solve_general_n(QuantumNumbers(300, 0, 0.0), 1.0, chi=0.0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(cli._ode_residual(pt, 1.0, 0.0))

    def test_nan_truncation_residual_is_solver_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--scenario", "free", "--m", "1e155", "--l", "0", "--k", "1"
        )
        assert code == EXIT_SOLVER
        assert out == ""
        assert "dislospec: solver error:" in err
        assert "np.float64" not in err

    def test_rootless_cell_error_names_the_cell(self, capsys):
        # spectrum prints this cell as a NO_ROOTS row; verify names it in the error.
        argv = "--scenario coulomb --b -1.5 --l 0..2 --k 0,3 --n 1..2".split()
        _, rows, _ = run_cli(capsys, "spectrum", *argv)
        assert "coulomb,2,0,3,0,0,,0,,,,,NO_ROOTS" in rows.splitlines()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (EXIT_SOLVER, "")
        assert "dislospec: solver error: cell n=2, l=0, k=3, flux=0: no nu > 0 root" in err
        # current names the stencil point it could not solve.
        argv = "--scenario ab --flux 0.3 --l 0 --k 0,1e160".split()
        code, out, err = run_cli(capsys, "current", *argv)
        assert (code, out) == (EXIT_SOLVER, "")
        assert "dislospec: solver error: cell n=1, l=0, k=1e+160, flux=0.30001: " in err

    def test_closed_form_note_counts_every_configured_cell_without_state(self, capsys, tmp_path):
        # A repeated l is configured, and counted, twice: the b = 1.5, k = 3 cells'
        # closed forms have a negative discriminant, so they hold no state.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": [0, 0]}))
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "coulomb", "--b", "1.5", "--k", "0,3", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert "(2 cell(s) without real closed form)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            "--scenario free --l 0 --k 0",  # |eff| < 1 only
            "--scenario free --l 1..2 --k 0,0.7 --n 1..16",  # roots past the sixth level
            # Past n = 16; the truncation cascade builds each tail through order 64.
            "--scenario free --l 0..3 --k 0,0.7 --n 20",
        ],
    )
    def test_fd_match_covers_every_free_state(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        line = next(x for x in out.splitlines() if " fd_match " in x)
        assert line.startswith("PASS fd_match ")
        # The discretization error is never exactly zero, so 0 means no state was compared.
        assert 0.0 < float(line.split("measured=")[1].split()[0]) < 1e-3

    def test_current_agreement_holds_at_any_charge(self, capsys, tmp_path):
        # q scales both currents alike; a subnormal q must not cost the check
        # its precision.
        for q in (1e-318, 1e-322, 1e308, -2.0):
            cfg = tmp_path / "q.json"
            cfg.write_text(json.dumps({"q": q}))
            code, out, _ = run_cli(
                capsys, "verify", "--scenario", "ab", "--flux", "0.25", "--l", "0", "--k", "0",
                "--config", str(cfg),
            )
            assert code == EXIT_OK, (q, out)
            line = next(x for x in out.splitlines() if " current_agreement " in x)
            assert float(line.split("measured=")[1].split()[0]) < 1e-12, (q, line)


def _detuned(pt, m, b, energies=False):
    """pt with a 1% detuned printed slope and the degree-n polynomial it builds
    (with energies, also the energies that slope gives)."""
    pt = pt._replace(nu_solved=pt.nu_solved * 1.01)
    coeffs = build_coefficients(pt.params(m, b), n_max=pt.qn.n + 1)[: pt.qn.n + 1]
    if energies:
        plus, minus = energy_from_lambda(pt.nu_solved, pt.qn.n, pt.eff_abs, pt.qn.k)
        pt = pt._replace(energies=tuple(plus if e > 0 else minus for e in pt.energies))
    return pt._replace(coeffs=coeffs)


# verify's fault matrix.  A fault is a mutate(qn, bg, pts) of one cell's solved
# states; bg holds the rest mass m and solve_general_n's keywords.
FAULTS = {
    None: lambda qn, bg, pts: pts,
    # What spectrum prints.  A branch flip negates the energy and the branch label.
    "slope_1pct": lambda qn, bg, pts: [pt._replace(nu_solved=pt.nu_solved * 1.01) for pt in pts],
    "energy_1e-6": lambda qn, bg, pts: [
        pt._replace(energies=tuple(e * (1 + 1e-6) for e in pt.energies)) for pt in pts],
    "branch_flipped": lambda qn, bg, pts: [
        pt._replace(energies=tuple(-e for e in pt.energies), branch=-pt.branch) for pt in pts],
    # And the polynomial, as acceptance criterion 3 detunes: the truncation cascade
    # rebuilds the tail from it.  With the energies too, only the oracles can tell.
    "detuned": lambda qn, bg, pts: [_detuned(pt, bg["m"], bg["b"]) for pt in pts],
    "detuned_excited": lambda qn, bg, pts: FAULTS["detuned"](qn, bg, pts) if qn.n > 1 else pts,
    "detuned_with_energies": lambda qn, bg, pts: [
        _detuned(pt, bg["m"], bg["b"], energies=True) for pt in pts],
    # Lost and extra states.  Without its lowest root, each later root of a cell
    # sits one FD level above its list position.
    "highest": lambda qn, bg, pts: pts[:-1],
    "lowest": lambda qn, bg, pts: pts[1:],
    "lowest_of_several": lambda qn, bg, pts: pts[1:] if len(pts) > 1 else pts,
    "minus_branch_only": lambda qn, bg, pts: [pt for pt in pts if pt.branch < 0],
    "extra_ground_state": lambda qn, bg, pts: pts + pts[:1] if qn.n == 1 else pts,
    "stateless_l0": lambda qn, bg, pts: [] if qn.l == 0 else pts,
    "torsion_lost_root": lambda qn, bg, pts: pts[:-1] if bg["chi"] else pts,
    # From one flux quantum on.
    "flux_quantum_slope": lambda qn, bg, pts: pts if bg["flux"] < 1.0 else [
        pt._replace(nu_solved=pt.nu_solved * (1 + 1e-9)) for pt in pts],
    "flux_quantum_lost_root": lambda qn, bg, pts: pts if bg["flux"] < 1.0 else pts[:-1],
}
# A row: a verify call, its fault, exit code, the names of all its FAIL lines and other output
# fragments (in stderr on a solver error).  A strict xfail names its ROADMAP item.  fails is
# None where that item adds the line, or where a cell's faulted lines are not pinned one by one.
_Row = namedtuple("_Row", "argv fault exit fails fragments xfail", defaults=((), None))
LOST_COULOMB_ROOT = "ROADMAP item 27, Coulomb half: no check counts a Coulomb cell's states"
# The lines a fault FAILs on a one-n cell, by scenario: (at every n, added at n = 1,
# where the closed forms hold).  An ab cell FAILs as a free one, and on
# current_agreement too at n = 1.  Above n = 1 a lost Coulomb root passes (None).
SERIES = "truncation_cascade ode_residual"  # the checks that rebuild a state's series
CELL_FAILS = {"--scenario free": {
    None: ("", ""),
    "slope_1pct": (f"energy_composition {SERIES} fd_match", "closed_form_agreement"),
    "energy_1e-6": ("energy_composition", "closed_form_agreement"),
    "highest": ("fd_match", "closed_form_agreement"),
    "lowest": ("fd_match", "closed_form_agreement"),
}, "--scenario coulomb --b 0.1": {
    None: ("", ""),
    "slope_1pct": (f"energy_composition {SERIES}", ""),
    "energy_1e-6": (f"energy_composition {SERIES}", "closed_form_agreement coulomb_fixed_point"),
    "branch_flipped": (SERIES, "closed_form_agreement coulomb_fixed_point"),
    "highest": (None, "closed_form_agreement"),
    "lowest": (None, "closed_form_agreement"),
}}
CELL_FAILS["--scenario ab --flux 0.25"] = {
    fault: (every_n, f"{at_n1} current_agreement" if fault else at_n1)
    for fault, (every_n, at_n1) in CELL_FAILS["--scenario free"].items()
}


def _cell_rows(cells, faults):
    """{(argv, fault): row} over the scenarios x cells x faults in CELL_FAILS."""
    rows = {}
    for (scenario, expected), (n, cell), fault in product(CELL_FAILS.items(), cells, faults):
        if fault in expected:
            every_n, at_n1 = expected[fault]
            fails = f"{every_n or ''} {at_n1}".strip() if n == 1 else every_n
            argv = f"{scenario} {cell} --n {n}"
            rows[argv, fault] = _Row(argv, fault, EXIT_OK if fails == "" else EXIT_VERIFY, fails,
                                     xfail=LOST_COULOMB_ROOT if fails is None else None)
    return rows


# The printed-value faults, at every n up to where the ODE residual still
# certifies a state, and at k = 1e4, where E^2 is k^2 to 8 digits.
CHI_CELL = "--chi 0.2 --l 0..1 --k 0,0.7"
FAULT_CELLS = [(n, CHI_CELL) for n in (1, 3, 8, 24)]
FAULT_CELLS += [(n, "--l 0..1 --k 0,1e4") for n in (1, 3, 8)]
PRINTED_FAULT_ROWS = _cell_rows(FAULT_CELLS, [None, "slope_1pct", "energy_1e-6", "branch_flipped"])
# fd_match counts a b = 0 cell's (n + 1) // 2 states.  Flux periodicity and the Minkowski
# reduction compare two solves of the same faulty solver, so they miss a lost root.
DROPPED_ROOT_ROWS = _cell_rows([(n, CHI_CELL) for n in range(3, 9)], [None, "highest", "lowest"])


# ROADMAP item 23's robustness envelope, one cell per call, all at chi = 0.2: every n <= 8
# cell, and at n = 24, where a call costs most, the smallest and the largest l and k.
def _envelope_cell(scenario, n, l, k, m):
    return f"{scenario} --chi 0.2 --n {n} --l {l} --k {k} --m {m}"


ENVELOPE_SCENARIOS = ("--scenario free", "--scenario ab --flux 0.25",
                      "--scenario coulomb --b 0.1", "--scenario coulomb --b -0.5")
ENVELOPE_CELLS = [_envelope_cell(*cell) for cell in [
    *product(ENVELOPE_SCENARIOS, (1, 3, 8), (0, 3, 150, 1000), (0, 0.7, 10, "1e4"), (1, "1e3")),
    *((scenario, 24, l, k, 1) for scenario in ENVELOPE_SCENARIOS for l, k in ((0, 0), (1000, "1e4")))]]
# The tiny-coupling cells: at k = 0 chi drops out, so their solved rows are the ones below.
TINY_B_CELLS = [f"--scenario coulomb --l 0 --k 0 --b {b}" for b in ("1e-150", "1e-160", "1e-300")]
# The envelope cells that FAIL a line as solved, as measured: {(reason, scenarios, n): "l k m"
# cells}.  Each reason names the line and the ROADMAP items that own it.
ODE_RESIDUAL = "ROADMAP items 3 and 28: ode_residual cannot certify states at large n or s"
FD_MATCH = "ROADMAP item 21: fd_match's FD points grow with n, not with s"
ENVELOPE_FAILS = {
    (ODE_RESIDUAL, ENVELOPE_SCENARIOS, 24): "1000 1e4 1",
    (ODE_RESIDUAL, ENVELOPE_SCENARIOS[2:3], 8): "0 1e4 1e3, 3 1e4 1e3",
    (ODE_RESIDUAL, ENVELOPE_SCENARIOS[3:], 8): "0 1e4 1, 0 1e4 1e3, 3 1e4 1, 150 1e4 1, 1000 1e4 1",
    (FD_MATCH, ENVELOPE_SCENARIOS[:2], 3):
        "0 1e4 1e3, 3 1e4 1e3, 150 1e4 1e3, 1000 0 1, 1000 0 1e3, 1000 0.7 1, 1000 0.7 1e3, "
        "1000 10 1, 1000 10 1e3, 1000 1e4 1e3",
    (FD_MATCH, ENVELOPE_SCENARIOS[:2], 8): "0 1e4 1e3, 3 1e4 1e3, 150 1e4 1e3",
    ("ROADMAP item 4: current_agreement's central difference resolves the current only to "
     "about eps s / h", ENVELOPE_SCENARIOS[1:2], 1):
        "0 1e4 1, 0 1e4 1e3, 3 1e4 1, 3 1e4 1e3, 150 1e4 1, 1000 0 1, 1000 0.7 1e3",
}
ENVELOPE_XFAILS = {
    _envelope_cell(scenario, n, *cell.split()): reason
    for (reason, scenarios, n), cells in ENVELOPE_FAILS.items()
    for scenario, cell in product(scenarios, cells.split(", "))
}
# Each cell exits 0 as solved and 3 with every printed slope 1% off, where some line
# besides ode_residual must FAIL.
ENVELOPE_ROWS = {(argv, None): _Row(argv, None, EXIT_OK, "", xfail=ENVELOPE_XFAILS.get(argv))
                 for argv in ENVELOPE_CELLS}
ENVELOPE_ROWS |= {(argv, "slope_1pct"): _Row(argv, "slope_1pct", EXIT_VERIFY, None)
                  for argv in ENVELOPE_CELLS + TINY_B_CELLS}
FAULT_ROWS = [
    *(PRINTED_FAULT_ROWS | DROPPED_ROOT_ROWS | ENVELOPE_ROWS
      | _cell_rows(FAULT_CELLS, ["highest", "lowest"])).values(),
    _Row("--scenario free", "detuned", EXIT_VERIFY,
         f"energy_composition closed_form_agreement {SERIES} fd_match"),
    # Only the n >= 2 states, which an n = 1-only suite never solves.
    _Row("--scenario free --n 1..2", "detuned_excited", EXIT_VERIFY,
         f"energy_composition {SERIES} fd_match"),
    _Row("--scenario ab --flux 0.3 --l 0..1 --k 0", "flux_quantum_slope", EXIT_VERIFY,
         "flux_periodicity", ("FAIL flux_periodicity      measured=1.000e-09 ",)),
    _Row("--scenario ab --flux 0.3 --l 0..1 --k 0", "flux_quantum_lost_root", EXIT_VERIFY,
         "flux_periodicity", ("FAIL flux_periodicity      measured=inf ",)),
    _Row("--scenario free --n 1..3 --k 0,0.7", "lowest_of_several", EXIT_VERIFY, "fd_match"),
    _Row("--scenario coulomb --b 0.1 --l 0..1 --k 0,0.7", "minus_branch_only", EXIT_VERIFY,
         "closed_form_agreement", ("FAIL closed_form_agreement measured=inf ",)),
    _Row("--scenario free", "extra_ground_state", EXIT_VERIFY,
         "closed_form_agreement fd_match", ("FAIL closed_form_agreement measured=inf ",)),
    _Row("--scenario free --l 0 --n 3", "torsion_lost_root", EXIT_VERIFY, "minkowski_reduction",
         ("FAIL minkowski_reduction   measured=1.000e+00 ",)),
    _Row("--scenario free --l 0..1", "stateless_l0", EXIT_VERIFY,
         "closed_form_agreement fd_match", ("FAIL closed_form_agreement measured=inf ",)),
    # alpha and beta come from the printed slope.  Taken from the printed E, beta lost about
    # log10(k^2/nu) digits: truncation cascade 2.5e-9 at k = 1e4, ODE residual 0.67 at 1e8.
    *(_Row(f"--scenario free --l 0 --k {k} --n 1..3", None, EXIT_OK, "")
      for k in ("1e4", "1e8", "1e12")),
    # At l = 1e7 only the ODE residual tells the detuned state (2.0e-2) from the
    # solved one (3.7e-9).  From l of about 3e7, R underflows on the whole ODE
    # grid, so the residual reads NaN and FAILs on both: not 0.0 and PASS.
    _Row("--scenario free --l 10000000 --n 2", None, EXIT_OK, ""),
    *(_Row(f"--scenario free --l {l} --n 2", None, EXIT_OK, "",
           xfail="ROADMAP items 3 and 29: no check sees a state past l of about 3e7")
      for l in (100000000, 10000000000)),
    *(_Row(f"--scenario free --l {l} --n 2", "detuned_with_energies", EXIT_VERIFY, "ode_residual",
           ("PASS energy_composition",)) for l in (10000000, 100000000)),
    _Row("--scenario free --l 10000000000 --n 2", "detuned_with_energies", EXIT_VERIFY,
         "ode_residual", ("PASS energy_composition", "FAIL ode_residual          measured=nan")),
    # Correct states, in each scenario and at every n up to 3.
    *(_Row(argv, None, EXIT_OK, "") for argv in (
        "--scenario free", "--scenario ab --flux 0.3 --l 0..1 --k 0",
        "--scenario coulomb --b 0.1 --l 0..1 --k 0", "--scenario free --n 1..3",
        "--scenario coulomb --b 0.1 --k 0,0.7 --n 1..3",
        "--scenario ab --flux 0.3 --l 0..1 --k 0,0.7 --n 1..3")),
    _Row("--scenario ab --flux 0.00005 --l 0..1 --k 0", None, EXIT_OK, "",
         ("PASS current_agreement ", "  (2 flux point(s))\n")),
    # The configured cell has eff = 1, but its k = 0 twin (l = 40000) has its
    # one root at alpha = 2/sqrt(40001.5), below 0.01: both sides print it.
    _Row("--scenario free --l 40000 --chi 1 --k 39999", None, EXIT_OK, "",
         ("PASS minkowski_reduction   measured=0.000e+00 ",)),
    *(_Row(f"--scenario {argv}", None, EXIT_OK, "",
           (f"SKIP {line}  (n = 1 not configured; the closed forms cover n = 1 only)\n",))
      for argv, line in [
          ("free --n 2..3", "closed_form_agreement measured=- threshold=1.0e-10"),
          ("coulomb --b 0.1 --n 2", "coulomb_fixed_point   measured=- threshold=1.0e-10"),
          ("ab --flux 0.3 --n 2", "current_agreement     measured=- threshold=1.0e-08")]),
    # The one cell has no real closed form, so no state is solved.
    _Row("--scenario coulomb --b 1.5 --l 0 --k 3", None, EXIT_OK, "", (
        "SKIP energy_composition    measured=- threshold=1.0e-12  (no state to measure)\n",
        "SKIP closed_form_agreement measured=- threshold=1.0e-10  (1 cell(s) without real closed form)\n",
        "SKIP coulomb_fixed_point   measured=- threshold=1.0e-10  (no state to measure)\n",
        "SKIP truncation_cascade    measured=- threshold=1.0e-10  (no state to measure)\n",
        "SKIP ode_residual          measured=- threshold=1.0e-08  (no state to measure)\n",
        "1 passed, 0 failed, 8 skipped")),
    # At b = 1.5 the k = 3 cells' closed forms have a negative discriminant, so
    # they hold no state; the k = 0 cells are solved and compared.
    _Row("--scenario coulomb --b 1.5 --k 0,3 --l 0..2", None, EXIT_OK, "", (
        "PASS closed_form_agreement ", "  (3 cell(s) without real closed form)\n",
        "6 passed, 0 failed, 3 skipped")),
    # The l = 0, k = 0 cell's closed form degenerates to its one finite root, which
    # the solved state matches: its line ends at the threshold, with no note.
    _Row(f"--scenario coulomb --b {B_STAR} --l 0..1 --k 0", None, EXIT_OK, "",
         ("PASS closed_form_agreement ", "threshold=1.0e-10\nPASS coulomb_fixed_point ")),
    # At k = 3 the closed form has real branches, none with nu > 0, so the
    # stateless l = 0 cell is a solver error, as such a cell is elsewhere.
    _Row(f"--scenario coulomb --b {B_STAR} --l 0..1 --k 3", None, EXIT_SOLVER, "",
         ("cell n=1, l=0, k=3, flux=0",)),
    # The closed form never divides by b^2, so it neither underflows to nan
    # nor divides by zero where the solver still prints both states.
    *(_Row(argv, None, EXIT_OK, "", ("PASS closed_form_agreement ",)) for argv in TINY_B_CELLS),
]


class TestFaultMatrix:
    """verify under FAULT_ROWS, one test per row.  A cell or a fault joins the
    matrix as a row, with the exit code and FAIL lines a run of it measures."""

    @pytest.mark.parametrize("row", [pytest.param(
        row,
        id=f"{row.argv.removeprefix('--scenario ').replace('--', '')} {row.fault or 'unfaulted'}",
        marks=[pytest.mark.xfail(reason=row.xfail)] if row.xfail else [],
    ) for row in FAULT_ROWS])
    def test_row(self, capsys, monkeypatch, row):
        def faulty_solve(qn, m, **bg):
            return FAULTS[row.fault](qn, {"m": m, **bg}, solve_general_n(qn, m, **bg))

        monkeypatch.setattr(cli, "solve_general_n", faulty_solve)
        code, out, err = run_cli(capsys, "verify", *row.argv.split())
        if code != row.exit:
            # The report is verify's output: a traceback through this long module
            # costs about 0.1 s to format, on every strict-xfail row.
            pytest.fail(f"exit {code}, not {row.exit}\n{out}{err}", pytrace=False)
        failed = {x.split()[1] for x in out.splitlines() if x.startswith("FAIL ")}
        if row.fails is not None:
            assert failed == set(row.fails.split()), out
        elif row.fault:
            # ode_residual restates the truncation condition (ROADMAP item 28).
            assert failed - {"ode_residual"}, out
        if code == EXIT_SOLVER:  # every check runs before anything prints
            assert out == ""
            out = err
        else:
            # The table's checks in order, each with its threshold, then their counts.
            assert err == ""
            *lines, summary = out.splitlines()
            assert [(x.split()[1], float(x.split("threshold=")[1].split()[0])) for x in lines] \
                == [(name, threshold) for name, threshold, _ in cli._VERIFY_CHECKS], out
            statuses = [x.split()[0] for x in lines]
            assert summary == "%d passed, %d failed, %d skipped" % tuple(
                map(statuses.count, ("PASS", "FAIL", "SKIP")))
        assert [x for x in row.fragments if x not in out] == []

    def test_rows_hold_the_generated_products(self):
        assert (len(PRINTED_FAULT_ROWS), len(DROPPED_ROOT_ROWS)) == (70, 54)
        # 384 cells at n <= 8 and 8 at n = 24, each solved and faulted; the tiny
        # couplings' faulted rows; and the measured failures' strict xfails.
        assert (len(ENVELOPE_ROWS), len(ENVELOPE_XFAILS)) == (787, 44)
        assert ENVELOPE_XFAILS.keys() <= set(ENVELOPE_CELLS)
        pairs = {(row.argv, row.fault) for row in FAULT_ROWS}
        assert len(pairs) == len(FAULT_ROWS)
        tiny = {(argv, None) for argv in TINY_B_CELLS}
        assert pairs >= PRINTED_FAULT_ROWS.keys() | DROPPED_ROOT_ROWS.keys() | ENVELOPE_ROWS.keys() | tiny

    def test_every_check_fails_in_some_row(self):
        # Each row names all its FAIL lines, so a check gone silent fails a row.
        failing = {name for row in FAULT_ROWS for name in (row.fails or "").split()}
        assert failing == {name for name, *_ in cli._VERIFY_CHECKS}


class TestOracleGrids:
    """cli's oracle grids: ODE_POINTS points for the residual, and an FD pair
    sized by n for the level."""

    @staticmethod
    def free_states(ns):
        """The states of the free cells l = 0..3, k in {0, 0.7}, chi = 0.2."""
        for n, l, k in product(ns, range(4), (0.0, 0.7)):
            yield from solve_general_n(QuantumNumbers(n, l, k), 1.0, chi=0.2)

    def test_ode_grid_tells_detuned_states(self):
        # The residual grid is coarse, so it must keep the power to separate
        # a solved state from the same state with its slope 1% off at fixed E.
        correct, detuned = [], []
        for pt in self.free_states(range(1, 25)):
            correct.append(cli._ode_residual(pt, 1.0, 0.0))
            detuned.append(cli._ode_residual(_detuned(pt, 1.0, 0.0), 1.0, 0.0))
        assert len(correct) > 500
        assert all(r < 1e-8 for r in correct), max(correct)
        assert all(r > 1e-4 for r in detuned), min(detuned)

    @pytest.fixture(scope="class")
    def verify_at_n_60(self):
        """verify's exit code and lines on the same cells at n = 60, run once."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main("verify --scenario free --chi 0.2 --l 0..3 --k 0,0.7 --n 60".split())
        return code, out.getvalue().splitlines()

    def test_fd_match_holds_at_large_n(self, verify_at_n_60):
        # A fixed grid's error grows like n^2: 4000 points read 1.4e-3 here.
        # fd_match compares every state with its own level, and counts them.
        line = next(x for x in verify_at_n_60[1] if " fd_match " in x)
        assert line.startswith("PASS fd_match "), line

    @pytest.mark.xfail(
        reason="ROADMAP item 3: ode_residual cannot certify states past n of about 24 "
        "(it reads 0.137 here)",
    )
    def test_verify_passes_at_n_60(self, verify_at_n_60):
        code, lines = verify_at_n_60
        assert code == EXIT_OK, lines

    def test_fd_match_does_not_depend_on_m(self, capsys):
        # The FD grid is set in xi, as the ODE grid is.  A grid that starts at a
        # fixed rho = 1e-3 starts deeper in xi = sqrt(nu) rho as m grows: at
        # m = 1e3 it read 0.23 here, and from m = 1e4 its start passed its end.
        # The physics holds k/m and chi k, so the match must not move.
        matches = []
        for m in (1.0, 1e3, 1e4, 1e20):
            argv = f"--scenario free --chi {0.2 / m!r} --l 0..1 --k 0,{0.7 * m!r} --m {m!r}"
            code, out, _ = run_cli(capsys, "spectrum", *argv.split(), "--n", "1..3", "--oracle")
            assert code == EXIT_OK
            matches.append([float(row["fd_match"]) for row in read_csv(out)])
            code, out, _ = run_cli(capsys, "verify", *argv.split())
            assert code == EXIT_OK, out
        assert len(matches[0]) == 16
        for got in matches[1:]:
            assert got == pytest.approx(matches[0], rel=0.0, abs=1e-12)

    def test_fd_match_at_extreme_m(self, capsys):
        # The FD oracle works in xi, where m enters only through alpha = 2m/sqrt(nu).
        # In rho its control-volume weights underflowed at m = 1e40 (a solver
        # error), and its squared off-diagonal overflowed at m = 1e76 (fd_match 39.6).
        argv = "spectrum --scenario free --chi 0.2 --l 0..1 --k 0,0.7 --n 1..3 --oracle"
        matches = []
        for m in ("1", "1e40"):
            code, out, err = run_cli(capsys, *argv.split(), "--m", m)
            assert (code, err) == (EXIT_OK, "")
            matches.append([float(r["fd_match"]) for r in read_csv(out) if r["k"] == "0"])
        assert len(matches[0]) == 8
        assert matches[1] == pytest.approx(matches[0], rel=1e-8)
        argv = "spectrum --scenario free --l 0 --n 1 --oracle --m 1e76"
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == EXIT_OK
        assert float(read_csv(out)[0]["fd_match"]) < 1e-6

    @pytest.mark.xfail(
        reason="ROADMAP item 21: FD points grow with n, not with s: root 1 reads 2.2e-3")
    def test_fd_match_holds_at_large_momentum(self):
        pts = solve_general_n(QuantumNumbers(3, 1000, 0.0), 1.0, chi=0.0)
        errors = [cli._fd_match(pt, 1.0, index) for index, pt in enumerate(pts)]
        assert len(errors) == 2
        assert all(e < 1e-3 for e in errors), max(errors)


# One valid value of every setting, then invalid ones: (the argv both forms share,
# the setting's flag argv, the same value as config-file values, the UsageError
# message or None).
BY_FLAG_AND_CONFIG = [
    ("spectrum", ["--scenario", "coulomb"], {"scenario": "coulomb"}, None),
    ("spectrum", ["--m", "2.5"], {"m": 2.5}, None),
    ("spectrum", ["--chi", "0.2"], {"chi": 0.2}, None),
    ("spectrum --scenario coulomb", ["--b", "-0.1"], {"b": -0.1}, None),
    ("spectrum --scenario ab", ["--flux", "0:1:0.5"], {"flux": "0:1:0.5"}, None),
    ("spectrum", ["--l=-1..1"], {"l": "-1..1"}, None),
    ("spectrum", ["--k", "0,0.7"], {"k": [0, 0.7]}, None),
    ("spectrum", ["--n", "1..3"], {"n": "1..3"}, None),
    ("spectrum", ["--out", "rows.csv"], {"out": "rows.csv"}, None),
    ("spectrum", ["--format", "json"], {"format": "json"}, None),
    ("spectrum", ["--oracle"], {"oracle": True}, None),
    ("spectrum", ["--absolute"], {"absolute": True}, None),
    ("current", ["--q", "-2"], {"q": -2}, None),
    ("current", ["--branch", "minus"], {"branch": "minus"}, None),
    ("spectrum", ["--m", "abc"], {"m": "abc"}, "m: could not convert string to float: 'abc'"),
    ("spectrum", ["--scenario", "foo"], {"scenario": "foo"}, "unknown scenario 'foo'"),
    ("current", ["--format", "xml"], {"format": "xml"}, "unknown format 'xml'"),
    ("current", ["--branch", "up"], {"branch": "up"}, "branch must be plus or minus, got 'up'"),
    ("spectrum", ["--l", "1.."], {"l": "1.."}, "l: invalid literal for int() with base 10: ''"),
]


class TestConfigAndOutput:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenario": "free", "l": "1", "k": [0], "m": 2}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["l"] == "1"
        assert float(rows[0]["nu_solved"]) == pytest.approx(4.0 * 2.5, rel=1e-10)

    def test_config_lists_concatenate_their_elements(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"scenario": "ab", "l": [0, "2..3"], "k": [0], "n": [1, 2], "flux": [0.25, "0.5:1:0.5"]}
        ))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert sorted({int(r["l"]) for r in rows}) == [0, 2, 3]
        assert sorted({int(r["n"]) for r in rows}) == [1, 2]
        assert sorted({float(r["flux"]) for r in rows}) == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize(
        "values,column,want",
        [({"n": 2}, "n", 2.0), ({"k": 0.7}, "k", 0.7), ({"scenario": "ab", "flux": 0.25}, "flux", 0.25)],
        ids=["n", "k", "flux"],
    )
    def test_config_number_is_a_one_value_list(self, capsys, tmp_path, values, column, want):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--l", "0")
        assert code == EXIT_OK
        assert [float(r[column]) for r in read_csv(out)] == [want]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "1", "k": [0]}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--l", "2")
        rows = read_csv(out)
        assert [r["l"] for r in rows] == ["2"]

    @pytest.mark.parametrize(
        "base,flag,values,message",
        BY_FLAG_AND_CONFIG,
        ids=[" ".join([base, *flag]) for base, flag, _, _ in BY_FLAG_AND_CONFIG],
    )
    def test_flag_and_config_share_one_converter(self, tmp_path, base, flag, values, message):
        def config(*argv):
            return cli.build_config(cli.make_parser().parse_args([*base.split(), *argv]))

        path = tmp_path / "run.json"
        path.write_text(json.dumps(values))
        if message is None:
            by_flag = config(*flag)
            assert by_flag == config("--config", str(path))
            assert by_flag != config()
            return
        for argv in (flag, ["--config", str(path)]):
            with pytest.raises(UsageError) as exc:
                config(*argv)
            assert str(exc.value) == message

    def test_flag_and_config_table_covers_every_setting(self):
        valid = [values for _, _, values, message in BY_FLAG_AND_CONFIG if message is None]
        assert sorted(key for values in valid for key in values) == sorted(cli.RunConfig._fields)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scenarioo": "free"}))
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "scenarioo" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--l", "0", "--k", "0", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text()
        assert text.splitlines()[0].startswith("scenario,n,l,k,flux")

    def test_csv_json_round_trip(self, capsys):
        args = ["spectrum", "--scenario", "coulomb", "--b", "0.1", "--l", "0..1", "--k", "0"]
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        csv_rows = read_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert set(c) == set(j)
            for key, jval in j.items():
                cval = c[key]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, float):
                    assert float(cval) == jval  # %.17g round-trips exactly
                else:
                    assert cval == str(jval)

    def test_json_writes_non_finite_as_null(self, capsys, monkeypatch):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        monkeypatch.setattr(oracle, "ode_residual", lambda *args: math.nan)
        code, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "0", "--oracle",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out, parse_constant=reject)
        assert [r["ode_residual"] for r in rows] == [None]
        assert rows[0]["fd_match"] < 1e-3
        _, out, _ = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "0", "--oracle"
        )
        assert read_csv(out)[0]["ode_residual"] == "nan"

    def test_csv_matches_csv_writer_in_one_write(self):
        class CountingIO(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        # Every kind of value a table holds; every status word and branch.
        statuses = ["OK", "KINK", *cli._NO_STATE_STATUS.values()]
        floats = [None, math.nan, math.inf, -math.inf, -0.0, 1e-300, -2.5, 1 / 3]
        columns = ["scenario", "n", "l", "branch", "nu_solved", "e_minus", "status"]
        rows = [
            cli._SpectrumRow(scenario, i + 1, -i, 0.0, 0.0, 0, branch, 0.0, nu_solved=x,
                             e_minus=floats[-1 - i], status=status)
            for i, (scenario, branch, x, status) in enumerate(zip(
                ["free", "ab", "coulomb"] * 3, ["+", "-", ""] * 3, floats, statuses * 2
            ))
        ]
        assert len(rows) == len(floats)
        for table in (rows, []):
            reference = io.StringIO()
            writer = csv.writer(reference, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([cli._fmt(getattr(row, c)) for c in columns] for row in table)
            for fmt in ("csv", "json"):
                out = CountingIO()
                cli.emit(table, columns, fmt, out)
                assert out.writes == 1
                if fmt == "csv":
                    assert out.getvalue() == reference.getvalue()

    def test_byte_determinism(self, capsys, tmp_path):
        args = [
            "spectrum", "--scenario", "ab", "--flux", "0:0.6:0.3",
            "--l=-1..1", "--k", "0,1", "--oracle",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(f1))[0] == EXIT_OK
        assert run_cli(capsys, *args, "--out", str(f2))[0] == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()


class TestRejectedInput:
    @pytest.mark.parametrize("scenario", ["free", "coulomb", "ab"])
    def test_zero_charge_is_usage_error(self, capsys, tmp_path, scenario):
        code, _, err = run_cli(capsys, "current", "--scenario", "ab", "--q", "0")
        assert code == EXIT_USAGE
        assert "q must be nonzero" in err
        # The config key q stays accepted on every subcommand, so it is checked there too.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": 0}))
        code, _, err = run_cli(capsys, "spectrum", "--scenario", scenario, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "q must be nonzero" in err

    @pytest.mark.parametrize("q", ["-1", "-2.5"])
    def test_negative_charge_current(self, capsys, tmp_path, q):
        args = ["--scenario", "ab", "--flux", "0.3", "--l", "0", "--k", "0"]
        code, out, _ = run_cli(capsys, "current", *args, "--q", q)
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert row["status"] == "OK"
        assert float(row["abs_discrepancy"]) < 1e-8 * abs(float(row["current_analytic"]))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": float(q)}))
        code, out, _ = run_cli(capsys, "verify", *args, "--config", str(cfg))
        assert code == EXIT_OK
        assert "PASS current_agreement" in out

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--k", "nan"),
            ("--k", "inf"),
            ("--flux", "nan"),
            ("--flux", "0:inf:0.5"),
            ("--chi", "inf"),
            ("--m", "inf"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "spectrum", "--scenario", "ab", "--l", "0", flag, value)
        assert code == EXIT_USAGE
        assert "dislospec: error:" in err

    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"b": Infinity}')
        code, _, _ = run_cli(capsys, "spectrum", "--scenario", "coulomb", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", [None, "{not json", "\xff"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_bytes(text.encode("latin-1"))
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_USAGE
        assert "dislospec: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target",
        [
            ".",
            "missing/rows.csv",
            pytest.param(
                "/dev/full",
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            ),
        ],
    )
    def test_unusable_out_is_usage_error(self, tmp_path, capsys, target):
        out = tmp_path / target  # an absolute target replaces tmp_path
        assert main(["spectrum", "--l", "0", "--k", "0", "--out", str(out)]) == EXIT_USAGE
        assert "dislospec: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_config_flags_must_be_json_booleans(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "0", "k": [0], "oracle": value}))
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "true or false" in err
        cfg.write_text(json.dumps({"l": "0", "k": [0], "absolute": value}))
        assert run_cli(capsys, "spectrum", "--config", str(cfg))[0] == EXIT_USAGE

    @pytest.mark.parametrize("key", ["m", "chi", "b", "q"])
    def test_config_numbers_must_not_be_json_booleans(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "0", "k": [0], key: True}))
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "must be numbers" in err

    @pytest.mark.parametrize("values", [{"out": 1}, {"out": True}, {"scenario": ["free"]}])
    def test_config_strings_must_be_json_strings(self, tmp_path, values):
        # A child process: an integer out would name this process's fd 1.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "0", "k": [0], **values}))
        proc = subprocess.run(
            [sys.executable, "-m", "dislospec", "spectrum", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert "must be strings" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --format json",
            "verify --oracle",
            "verify --absolute",
            "current --scenario ab --oracle",
            "current --scenario ab --absolute",
            "spectrum --q 2",
            "verify --q 2",
            "spectrum --branch plus",
            "verify --branch plus",
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_detune_nu_is_not_an_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--detune-nu", "0.01"])
        assert exc.value.code == EXIT_USAGE
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"detune_nu": 0.01}))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --scenario free --m 1e-200 --l 0 --k 1",
            "current --scenario ab --m 1e-162 --l 0 --k 0 --flux 0.5",
            # chi*k overflows the effective momentum to -inf.
            "spectrum --scenario free --chi 1e200 --k 1e200 --l 0 --n 2",
            "spectrum --scenario coulomb --b 0.1 --chi 1e200 --k 1e200 --l 0 --n 1",
        ],
    )
    def test_arithmetic_failure_is_solver_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv.split())
        assert code == EXIT_SOLVER
        assert "dislospec: solver error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,statuses",
        [
            # (eta + 2)**2 overflows in the n = 1 closed form, which only names a reason.
            ("--b 1e200 --l 0 --k 0", ["NO_ROOTS"]),
            # k^2/(4m^2) = inf puts the pencil's r = sqrt(A/B) at 0; the closed form
            # divides by b^2 = 0.
            ("--b 1e-300 --l 0 --k 1e160", ["NO_ROOTS"]),
            # The cell beside it keeps its two proven states.
            ("--b 1e-300 --l 0 --k 1,1e160", ["OK", "OK", "NO_ROOTS"]),
            ("--b 1e-300 --l 0 --k 1,1e160 --n 2", ["OK", "OK", "NO_ROOTS"]),
            # c = 2b overflows, so the eigenvalue count's bracket top is not finite.
            ("--b 1e308 --l 0 --k 0", ["NO_ROOTS"]),
            # At kappa = 1 to rounding the k = 1 cell's pencil bisects toward y = 0
            # and stops at y = PROOF_WIDTH: from b = 1e170 the call once aborted, with
            # no table, on "int too large to convert to float".
            ("--b 1e170 --l 0 --k 0,1", ["NO_ROOTS", "NO_ROOTS"]),
            ("--b 1e200 --l 0 --k 0,1", ["NO_ROOTS", "NO_ROOTS"]),
        ],
    )
    def test_overflowing_coulomb_cell_is_a_no_roots_row(self, capsys, argv, statuses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum", "--scenario", "coulomb", *argv.split())
        assert code == EXIT_SOLVER
        assert [r["status"] for r in read_csv(out)] == statuses
        failed = statuses.count("NO_ROOTS")
        assert err == f"spectrum: {failed} of {len(statuses)} rows failed (['NO_ROOTS'])\n"

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_nonpositive_mass_is_usage_error(self, capsys, m):
        code, out, err = run_cli(capsys, "spectrum", "--m", m)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"dislospec: error: mass must be positive, got {float(m)}\n"

    @pytest.mark.parametrize("argv", ["spectrum --n 0", "verify --n 0..2"])
    def test_zero_radial_index_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "dislospec: error: radial index n must be >= 1\n"

    @pytest.mark.parametrize("values", [{"l": []}, {"k": None}, {"n": {}}], ids=["l", "k", "n"])
    def test_config_value_that_is_no_list_is_usage_error(self, capsys, tmp_path, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        (value,) = values.values()
        assert err == f"dislospec: error: cannot interpret config value {value!r}\n"

    def test_memory_error_is_solver_error(self, capsys, monkeypatch):
        # A large --n asks for dense (n+1) x (n+1) matrices; simulated, never allocated.
        def exhausted(*args):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(cli, "_solve_cell", exhausted)
        code, out, err = run_cli(capsys, "spectrum", "--l", "0", "--k", "0")
        assert (code, out) == (EXIT_SOLVER, "")
        assert "dislospec: solver error: Unable to allocate" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --scenario ab --b 0.5 --flux 0.3",
            "current --scenario ab --b 0.5 --flux 0.3 --l 0 --k 0",
            "verify --scenario ab --b 0.5 --flux 0.3",
        ],
    )
    def test_flux_scenario_with_coulomb_coupling_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert "scenario 'ab' requires b = 0" in err

    def test_config_flags_take_json_booleans(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "0", "k": [0], "oracle": False, "absolute": True}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_OK
        assert "fd_match" not in out.splitlines()[0]
        cfg.write_text(json.dumps({"l": "0", "k": [0], "oracle": True}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert out.splitlines()[0].endswith("ode_residual,fd_match")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dislospec", "spectrum", "--l", "0", "--k", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("scenario,")

    # One call per code path: each subcommand and output format, the flux sweep,
    # the eigenvalue count on both Coulomb branches and at large n, the c > 0,
    # kappa >= 1 pencil, status rows, both oracles, and the checks at extreme
    # momentum, mass and coupling; each with its exit code.
    CODE_PATHS = [
        ("--help", EXIT_OK),
        ("spectrum --scenario ab --flux 0:1:0.05 --l=-2..2 --k 0.7 --n 1..3", EXIT_OK),
        ("spectrum --scenario coulomb --b 0.1 --l 0..1 --k 0,0.7 --n 1..3", EXIT_OK),
        ("spectrum --scenario coulomb --b 0.1 --l 0..1 --k 0.7 --n 30", EXIT_OK),
        # kappa = 0.97 on the + branch: both branches are counted.
        ("spectrum --scenario coulomb --b 0.3 --k 5 --l 1 --n 5", EXIT_OK),
        ("spectrum --scenario coulomb --b 1.5 --k 3 --l 1..2 --n 2..4", EXIT_OK),
        ("spectrum --scenario coulomb --b -1.5 --k 3 --l 1..2 --n 2..4", EXIT_OK),
        # k^2/(4m^2) overflows at k = 1e160: a NO_ROOTS row beside two proven states.
        ("spectrum --scenario coulomb --b 1e-300 --l 0 --k 1,1e160", EXIT_SOLVER),
        # At kappa = 1 to rounding the pencil stops at y = PROOF_WIDTH: NO_ROOTS rows.
        ("spectrum --scenario coulomb --b 1e200 --l 0 --k 0,1", EXIT_SOLVER),
        ("current --scenario ab --flux 0:1:0.5 --l 0 --k 0,0.7 --n 1..3", EXIT_OK),
        ("current --scenario ab --flux 0:1:0.5 --l 0 --k 0,0.7 --n 1..3 --format json", EXIT_OK),
        ("spectrum --scenario free --l 0..1 --k 0,0.7 --n 1..3 --oracle", EXIT_OK),
        ("spectrum --scenario ab --flux 0:0.5:0.25 --l 0 --k 0,0.7 --oracle", EXIT_OK),
        ("spectrum --scenario coulomb --b 0.1 --l 0..1 --k 0,0.7 --n 1..3 --oracle", EXIT_OK),
        ("spectrum --scenario coulomb --b -0.1 --l 0..1 --k 0,0.7 --n 1..3 --oracle", EXIT_OK),
        (
            "spectrum --scenario free --chi 0.2 --l 0..1 --k 0,0.7 --n 1..3 --oracle --m 1e40",
            EXIT_OK,
        ),
        ("verify --scenario free --k 0,0.7 --n 1..3", EXIT_OK),
        # The ODE envelope is divided by its peak, so it stays finite.
        ("verify --scenario free --l 40000 --n 1", EXIT_OK),
        # alpha and beta come from the printed slope: no E^2 - m^2 - k^2 cancels.
        ("verify --scenario free --l 0 --k 1e4,1e8 --n 1..3", EXIT_OK),
        # The current's difference is taken of E - |k|, so energies E ~ k do not cancel.
        ("verify --scenario ab --flux 0.25 --l 0..1 --k 1e4 --n 1", EXIT_OK),
        ("verify --scenario ab --flux 0:0.5:0.25 --l 0 --k 0,0.7", EXIT_OK),
        ("verify --scenario coulomb --b 0.1 --l 0..1 --k 0,0.7", EXIT_OK),
        # The n = 1 closed form never divides by b^2.
        ("verify --scenario coulomb --b 1e-160 --l 0 --k 0", EXIT_OK),
        ("verify --scenario coulomb --b 1e-300 --l 0 --k 0", EXIT_OK),
    ]

    # Runs every CODE_PATHS call through main, then the README's library example
    # and both oracles on the last state it prints, and prints the results and the
    # numpy and scipy modules loaded as JSON.  "blocked" first makes every import
    # of the five modules fail: numpy and scipy serve the tests only, dataclasses
    # pulls in inspect, ast and dis, annotations are never evaluated (typing),
    # and no printed field needs csv's quoting.
    RUN_CODE_PATHS = """
import contextlib, io, json, sys
mode, readme, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if mode == "blocked":
    sys.modules.update(dict.fromkeys(["numpy", "scipy", "dataclasses", "typing", "csv"]))
from dislospec.cli import main
results = []
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
import dislospec
from dislospec import RadialGrid, fd_eigensolve_free, ode_residual
missing = [x for x in dislospec.__all__ if not hasattr(dislospec, x)]
text = open(readme).read()
block = text[text.index("\\n## Library\\n"):].split("```python\\n")[1].split("```")[0]
example, scope = io.StringIO(), {}
with contextlib.redirect_stdout(example):
    exec(block, scope)
pt, index = scope["pt"], len(example.getvalue().splitlines()) - 1
params = pt.params(1.0, 0.0)
residual = ode_residual(pt.coeffs, params, RadialGrid(0.01, 8.0, 200))
fd_grid = RadialGrid(1e-3, 10.0 * max(1.0, pt.qn.n + pt.eff_abs) ** 0.5, 400)
beta = fd_eigensolve_free(pt.eff_abs, params.alpha, fd_grid, index, params.beta)
fd_error = pt.nu_solved * (beta - params.beta) / pt.energies[0] ** 2
library = [missing, example.getvalue(), residual, fd_error]
loaded = [x for x, m in sys.modules.items() if m and x.split(".")[0] in ("numpy", "scipy")]
print(json.dumps([results, library, loaded]))
"""

    # Both subprocesses run once for the four tests below, which split the
    # CODE_PATHS rows and the library results between them.
    @pytest.fixture(scope="class")
    def code_path_runs(self):
        # argparse wraps --help at the terminal's width.
        env = dict(os.environ, COLUMNS="80")
        calls = json.dumps([argv for argv, _ in self.CODE_PATHS])
        readme = os.path.join(REPO, "README.md")
        procs = {
            mode: subprocess.Popen(
                [sys.executable, "-c", self.RUN_CODE_PATHS, mode, readme, calls],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for mode in ("blocked", "unblocked")
        }
        runs = {}
        for mode, proc in procs.items():
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            runs[mode] = json.loads(out)
        return runs

    def _assert_rows_match(self, runs, capsys, monkeypatch, keep):
        # Each kept row is the same blocked, unblocked and in process.
        monkeypatch.setenv("COLUMNS", "80")
        rows = zip(self.CODE_PATHS, runs["blocked"][0], runs["unblocked"][0], strict=True)
        kept = [(argv, want, blocked, unblocked) for (argv, want), blocked, unblocked in rows
                if keep(argv)]
        assert kept
        for argv, want, blocked, unblocked in kept:
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert blocked == unblocked == [want, captured.out, captured.err], argv

    def test_import_and_help_load_no_scipy(self, code_path_runs, capsys, monkeypatch):
        self._assert_rows_match(code_path_runs, capsys, monkeypatch,
                                lambda argv: argv == "--help")
        for mode in ("blocked", "unblocked"):
            missing = code_path_runs[mode][1][0]
            assert missing == []

    def test_solver_runs_without_numpy(self, code_path_runs, capsys, monkeypatch):
        self._assert_rows_match(code_path_runs, capsys, monkeypatch,
                                lambda argv: argv != "--help" and "--oracle" not in argv)
        example = code_path_runs["blocked"][1][1]
        assert example and example == code_path_runs["unblocked"][1][1]

    def test_oracle_runs_without_scipy(self, code_path_runs, capsys, monkeypatch):
        self._assert_rows_match(code_path_runs, capsys, monkeypatch,
                                lambda argv: "--oracle" in argv)
        residual, fd_error = code_path_runs["unblocked"][1][2:]
        assert code_path_runs["blocked"][1][2:] == [residual, fd_error]
        assert residual < 1e-8
        assert abs(fd_error) < 1e-3

    def test_oracle_runs_load_no_numpy(self, code_path_runs):
        assert code_path_runs["blocked"][2] == code_path_runs["unblocked"][2] == []

    def test_start_up_imports(self):
        # dataclasses pulls in inspect, ast and dis; annotations need no typing,
        # and a CSV field never needs csv's quoting.  The oracles and json load
        # only in the calls that print them.  -S keeps a site .pth from
        # preloading a module, which would hide its import here.
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

        def imported(*argv):
            proc = subprocess.run(
                [sys.executable, "-S", "-X", "importtime", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stderr.splitlines()
            return {x.rsplit("|", 1)[1].strip() for x in lines if x.startswith("import time:")}

        heavy = {"dataclasses", "inspect", "typing", "csv"}
        lazy = {"json", "dislospec.oracle", "dislospec.observables"}
        assert not heavy & imported("-c", "import dislospec.cli")
        spectrum = "spectrum --scenario ab --flux 0:1:0.5 --l=-1..1 --k 0.7 --n 1..3"
        calls = {
            "--help": set(),
            spectrum: set(),
            spectrum + " --oracle --format json": {"json", "dislospec.oracle"},
            "current --scenario ab --flux 0.5 --l 0 --k 0": {"dislospec.observables"},
            "verify --scenario free": {"dislospec.oracle"},
        }
        for argv, expected in calls.items():
            loaded = imported("-m", "dislospec", *argv.split())
            assert "dislospec.cli" in loaded
            assert not heavy & loaded, argv
            assert lazy & loaded == expected, argv

    def test_bad_flag_exits_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dislospec", "spectrum", "--format", "xml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
