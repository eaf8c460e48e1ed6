import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

from dislospec import cli
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
from dislospec.core import MassProfile, heun_params
from dislospec.heun import RadialWavefunction, build_coefficients
from dislospec.quantization import solve_general_n


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

    def test_nan_truncation_residual_is_no_roots(self, capsys):
        # k = 1e160 overflows E to inf and the truncation residual to NaN.
        code, out, err = run_cli(
            capsys, "spectrum", "--scenario", "free", "--l", "0", "--k", "1e160"
        )
        assert code == EXIT_SOLVER
        assert read_csv(out)[0]["status"] == "NO_ROOTS"
        assert "NO_ROOTS" in err

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

    def test_two_solves_per_row_and_none_on_a_kink(self, capsys, monkeypatch):
        calls = []

        def counting_solve(*args):
            calls.append(args)
            return solve_general_n(*args)

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
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free")
        assert code == EXIT_OK
        assert "failed" in out
        assert "FAIL" not in out

    def test_detuned_slope_fails(self, capsys, monkeypatch):
        # Give each solved state the polynomial of a 1% detuned slope, as
        # acceptance criterion 3 does.  The series keeps the solver's length
        # so that the truncation cascade still has a tail to measure.
        def detuned_solve(qn, m, geom, coup):
            points = []
            for pt in solve_general_n(qn, m, geom, coup):
                mass = MassProfile(m, pt.nu_solved * 1.01)
                params = heun_params(mass, pt.energies[0], qn.k, coup.b, pt.eff_abs)
                coeffs = build_coefficients(params, n_max=pt.wavefunction.coefficients.n_max)
                wf = RadialWavefunction(coeffs, params.alpha, pt.eff_abs, qn.n)
                points.append(dataclasses.replace(pt, wavefunction=wf))
            return points

        monkeypatch.setattr(cli, "solve_general_n", detuned_solve)
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free")
        assert code == EXIT_VERIFY
        assert "FAIL" in out
        assert "FAIL ode_residual" in out

    def test_nan_measurement_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ode_residual", lambda *args: math.nan)
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free")
        assert code == EXIT_VERIFY
        line = next(x for x in out.splitlines() if " ode_residual " in x)
        assert line.startswith("FAIL ode_residual")
        assert "measured=nan" in line

    def test_nan_truncation_residual_is_solver_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--scenario", "free", "--m", "1e155", "--l", "0", "--k", "1"
        )
        assert code == EXIT_SOLVER
        assert out == ""
        assert "dislospec: solver error:" in err
        assert "np.float64" not in err

    def test_flux_scenario_runs_current_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "ab", "--flux", "0.3", "--l", "0..1", "--k", "0"
        )
        assert code == EXIT_OK
        assert "flux_periodicity" in out
        assert "current_agreement" in out
        assert "FAIL" not in out

    def test_current_agreement_counts_every_point_off_the_stencil_kink(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "ab", "--flux", "0.00005", "--l", "0..1", "--k", "0"
        )
        assert code == EXIT_OK
        line = next(x for x in out.splitlines() if " current_agreement " in x)
        assert line.startswith("PASS current_agreement")
        assert line.endswith("(2 flux point(s))")

    def test_coulomb_scenario_fixed_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "coulomb", "--b", "0.1", "--l", "0..1", "--k", "0"
        )
        assert code == EXIT_OK
        assert "coulomb_fixed_point" in out
        assert "FAIL" not in out

    def test_detuned_excited_states_fail(self, capsys, monkeypatch):
        # Detune only the n >= 2 states, which an n = 1-only suite never solves.
        def detuned_solve(qn, m, geom, coup):
            points = solve_general_n(qn, m, geom, coup)
            return points if qn.n < 2 else [_detuned(pt, m, coup) for pt in points]

        monkeypatch.setattr(cli, "solve_general_n", detuned_solve)
        code, out, _ = run_cli(capsys, "verify", "--scenario", "free", "--n", "1..2")
        assert code == EXIT_VERIFY
        assert "FAIL ode_residual" in out

    @pytest.mark.parametrize(
        "perturb,measured",
        [
            (lambda pts: [dataclasses.replace(p, nu_solved=p.nu_solved * (1 + 1e-9)) for p in pts],
             "1.000e-09"),
            (lambda pts: pts[:-1], "inf"),  # a lost root is an infinite gap
        ],
        ids=["slope", "lost_root"],
    )
    def test_shifted_flux_quantum_fails_periodicity(self, capsys, monkeypatch, perturb, measured):
        # Perturb the spectrum at one flux quantum and above only.
        def shifted_solve(qn, m, geom, coup):
            points = solve_general_n(qn, m, geom, coup)
            return points if coup.phi_B < 2.0 * math.pi / coup.q else perturb(points)

        monkeypatch.setattr(cli, "solve_general_n", shifted_solve)
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "ab", "--flux", "0.3", "--l", "0..1", "--k", "0"
        )
        assert code == EXIT_VERIFY
        assert f"FAIL flux_periodicity      measured={measured} " in out

    @pytest.mark.parametrize(
        "argv,check",
        [
            ("--scenario free --n 2..3", "closed_form_agreement"),
            ("--scenario coulomb --b 0.1 --n 2", "coulomb_fixed_point"),
            ("--scenario ab --flux 0.3 --n 2", "current_agreement"),
        ],
    )
    def test_ground_state_checks_skip_without_n1(self, capsys, argv, check):
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        line = next(x for x in out.splitlines() if f" {check} " in x)
        assert line.startswith(f"SKIP {check}")
        assert line.endswith("(n = 1 not configured; the closed forms cover n = 1 only)")

    @pytest.mark.parametrize(
        "argv",
        [
            "--scenario free",
            "--scenario coulomb --b 0.1 --k 0,0.7",
            "--scenario ab --flux 0.3 --l 0..1 --k 0,0.7",
        ],
    )
    def test_every_configured_n_passes(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv.split(), "--n", "1..3")
        assert code == EXIT_OK
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            "--scenario free --l 0 --k 0",  # |eff| < 1 only
            "--scenario free --l 1..2 --k 0,0.7 --n 1..16",  # roots past the sixth level
        ],
    )
    def test_fd_match_covers_every_free_state(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        line = next(x for x in out.splitlines() if " fd_match " in x)
        assert line.startswith("PASS fd_match ")
        # The discretization error is never exactly zero, so 0 means no state was compared.
        assert 0.0 < float(line.split("measured=")[1].split()[0]) < 1e-3

    def test_lost_lowest_root_fails_fd_match(self, capsys, monkeypatch):
        # Every later root then sits one FD level above its list position.
        def lossy_solve(qn, m, geom, coup):
            points = solve_general_n(qn, m, geom, coup)
            return points[1:] if len(points) > 1 else points

        monkeypatch.setattr(cli, "solve_general_n", lossy_solve)
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "free", "--n", "1..3", "--k", "0,0.7"
        )
        assert code == EXIT_VERIFY
        assert "FAIL fd_match " in out

    @pytest.mark.parametrize(
        "argv,mutate,line",
        [
            (
                "--scenario coulomb --b 0.1 --l 0..1 --k 0,0.7",
                lambda qn, geom, pts: [p for p in pts if p.branch < 0],
                "FAIL closed_form_agreement measured=inf ",
            ),
            (
                "--scenario free",
                lambda qn, geom, pts: pts + pts[:1] if qn.n == 1 else pts,
                "FAIL closed_form_agreement measured=inf ",
            ),
            (
                "--scenario free --l 0 --n 3",
                lambda qn, geom, pts: pts[:-1] if geom.chi else pts,
                "FAIL minkowski_reduction   measured=1.000e+00 ",
            ),
        ],
        ids=["coulomb_lost_branch", "free_extra_state", "minkowski_lost_root"],
    )
    def test_lost_or_extra_state_fails(self, capsys, monkeypatch, argv, mutate, line):
        def mutated_solve(qn, m, geom, coup):
            return mutate(qn, geom, solve_general_n(qn, m, geom, coup))

        monkeypatch.setattr(cli, "solve_general_n", mutated_solve)
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == EXIT_VERIFY
        assert line in out


def _detuned(pt, m, coup):
    """pt with the polynomial of a 1% detuned slope, at the solver's series length."""
    mass = MassProfile(m, pt.nu_solved * 1.01)
    params = heun_params(mass, pt.energies[0], pt.qn.k, coup.b, pt.eff_abs)
    coeffs = build_coefficients(params, n_max=pt.wavefunction.coefficients.n_max)
    wf = RadialWavefunction(coeffs, params.alpha, pt.eff_abs, pt.qn.n)
    return dataclasses.replace(pt, wavefunction=wf)


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

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"l": "1", "k": [0]}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--l", "2")
        rows = read_csv(out)
        assert [r["l"] for r in rows] == ["2"]

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

        monkeypatch.setattr(cli, "ode_residual", lambda *args: math.nan)
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
    def test_zero_charge_is_usage_error(self, capsys, scenario):
        code, _, err = run_cli(capsys, "spectrum", "--scenario", scenario, "--q", "0")
        assert code == EXIT_USAGE
        assert "q must be nonzero" in err

    @pytest.mark.parametrize("q", ["-1", "-2.5"])
    def test_negative_charge_current(self, capsys, q):
        args = ["--scenario", "ab", "--flux", "0.3", "--l", "0", "--k", "0", "--q", q]
        code, out, _ = run_cli(capsys, "current", *args)
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert row["status"] == "OK"
        assert float(row["abs_discrepancy"]) < 1e-8 * abs(float(row["current_analytic"]))
        code, out, _ = run_cli(capsys, "verify", *args)
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
            "spectrum --scenario coulomb --b 1e200 --l 0 --k 0",
            "spectrum --scenario coulomb --b 1e-300 --l 0 --k 1",
            "current --scenario ab --m 1e-162 --l 0 --k 0 --flux 0.5",
        ],
    )
    def test_arithmetic_failure_is_solver_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv.split())
        assert code == EXIT_SOLVER
        assert "dislospec: solver error:" in err
        assert "Traceback" not in err

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

    def test_import_leaves_scipy_optimize_out(self):
        # The slope solve needs only scipy.linalg; scipy.optimize would add ~0.3 s of import.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, dislospec.cli; print('scipy.optimize' in sys.modules)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bad_flag_exits_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dislospec", "spectrum", "--format", "xml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
