"""End-to-end command-line runs: envelopes, exit codes, determinism."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polyloewner import search
from polyloewner.bounds import CSV_HEADER
from polyloewner.cli import main
from polyloewner.jets import map_distance
from oracles import map_from_json

VIOLATOR_GEN = {
    "kind": "polynomial",
    "components": [
        {
            "dim": 2,
            "degree": 3,
            "coeffs": [{"alpha": [1, 0], "re": -1.0}, {"alpha": [0, 2], "re": 2.0}],
        },
        {"dim": 2, "degree": 3, "coeffs": [{"alpha": [0, 1], "re": -1.0}]},
    ],
}

# h = (-z1 + z1 z2 + z1 z2^2, -z2): every coefficient within its sharp bound,
# yet not in M (worst margin 0.8525 on the torus 0.95 T^2)
NON_MEMBER_GEN = {
    "kind": "polynomial",
    "components": [
        {
            "dim": 2,
            "degree": 3,
            "coeffs": [
                {"alpha": [1, 0], "re": -1.0},
                {"alpha": [1, 1], "re": 1.0},
                {"alpha": [1, 2], "re": 1.0},
            ],
        },
        {"dim": 2, "degree": 3, "coeffs": [{"alpha": [0, 1], "re": -1.0}]},
    ],
}

SHEAR_OF_H2 = {"kind": "shear-linear", "base": {"kind": "catalog", "name": "H2"}}


@pytest.fixture
def run(capsys):
    def runner(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


@pytest.fixture
def run_json(run):
    def runner(*argv):
        code, out, err = run(*argv)
        return code, json.loads(out) if out else None, err

    return runner


@pytest.fixture
def field_file(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(
        json.dumps(
            {
                "schedule": [
                    {"until": 1.0, "generator": {"kind": "catalog", "name": "H1"}},
                    {"generator": {"kind": "catalog", "name": "H4"}},
                ]
            }
        )
    )
    return str(path)


class TestEnvelope:
    def test_verify_catalog_passes(self, run_json):
        code, payload, _ = run_json("verify-catalog", "--deterministic")
        assert code == 0
        assert payload["schema"] == "polyloewner/1"
        assert payload["command"] == "verify-catalog"
        assert payload["passed"] is True
        assert payload["config"]["degree"] == 4
        assert "timestamp" not in payload

    def test_timestamp_present_by_default(self, run_json):
        code, payload, _ = run_json("catalog")
        assert code == 0
        assert "timestamp" in payload

    def test_deterministic_runs_are_byte_identical(self, run):
        args = ("bounds", "--name", "F1", "--deterministic")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_file_instead_of_stdout(self, run, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run("catalog", "--deterministic", "--output", str(dest))
        assert code == 0
        assert out == ""
        payload = json.loads(dest.read_text())
        assert payload["report"]["names"][0] == "F1"


class TestConfigPrecedence:
    def test_file_overrides_default_flag_overrides_file(self, run_json, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tolerances\ndegree = 3\ntol = 1e-9\n")
        code, payload, _ = run_json(
            "verify-catalog", "--config", str(cfg), "--deterministic"
        )
        assert code == 0 and payload["config"]["degree"] == 3
        code, payload, _ = run_json(
            "verify-catalog", "--config", str(cfg), "--degree", "4", "--deterministic"
        )
        assert code == 0 and payload["config"]["degree"] == 4
        assert payload["config"]["tol"] == 1e-9

    def test_deterministic_via_config(self, run_json, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("deterministic = yes\n")
        code, payload, _ = run_json("catalog", "--config", str(cfg))
        assert code == 0
        assert "timestamp" not in payload

    def test_unknown_config_key(self, run, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = 10\n")
        code, out, err = run("verify-catalog", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "budget" in err

    def test_missing_config_file(self, run):
        code, _, err = run("catalog", "--config", "/nonexistent/run.cfg")
        assert code == 2
        assert "cannot read config file" in err


class TestCatalogVerbs:
    def test_list_names(self, run_json):
        code, payload, _ = run_json("catalog", "--deterministic")
        assert code == 0
        assert len(payload["report"]["names"]) == 14

    def test_dump_single(self, run_json):
        code, payload, _ = run_json("catalog", "--dump", "F1", "--deterministic")
        assert code == 0
        entry = payload["report"]["entries"][0]
        assert entry["name"] == "F1" and entry["role"] == "starlike"

    def test_dump_all_at_dim(self, run_json):
        code, payload, _ = run_json(
            "catalog", "--dump", "all", "--dim", "3", "--deterministic"
        )
        assert code == 0
        assert len(payload["report"]["entries"]) == 14
        assert all(e["dim"] == 3 for e in payload["report"]["entries"])

    def test_dump_unknown(self, run):
        code, _, err = run("catalog", "--dump", "F9")
        assert code == 2 and "unknown catalog" in err


class TestCheckGenerator:
    def test_catalog_description_passes(self, run_json, tmp_path):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"kind": "catalog", "name": "H3"}))
        code, payload, _ = run_json("check-generator", "--file", str(gen))
        assert code == 0
        assert payload["report"]["certificate"]["passed"] is True

    def test_violator_fails_with_witness(self, run_json, tmp_path):
        gen = tmp_path / "bad.json"
        gen.write_text(json.dumps(VIOLATOR_GEN))
        code, payload, _ = run_json("check-generator", "--file", str(gen))
        assert code == 1
        cert = payload["report"]["certificate"]
        assert cert["passed"] is False
        assert cert["worst_margin"] > 0
        assert cert["witness_coordinate"] == 0
        assert len(cert["witness_point"]) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_bad_input(self, run, tmp_path, value):
        desc = json.loads(json.dumps(VIOLATOR_GEN))
        desc["components"][0]["coeffs"][1]["re"] = value
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(desc))  # NaN, Infinity or -Infinity, as Python writes them
        code, out, err = run("check-generator", "--file", str(gen))
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "not finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_starlike_series_is_bad_input(self, tmp_path):
        # (z1 + 1e300 z2^3, z2 + 1e200 z2^2): the series of -Df^-1 f overflows;
        # a separate process shows the numpy warnings that pytest would catch
        starlike = {
            "kind": "polynomial",
            "components": [
                {
                    "dim": 2,
                    "degree": 3,
                    "coeffs": [{"alpha": [1, 0], "re": 1.0}, {"alpha": [0, 3], "re": 1e300}],
                },
                {
                    "dim": 2,
                    "degree": 3,
                    "coeffs": [{"alpha": [0, 1], "re": 1.0}, {"alpha": [0, 2], "re": 1e200}],
                },
            ],
        }
        gen = tmp_path / "overflow.json"
        gen.write_text(json.dumps({"kind": "from-starlike", "map": starlike}))
        proc = subprocess.run(
            [sys.executable, "-m", "polyloewner.cli", "check-generator", "--file", str(gen)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("polyloewner: error:") and "not finite" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags", [[], ["--tol", "10"]], ids=["default-tol", "tol-10"])
    def test_pole_behind_the_self_check_is_bad_input(self, run, tmp_path, flags):
        # z + 2z^3 has det Df = 0 at |z_1| = 1/sqrt(6), which aliases the
        # evaluator/jet probe at radius 0.4: the map is not starlike, so the
        # description is bad input at any --tol, and no certificate is printed
        cubic = {
            "kind": "polynomial",
            "components": [
                {
                    "dim": 2,
                    "degree": 3,
                    "coeffs": [{"alpha": [1, 0], "re": 1.0}, {"alpha": [3, 0], "re": 2.0}],
                },
                {"dim": 2, "degree": 3, "coeffs": [{"alpha": [0, 1], "re": 1.0}]},
            ],
        }
        gen = tmp_path / "pole.json"
        gen.write_text(json.dumps({"kind": "from-starlike", "map": cubic}))
        code, out, err = run("check-generator", "--file", str(gen), *flags)
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "not starlike" in err
        assert len(err.strip().splitlines()) == 1

    def test_tolerance_applies_to_a_shear(self, run_json, tmp_path):
        # the scan runs at --tol, not at the tolerance of an earlier scan
        gen = tmp_path / "shear.json"
        gen.write_text(json.dumps(SHEAR_OF_H2))
        code, payload, _ = run_json("check-generator", "--file", str(gen))
        assert code == 0 and payload["report"]["certificate"]["tol"] == 1e-9
        code, payload, _ = run_json("check-generator", "--file", str(gen), "--tol=-0.5")
        assert code == 1
        cert = payload["report"]["certificate"]
        assert cert["passed"] is False and cert["tol"] == -0.5
        assert "certificate" not in payload["report"]["generator"]

    def test_missing_file_flag(self, run):
        code, _, err = run("check-generator")
        assert code == 2 and "--file" in err

    def test_unreadable_file(self, run):
        code, _, err = run("check-generator", "--file", "/nonexistent/gen.json")
        assert code == 2 and "cannot read" in err


class TestEvolveAndLimit:
    def test_evolve_reports_jet_and_estimate(self, run_json, field_file):
        code, payload, _ = run_json(
            "evolve", "--field", field_file, "--t", "1.5", "--deterministic"
        )
        assert code == 0
        report = payload["report"]
        assert report["t"] == 1.5
        assert report["error_estimate"] < 1e-6
        assert "jet" in report

    def test_limit_reports_tail(self, run_json, field_file):
        code, payload, _ = run_json(
            "limit", "--field", field_file, "--horizon", "6.0", "--degree", "3"
        )
        assert code == 0
        assert payload["report"]["horizon"] == 6.0
        assert payload["report"]["tail_bound"] < 1e-2

    def test_limit_at_extreme_horizon(self, run, field_file):
        code, out, err = run("limit", "--field", field_file, "--horizon", "800")
        assert code == 0 and err == ""
        report = json.loads(out)["report"]
        assert report["horizon"] == 800.0
        assert report["tail_bound"] <= 1e-12

    def test_evolve_runs_a_tiny_constant_term_as_zero(self, run_json, tmp_path):
        # a polynomial description may leave |h(0)| <= 1e-8; the jet
        # evolution runs with h(0) = 0, as the array kernels need
        jets = []
        for constant in (1e-9, None):
            first = [{"alpha": [1, 0], "re": -1.0}, {"alpha": [2, 0], "re": 0.5}]
            if constant is not None:
                first.append({"alpha": [0, 0], "re": constant})
            second = [{"alpha": [0, 1], "re": -1.0}, {"alpha": [1, 1], "re": 0.25}]
            gen = {
                "kind": "polynomial",
                "components": [
                    {"dim": 2, "degree": 3, "coeffs": first},
                    {"dim": 2, "degree": 3, "coeffs": second},
                ],
            }
            path = tmp_path / f"field-{constant}.json"
            path.write_text(json.dumps([{"generator": gen}]))
            code, payload, err = run_json(
                "evolve", "--field", str(path), "--t", "1.0", "--degree", "3"
            )
            assert code == 0 and err == ""
            jets.append(map_from_json(payload["report"]["jet"]))
        assert map_distance(*jets) <= 1e-12

    def test_violating_field_is_rejected_as_failure(self, run_json, tmp_path):
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps([{"generator": VIOLATOR_GEN}]))
        code, payload, _ = run_json("evolve", "--field", str(path))
        assert code == 1
        assert payload["passed"] is False
        assert "error" in payload["report"]
        assert payload["report"]["certificate"]["worst_margin"] > 0

    def test_unknown_backend(self, run, capsys, field_file, tmp_path):
        # there is one jet engine, so --backend is no longer an option
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--field", field_file, "--backend", "numpy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backend = numpy\n")
        code, out, err = run("evolve", "--field", field_file, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "backend" in err
        assert len(err.splitlines()) == 1

    def test_runaway_step_evolves_exactly(self, run_json, field_file):
        # the Koenigs chain takes no steps and forms no e^(t-s): the jet is
        # finite and its linear part e^(s-t) I underflows to 0.0
        for t in ("1e9", "1e12"):
            code, payload, err = run_json("evolve", "--field", field_file, "--t", t)
            assert code == 0 and err == ""
            report = payload["report"]
            assert report["error_estimate"] == 0.0
            jet = map_from_json(report["jet"])
            assert np.array_equal(jet.linear_part(), math.exp(-float(t)) * np.eye(2))
            coeffs = [c for comp in report["jet"]["components"] for c in comp["coeffs"]]
            assert all(math.isfinite(c["re"]) and math.isfinite(c["im"]) for c in coeffs)


class TestBounds:
    def test_starlike_by_name_with_csv(self, run_json, tmp_path):
        dest = tmp_path / "rows.csv"
        code, payload, _ = run_json(
            "bounds", "--name", "F1", "--csv", str(dest), "--deterministic"
        )
        assert code == 0
        checks = {c["check"]: c for c in payload["report"]["checks"]}
        assert checks["A[0](2,0)"]["equality"] is True
        assert "growth-upper-excess" in checks
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject", "check", "bound", "attained", "margin", "passed", "equality"]
        assert len(rows) == 1 + len(payload["report"]["checks"])

    def test_generator_by_name(self, run_json):
        code, payload, _ = run_json("bounds", "--name", "H2", "--deterministic")
        assert code == 0
        assert "c[0](1,1)" in payload["report"]["equalities"]

    def test_generator_description_failure(self, run_json, tmp_path):
        gen = tmp_path / "bad.json"
        gen.write_text(json.dumps(VIOLATOR_GEN))
        code, payload, _ = run_json("bounds", "--generator", str(gen))
        assert code == 1
        assert payload["passed"] is False

    def test_generator_outside_the_class_is_rejected(self, run_json, tmp_path):
        # its coefficient rows all pass, but the sharp bounds hold only in M
        gen = tmp_path / "non-member.json"
        gen.write_text(json.dumps(NON_MEMBER_GEN))
        code, payload, err = run_json("bounds", "--generator", str(gen), "--deterministic")
        assert (code, err) == (1, "")
        assert payload["passed"] is False
        report = payload["report"]
        assert set(report) == {"error", "certificate"}
        assert report["certificate"]["worst_margin"] == pytest.approx(0.8525, abs=1e-4)
        code, payload, _ = run_json("check-generator", "--file", str(gen))
        assert code == 1 and payload["report"]["certificate"]["passed"] is False

    def test_admissible_shear_passes(self, run_json, tmp_path):
        gen = tmp_path / "shear.json"
        gen.write_text(json.dumps(SHEAR_OF_H2))
        code, payload, _ = run_json("bounds", "--generator", str(gen), "--deterministic")
        assert code == 0
        assert "c[0](1,1)" in payload["report"]["equalities"]

    def test_evolved_field_report(self, run_json, field_file):
        code, payload, _ = run_json(
            "bounds",
            "--field",
            field_file,
            "--horizon",
            "6.0",
            "--degree",
            "3",
            "--growth-points",
            "10",
        )
        assert code == 0
        assert payload["report"]["subject"] == "limit"

    def test_an_equality_tol_of_zero_is_a_tolerance(self, run_json, tmp_path):
        # 0.0 is not an unset option: it flags what 1e-300 flags, not what the default does
        field = tmp_path / "h1.json"
        field.write_text(json.dumps([{"generator": {"kind": "catalog", "name": "H1"}}]))
        subject = ("bounds", "--field", str(field), "--degree", "3", "--growth-points", "4")

        def equalities(*flags):
            code, payload, err = run_json(*subject, *flags, "--deterministic")
            assert (code, err) == (0, "")
            return payload["report"]["equalities"]

        assert equalities() == ["A[0](2,0)"]
        assert equalities("--equality-tol", "0") == equalities("--equality-tol", "1e-300") == []

    def test_horizon_too_large_for_the_evaluator(self, run, field_file):
        for horizon in ("800", "inf", "nan"):
            code, out, err = run("bounds", "--field", field_file, "--horizon", horizon)
            assert code == 2 and out == ""
            assert err.startswith("polyloewner: error:") and "horizon" in err
            assert len(err.splitlines()) == 1

    def test_far_horizon_reads_the_exact_tail(self, run, field_file):
        # RK4 to 700 would take 70,000 steps; the Koenigs tail needs 100
        def report(horizon):
            argv = ("bounds", "--field", field_file, "--horizon", horizon, "--deterministic")
            code, out, err = run(*argv)
            assert (code, err) == (0, "")
            assert run(*argv)[1] == out
            return json.loads(out)["report"]["checks"]

        far, near = report("700"), report("40")
        assert [c["check"] for c in far] == [c["check"] for c in near]
        for a, b in zip(far, near):
            assert math.isfinite(a["attained"]) and a["passed"] is b["passed"]
            assert abs(a["attained"] - b["attained"]) <= 1e-12
            assert a.get("witness") == b.get("witness")
        code, out, err = run("bounds", "--field", field_file, "--horizon", "710")
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and len(err.splitlines()) == 1

    def test_growth_points_must_be_in_range(self, run, field_file):
        # past 2**20 points the batch is refused before it is allocated
        subjects = (("--field", field_file, "--horizon", "6.0"), ("--name", "F1"))
        for subject in subjects:
            for count in ("0", "-3", "1000000000000"):
                code, out, err = run("bounds", *subject, "--growth-points", count)
                assert code == 2 and out == ""
                assert err.startswith("polyloewner: error:") and "growth-points" in err
                assert len(err.splitlines()) == 1

    def test_exactly_one_subject(self, run, field_file):
        code, _, err = run("bounds")
        assert code == 2 and "exactly one" in err
        code, _, err = run("bounds", "--name", "F1", "--field", field_file)
        assert code == 2


class TestJetShapeCap:
    """Shapes above MAX_BASIS_SIZE monomials exit 2 before any table is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--alpha", "1,1", "--dim", "4", "--degree", "30"),
            ("search", "--alpha", "1,1", "--dim", "44", "--degree", "2"),
            ("catalog", "--dump", "F1", "--degree", "50"),
            ("bounds", "--name", "H1", "--degree", "10000"),
            ("verify-catalog", "--degree", "50"),
            ("caratheodory", "--degree", "1001"),
        ],
    )
    def test_flags_above_the_cap(self, run, argv):
        code, out, err = run(*argv, "--deterministic")
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "monomials" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "dilation", "dim": 4, "degree": 30},
            {"kind": "catalog", "name": "H1", "degree": 100},
            {"kind": "product-form", "selectors": [0] * 8, "measures": [None] * 8, "degree": 9},
            {"kind": "polynomial", "components": [{"dim": 2, "degree": 50, "coeffs": []}] * 2},
        ],
    )
    def test_descriptions_above_the_cap(self, run, tmp_path, desc):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(desc))
        code, out, err = run("check-generator", "--file", str(gen))
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "monomials" in err
        assert len(err.splitlines()) == 1

    def test_field_degree_above_the_cap(self, run, field_file):
        code, out, err = run("limit", "--field", field_file, "--degree", "60")
        assert code == 2 and out == "" and "monomials" in err


class TestSearchVerb:
    @pytest.mark.parametrize("verb", ["search", "limit", "evolve"])
    def test_step_is_not_a_search_option(self, run, capsys, tmp_path, field_file, verb):
        # limits and transition jets are built from Koenigs maps, so these verbs
        # have no RK4 step to set; `bounds --step` stays, for the growth points
        argv = [verb] + (["--alpha", "1,1"] if verb == "search" else ["--field", field_file])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--step", "0.01"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --step" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("step = 0.01\n")
        code, out, err = run(*argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("polyloewner: error:") and "step" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "horizons,named",
        [
            (("inf", "inf"), "horizon"),
            (("12", "inf"), "certify_horizon"),
            (("nan", "15"), "horizon"),
        ],
    )
    def test_non_finite_horizons_exit_before_the_search(self, run, monkeypatch, horizons, named):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(search, "objective", never)
        code, out, err = run(
            "search", "--alpha", "1,1", "--budget", "5",
            f"--horizon={horizons[0]}", f"--certify-horizon={horizons[1]}",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"polyloewner: error: {named} must be finite")
        assert len(err.splitlines()) == 1

    def test_small_search_is_sound(self, run_json, tmp_path):
        dest = tmp_path / "trace.csv"
        code, payload, _ = run_json(
            "search",
            "--alpha",
            "1,1",
            "--budget",
            "30",
            "--horizon",
            "6.0",
            "--certify-horizon",
            "8.0",
            "--csv",
            str(dest),
            "--deterministic",
        )
        assert code == 0
        report = payload["report"]
        assert report["alpha_bound"] == 2.0
        assert report["sound"] is True
        assert report["certified_value"] <= 2.0 + 1e-4
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["evaluation", "value"]
        assert len(rows) > 1

    def test_alpha_dimension_mismatch(self, run):
        code, _, err = run("search", "--alpha", "2,0,0", "--dim", "2")
        assert code == 2 and "alpha" in err

    def test_missing_alpha(self, run):
        code, _, err = run("search")
        assert code == 2 and "--alpha" in err


class TestCaratheodory:
    def test_default_point_mass(self, run_json):
        code, payload, _ = run_json("caratheodory", "--deterministic")
        assert code == 0
        report = payload["report"]["report"]
        assert report["passed"] is True
        assert report["equalities"] == ["c1", "c2", "c3", "c4"]
        coeffs = payload["report"]["coefficients"]
        assert coeffs[0] == {"k": 1, "re": pytest.approx(2.0), "im": pytest.approx(0.0)}

    def test_inline_atoms_normalized(self, run_json):
        code, payload, _ = run_json(
            "caratheodory", "--atoms", "0:3,1.57:1", "--deterministic"
        )
        assert code == 0
        weights = [a["weight"] for a in payload["report"]["measure"]["atoms"]]
        assert weights == [pytest.approx(0.75), pytest.approx(0.25)]

    def test_measure_file(self, run_json, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(
            json.dumps(
                {"atoms": [{"angle": 0.0, "weight": 0.5}, {"angle": 3.14, "weight": 0.5}]}
            )
        )
        code, payload, _ = run_json("caratheodory", "--file", str(path))
        assert code == 0
        assert payload["report"]["report"]["passed"] is True

    def test_measure_file_normalizes_like_inline_atoms(self, run_json, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(
            json.dumps(
                {"atoms": [{"angle": 0.0, "weight": 3.0}, {"angle": 1.57, "weight": 1.0}]}
            )
        )
        code, payload, _ = run_json("caratheodory", "--file", str(path))
        assert code == 0
        weights = [a["weight"] for a in payload["report"]["measure"]["atoms"]]
        assert weights == [pytest.approx(0.75), pytest.approx(0.25)]

    def test_malformed_measure_file(self, run, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"atoms": [{"angle": 0.0}]}))
        code, _, err = run("caratheodory", "--file", str(path))
        assert code == 2 and "measure" in err

    def test_bad_atoms(self, run):
        code, _, err = run("caratheodory", "--atoms", "1,2,3")
        assert code == 2 and "atoms" in err


class TestCsvGuards:
    def test_verb_without_projection(self, run, tmp_path):
        # refused before the verb runs: no envelope, no file
        dest = tmp_path / "x.csv"
        code, out, err = run("catalog", "--csv", str(dest))
        assert code == 2 and out == ""
        assert "CSV" in err and len(err.splitlines()) == 1
        assert not dest.exists()

    @pytest.mark.parametrize("flag", ["--field", "--generator"])
    def test_rejected_subject_writes_the_header_only(self, run_json, tmp_path, flag):
        subject = tmp_path / "subject.json"
        desc = [{"generator": NON_MEMBER_GEN}] if flag == "--field" else NON_MEMBER_GEN
        subject.write_text(json.dumps(desc))
        dest = tmp_path / "rows.csv"
        code, payload, err = run_json("bounds", flag, str(subject), "--csv", str(dest))
        assert (code, err) == (1, "")
        assert "certificate" in payload["report"]
        with open(dest, newline="") as fh:
            assert list(csv.reader(fh)) == [list(CSV_HEADER)]


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "polyloewner.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "polyloewner" in proc.stdout
