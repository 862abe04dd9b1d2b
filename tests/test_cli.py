import copy
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from rlab.cli import (
    SCENARIOS,
    ExperimentConfig,
    RunManifest,
    _harness,
    build_grid,
    build_potentials,
    compare,
    describe,
    main,
    run,
)
from rlab.errors import ConfigError
from rlab.estimates import EstimateReport
from rlab.potentials import rescale_to_delta
from rlab.spectral import PHYSICAL, Field, make_grid, write_snapshot

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SHIPPED = sorted(CONFIGS.glob("*.ini")) + [REPO / "perfbench" / "harness-64.ini"]
MINIMAL = "[run]\nscenario = {}\nseed = 1\n[grid]\nn = 8\nL = 8.0\n"
# the grid is wide enough that the smoothing horizon stays before wrap-around
BAD_AXIS = ("[run]\nscenario = harness:smo1\nseed = 1\n[grid]\nn = 16\nL = 32.0\n"
            "[scenario]\naxis = 3\n")
SHIPPED_POTENTIAL = """
[potential]
width = 4.0
delta = 1000.0
amplitude_v = 0.15
amplitude_a1 = 0.12
amplitude_a2 = -0.10
amplitude_a3 = 0.11
center_offset = 1.0
"""


def small_born_config(tmp_path, seed=11, scale_key=None):
    text = f"""
[run]
scenario = born-series
seed = {seed}

[grid]
n = 16
L = 32.0

[potential]
width = 4.0
delta = 1000.0
amplitude_v = 0.15
amplitude_a1 = 0.12
amplitude_a2 = -0.10
amplitude_a3 = 0.11

[scenario]
orders = 3
t = 2.0
dt = 0.02
datum_advance = 0.0
"""
    p = tmp_path / "born.ini"
    p.write_text(text)
    return p


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class TestConfig:
    def test_missing_keys_listed(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("[run]\nscenario = certify\n")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_file(p)
        msg = str(err.value)
        assert "run.seed" in msg and "grid.n" in msg and "grid.L" in msg

    def test_unknown_scenario_rejected_with_list(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenario = nope\nseed = 1\n[grid]\nn = 8\nL = 8.0\n")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_file(p)
        assert "certify" in str(err.value)

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_every_registry_id_accepted(self, tmp_path, scenario):
        p = tmp_path / "ok.ini"
        p.write_text(MINIMAL.format(scenario))
        assert ExperimentConfig.from_file(p).scenario == scenario

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "typo.ini"
        p.write_text(MINIMAL.format("certify") + "[potentail]\nwidth = 4.0\n")
        with pytest.raises(ConfigError, match=r"\[potentail\]"):
            ExperimentConfig.from_file(p)

    def test_empty_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "typo.ini"
        p.write_text(MINIMAL.format("certify") + "[potentail]\n")
        with pytest.raises(ConfigError, match=r"\[potentail\]"):
            ExperimentConfig.from_file(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "typo.ini"
        p.write_text(MINIMAL.format("born-series") + "[scenario]\noders = 4\n")
        with pytest.raises(ConfigError, match=r"scenario\.oders"):
            ExperimentConfig.from_file(p)
        cfg = ExperimentConfig.from_file(small_born_config(tmp_path))
        with pytest.raises(ConfigError, match=r"evolve\.t_ned"):
            cfg.override("evolve", "t_ned", 3.0)

    @pytest.mark.parametrize("extra, message", [
        ("[potential]\ndelta = 0\n", "potential.delta must be positive"),
        ("[scenario]\ndelta = -5.0\n", "scenario.delta must be positive"),
        ("[bootstrap]\neps0 = -1\n", "bootstrap.eps0 must be positive"),
    ])
    def test_nonpositive_dial_rejected(self, tmp_path, extra, message):
        p = tmp_path / "dial.ini"
        p.write_text(MINIMAL.format("certify") + extra)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_file(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            ExperimentConfig.from_file(tmp_path / "absent.ini")

    def test_malformed_ini_exits_2_naming_the_file(self, tmp_path, capsys):
        no_header = tmp_path / "no_header.ini"
        no_header.write_text("seed = 1\n" + MINIMAL.format("certify"))
        duplicate = tmp_path / "duplicate.ini"
        duplicate.write_text(MINIMAL.format("certify") + "n = 16\n")
        for p in (no_header, duplicate):
            with pytest.raises(ConfigError, match=p.name):
                ExperimentConfig.from_file(p)
            assert main(["run", "--config", str(p)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: malformed config file") and p.name in err

    @pytest.mark.parametrize("section, key, value, message", [
        ("scenario", "orders", "6.5", "scenario.orders = '6.5' is not an integer"),
        ("grid", "n", "sixteen", "grid.n = 'sixteen' is not an integer"),
        ("scenario", "t", "fourteen", "scenario.t = 'fourteen' is not a number"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys, section, key,
                                                   value, message):
        text = (CONFIGS / "born-series.ini").read_text()
        cfg = ExperimentConfig.from_file(CONFIGS / "born-series.ini")
        old = f"{key} = {cfg.get(section, key)}\n"
        assert old in text
        p = tmp_path / "typed.ini"
        p.write_text(text.replace(old, f"{key} = {value}\n"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ConfigError) as err:
            cfg.override(section, key, value)
        assert str(err.value) == message

    @pytest.mark.parametrize("config, old, new, message", [
        ("harness-strichartz.ini", "samples = 8", "samples = 0",
         "scenario.samples = 0 must be at least 1"),
        ("born-series.ini", "orders = 6", "orders = 1",
         "scenario.orders = 1 must be at least 2"),
        ("harness-strichartz.ini", "seed = 3", "seed = -1", "run.seed = -1 must be at least 0"),
        ("harness-strichartz.ini", "seed = 3", "seed = 3\nthreads = 0",
         "run.threads = 0 must be at least 1"),
    ])
    def test_count_below_its_least_value_names_its_key(self, tmp_path, capsys, config,
                                                       old, new, message):
        text = (CONFIGS / config).read_text()
        assert old in text
        p = tmp_path / "counted.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_override_names_its_key(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(CONFIGS / "harness-strichartz.ini"),
                     "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: run.seed = -1 must be at least 0\n"
        assert not out.exists()

    def test_zero_datum_amplitude_rejected(self, tmp_path, capsys):
        # a zero datum has a zero profile: the wave operator's kappa would be 0/0
        text = (CONFIGS / "wave-operator.ini").read_text()
        assert "datum_amplitude = 0.01" in text
        p = tmp_path / "zero.ini"
        p.write_text(text.replace("datum_amplitude = 0.01", "datum_amplitude = 0"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: scenario.datum_amplitude must be nonzero\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("datum_width = 4.0", "datum_width = 0", "scenario.datum_width must be positive"),
        ("datum_width = 4.0", "datum_width = -2", "scenario.datum_width must be positive"),
        ("datum_carrier = 0.6", "datum_carrier = inf", "scenario.datum_carrier must be finite"),
        ("datum_carrier = 0.6", "datum_carrier = -inf", "scenario.datum_carrier must be finite"),
        ("\nwidth = 4.0", "\nwidth = inf", "potential.width must be positive and finite"),
        ("\nwidth = 4.0", "\nwidth = 0", "potential.width must be positive and finite"),
    ], ids=["zero-datum-width", "negative-datum-width", "inf-carrier", "minus-inf-carrier",
            "inf-potential-width", "zero-potential-width"])
    def test_width_or_carrier_out_of_range_names_its_key(self, tmp_path, capsys, old, new,
                                                         message):
        # build_datum divides by 2 datum_width^2, and an infinite potential width
        # is a constant potential: both runs used to fail without naming the key
        text = (CONFIGS / "born-series.ini").read_text()
        assert text.count(old) == 1
        p = tmp_path / "widths.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, old, new, message", [
        ("born-series.ini", "dt = 0.01", "dt = nan", "scenario.dt = 'nan' is not a number"),
        ("wave-operator.ini", "datum_amplitude = 0.01", "datum_amplitude = nan",
         "scenario.datum_amplitude = 'nan' is not a number"),
        ("simulate-nonlinear.ini", "L = 48.0", "L = inf",
         "box length must be positive and finite (got L=inf)"),
        ("simulate-nonlinear.ini", "t_end = 5.0", "t_end = inf",
         "evolution times must be finite and stay at or above t = 1 (t_end inf, dt 0.01)"),
        ("born-series.ini", "t = 14.0", "t = inf",
         "evolution times must be finite and stay at or above t = 1 (t inf, dt 0.01)"),
        ("wave-operator.ini", "T = 16.0", "T = inf", "T must be a power of two, at least 2 (got inf)"),
        ("simulate-nonlinear.ini", "dt = 0.01", "dt = 1e10",
         "t_end 5 is off the dt ladder: (t_end - 1) / dt = 4e-10 must be a positive integer"),
        ("wave-operator.ini", "dt = 0.05", "dt = 1e10",
         "dyadic time 2 is off the dt ladder: (t_end - 1) / dt = 1e-10 must be a positive integer"),
    ], ids=["nan-dt", "nan-amplitude", "inf-L", "inf-t_end", "inf-born-t", "inf-wave-T",
            "coarse-evolve-dt", "coarse-wave-dt"])
    def test_non_finite_or_stepless_value_is_one_error_line(self, tmp_path, capsys, config,
                                                            old, new, message):
        text = (CONFIGS / config).read_text()
        assert old in text
        p = tmp_path / "bad.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_infinite_exponent_stays_legal(self, tmp_path):
        p = tmp_path / "endpoint.ini"
        p.write_text(MINIMAL.format("harness:str1") + "[scenario]\np = inf\nq = 2\n")
        assert ExperimentConfig.from_file(p).get("scenario", "p") == np.inf

    @pytest.mark.parametrize("section, key, value", [
        ("potential", "delta", "0"),
        ("scenario", "delta", "-5.0"),
        ("bootstrap", "eps0", "-1"),
        ("scenario", "datum_amplitude", "0"),
        ("scenario", "datum_width", "0"),
        ("scenario", "datum_carrier", "inf"),
        ("potential", "width", "inf"),
        ("scenario", "samples", "0"),
        ("scenario", "orders", "1"),
        ("run", "threads", "0"),
    ])
    def test_override_rejected_exactly_when_a_load_is(self, tmp_path, section, key, value):
        p = tmp_path / "loaded.ini"
        line, text = f"{key} = {value}\n", MINIMAL.format("born-series")
        p.write_text(text.replace("[run]\n", "[run]\n" + line) if section == "run"
                     else text + f"[{section}]\n" + line)
        with pytest.raises(ConfigError) as loaded:
            ExperimentConfig.from_file(p)
        cfg = ExperimentConfig.from_file(small_born_config(tmp_path))
        before = copy.deepcopy(cfg.sections)
        with pytest.raises(ConfigError) as overridden:
            cfg.override(section, key, value)
        assert str(overridden.value) == str(loaded.value)
        assert cfg.sections == before

    @pytest.mark.parametrize("text, message", [
        (BAD_AXIS, "axis must be 0, 1 or 2 (got 3)"),
        (MINIMAL.format("harness:ik-smostri") + "[scenario]\np = 3\nq = 3\n",
         "(3.0, 3.0) is not Strichartz admissible"),
        ((CONFIGS / "simulate-nonlinear.ini").read_text().replace(
            "dealias = two-thirds", "dealias = bogus"), "unknown dealias mode 'bogus'"),
        ((CONFIGS / "born-series.ini").read_text().replace("dt = 0.01", "dt = 0"),
         "dt must be positive (got 0)"),
        ((CONFIGS / "wave-operator.ini").read_text().replace("dt = 0.05", "dt = 0"),
         "dt must be positive (got 0)"),
    ], ids=["axis", "pair", "dealias", "born-zero-dt", "wave-zero-dt"])
    def test_runner_error_leaves_no_run_directory(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_runner_error_removes_the_parents_it_made(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(BAD_AXIS)
        keep = tmp_path / "keep"
        keep.mkdir()
        out = keep / "nest" / "a" / "b"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert "axis must be 0, 1 or 2" in capsys.readouterr().err
        assert keep.is_dir() and not any(keep.iterdir())

    def test_runner_error_keeps_an_existing_empty_directory(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(BAD_AXIS)
        out = tmp_path / "o"
        out.mkdir()
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert "axis must be 0, 1 or 2" in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        ExperimentConfig.from_file(path)

    def test_hash_stable_under_reserialization(self, tmp_path):
        p = small_born_config(tmp_path)
        cfg1 = ExperimentConfig.from_file(p)
        cfg2 = ExperimentConfig(dict(cfg1.sections))
        assert cfg1.config_hash() == cfg2.config_hash()

    def test_hash_ignores_execution_environment(self, tmp_path):
        p = small_born_config(tmp_path)
        cfg1 = ExperimentConfig.from_file(p)
        cfg2 = ExperimentConfig.from_file(p)
        cfg2.override("run", "threads", 4)
        cfg2.override("run", "out", "elsewhere")
        assert cfg1.config_hash() == cfg2.config_hash()

    def test_round_trips_losslessly(self, tmp_path):
        p = small_born_config(tmp_path)
        cfg = ExperimentConfig.from_file(p)
        assert cfg.sections["scenario"]["dt"] == "0.02"
        assert cfg.get("scenario", "dt") == 0.02
        assert "potential.amplitude_v = 0.15" in cfg.canonical()


class TestBandWithoutModes:
    """A band (or band range) that reaches no mode of the grid is one error line
    naming it and the grid, exit 2 and no run directory, before any sample."""

    @pytest.mark.parametrize("scenario, keys, bands", [
        ("smo1", "band = -60", "band -60"),
        ("smo2", "band = -60", "band -60"),
        ("smo3", "band = -60", "band -60"),
        ("ik-smostri", "band = -60", "band -60"),
        ("str1", "k_lo = -60\nk_hi = -50", "bands -60..-50"),
        ("summation", "band = -60", "band -60"),
        ("dispersive", "band = -60", "band -60"),
    ])
    def test_is_one_error_line_and_exit_2(self, tmp_path, capsys, scenario, keys, bands):
        p = tmp_path / "bad.ini"
        p.write_text(f"[run]\nscenario = harness:{scenario}\nseed = 1\n"
                     f"[grid]\nn = 16\nL = 16.0\n[scenario]\n{keys}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: no mode of the 16^3 grid with L = 16 is in {bands}\n")
        assert not out.exists()


class TestIdentitySweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        path = REPO / "tools" / "identity_sweep.py"
        spec = importlib.util.spec_from_file_location("identity_sweep", path)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        return sweep

    def test_configs_cover_every_scenario(self, sweep):
        covered = {sections["run"]["scenario"] for sections in sweep.configs().values()}
        assert set(SCENARIOS) - covered == set()

    def test_every_config_loads(self, sweep):
        # the sweep writes each value with str(); a grammar change that refuses one
        # fails here, not minutes into a sweep
        for name, sections in sweep.configs().items():
            try:
                ExperimentConfig({s: {k: str(v) for k, v in kv.items()}
                                  for s, kv in sections.items()})
            except ConfigError as exc:
                pytest.fail(f"{name}: {exc}")

    def test_compare_fails_on_an_assertion_row_or_a_one_sided_run(self, tmp_path, capsys, sweep):
        old, new = tmp_path / "old", tmp_path / "new"
        for side, runs in ((old, {"x": True, "y": True}), (new, {"x": False})):
            for name, ok in runs.items():
                (side / name).mkdir(parents=True)
                (side / name / "manifest.json").write_text(json.dumps(
                    {"scenario": "certify", "assertions": {"ok": ok}}))
        assert sweep.main(["identity_sweep.py", "--compare", str(old), str(old)]) == 0
        capsys.readouterr()
        assert sweep.main(["identity_sweep.py", "--compare", str(old), str(new)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"FAULT y: only in {old}", "FAULT x: assertion:ok"]


class TestDescribe:
    def test_born_series_mentions_duhamel(self):
        assert "Duhamel" in describe("born-series")

    def test_smoothing_names_the_inequality(self):
        text = describe("harness:smo1")
        assert "smoothing" in text and "Kenig" in text

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_every_registry_id_described(self, scenario):
        assert SCENARIOS[scenario].description
        assert describe(scenario) == f"{scenario}: {SCENARIOS[scenario].description}"

    def test_unknown_errors_with_valid_list(self):
        with pytest.raises(ConfigError) as err:
            describe("harness:nope")
        assert "harness:smo1" in str(err.value)


class TestRun:
    def test_bundled_certify_config_passes(self, tmp_path):
        cfg = ExperimentConfig.from_file(CONFIGS / "certify.ini")
        manifest = run(cfg, tmp_path / "out")
        assert manifest.passed

    def test_certificate_records_the_wrap_around_notes(self, tmp_path):
        # a1 at (-20, -10, 0) and a2 at (0, -20, 10) sit 4 from the box edge at -L/2
        cfg = ExperimentConfig.from_file(CONFIGS / "certify.ini")
        cfg.override("potential", "center_offset", -20.0)
        run(cfg, tmp_path / "out")
        notes = json.loads((tmp_path / "out" / "certificate.json").read_text())["notes"]
        wrapped = {n.split(": ")[0] for n in notes if "wrap-around warning" in n}
        assert {"a1", "a2"} <= wrapped and "V" not in wrapped

    def test_usage_error_on_empty_config(self, tmp_path, capsys):
        p = tmp_path / "empty.ini"
        p.write_text("[run]\nscenario = certify\n")
        rc = main(["run", "--config", str(p)])
        assert rc == 2
        assert "missing required keys" in capsys.readouterr().err

    def test_identical_configs_identical_bytes(self, tmp_path):
        p = small_born_config(tmp_path)
        cfg = ExperimentConfig.from_file(p)
        m1 = run(cfg, tmp_path / "a")
        m2 = run(ExperimentConfig.from_file(p), tmp_path / "b")
        assert m1.cfg.config_hash() == m2.cfg.config_hash()
        assert (tmp_path / "a" / "series.csv").read_bytes() == (
            tmp_path / "b" / "series.csv"
        ).read_bytes()

    def test_delta_run_records_the_rescale_lambda(self, tmp_path):
        cfg = ExperimentConfig.from_file(small_born_config(tmp_path))
        plain = run(cfg, tmp_path / "plain")
        assert "rescale_lambda" not in plain.values
        cfg.override("scenario", "delta", 60.0)
        lam = run(cfg, tmp_path / "dial").values["rescale_lambda"]
        ps = build_potentials(cfg, build_grid(cfg))
        assert lam == rescale_to_delta(ps, 60.0)[1]
        assert 0.0 < lam < 1.0

    def test_build_datum_keeps_its_draws_and_values(self, monkeypatch):
        # the draws, in order, and the full-grid formula the Gaussian builder replaced
        from rlab import cli
        from rlab.sampling import normalized, sample_rng
        from rlab.spectral import free_propagate

        rngs = []

        def recorded(seed, index):
            rngs.append(sample_rng(seed, index))
            return rngs[-1]

        monkeypatch.setattr(cli, "sample_rng", recorded)
        cfg = ExperimentConfig.from_file(CONFIGS / "born-series.ini")
        grid = build_grid(cfg)
        u = cli.build_datum(cfg, grid, 7)
        ref_rng = sample_rng(7, 0)
        direction = ref_rng.standard_normal(3)
        assert len(rngs) == 1 and rngs[0].bit_generator.state == ref_rng.bit_generator.state
        x1, x2, x3 = grid.coord_mesh
        xi0 = 0.6 * direction / np.linalg.norm(direction)
        data = (np.exp(-(x1**2 + x2**2 + x3**2) / (2.0 * 4.0**2))
                * np.exp(1j * (xi0[0] * x1 + xi0[1] * x2 + xi0[2] * x3)))
        ref = 0.01 * free_propagate(normalized(Field(grid, PHYSICAL, data)), 4.0).data
        assert np.linalg.norm(u.data - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_profile_x_norm_once_per_snapshot(self, tmp_path, monkeypatch):
        # norms.csv reuses the bootstrap monitor's profile norms
        from rlab import cli, flows, norms

        assert not hasattr(cli, "x_norm")  # so only flows can take an X norm
        calls = []

        def counting(f):
            calls.append(f)
            return norms.x_norm(f)

        monkeypatch.setattr(flows, "x_norm", counting)
        cfg = ExperimentConfig.from_file(CONFIGS / "simulate-nonlinear.ini")
        cfg.override("evolve", "t_end", "1.1")
        cfg.override("evolve", "snapshot_stride", "2")
        run(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "norms.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        assert len(calls) == len(rows)


class TestWaveRun:
    def test_trace_values_seed_and_hash(self, tmp_path):
        p = tmp_path / "wave.ini"
        p.write_text(MINIMAL.format("wave-operator").replace("n = 8\nL = 8.0", "n = 16\nL = 32.0")
                     + SHIPPED_POTENTIAL + "[scenario]\nT = 4.0\ndt = 0.25\n")
        docs = []
        for name, extra in (("threaded", ["--threads", "2"]), ("serial", [])):
            main(["run", "--config", str(p), "--out", str(tmp_path / name), "--seed", "3"]
                 + extra)
            docs.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        lines = (tmp_path / "threaded" / "trace.csv").read_text().splitlines()
        assert lines[0] == "tau,cauchy_distance"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 2.0]
        assert {"exponent", "kappa"} <= docs[0]["values"].keys()
        assert docs[0]["seed"] == 3
        assert docs[0]["config_hash"] == docs[1]["config_hash"]


    @staticmethod
    def free_config(tmp_path):
        text = (CONFIGS / "wave-operator.ini").read_text().replace("n = 32", "n = 16")
        for key in ("amplitude_v", "amplitude_a1", "amplitude_a2", "amplitude_a3"):
            text = "\n".join(f"{key} = 0" if line.startswith(f"{key} =") else line
                              for line in text.splitlines())
        p = tmp_path / "free.ini"
        p.write_text(text + "\n")
        return p

    def test_zero_potential_run_passes(self, tmp_path, capsys):
        # every amplitude 0: the trace is exactly 0, which the verdict accepts
        p = self.free_config(tmp_path)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert "monotone_trace: pass" in capsys.readouterr().out
        doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert doc["values"]["kappa"] == 1.0

    def test_zero_potential_manifest_is_strict_json(self, tmp_path):
        # the vanishing trace has exponent inf, which RFC 8259 JSON cannot hold
        manifest = run(ExperimentConfig.from_file(self.free_config(tmp_path)), tmp_path / "o")
        path = tmp_path / "o" / "manifest.json"
        doc = json.loads(path.read_text(), parse_constant=reject_constant)
        assert doc["values"]["exponent"] == "Infinity"
        assert manifest.values["exponent"] == float("inf")
        # compare reads the string back as inf: against itself, no row
        assert compare(path, path) == []
        finite = json.loads(path.read_text())
        finite["values"]["exponent"] = 2.0
        (tmp_path / "finite.json").write_text(json.dumps(finite))
        rows = compare(path, tmp_path / "finite.json")
        assert [r[:3] for r in rows] == [["exponent", float("inf"), 2.0]]


class TestHarnessReport:
    @staticmethod
    def run_harness(tmp_path, ratios):
        cfg = ExperimentConfig.from_file(CONFIGS / "harness-strichartz.ini")
        manifest = RunManifest(cfg, tmp_path)
        runner = _harness(lambda cfg, grid: EstimateReport(
            "fake", ratios, "fixed ratios", grid, None, cfg.seed, {}))
        runner(cfg, build_grid(cfg), manifest)
        return manifest

    def test_inf_ratio_is_recorded_not_finite(self, tmp_path):
        manifest = self.run_harness(tmp_path, [1.0, float("inf")])
        assert manifest.assertions["ratios_finite"] is False
        doc = json.loads(manifest.write().read_text())
        assert doc["values"]["max_ratio"] == "Infinity"  # strict JSON has no inf
        assert doc["values"]["median_ratio"] == "Infinity"
        assert (tmp_path / "report.csv").read_text() == "sample,ratio\n0,1\n1,inf\n"
        # the report is strict JSON like the manifest
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject_constant)
        assert report["max_ratio"] == "Infinity"

    def test_nan_ratio_raises_naming_the_estimate(self, tmp_path):
        with pytest.raises(ValueError, match="^fake: "):
            self.run_harness(tmp_path, [1.0, float("nan")])


class TestGuardTrip:
    def test_blowup_records_failure_and_nonzero_exit(self, tmp_path):
        p = tmp_path / "violent.ini"
        p.write_text("""
[run]
scenario = simulate-linear
seed = 1

[grid]
n = 16
L = 32.0

[potential]
width = 4.0
delta = 1000.0
amplitude_v = 0.0
amplitude_a1 = 40.0
amplitude_a2 = 40.0
amplitude_a3 = 40.0

[evolve]
t_end = 3.0
dt = 0.5
snapshot_stride = 1

[scenario]
datum_width = 4.0
datum_amplitude = 0.05
""")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 1
        doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert doc["assertions"]["guard_clean"] is False
        assert "blowup" in doc["values"]


class TestCompare:
    def test_identical_manifests_empty_diff(self, tmp_path):
        p = small_born_config(tmp_path)
        run(ExperimentConfig.from_file(p), tmp_path / "a")
        run(ExperimentConfig.from_file(p), tmp_path / "b")
        rows = compare(tmp_path / "a" / "manifest.json", tmp_path / "b" / "manifest.json")
        assert rows == []

    def test_scenario_mismatch_rejected(self, tmp_path):
        p = small_born_config(tmp_path)
        run(ExperimentConfig.from_file(p), tmp_path / "a")
        cfg2 = ExperimentConfig.from_file(CONFIGS / "certify.ini")
        run(cfg2, tmp_path / "c")
        with pytest.raises(ConfigError):
            compare(tmp_path / "a" / "manifest.json", tmp_path / "c" / "manifest.json")

    def test_failed_run_differs_from_passing_run(self, tmp_path):
        # the guard-trip config, and a calm copy with the magnetic amplitudes at 0
        for name, amp in (("calm", 0.0), ("violent", 40.0)):
            p = tmp_path / f"{name}.ini"
            p.write_text(MINIMAL.format("simulate-linear").replace("n = 8\nL = 8.0", "n = 16\nL = 32.0")
                         + "[potential]\ndelta = 1000.0\n"
                         + "".join(f"amplitude_a{i} = {amp}\n" for i in (1, 2, 3))
                         + "[evolve]\nt_end = 3.0\ndt = 0.5\nsnapshot_stride = 1\n"
                         + "[scenario]\ndatum_amplitude = 0.05\n")
            main(["run", "--config", str(p), "--out", str(tmp_path / name)])
        rows = compare(tmp_path / "calm" / "manifest.json", tmp_path / "violent" / "manifest.json")
        assert ["assertion:guard_clean", "True", "False"] in [r[:3] for r in rows]
        artifacts = [r for r in rows if r[0].startswith("artifact:")]
        assert len(artifacts) == 7 and all(r[2] == "-" for r in artifacts)
        assert all(np.isnan(r[3]) for r in rows)

    def test_value_leaving_zero_reported(self, tmp_path):
        zero = tmp_path / "zero.ini"
        zero.write_text(MINIMAL.format("certify").replace("n = 8", "n = 16")
                        + "[potential]\namplitude_v = 0.0\n")
        run(ExperimentConfig.from_file(zero), tmp_path / "zero")
        run(ExperimentConfig.from_file(CONFIGS / "certify.ini"), tmp_path / "shipped")
        rows = compare(tmp_path / "zero" / "manifest.json", tmp_path / "shipped" / "manifest.json")
        entry = [r for r in rows if r[0] == "max_entry"]
        assert len(entry) == 1 and entry[0][1] == 0.0 and entry[0][2] > 0
        assert np.isnan(entry[0][3])

    def test_delta_halving_shows_rate_ratio_near_half(self, tmp_path):
        p = small_born_config(tmp_path)
        cfg_full = ExperimentConfig.from_file(p)
        cfg_full.override("scenario", "delta", 60.0)
        run(cfg_full, tmp_path / "full")
        cfg_half = ExperimentConfig.from_file(p)
        cfg_half.override("scenario", "delta", 30.0)
        run(cfg_half, tmp_path / "half")
        rows = compare(tmp_path / "full" / "manifest.json",
                       tmp_path / "half" / "manifest.json")
        rate_rows = [r for r in rows if r[0] == "fitted_rate"]
        assert len(rate_rows) == 1
        assert 0.35 <= rate_rows[0][3] <= 0.65


    def test_nested_values_compared_leaf_by_leaf(self, tmp_path):
        # a contained and an exited bootstrap: eps1 = 4 eps0 and the exit
        # flags live in the nested bootstrap dict of the manifest
        for name, eps0 in (("wide", "0.06"), ("tight", "0.001")):
            cfg = ExperimentConfig.from_file(CONFIGS / "simulate-nonlinear.ini")
            cfg.override("evolve", "t_end", "1.2")
            cfg.override("evolve", "snapshot_stride", "10")
            cfg.override("bootstrap", "eps0", eps0)
            run(cfg, tmp_path / name)
        rows = compare(tmp_path / "wide" / "manifest.json", tmp_path / "tight" / "manifest.json")
        by_key = {r[0]: r for r in rows}
        key, a, b, ratio = by_key["bootstrap.eps1"]
        assert (a, b) == (0.24, 0.004) and ratio == pytest.approx(0.004 / 0.24)
        assert by_key["bootstrap.exited"][1:3] == ["False", "True"]
        assert by_key["bootstrap.exit_time"][1:3] == ["None", 1.0]
        assert np.isnan(by_key["bootstrap.exited"][3])
        assert np.isnan(by_key["bootstrap.exit_time"][3])
        assert "bootstrap.rows.0.t" not in by_key  # equal leaves give no row

    def test_one_sided_text_value_reported(self, tmp_path, capsys):
        message = "L2 mass moved 1.0e-01 -> 3.0e+00 in one step (step 1, t = 1.5); aborting"
        for name, values in (("calm", {}), ("violent", {"blowup": message})):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(
                {"scenario": "simulate-linear", "values": values, "assertions": {},
                 "artifacts": {}}))
        paths = [str(tmp_path / name / "manifest.json") for name in ("calm", "violent")]
        rows = compare(*paths)
        assert [r[:3] for r in rows] == [["blowup", "-", message]]
        assert main(["compare", *paths]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["key,a,b,ratio", f'blowup,-,"{message}",nan']


    @pytest.mark.parametrize("doc", [{"values": {}}, [1]], ids=["no-scenario", "list"])
    def test_file_that_is_not_a_manifest_is_a_config_error(self, tmp_path, capsys, doc):
        run(ExperimentConfig.from_file(CONFIGS / "certify.ini"), tmp_path / "a")
        good = tmp_path / "a" / "manifest.json"
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps(doc))
        for pair in ((good, bad), (bad, good)):
            assert main(["compare", *map(str, pair)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {bad} is not a run manifest: it names no scenario\n"

    def test_file_that_is_not_json_is_a_config_error_naming_it(self, tmp_path, capsys):
        run(ExperimentConfig.from_file(CONFIGS / "certify.ini"), tmp_path / "a")
        good = tmp_path / "a" / "manifest.json"
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(ConfigError, match="bad.json is not a run manifest"):
                compare(*pair)
            assert main(["compare", *map(str, pair)]) == 2
            err = capsys.readouterr().err
            assert err == (f"error: {bad} is not a run manifest: "
                           "Expecting value: line 1 column 1 (char 0)\n")


class TestCompareArtifacts:
    @staticmethod
    def write_run(directory, artifacts: dict):
        """A hand-made manifest over artifacts, a dict of path -> writer."""
        directory.mkdir()
        manifest = RunManifest(ExperimentConfig.from_file(CONFIGS / "certify.ini"), directory)
        for rel, write in artifacts.items():
            write(directory / rel)
            manifest.add_artifact(directory / rel)
        return manifest.write()

    def test_perturbed_csv_entry_gives_its_deviation(self, tmp_path):
        base = "t,l2,h10\n1,0.5,2\n2,0.25,0\n"
        moved = "t,l2,h10\n1,0.5,2\n2,0.2500001,3e-15\n"
        paths = [self.write_run(tmp_path / name, {"norms.csv": lambda p, t=text: p.write_text(t)})
                 for name, text in (("a", base), ("b", moved))]
        rows = {r[0]: r for r in compare(*paths)}
        assert set(rows) == {"artifact:norms.csv:l2", "artifact:norms.csv:h10"}
        key, a, b, dev = rows["artifact:norms.csv:l2"]
        assert (a, b) == (0.25, 0.2500001) and dev == pytest.approx(4e-7, rel=1e-9)
        assert rows["artifact:norms.csv:h10"][1:] == [0.0, 3e-15, 3e-15]  # |b - a| at a = 0

    def test_snapshot_pair_gives_the_relative_l2_distance(self, tmp_path):
        grid = make_grid(8, 8.0)
        rng = np.random.default_rng(0)
        # values exact in complex64, so the snapshot files hold them as given
        base = rng.integers(-8, 8, grid.shape) + 1j * rng.integers(-8, 8, grid.shape)
        step = np.zeros(grid.shape, dtype=np.complex128)
        step[1, 2, 3] = 0.5
        fields = {"a": base, "b": base + step}
        paths = [self.write_run(tmp_path / name, {"snap.rlab": lambda p, d=data: write_snapshot(
                     p, Field(grid, PHYSICAL, d))}) for name, data in fields.items()]
        [row] = compare(*paths)
        expected = 0.5 / np.sqrt(np.sum(np.abs(base) ** 2))
        assert row[0] == "artifact:snap.rlab"
        assert row[3] == pytest.approx(expected, rel=1e-12)

    def test_json_report_gives_a_row_per_moved_leaf(self, tmp_path):
        base = {"estimate_id": "smo3", "max_ratio": 1.5, "median_ratio": 1.25,
                "extras": {"p": 2.0, "times": [1.0, 2.0]}}
        moved = {**base, "max_ratio": 1.5000003, "extras": {"p": 2.0, "times": [1.0, 2.5]}}
        paths = [self.write_run(tmp_path / name, {"report.json": lambda p, d=doc: p.write_text(
                     json.dumps(d))}) for name, doc in (("a", base), ("b", moved))]
        rows = {r[0]: r for r in compare(*paths)}
        assert set(rows) == {"artifact:report.json:max_ratio",
                             "artifact:report.json:extras.times.1"}
        key, a, b, dev = rows["artifact:report.json:max_ratio"]
        assert (a, b) == (1.5, 1.5000003) and dev == pytest.approx(2e-7, rel=1e-9)
        assert rows["artifact:report.json:extras.times.1"][3] == pytest.approx(0.25)

    def test_json_with_a_moved_text_leaf_keeps_its_digest_row(self, tmp_path):
        texts = {"a": '{"id": "smo2", "max_ratio": 1.0}', "b": '{"id": "smo3", "max_ratio": 2.0}'}
        paths = [self.write_run(tmp_path / name, {"report.json": lambda p, t=text: p.write_text(t)})
                 for name, text in texts.items()]
        [row] = compare(*paths)
        assert row[0] == "artifact:report.json" and np.isnan(row[3])

    def test_other_artifacts_keep_their_digest_row(self, tmp_path):
        paths = [self.write_run(tmp_path / name, {"report.json": lambda p, t=text: p.write_text(t)})
                 for name, text in (("a", "{}"), ("b", "[]"))]
        [row] = compare(*paths)
        assert row[0] == "artifact:report.json" and np.isnan(row[3])


class TestThreads:
    def test_threads_come_from_the_config_alone(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_file(small_born_config(tmp_path))
        monkeypatch.setenv("RLAB_THREADS", "3")  # the environment does not set it
        assert cfg.threads == 1
        cfg.override("run", "threads", 2)
        assert cfg.threads == 2

    @pytest.mark.parametrize("flag, message", [
        (["--threads", "0"], "run.threads = 0 must be at least 1"),
        (["--threads", "-4"], "run.threads = -4 must be at least 1"),
    ], ids=["flag-zero", "flag-negative"])
    def test_thread_count_below_one_names_its_key(self, tmp_path, capsys, flag, message):
        out = tmp_path / "o"
        rc = main(["run", "--config", str(CONFIGS / "harness-strichartz.ini"),
                   "--out", str(out), *flag])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestCliEntry:
    def test_describe_verb(self, capsys):
        assert main(["describe", "born-series"]) == 0
        assert "Duhamel" in capsys.readouterr().out

    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys):
        p = tmp_path / "certify.ini"
        p.write_text(MINIMAL.format("certify"))
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert out.read_text() == "kept"

    def test_run_verb_writes_manifest(self, tmp_path):
        p = small_born_config(tmp_path)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert doc["scenario"] == "born-series"
        assert doc["assertions"]["geometric_band"] is True

    def test_compare_verb_identical(self, tmp_path, capsys):
        p = small_born_config(tmp_path)
        main(["run", "--config", str(p), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(p), "--out", str(tmp_path / "b")])
        capsys.readouterr()
        rc = main(["compare", str(tmp_path / "a" / "manifest.json"),
                   str(tmp_path / "b" / "manifest.json")])
        assert rc == 0
        assert "no differences" in capsys.readouterr().out
