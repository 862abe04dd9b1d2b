"""Batch experiment runner: config ingestion, scenario orchestration,
persistence and report emission.

Configs are flat INI-style text (``key = value`` under ``[section]``
headers), chosen over nested formats for diff-ability.  The table
ACCEPTED_KEYS is the grammar, each key with its type and rule: any other
section or key is a ConfigError naming it, as is a value its type cannot
read or its rule refuses, on a load and on an override alike.  Values are
plain tokens; floats use '.' decimals.  CSV outputs print floats with 17
significant digits and are byte-identical for identical configs and seeds,
serial or parallel.  RunManifest writes a run's CSV and JSON files, making
its directory on the first write; the JSON is strict (RFC 8259): a
non-finite value is the string "Infinity", "-Infinity" or "NaN", which compare
reads back as a float.  Each scenario is one entry of the registry
SCENARIOS, which config validation, ``describe`` and ``run`` all read.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .duhamel import series_decay_report, wave_operator
from .errors import BlowupError, ConfigError
from .estimates import (
    AdmissiblePair,
    check_bilinear,
    check_dispersive_decay,
    check_direction_partition,
    check_doi_local,
    check_smoothing,
    check_smoothing_strichartz,
    check_strichartz,
    check_summation_interpolation,
)
from .flows import (BootstrapParams, EvolveConfig, bootstrap_monitor, evolve_linear,
                    evolve_nonlinear, profile_norms, save_trajectory)
from .potentials import PotentialSet, certify, gaussian_potential, rescale_to_delta
from .spectral import Field, Grid, free_propagate, gaussian, l2_norm, make_grid, read_snapshot
from .sampling import normalized, sample_rng

# the float tests a key's rule can name; a value failing one is "<key> must be <rule>"
RULES = {"positive": lambda x: x > 0, "nonzero": lambda x: x != 0, "finite": math.isfinite,
         "positive and finite": lambda x: 0 < x < math.inf}

# each key's type, or (type, rule) with rule its least integer or a RULES name
ACCEPTED_KEYS = {
    "run": {"scenario": str, "seed": (int, 0), "out": str, "threads": (int, 1)},
    "grid": {"n": int, "L": float},
    "evolve": {"t_end": float, "dt": float, "snapshot_stride": int, "dealias": str},
    "potential": {"width": (float, "positive and finite"), "delta": (float, "positive"),
                  "amplitude_v": float, "amplitude_a1": float, "amplitude_a2": float,
                  "amplitude_a3": float, "center_offset": float},
    "bootstrap": {"eps0": (float, "positive"), "amplification": float},
    "scenario": {"datum_width": (float, "positive"), "datum_amplitude": (float, "nonzero"),
                 "datum_carrier": (float, "finite"), "datum_advance": float,
                 "delta": (float, "positive"), "orders": (int, 2), "t": float, "dt": float,
                 "T": float, "samples": (int, 1), "axis": int, "band": int, "p": float,
                 "q": float, "k_lo": int, "k_hi": int, "c": float},
}


def fmt(x) -> str:
    """Deterministic float formatting: '.' decimal, 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, columns: dict) -> None:
    """A header line of the columns' keys, then one line per row of the equal-length columns."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in zip(*columns.values(), strict=True):
        buf.write(",".join(fmt(x) for x in row) + "\n")
    pathlib.Path(path).write_text(buf.getvalue())


def _parse(name: str, value: str, spec):
    """The value of key name read by its ACCEPTED_KEYS spec, or a ConfigError naming
    the key: a value its type cannot read (NaN too) or that fails the key's rule."""
    kind, rule = spec if isinstance(spec, tuple) else (spec, None)
    try:
        parsed = kind(value)
        if kind is float and math.isnan(parsed):
            raise ValueError
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} = {value!r} is not {noun}") from None
    if isinstance(rule, int) and parsed < rule:
        raise ConfigError(f"{name} = {parsed} must be at least {rule}")
    if isinstance(rule, str) and not RULES[rule](parsed):
        raise ConfigError(f"{name} must be {rule}")
    return parsed


class ExperimentConfig:
    """Validated flat config; round-trips losslessly through serialization."""

    REQUIRED = {"run": ["scenario", "seed"], "grid": ["n", "L"]}

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = {s: dict(kv) for s, kv in sections.items()}
        for sec, kv in self.sections.items():
            valid = ACCEPTED_KEYS.get(sec)  # by name, so an empty section is checked too
            if valid is None:
                raise ConfigError(f"unknown config section [{sec}]; "
                                  f"valid: {', '.join(ACCEPTED_KEYS)}")
            for key, value in kv.items():
                if key not in valid:
                    raise ConfigError(f"unknown config key {sec}.{key}; valid: {', '.join(valid)}")
                _parse(f"{sec}.{key}", value, valid[key])
        missing = []
        for sec, keys in self.REQUIRED.items():
            for key in keys:
                if sec not in self.sections or key not in self.sections[sec]:
                    missing.append(f"{sec}.{key}")
        if missing:
            raise ConfigError("config is missing required keys: " + ", ".join(missing))
        _lookup(self.scenario)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            read = parser.read(path)
            sections = {s: dict(parser[s]) for s in parser.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls(sections)

    def get(self, section, key, default=None):
        """section.key read by its type in ACCEPTED_KEYS, or default where it is unset."""
        val = self.sections.get(section, {}).get(key)
        return default if val is None else _parse(f"{section}.{key}", val,
                                                  ACCEPTED_KEYS[section][key])

    def override(self, section, key, value):
        # the changed sections pass every check of a load before they are kept
        changed = {**self.sections, section: {**self.sections.get(section, {}), key: str(value)}}
        self.sections = ExperimentConfig(changed).sections

    def canonical(self) -> str:
        # threads and the output directory are execution environment, not
        # experiment content: they must not change the config hash
        lines = []
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                if sec == "run" and key in ("threads", "out"):
                    continue
                lines.append(f"{sec}.{key} = {self.sections[sec][key]}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @property
    def scenario(self) -> str:
        return self.get("run", "scenario")

    @property
    def seed(self) -> int:
        return self.get("run", "seed")

    @property
    def threads(self) -> int:
        return self.get("run", "threads", 1)


def build_grid(cfg: ExperimentConfig) -> Grid:
    return make_grid(cfg.get("grid", "n"), cfg.get("grid", "L"))


def build_potentials(cfg: ExperimentConfig, grid) -> PotentialSet:
    width = cfg.get("potential", "width", 4.0)
    delta = cfg.get("potential", "delta", 1.0)
    amp_v = cfg.get("potential", "amplitude_v", 0.0)
    amps_a = [cfg.get("potential", f"amplitude_a{i + 1}", 0.0) for i in range(3)]
    off = cfg.get("potential", "center_offset", 1.0)
    centers = [(0.0, 0.0, 0.0), (off, 0.5 * off, 0.0), (0.0, off, -0.5 * off),
               (0.5 * off, 0.0, -off)]
    v = gaussian_potential(grid, centers[0], width, amp_v)
    a = tuple(gaussian_potential(grid, centers[i + 1], width, amps_a[i]) for i in range(3))
    return PotentialSet(v=v, a=a, delta_target=delta)


def build_datum(cfg: ExperimentConfig, grid, seed: int) -> Field:
    """Localized small datum: Gaussian envelope, fixed-modulus random carrier,
    optionally advanced along the free flow."""
    sigma = cfg.get("scenario", "datum_width", 4.0)
    amp = cfg.get("scenario", "datum_amplitude", 0.01)
    carrier = cfg.get("scenario", "datum_carrier", 0.6)
    advance = cfg.get("scenario", "datum_advance", 4.0)
    rng = sample_rng(seed, 0)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    f = normalized(Field(grid, "physical", gaussian(grid, sigma, (0.0, 0.0, 0.0),
                                                    carrier * direction)))
    if advance:
        f = free_propagate(f, advance)
    return Field(grid, "physical", amp * f.data)


# JSON has no non-finite numbers, so a run's JSON files hold these strings instead
NON_FINITE = ("Infinity", "-Infinity", "NaN")


def _spell_non_finite(value):
    """value with every non-finite float as the string of its NON_FINITE token."""
    if isinstance(value, dict):
        return {k: _spell_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # "Infinity", "-Infinity" or "NaN"
    return value


def _strict_json(doc, indent: int | None) -> str:
    return json.dumps(_spell_non_finite(doc), sort_keys=True, indent=indent, allow_nan=False)


class RunManifest:
    """The one writer of a run's files: CSV and JSON artifacts, each digested, and manifest.json."""

    def __init__(self, cfg: ExperimentConfig, out_dir: pathlib.Path):
        self.cfg = cfg
        self.out_dir = out_dir
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.artifacts: dict[str, str] = {}
        self.assertions: dict[str, bool] = {}
        self.values: dict = {}

    def add_artifact(self, path) -> None:
        p = pathlib.Path(path)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        self.artifacts[str(p.relative_to(self.out_dir))] = digest

    def _path(self, name: str) -> pathlib.Path:
        """out_dir/name; the run's first write makes out_dir, with its parents."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def add_csv(self, name: str, columns: dict) -> None:
        """Write columns, a header -> numbers dict, to out_dir/name as an artifact."""
        write_csv(self._path(name), columns)
        self.add_artifact(self.out_dir / name)

    def add_json(self, name: str, doc: dict) -> None:
        """Write doc as one line of strict JSON to out_dir/name as an artifact."""
        self._path(name).write_text(_strict_json(doc, None))
        self.add_artifact(self.out_dir / name)

    def record(self, name: str, ok: bool) -> None:
        self.assertions[name] = bool(ok)

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())

    def write(self) -> pathlib.Path:
        doc = {
            "config_hash": self.cfg.config_hash(),
            "config": self.cfg.sections,
            "code_version": __version__,
            "scenario": self.cfg.scenario,
            "seed": self.cfg.seed,
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "artifacts": self.artifacts,
            "assertions": self.assertions,
            "values": self.values,
        }
        path = self._path("manifest.json")
        path.write_text(_strict_json(doc, 1))
        return path


def _run_certify(cfg, grid, manifest):
    ps = build_potentials(cfg, grid)
    cert = certify(ps, ps.delta_target)
    manifest.add_json("certificate.json", {"delta": cert.delta, "entries": cert.entries,
                                           "pass": cert.passed, "notes": list(cert.notes)})
    manifest.record("certificate_pass", cert.passed)
    manifest.values["max_entry"] = max(
        v for triple in cert.entries.values() for v in triple.values()
    )


def _run_simulate(cfg, grid, manifest, nonlinear: bool):
    ps = build_potentials(cfg, grid)
    u1 = build_datum(cfg, grid, cfg.seed)
    evolve_cfg = EvolveConfig(
        t_end=cfg.get("evolve", "t_end", 3.0),
        dt=cfg.get("evolve", "dt", 0.01),
        snapshot_stride=cfg.get("evolve", "snapshot_stride", 50),
        dealias=cfg.get("evolve", "dealias", "two-thirds"),
    )
    evolve = evolve_linear
    if nonlinear:  # a bad bootstrap key fails before any step is taken
        bp = BootstrapParams(eps0=cfg.get("bootstrap", "eps0", 0.05),
                             amplification=cfg.get("bootstrap", "amplification", 4.0))
        evolve = evolve_nonlinear
    try:
        tr = evolve(u1, ps, evolve_cfg, skip_certification=True)
    except BlowupError as exc:
        manifest.record("guard_clean", False)
        manifest.values["blowup"] = str(exc)
        return
    prof = profile_norms(tr)
    if nonlinear:
        mon = bootstrap_monitor(prof, bp)
        manifest.record("bootstrap_contained", not mon["exited"])
        manifest.values["bootstrap"] = mon
    manifest.record("guard_clean", True)
    # each snapshot's L2 norm beside its profile norms; the free flow has modulus one
    # on every mode, so h10 repeats the profile's H10 norm
    h10 = [p["h10"] for p in prof]
    manifest.add_csv("norms.csv", {"t": tr.times, "l2": [l2_norm(u) for u in tr.fields], "h10": h10,
                                   "profile_h10": h10, "profile_x": [p["x"] for p in prof]})
    snap_dir = manifest.out_dir / "snapshots"
    for p in save_trajectory(tr, snap_dir, evolve_cfg.snapshot_stride, cfg.config_hash()):
        manifest.add_artifact(p)


def _run_born(cfg, grid, manifest):
    ps = build_potentials(cfg, grid)
    delta = cfg.get("scenario", "delta")
    if delta is not None:
        ps, manifest.values["rescale_lambda"] = rescale_to_delta(ps, delta)
    u1 = build_datum(cfg, grid, cfg.seed)
    rep = series_decay_report(
        u1, ps,
        cfg.get("scenario", "orders", 6),
        cfg.get("scenario", "t", 14.0),
        cfg.get("scenario", "dt", 0.01),
        compare_with_flow=True,
    )
    manifest.add_csv("series.csv", {  # order 0 has no ratio
        "n": range(len(rep.h10_norms)), "h10_norm": rep.h10_norms, "x_norm": rep.x_norms,
        "ratio": [math.nan, *rep.ratios_h10]})
    # ratios among the potential-dressed terms (order >= 1); the 0 -> 1
    # ratio mixes in the datum's overlap geometry and is reported but not
    # part of the band assertion
    ratios = rep.ratios_h10[1:]
    band_ok = (max(ratios) / min(ratios) <= 2.0) if min(ratios) > 0 else False
    manifest.record("geometric_band", band_ok)
    manifest.record("rate_positive", rep.rate > 0)
    manifest.values["fitted_rate"] = rep.rate
    manifest.values["partial_sum_errors"] = rep.partial_sum_errors


def _run_wave(cfg, grid, manifest):
    ps = build_potentials(cfg, grid)
    u1 = build_datum(cfg, grid, cfg.seed)
    res = wave_operator(
        u1, ps,
        cfg.get("scenario", "T", 16.0),
        cfg.get("scenario", "dt", 0.05),
        skip_certification=True,
    )
    manifest.add_csv("trace.csv", {"tau": res.taus, "cauchy_distance": res.distances})
    manifest.record("monotone_trace", res.converged)
    manifest.record("positive_exponent", res.exponent > 0)
    manifest.values["exponent"] = res.exponent
    manifest.values["kappa"] = res.kappa


def _pair(cfg) -> AdmissiblePair:
    return AdmissiblePair(cfg.get("scenario", "p", 2.0), cfg.get("scenario", "q", 6.0))


def _sampled(cfg) -> dict:
    # the sample count, seed and thread keywords of every sampled check
    return {"samples": cfg.get("scenario", "samples", 8), "seed": cfg.seed,
            "threads": cfg.threads}


def _smoothing(variant: str):
    return lambda cfg, grid: check_smoothing(
        grid, variant, cfg.get("scenario", "axis", 0),
        band=cfg.get("scenario", "band", 0), **_sampled(cfg))


def _harness(check):
    """Runner of a harness:<id> scenario: emits the EstimateReport that
    check(cfg, grid) returns as report.json and report.csv."""

    def runner(cfg, grid, manifest):
        rep = check(cfg, grid)
        manifest.add_json("report.json", {
            "estimate_id": rep.estimate_id, "sample_count": len(rep.ratios), "seed": rep.seed,
            "max_ratio": rep.max_ratio, "median_ratio": rep.median_ratio, "extras": rep.extras,
            "sample_class": rep.sample_class, "grid": {"n": rep.grid.n, "L": rep.grid.length},
            "horizon": list(rep.horizon) if rep.horizon else None})
        manifest.add_csv("report.csv", {"sample": range(len(rep.ratios)), "ratio": rep.ratios})
        manifest.record("ratios_finite", bool(np.isfinite(rep.max_ratio)))
        manifest.values["max_ratio"] = rep.max_ratio
        manifest.values["median_ratio"] = rep.median_ratio

    return runner


@dataclass(frozen=True)
class Scenario:
    """Registry entry: the text ``describe`` prints and the runner
    runner(cfg, grid, manifest) that fills the manifest and writes through it."""

    description: str
    runner: Callable[[ExperimentConfig, Grid, RunManifest], None]


SCENARIOS: dict[str, Scenario] = {
    "simulate-nonlinear": Scenario(
        "Strang-splitting run of the quadratic flow "
        "i u_t + Lap u = a.grad u + V u + u^2 with the two-thirds dealiased "
        "square, plus the bootstrap monitor: profile H10 and X norms are "
        "checked against eps1 = A eps0 at every snapshot and any exit is "
        "reported, never clipped.",
        functools.partial(_run_simulate, nonlinear=True),
    ),
    "simulate-linear": Scenario(
        "Strang-splitting run of the linear electromagnetic flow "
        "i u_t + Lap u = a.grad u + V u from t = 1; emits snapshots and a "
        "norms.csv with L2, H10 and profile X norms per snapshot.  "
        "Exercises the global linear estimate and the profile bound.",
        functools.partial(_run_simulate, nonlinear=False),
    ),
    "born-series": Scenario(
        "Iterated Duhamel formula expansion (Born series) of the linear flow: "
        "per-order H10 and X norms, consecutive ratios and the fitted "
        "geometric rate.  Exercises the series contraction (C^n delta^n).",
        _run_born,
    ),
    "wave-operator": Scenario(
        "Scattering comparison of the interacting and free linear flows: "
        "profiles g(tau) = e^{-i tau Lap} u(tau) on a dyadic ladder, Cauchy "
        "increments, fitted polynomial decay exponent, and the wave-operator "
        "norm quotient kappa.",
        _run_wave,
    ),
    "certify": Scenario(
        "Smallness certification of a potential set: the Y norms of each "
        "component, of its <x> weighting and of its (1-Lap)^5 smoothing, "
        "plus the squares of the magnetic components, all compared with "
        "delta.",
        _run_certify,
    ),
    "harness:str1": Scenario(
        "Free-flow Strichartz bound over admissible pairs (2/p + 3/q = 3/2).",
        _harness(lambda cfg, grid: check_strichartz(
            grid, _pair(cfg), k_lo=cfg.get("scenario", "k_lo", -3),
            k_hi=cfg.get("scenario", "k_hi", 3), **_sampled(cfg))),
    ),
    "harness:smo1": Scenario(
        "Homogeneous Kenig-Ponce-Vega local smoothing: half-derivative gain "
        "for e^{it Lap} in L^inf along one axis, L^2 in time and the "
        "transverse axes.",
        _harness(_smoothing("homogeneous")),
    ),
    "harness:smo2": Scenario(
        "Dual Kenig-Ponce-Vega smoothing bound (time-integrated flow in L2).",
        _harness(_smoothing("dual")),
    ),
    "harness:smo3": Scenario(
        "Inhomogeneous Kenig-Ponce-Vega smoothing: full-derivative gain on the retarded integral.",
        _harness(_smoothing("inhomogeneous")),
    ),
    "harness:ik-smostri": Scenario(
        "Ionescu-Kenig smoothing-Strichartz bound for the retarded integral.",
        _harness(lambda cfg, grid: check_smoothing_strichartz(
            grid, _pair(cfg), cfg.get("scenario", "axis", 0),
            band=cfg.get("scenario", "band", 0), **_sampled(cfg))),
    ),
    "harness:dispersive": Scenario(
        "Band-limited L6 dispersive decay: flatness of t * ||e^{it Lap} f_k||_L6.",
        _harness(lambda cfg, grid: check_dispersive_decay(
            grid, cfg.get("scenario", "band", 0))),
    ),
    "harness:bilin": Scenario(
        "Bilinear multiplier bound with the L1 kernel quadrature on the right side.",
        _harness(lambda cfg, grid: check_bilinear(
            grid, np.ones(grid.shape), np.ones(grid.shape), 2.0, 2.0, 1.0,
            **_sampled(cfg))),
    ),
    "harness:direction": Scenario(
        "Dominant-direction partition of frequency space (chi_1 + chi_2 + chi_3 = 1).",
        _harness(lambda cfg, grid: check_direction_partition(grid)),
    ),
    "harness:summation": Scenario(
        "Band summation/interpolation bound with the H2 proxy for the bootstrap constant.",
        _harness(lambda cfg, grid: check_summation_interpolation(
            grid, cfg.get("scenario", "band", 0), 2.0, 6.0,
            cfg.get("scenario", "c", 0.25), **_sampled(cfg))),
    ),
    "harness:doi": Scenario(
        "Doi-type short-horizon well-posedness quotient for the quadratic flow.",
        _harness(lambda cfg, grid: check_doi_local(
            build_datum(cfg, grid, cfg.seed), build_potentials(cfg, grid),
            cfg.get("scenario", "T", 2.0), cfg.get("scenario", "dt", 0.01))),
    ),
}


def _lookup(scenario: str) -> Scenario:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: " + ", ".join(SCENARIOS))
    return SCENARIOS[scenario]


def run(cfg: ExperimentConfig, out_dir) -> RunManifest:
    # a runner rejects a config value before its first write makes the run directory
    grid = build_grid(cfg)
    manifest = RunManifest(cfg, pathlib.Path(out_dir))
    _lookup(cfg.scenario).runner(cfg, grid, manifest)
    manifest.write()
    return manifest


def describe(scenario: str) -> str:
    return f"{scenario}: {_lookup(scenario).description}"


def _flatten(value, key: str, out: dict) -> dict:
    """The leaves of nested dicts and lists under dotted keys such as
    ``bootstrap.eps1`` and ``partial_sum_errors.2``; a NON_FINITE string
    is read back as its float."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for sub, leaf in items:
            _flatten(leaf, f"{key}.{sub}" if key else str(sub), out)
    else:
        out[key] = float(value) if value in NON_FINITE else value
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _deviation(a: float, b: float) -> float:
    """|b/a - 1|, or |b - a| where a is 0; 0 for equal entries, NaNs included,
    and inf where one side alone is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(b - a) if a == 0 else abs(b / a - 1.0)
    return math.inf if math.isnan(d) else d


def _read_columns(path) -> dict[str, list]:
    """A CSV's columns, or a JSON document's leaves (_flatten) as one-entry columns."""
    if path.suffix == ".json":
        return {k: [v] for k, v in _flatten(json.loads(path.read_text()), "", {}).items()}
    with open(path, newline="") as fh:
        header, *body = list(csv.reader(fh))
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def _artifact_rows(rel: str, path_a: pathlib.Path, path_b: pathlib.Path) -> list[list]:
    """Value rows [key, a, b, deviation] of an artifact two runs wrote
    differently, [] when its values cannot be compared.

    A CSV with the same header and length gives one row per column that
    differs, a JSON file (report.json, certificate.json) with the same keys
    one per leaf: the pair of entries of largest _deviation.  A .rlab
    snapshot on the same grid gives the relative L2 distance ||b - a|| / ||a||
    (the absolute one where a is 0), with the two L2 norms."""
    try:
        if rel.endswith((".csv", ".json")):
            cols_a, cols_b = _read_columns(path_a), _read_columns(path_b)
            if list(cols_a) != list(cols_b) or any(
                    len(cols_a[k]) != len(cols_b[k]) for k in cols_a):
                return []
            rows = []
            for name, col_a in cols_a.items():
                dev, a, b = max((_deviation(a, b), a, b) for a, b in zip(col_a, cols_b[name]))
                if dev > 0:
                    rows.append([f"artifact:{rel}:{name}", a, b, dev])
            return rows
        if rel.endswith(".rlab"):
            fa, fb = read_snapshot(path_a), read_snapshot(path_b)
            if fa.grid != fb.grid or fa.rep != fb.rep:
                return []
            na, nb = l2_norm(fa), l2_norm(fb)
            dist = l2_norm(Field(fa.grid, fa.rep, fb.data - fa.data))
            return [[f"artifact:{rel}", na, nb, dist / na if na else dist]]
    # unreadable, ragged, or a text leaf that moved (_deviation raises TypeError): digest row
    except (OSError, ValueError, IndexError, TypeError):
        return []
    return []


def compare(manifest_a, manifest_b) -> list[list]:
    """Ratio-by-ratio diff of two manifests of the same scenario.

    Returns one [key, a, b, ratio] row per difference; identical runs give
    an empty diff.  Values are compared leaf by leaf, nested dicts and lists
    under dotted keys.  Numbers give their b/a ratio (the tool behind the
    delta-halving and dt-halving runs), NaN when a is 0.  Any other leaf
    that differs (a string, bool or None) or that one side lacks, and any
    assertion or artifact digest that differs or is one-sided, gives a row
    with ratio NaN ("assertion:"/"artifact:" prefixed); a missing side shows "-".
    An artifact both runs wrote differently is compared by value where it
    can be (_artifact_rows): its rows hold a deviation, not a ratio, in the
    last place, and its key names the column.  The artifacts are read next
    to each manifest; a file that is not a manifest is a ConfigError.
    """
    docs = []
    for m in (manifest_a, manifest_b):
        try:
            docs.append(json.loads(pathlib.Path(m).read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{m} is not a run manifest: {exc}") from None
        if not (isinstance(docs[-1], dict) and "scenario" in docs[-1]):
            raise ConfigError(f"{m} is not a run manifest: it names no scenario")
    doc_a, doc_b = docs
    if doc_a["scenario"] != doc_b["scenario"]:
        raise ConfigError(
            f"cannot compare scenarios {doc_a['scenario']!r} and {doc_b['scenario']!r}"
        )
    rows = []
    for section in ("values", "assertions", "artifacts"):
        sec_a, sec_b = (_flatten(doc.get(section, {}), "", {}) for doc in (doc_a, doc_b))
        for key in sorted(sec_a.keys() | sec_b.keys()):
            a, b = sec_a.get(key, "-"), sec_b.get(key, "-")  # "-" marks a missing leaf
            if a == b:
                continue
            by_value = []
            if section == "artifacts" and "-" not in (a, b):
                by_value = _artifact_rows(key, *(pathlib.Path(m).parent / key
                                                 for m in (manifest_a, manifest_b)))
            if section == "values" and _is_number(a) and _is_number(b):
                rows.append([key, a, b, b / a if a != 0 else float("nan")])
            elif by_value:
                rows += by_value
            else:
                name = key if section == "values" else f"{section[:-1]}:{key}"
                width = 12 if section == "artifacts" else None  # digests show 12 characters
                shown = [v if _is_number(v) else str(v)[:width] for v in (a, b)]
                rows.append([name, *shown, float("nan")])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rlab",
        description="pseudo-spectral laboratory for small-data Schroedinger scattering diagnostics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None)

    p_desc = sub.add_parser("describe", help="describe a scenario")
    p_desc.add_argument("scenario")

    p_cmp = sub.add_parser("compare", help="diff two run manifests")
    p_cmp.add_argument("manifest_a")
    p_cmp.add_argument("manifest_b")

    args = parser.parse_args(argv)
    try:
        if args.verb == "describe":
            print(describe(args.scenario))
            return 0
        if args.verb == "compare":
            rows = compare(args.manifest_a, args.manifest_b)
            if not rows:
                print("no differences")
            else:
                # csv quotes a text value that holds a comma (a blow-up message)
                out = csv.writer(sys.stdout, lineterminator="\n")
                out.writerow(["key", "a", "b", "ratio"])
                for row in rows:
                    out.writerow([fmt(v) if isinstance(v, (int, float)) else v for v in row])
            return 0
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.override("run", "seed", args.seed)
        if args.threads is not None:
            cfg.override("run", "threads", args.threads)
        out_dir = args.out or cfg.get("run", "out", "runs/" + cfg.scenario)
        manifest = run(cfg, out_dir)
        status = "pass" if manifest.passed else "FAIL"
        print(f"{cfg.scenario}: {status} (out: {out_dir})")
        for name, ok in manifest.assertions.items():
            print(f"  {name}: {'pass' if ok else 'FAIL'}")
        return 0 if manifest.passed else 1
    except (ConfigError, BlowupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
