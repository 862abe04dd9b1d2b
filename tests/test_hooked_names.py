"""The rlab names that the benchmark in perfbench/ hooks or calls, with the
parameters it binds and the config members it reads.

perfbench wraps these names by attribute and reads their bound arguments; its
tracer also looks up methods in their class's own namespace and names a
persistence span by the module and qualified name of its function.  A rename
or a changed parameter would break only benchmark runs (a missing method is a
KeyError in a traced run); this test makes it fail the suite instead.
"""

import inspect

from rlab import cli, duhamel, flows


def _params(fn) -> dict[str, inspect.Parameter]:
    return dict(inspect.signature(fn).parameters)


def test_strang_loop_binds_n_steps_and_t_start():
    p = _params(flows._strang_loop)
    assert list(p)[:4] == ["grid", "u0", "dt", "n_steps"]
    assert p["t_start"].default == 1.0


def test_born_ladder_binds_t_end_and_dt():
    assert list(_params(duhamel._born_ladder)) == ["u1", "ps", "order_max", "t_end", "dt"]


def test_potential_operator_and_linear_substep():
    assert list(_params(flows._PotentialOperator.__init__)) == ["self", "grid", "v_data",
                                                                "a_data"]
    assert list(_params(flows._linear_substep)) == ["op"]


def test_evolve_linear_takes_skip_certification_by_keyword():
    p = _params(flows.evolve_linear)["skip_certification"]
    assert p.kind is inspect.Parameter.KEYWORD_ONLY and p.default is False


def test_cli_builders_and_config_override():
    assert list(_params(cli.build_grid)) == ["cfg"]
    assert list(_params(cli.build_potentials)) == ["cfg", "grid"]
    assert list(_params(cli.build_datum)) == ["cfg", "grid", "seed"]
    assert list(_params(cli.ExperimentConfig)) == ["sections"]
    assert list(_params(cli.ExperimentConfig.override)) == ["self", "section", "key", "value"]
    assert callable(cli.ExperimentConfig.from_file)


def test_methods_the_tracer_wraps_by_attribute():
    # perfbench/tracer.py METHODS: rebound through the class's own __dict__
    for attr in ("add_artifact", "write"):
        assert callable(cli.RunManifest.__dict__[attr])
    assert list(_params(cli.RunManifest.add_artifact)) == ["self", "path"]


def test_persistence_spans_name_module_functions():
    # perfbench/run.py PERSIST_SPANS: "cli.write_csv" and "flows.save_trajectory"
    for module, fn in ((cli, cli.write_csv), (flows, flows.save_trajectory)):
        assert fn.__module__ == module.__name__
        assert getattr(module, fn.__qualname__) is fn


def test_config_and_run_members_the_worker_reads(tmp_path):
    cfg = cli.ExperimentConfig({"run": {"scenario": "certify", "seed": "7"},
                                "grid": {"n": "8", "L": "8.0"}})
    assert (cfg.seed, cfg.threads) == (7, 1)
    assert cfg.sections["grid"] == {"n": "8", "L": "8.0"}
    assert list(_params(cli.run)) == ["cfg", "out_dir"]
    manifest = cli.run(cfg, tmp_path / "o")
    assert isinstance(manifest.assertions, dict) and isinstance(manifest.values, dict)
