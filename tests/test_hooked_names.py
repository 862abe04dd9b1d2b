"""The rlab names that the benchmark in perfbench/ hooks or calls, with the
parameters it binds.

perfbench wraps these names by attribute and reads their bound arguments, so
a rename or a changed parameter would break only benchmark runs; this test
makes it fail the suite instead.
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
