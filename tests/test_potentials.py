import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rlab import potentials
from rlab.norms import lebesgue_norm, y_norm
from rlab.potentials import (
    PotentialSet,
    certify,
    gaussian_potential,
    rescale_to_delta,
)
from rlab.spectral import (
    FREQUENCY,
    PHYSICAL,
    Field,
    apply_multiplier,
    bessel_weight,
    make_grid,
)

from conftest import field_from_function, zero_field, zero_potential_set


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 48.0)


@pytest.fixture(scope="module")
def sample_set(grid):
    v = gaussian_potential(grid, (0, 0, 0), 4.0, 0.15)
    a = (
        gaussian_potential(grid, (1.0, 0.5, 0.0), 4.0, 0.12),
        gaussian_potential(grid, (0.0, 1.0, -0.5), 4.0, -0.10),
        gaussian_potential(grid, (0.5, 0.0, -1.0), 4.0, 0.11),
    )
    return PotentialSet(v=v, a=a, delta_target=1000.0)


class TestGaussianPotential:
    def test_zero_amplitude(self, grid):
        f = gaussian_potential(grid, (0, 0, 0), 2.0, 0.0)
        assert np.all(f.data == 0)

    def test_l1_closed_form(self, grid):
        amp, width = 0.3, 3.5
        f = gaussian_potential(grid, (0, 0, 0), width, amp)
        assert_allclose(
            lebesgue_norm(f, 1), amp * (2 * np.pi) ** 1.5 * width**3, rtol=1e-8
        )

    def test_linf_is_amplitude(self, grid):
        f = gaussian_potential(grid, (0, 0, 0), 3.0, 0.25)
        assert_allclose(lebesgue_norm(f, np.inf), 0.25, rtol=1e-12)

    def test_rejects_bad_width(self, grid):
        with pytest.raises(ValueError):
            gaussian_potential(grid, (0, 0, 0), 0.0, 1.0)

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_rejects_non_finite_width(self, grid, width):
        # an infinite width would be a constant potential over the whole box
        with pytest.raises(ValueError, match="width must be positive and finite"):
            gaussian_potential(grid, (0, 0, 0), width, 1.0)


class TestPotentialSet:
    def test_rejects_complex_potentials(self, grid):
        bad = Field(grid, PHYSICAL, 1j * np.ones(grid.shape))
        with pytest.raises(ValueError):
            PotentialSet(v=bad, a=(zero_field(grid),) * 3, delta_target=1.0)

    def test_rejects_mixed_grids(self, grid):
        other = make_grid(8, 48.0)
        with pytest.raises(ValueError):
            PotentialSet(
                v=zero_field(other), a=(zero_field(grid),) * 3, delta_target=1.0
            )

    def test_zero_detection(self, grid):
        assert zero_potential_set(grid).is_zero


class TestCertify:
    def test_zero_set_passes_any_delta(self, grid):
        cert = certify(zero_potential_set(grid), 1e-30)
        assert cert.passed

    def test_zero_delta_with_nonzero_potential_fails(self, grid, sample_set):
        assert not certify(sample_set, 0.0).passed

    def test_compositional_oracle_single_gaussian(self, grid):
        # certificate entries must equal hand-composed norm-engine calls
        v = gaussian_potential(grid, (0, 0, 0), 4.0, 0.2)
        ps = PotentialSet(v=v, a=(zero_field(grid),) * 3, delta_target=1.0)
        cert = certify(ps, 1.0)
        assert_allclose(cert.entries["V"]["y"], float(y_norm(v)), rtol=1e-12)
        w = np.sqrt(1.0 + np.broadcast_to(grid.radius_squared, grid.shape))
        weighted = Field(grid, PHYSICAL, w * v.data)
        assert_allclose(cert.entries["V"]["y_weighted"], float(y_norm(weighted)), rtol=1e-12)
        smooth = apply_multiplier(v, bessel_weight(grid, 10))  # (1+|xi|^2)^5
        assert_allclose(cert.entries["V"]["y_smooth"], float(y_norm(smooth)), rtol=1e-12)
        for name in ("a1", "a2", "a3", "a1^2", "a2^2", "a3^2"):
            assert cert.entries[name]["y"] == 0.0

    def test_squares_included_for_magnetic_components(self, grid, sample_set):
        cert = certify(sample_set, 1000.0)
        a1 = sample_set.a[0]
        sq = Field(grid, PHYSICAL, a1.data * a1.data)
        assert_allclose(cert.entries["a1^2"]["y"], float(y_norm(sq)), rtol=1e-12)

    def test_monotone_in_amplitude_for_lp_parts(self, grid):
        # nested Gaussians: |w1| <= |w2| pointwise
        w1 = gaussian_potential(grid, (0, 0, 0), 4.0, 0.1)
        w2 = gaussian_potential(grid, (0, 0, 0), 4.0, 0.2)
        assert float(y_norm(w1)) <= float(y_norm(w2))

    def test_under_resolved_smooth_weight_warns(self):
        g = make_grid(8, 8.0)
        spiky = field_from_function(
            g, lambda a, b, c: np.exp(-(a**2 + b**2 + c**2) / (2 * 0.6**2))
        )
        ps = PotentialSet(v=spiky, a=(zero_field(g),) * 3, delta_target=1.0)
        cert = certify(ps, 1.0)
        assert any("resolution warning" in n for n in cert.notes)

    def test_boundary_bump_puts_a_wrap_note_naming_it(self, grid):
        # a1 sits 1 from the box edge at -L/2; V at the centre carries no boundary mass
        ps = PotentialSet(v=gaussian_potential(grid, (0, 0, 0), 3.0, 0.2),
                          a=(gaussian_potential(grid, (-23.0, 0, 0), 3.0, 1.0),
                             *(zero_field(grid),) * 2), delta_target=1.0)
        wraps = [n for n in certify(ps, 1.0).notes if "wrap-around warning" in n]
        assert len(wraps) == 1 and wraps[0].startswith("a1: wrap-around warning: ")

    def test_zero_spectrum_has_no_tail_note(self, grid):
        zero = zero_field(grid, FREQUENCY)
        assert potentials._nyquist_tail_note(zero, bessel_weight(grid, 10), "V") is None

    def test_transforms_each_component_once(self, fft_count, sample_set):
        first = certify(sample_set, 1000.0)
        fft_count.calls.clear()
        assert certify(sample_set, 1000.0) == first
        # V, a1, a2, a3 and the three magnetic squares
        assert fft_count.calls == {"fftn": 7, "ifftn": 7}

    def test_serializes_every_norm(self, tmp_path):
        import json

        from rlab import cli

        cli.run(cli.ExperimentConfig({"run": {"scenario": "certify", "seed": "0"},
                                      "grid": {"n": "16", "L": "48.0"}}), tmp_path)
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert set(doc["entries"]) == {
            "V", "a1", "a2", "a3", "a1^2", "a2^2", "a3^2",
        }
        for triple in doc["entries"].values():
            assert set(triple) == {"y", "y_weighted", "y_smooth"}


class TestRescale:
    def test_already_passing_returns_one(self, grid, sample_set):
        ps, lam = rescale_to_delta(sample_set, 1e6)
        assert ps is sample_set and lam == 1.0

    def test_doubling_amplitudes_halves_lambda(self, grid, sample_set):
        delta = 120.0
        _, lam1 = rescale_to_delta(sample_set, delta)
        _, lam2 = rescale_to_delta(sample_set.scaled(2.0), delta)
        assert 0.45 <= lam2 / lam1 <= 0.55

    def test_zero_set_rejected(self, grid):
        with pytest.raises(ValueError):
            rescale_to_delta(zero_potential_set(grid), 1.0)

    def test_idempotent(self, grid, sample_set):
        scaled, _ = rescale_to_delta(sample_set, 120.0)
        again, lam = rescale_to_delta(scaled, 120.0)
        assert lam == 1.0
        assert certify(again, 120.0).passed


class TestClosedFormRescale:
    @staticmethod
    def assert_largest_certified(ps, delta):
        _, lam = rescale_to_delta(ps, delta)
        assert certify(ps.scaled(lam), delta).passed
        if lam < 1.0:
            assert not certify(ps.scaled(lam * (1 + 1e-9)), delta).passed
        return lam

    @settings(max_examples=8, deadline=None)
    @given(factor=st.floats(0.25, 8.0), delta=st.sampled_from([40.0, 400.0]))
    def test_certifies_at_and_only_at_lambda(self, sample_set, factor, delta):
        self.assert_largest_certified(sample_set.scaled(factor), delta)

    def test_at_most_three_certificates(self, monkeypatch, sample_set):
        calls = []

        def counted(ps, delta):
            calls.append(delta)
            return certify(ps, delta)

        monkeypatch.setattr(potentials, "certify", counted)
        for delta in (40.0, 120.0, 400.0, 900.0):
            calls.clear()
            assert rescale_to_delta(sample_set, delta)[1] < 1.0
            assert len(calls) <= 3

    def test_without_magnetic_components(self, grid, sample_set):
        ps = PotentialSet(v=sample_set.v, a=(zero_field(grid),) * 3, delta_target=1.0)
        lam = self.assert_largest_certified(ps, 50.0)
        assert 0.0 < lam < 1.0

    def test_magnetic_square_binds(self, grid):
        # a tall a1 reaches delta first through its square (lambda a1)^2, so
        # the root comes from the branch quadratic in lambda
        a1 = gaussian_potential(grid, (1.0, 0.5, 0.0), 4.0, 30.0)
        ps = PotentialSet(v=zero_field(grid), a=(a1, zero_field(grid), zero_field(grid)),
                          delta_target=1.0)
        delta = 1e5
        lam = self.assert_largest_certified(ps, delta)
        entries = certify(ps.scaled(lam), delta).entries
        assert entries["a1^2"]["y_weighted"] == pytest.approx(delta, rel=1e-12)
        assert entries["a1"]["y_weighted"] < 0.9 * delta

    def test_nonpositive_delta_names_the_entry(self, sample_set):
        with pytest.raises(ValueError, match=r"V\.y "):
            rescale_to_delta(sample_set, 0.0)
