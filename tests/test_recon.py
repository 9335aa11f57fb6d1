import math
import warnings

import numpy as np
import pytest

from enclosure.errors import InsufficientTrustedSamples
from enclosure.forward import Geometry, Medium
from enclosure.indicator import IndicatorEngine, IndicatorSample, SweepConfig
from enclosure.mathkit import scaled
from enclosure.recon import (directions_axes26, directions_fibonacci,
                             estimate_support, reconstruct_hull,
                             synth_translated)

RHO = np.array([0.0, 0.0, 1.0])


def synthetic_sweep(fn, taus=np.linspace(10.0, 30.0, 11), rho=RHO):
    return [IndicatorSample(rho=rho, tau=float(t), t=0.0,
                            value=scaled(1.0, fn(float(t))),
                            trace_tail=0.0, trusted=True)
            for t in taus]


# ---------------------------------------------------------------------------
# sample selection (_trusted_points, behind estimate_support)


def test_classify_needs_enough_samples():
    sweep = synthetic_sweep(lambda tau: -tau, taus=[10.0, 12.0, 30.0])
    with pytest.raises(InsufficientTrustedSamples):
        estimate_support([sweep])


def test_classify_needs_tau_span():
    sweep = synthetic_sweep(lambda tau: -tau, taus=np.linspace(10, 15, 8))
    with pytest.raises(InsufficientTrustedSamples):
        estimate_support([sweep])


def test_classify_ignores_untrusted():
    sweep = synthetic_sweep(lambda tau: -2.0 * tau)
    for s in sweep[::2]:
        s.trusted = False
        s.value = s.value.scale_exp(100.0)    # would bend the fit if used
    [est] = estimate_support([sweep])
    assert est.n_points == 3
    assert abs(est.h_hat + 1.0) < 1e-12


# ---------------------------------------------------------------------------
# support estimation


def test_planted_slope_with_log_correction():
    sweep = synthetic_sweep(lambda tau: 2.0 * tau * 0.5 + 0.3 * math.log(tau) + 1.0)
    [est] = estimate_support([sweep])
    assert abs(est.h_hat - 0.5) < 0.01
    assert est.residual < 1e-10       # the model matches exactly


def test_planted_affine_recovered_exactly():
    sweep = synthetic_sweep(lambda tau: -1.2 * tau + 0.7)
    [est] = estimate_support([sweep])
    assert abs(est.h_hat + 0.6) < 1e-12
    assert est.residual < 1e-12


def test_estimate_support_pec_ball():
    cfg = SweepConfig(problem="pec", geometry=Geometry(0.5, 1.0), k=1.0, L=64)
    eng = IndicatorEngine(cfg)
    taus = np.linspace(15.0, 30.0, 8)
    for est in estimate_support(eng.sweep(directions_axes26()[:4], taus, [0.0])):
        assert abs(est.h_hat - 0.5) <= 0.05


def test_estimate_support_transmission_ball():
    cfg = SweepConfig(problem="transmission", geometry=Geometry(0.5, 1.0),
                      k=1.0, medium=Medium(0.5), L=64)
    eng = IndicatorEngine(cfg)
    taus = np.linspace(15.0, 30.0, 8)
    [est] = estimate_support(eng.sweep([RHO], taus, [0.0]))
    assert abs(est.h_hat - 0.5) <= 0.05


def test_monotone_refinement_of_fit_window():
    """Raising the tau ceiling must not worsen the estimate beyond its CI."""
    cfg = SweepConfig(problem="pec", geometry=Geometry(0.5, 1.0), k=1.0, L=64)
    eng = IndicatorEngine(cfg)
    taus_small = np.linspace(10.0, 24.0, 8)
    taus_big = np.linspace(10.0, 30.0, 11)
    [e1] = estimate_support(eng.sweep([RHO], taus_small, [0.0]))
    [e2] = estimate_support(eng.sweep([RHO], taus_big, [0.0]))
    ci1 = 0.5 * (e1.fit_slope_ci[1] - e1.fit_slope_ci[0])
    assert abs(e2.h_hat - 0.5) <= abs(e1.h_hat - 0.5) + max(ci1, 1e-4)


# ---------------------------------------------------------------------------
# one solve per shared tau window


def _mixed_windows():
    """Seven directions in four tau windows, the windows interleaved: the
    full grid, the grid less its top tau, the grid less its bottom tau,
    and a grid whose top window has exactly 3 points (no CI)."""
    rng = np.random.default_rng(7)
    grid, sparse = np.linspace(10.0, 30.0, 11), [10.0, 11.0, 12.0, 26.0, 28.0, 30.0]
    untrusted = [None, -1, 0, None, -1, None, None]
    directions = []
    for i, drop in enumerate(untrusted):
        rho = rng.standard_normal(3)
        h, b, c = rng.uniform(-1.0, 1.0, 3)
        wiggle = 0.01 * (i + 1)
        sweep = synthetic_sweep(
            lambda tau: 2.0 * h * tau + b * math.log(tau) + c + wiggle * math.sin(tau),
            taus=sparse if i == 5 else grid, rho=rho / np.linalg.norm(rho))
        if drop is not None:
            sweep[drop].trusted = False
        directions.append(sweep)
    return directions


def test_batched_fit_matches_one_direction_fits(monkeypatch):
    directions = _mixed_windows()
    singles = [estimate_support([d])[0] for d in directions]
    solves = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: solves.append(1) or lstsq(*a, **k))
    batched = estimate_support(directions)
    assert len(solves) == 4
    assert len(batched) == len(directions)
    for one, many, d in zip(singles, batched, directions):
        assert np.array_equal(many.rho, d[0].rho)
        assert many.h_hat == one.h_hat
        assert many.fit_slope_ci == one.fit_slope_ci
        assert many.residual == one.residual
        assert many.n_points == one.n_points
    assert batched[5].n_points == 3 and batched[5].fit_slope_ci[0] == batched[5].fit_slope_ci[1]


def test_batched_fit_raises_at_first_failing_direction():
    good = synthetic_sweep(lambda tau: -tau)
    narrow = synthetic_sweep(lambda tau: -tau, taus=np.linspace(10, 15, 8))
    sparse = synthetic_sweep(lambda tau: -tau, taus=[10.0, 12.0, 30.0])
    with pytest.raises(InsufficientTrustedSamples) as exc:
        estimate_support([good, narrow, good, sparse])
    assert str(exc.value) == "tau range must span a factor >= 2"
    with pytest.raises(InsufficientTrustedSamples) as exc:
        estimate_support([good, sparse, narrow])
    assert str(exc.value) == "need >= 5 trusted finite samples, have 3"


def test_batched_fit_warns_in_direction_order():
    # the 3-point window fits exactly and does not warn
    directions = [d for i, d in enumerate(_mixed_windows()) if i != 5]

    def messages(batches):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for batch in batches:
                estimate_support(batch, residual_bound=1e-6)
        return [str(w.message) for w in caught]

    batched = messages([directions])
    assert batched == messages([[d] for d in directions])
    assert len(set(batched)) == len(directions)
    assert all(m.startswith("non-monotone tail: fit residual ") for m in batched)


# ---------------------------------------------------------------------------
# translation synthesis


def test_synth_translated_identity_at_zero():
    sweep = synthetic_sweep(lambda tau: -tau)
    out = synth_translated(sweep, np.zeros(3))
    for a, b in zip(sweep, out):
        assert a.value.mantissa == b.value.mantissa
        assert a.value.exponent == b.value.exponent


def test_translation_equivariance_of_estimate():
    """estimate(synth_translated) = estimate + c . rho, exactly."""
    sweep = synthetic_sweep(lambda tau: 2.0 * 0.5 * tau + 0.2 * math.log(tau))
    c = np.array([0.3, -0.1, 0.25])
    shifted = synth_translated(sweep, c)
    [e0] = estimate_support([sweep])
    [e1] = estimate_support([shifted])
    assert abs(e1.h_hat - (e0.h_hat + c @ RHO)) < 1e-12


def test_translated_pipeline_recovers_shifted_support():
    cfg = SweepConfig(problem="pec", geometry=Geometry(0.5, 1.0), k=1.0, L=64)
    eng = IndicatorEngine(cfg)
    taus = np.linspace(15.0, 30.0, 8)
    c = np.array([0.2, 0.0, 0.0])
    for rho in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]):
        rho = np.asarray(rho)
        sweep = synth_translated(eng.sweep([rho], taus, [0.0])[0], c)
        [est] = estimate_support([sweep])
        want = 0.5 + float(c @ rho)
        assert abs(est.h_hat - want) <= 0.06


# ---------------------------------------------------------------------------
# hull assembly


def test_reconstruct_hull_from_exact_ball_support():
    dirs = directions_fibonacci(50)
    from enclosure.recon import SupportEstimate
    ests = [SupportEstimate(rho=d, h_hat=1.0, fit_slope_ci=(2.0, 2.0),
                            n_points=8, residual=0.0) for d in dirs]
    mesh, report = reconstruct_hull(ests, truth_support=lambda rho: 1.0)
    ball_volume = 4.0 * math.pi / 3.0
    assert abs(mesh.volume - ball_volume) < 0.10 * ball_volume
    assert report["sup_support_error"] == 0.0


def test_hull_contains_shrunk_truth_ball():
    """The true ball shrunk by the tolerance margin lies inside the hull."""
    cfg = SweepConfig(problem="pec", geometry=Geometry(0.5, 1.0), k=1.0, L=64)
    eng = IndicatorEngine(cfg)
    taus = np.linspace(15.0, 30.0, 8)
    ests = estimate_support(eng.sweep(directions_axes26(), taus, [0.0]))
    mesh, report = reconstruct_hull(ests, truth_support=lambda rho: 0.5)
    margin = report["sup_support_error"]
    probes = directions_fibonacci(200)
    support_vals = np.array([mesh.support(u) for u in probes])
    assert np.all(support_vals >= 0.5 - margin - 1e-12)


def test_hull_centroid_tracks_translation():
    from enclosure.recon import SupportEstimate
    c = np.array([0.2, 0.0, 0.0])
    dirs = directions_axes26()
    ests = [SupportEstimate(rho=d, h_hat=0.5 + float(c @ d),
                            fit_slope_ci=(1.0, 1.0), n_points=8,
                            residual=0.0) for d in dirs]
    mesh, report = reconstruct_hull(ests)
    assert np.max(np.abs(mesh.centroid() - c)) < 0.05


# ---------------------------------------------------------------------------
# direction sets


def test_axes26_properties():
    dirs = directions_axes26()
    assert dirs.shape == (26, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    assert len(np.unique(np.round(dirs, 12), axis=0)) == 26


def test_fibonacci_coverage():
    dirs = directions_fibonacci(100)
    assert dirs.shape == (100, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # crude uniformity: every octant populated
    signs = set(map(tuple, np.sign(dirs).astype(int)))
    assert len(signs) == 8
    # deterministic
    assert np.array_equal(dirs, directions_fibonacci(100))
