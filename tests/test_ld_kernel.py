"""The fixed-step Langevin baseline: the "ld" kernel of the annealing engine."""

import numpy as np
import pytest

from rlsa import (
    EnergyModel,
    SamplerConfig,
    flip_probabilities,
    generate_er,
    ld_flip_probabilities,
    run_rlsa,
)

from oracles import single_edge


def ld_cfg(**overrides):
    return SamplerConfig(kernel="ld", **overrides)


def test_ld_flip_probability_at_zero_drop():
    p = ld_flip_probabilities(np.array([0.0]), alpha=0.1, tau=1.0)
    assert p[0] == pytest.approx(0.006692850924284856, rel=1e-9)


def test_ld_flip_probability_cancellation():
    # delta = tau / alpha makes the argument vanish
    p = ld_flip_probabilities(np.array([0.5]), alpha=0.1, tau=0.05)
    assert p[0] == pytest.approx(0.5, abs=1e-12)


def test_ld_negative_drop_vanishes_at_low_temperature():
    p = ld_flip_probabilities(np.array([-0.5]), alpha=0.1, tau=1e-9)
    assert p[0] == 0.0


def test_ld_flip_validation():
    with pytest.raises(ValueError):
        ld_flip_probabilities(np.zeros(2), alpha=0.0, tau=0.1)
    with pytest.raises(ValueError):
        ld_flip_probabilities(np.zeros(2), alpha=0.1, tau=0.0)


def test_ld_equals_regularized_rule_under_substitution():
    # 1/alpha = (dth - eps)/tau turns the fixed-step rule into the
    # regularized one
    rng = np.random.default_rng(0)
    for _ in range(50):
        delta = rng.uniform(-3, 3, 40)
        tau = float(rng.uniform(0.01, 2.0))
        eps = float(rng.uniform(0, 1e-3))
        dth = float(rng.uniform(eps + 0.05, 2.0))
        alpha = tau / (dth - eps)
        a = ld_flip_probabilities(delta, alpha, tau)
        b = flip_probabilities(delta, dth, eps, tau)
        assert np.abs(a - b).max() < 1e-12
        # at threshold tau / alpha with epsilon = 0 the two rules agree bit for bit
        assert np.array_equal(ld_flip_probabilities(delta, alpha, tau),
                              flip_probabilities(delta, tau / alpha, 0.0, tau))


def test_ld_flip_monotone_in_alpha():
    delta = np.linspace(-2, 2, 21)
    p_small = ld_flip_probabilities(delta, alpha=0.01, tau=0.5)
    p_large = ld_flip_probabilities(delta, alpha=0.1, tau=0.5)
    assert (p_large > p_small).all()


def test_ld_config_validation():
    with pytest.raises(ValueError):
        ld_cfg(alpha=0.0, tau0=0.1, steps=10, chains=2)
    with pytest.raises(ValueError):
        ld_cfg(alpha=0.1, tau0=-1, steps=10, chains=2)
    with pytest.raises(ValueError):
        ld_cfg(alpha=0.1, tau0=0.1, steps=0, chains=2)
    with pytest.raises(ValueError):
        ld_cfg(alpha=float("nan"), tau0=0.1, steps=10, chains=2)
    with pytest.raises(ValueError, match="requires alpha"):
        ld_cfg(tau0=0.1, steps=10, chains=2)
    with pytest.raises(ValueError, match="does not take d"):
        ld_cfg(alpha=0.1, d=2, tau0=0.1, steps=10, chains=2)


def test_run_ld_rejects_bad_worker_count():
    m = EnergyModel("mcut", single_edge())
    cfg = ld_cfg(alpha=0.1, tau0=0.01, steps=5, chains=2)
    for workers in (0, 2.0, False):
        with pytest.raises(ValueError, match="workers"):
            run_rlsa(m, cfg, workers=workers)


def test_run_ld_single_edge_maxcut():
    m = EnergyModel("mcut", single_edge())
    res = run_rlsa(m, ld_cfg(alpha=0.1, tau0=0.01, steps=50, chains=4, seed=1))
    assert res.objective == 1


def test_run_ld_deterministic_and_worker_independent():
    g = generate_er(30, 0.2, seed=2)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = ld_cfg(alpha=0.01, tau0=0.01, steps=60, chains=8, seed=5)
    r1 = run_rlsa(m, cfg)
    r2 = run_rlsa(m, cfg, workers=4)
    assert np.array_equal(r1.best_x, r2.best_x)
    assert np.array_equal(r1.trajectory.mean_energy, r2.trajectory.mean_energy)
    assert len(r1.trajectory) == 60
    assert r1.trajectory.tau[0] == cfg.tau0
