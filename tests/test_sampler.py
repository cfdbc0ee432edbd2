import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, softmax

from rlsa import (
    EnergyModel,
    SamplerConfig,
    chain_rng,
    flip_probabilities,
    from_edge_list,
    generate_ba,
    generate_er,
    greedy_decode,
    kth_largest,
    normalized_flip_probabilities,
    run_rlsa,
)
import rlsa.sampler as sampler
from rlsa.sampler import KERNELS, _run_chain_block, linear_temperature

from oracles import CountingMatrix, reference_chain, single_edge, triangle


def small_cfg(**overrides):
    params = dict(tau0=0.01, d=2, steps=100, chains=8, seed=3)
    params.update(overrides)
    return SamplerConfig(**params)


def schedule(cfg):
    """The temperature schedule that run_rlsa passes to every block."""
    return np.array([linear_temperature(t, cfg.tau0, cfg.steps) for t in range(1, cfg.steps + 1)])


def run_block(model, cfg, chain_ids, init=None):
    return _run_chain_block(model, cfg, chain_ids, init, schedule(cfg))


def one_engine_step(model, cfg, chain_id, init=None):
    """One engine step on a block of one chain at tau = cfg.tau0.

    Returns (state before, state after, block outputs); the states are the
    rows the engine passes to ``model.energy``.
    """
    states = []
    energy = model.energy

    def recording(X):
        states.append(np.array(X[0], copy=True))
        return energy(X)

    model.energy = recording
    try:
        out = run_block(model, replace(cfg, steps=1), [chain_id], init)
    finally:
        del model.energy
    before, after = states
    return before, after, out


# -- temperature schedule ------------------------------------------------------

def test_temperature_schedule_endpoints():
    assert linear_temperature(1, 0.5, 10) == 0.5
    assert linear_temperature(10, 0.5, 10) == pytest.approx(0.05)


def test_temperature_midpoint():
    assert linear_temperature(251, 0.01, 500) == pytest.approx(0.005)


def test_temperature_rejects_out_of_range_steps():
    with pytest.raises(ValueError):
        linear_temperature(0, 0.01, 10)
    with pytest.raises(ValueError):
        linear_temperature(11, 0.01, 10)


def test_temperature_stays_positive():
    taus = [linear_temperature(t, 0.01, 500) for t in range(1, 501)]
    assert min(taus) > 0
    assert min(taus) == pytest.approx(0.01 / 500)


# -- order statistic -----------------------------------------------------------

def test_kth_largest_small_cases():
    assert kth_largest([3, 1, 2], 2) == 2
    assert kth_largest([2, 2, 1], 2) == 2
    assert kth_largest([5], 1) == 5


def test_kth_largest_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        v = rng.normal(size=n)
        d = int(rng.integers(1, n + 1))
        assert kth_largest(v, d) == np.sort(v)[::-1][d - 1]
        # along the last axis: one value per row of a batch
        V = rng.normal(size=(3, n))
        assert np.array_equal(kth_largest(V, d), np.sort(V, axis=1)[:, n - d])


def test_kth_largest_rejects_bad_rank():
    with pytest.raises(ValueError):
        kth_largest([1, 2, 3], 0)
    with pytest.raises(ValueError):
        kth_largest([1, 2, 3], 4)


# -- flip probabilities ----------------------------------------------------------

def test_flip_probability_at_threshold_is_half():
    assert flip_probabilities(np.array([1.5]), 1.5, 0.0, 0.3)[0] == 0.5


def test_flip_probability_values():
    # unit drop below the threshold at tau = 0.01: sigmoid(-50)
    p = flip_probabilities(np.array([0.0]), 1.0, 0.0, 0.01)
    assert p[0] == pytest.approx(1.928749847963918e-22, rel=1e-9)
    # epsilon nudges the threshold case just above one half
    p = flip_probabilities(np.array([1.0]), 1.0, 1e-6, 0.01)
    assert p[0] == pytest.approx(0.5000125, abs=1e-7)


def test_flip_probabilities_validation():
    with pytest.raises(ValueError):
        flip_probabilities(np.zeros(3), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        flip_probabilities(np.zeros(3), 0.0, -1e-9, 0.1)


def test_flip_probabilities_monotone_and_bounded():
    rng = np.random.default_rng(1)
    delta = np.sort(rng.uniform(-3, 3, 50))
    p = flip_probabilities(delta, 0.5, 1e-6, 0.2)
    assert ((p > 0) & (p < 1)).all()
    assert (np.diff(p) > 0).all()
    # and strictly decreasing in the threshold
    p_hi = flip_probabilities(delta, 1.0, 1e-6, 0.2)
    assert (p_hi < p).all()


def test_indicator_limit_flips_exactly_top_d():
    rng = np.random.default_rng(2)
    for d in (1, 5, 20):
        delta = rng.uniform(-5, 5, 64)
        p = flip_probabilities(delta, kth_largest(delta, d), 1e-6, 1e-8)
        assert int((p > 0.5).sum()) == d


# -- normalized kernel -----------------------------------------------------------

def test_normalized_kernel_uniform_scores():
    p = normalized_flip_probabilities(np.zeros(10), 0.3, 2)
    assert np.allclose(p, 0.2, atol=1e-12)


def test_normalized_kernel_sums_to_d_without_clamping():
    rng = np.random.default_rng(3)
    delta = rng.uniform(-0.5, 0.5, 30)
    p = normalized_flip_probabilities(delta, 0.5, 3)
    assert p.sum() == pytest.approx(3.0, abs=1e-9)
    assert (p < 1).all()
    # rows of a batch are normalized independently
    P = normalized_flip_probabilities(np.stack([delta, -delta]), 0.5, 3)
    assert np.allclose(P.sum(axis=1), 3.0, atol=1e-9)


def test_normalized_kernel_clamps_dominant_coordinate():
    delta = np.zeros(6)
    delta[0] = 80.0  # sigmoid ~ 1 vs sigmoid(0) = 0.5 elsewhere
    p = normalized_flip_probabilities(delta, 0.5, 5)
    raw = 5 * 1.0 / (1.0 + 5 * 0.5)
    assert raw > 1
    assert p[0] == 1.0
    assert np.allclose(p[1:], 5 * 0.5 / 3.5, atol=1e-9)


def test_normalized_kernel_takes_the_softmax_limit_when_every_sigmoid_underflows():
    # every expit(delta / (2 tau)) of these rows is 0: the rows used to be NaN
    tau, d = 0.5, 2
    dead = np.array([[-5000.0, -6000, -7000, -8000], [-5000.0, -5000.5, -5001, -7000]])
    live = np.array([-0.3, 0.2, -1.0, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = normalized_flip_probabilities(np.vstack([dead, live]), tau, d)
        single = normalized_flip_probabilities(dead[0], tau, d)
    assert np.array_equal(P[0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(single, P[0])
    assert np.allclose(P[1], np.clip(d * softmax(dead[1] / (2 * tau)), 0, 1), rtol=1e-12)
    assert 0 < P[1, 1] < 1
    # rows with a positive sigmoid sum keep the plain rescaling, bit for bit
    sig = expit(live / (2 * tau))
    assert np.array_equal(P[2], np.clip(d * sig / sig.sum(), 0.0, 1.0))


def test_normalized_kernel_rejects_bad_d():
    with pytest.raises(ValueError):
        normalized_flip_probabilities(np.zeros(4), 0.5, 5)
    with pytest.raises(ValueError):
        normalized_flip_probabilities(np.zeros(4), 0.0, 2)


def test_normalized_kernel_matches_engine_form():
    # the kernel on Delta equals the score form: delta/(2 tau) = s_i (1 - 2 x_i) / 2
    rng = np.random.default_rng(4)
    g = generate_er(12, 0.4, seed=4)
    m = EnergyModel("mis", g, beta=1.02)
    x = rng.integers(0, 2, 12).astype(np.int8)
    tau = 0.7
    score = -m.gradient(x) / tau
    sig = expit(0.5 * score * (1.0 - 2.0 * x))
    score_p = np.clip(3 * sig / sig.sum(), 0.0, 1.0)
    assert np.allclose(normalized_flip_probabilities(m.delta(x), tau, 3), score_p, atol=1e-12)


# -- sparse flip masks -----------------------------------------------------------

ULP = 2.0 ** -53  # spacing of Generator.random's outputs


def test_uniforms_are_multiples_of_2_to_the_minus_53():
    # the premise of the sparse masks: a nonzero U is at least 2**-53, and
    # expit(z) is below that for every z <= -37
    buf = np.empty(4096)
    for c in range(4):
        chain_rng(c, 7).random(out=buf)
        scaled = buf * 2.0 ** 53  # exact: a power-of-two scaling
        assert np.array_equal(scaled, np.floor(scaled))
        assert ((buf >= 0) & (buf < 1)).all()
    assert expit(-37.0) < ULP <= expit(-36.0)
    z = np.linspace(-745.0, -37.0, 10001)
    assert (expit(z) < ULP).all()


def _recording_rules(monkeypatch):
    """Sizes of the Delta arrays that the regularized and ld rules pass to
    ``flip_probabilities``, their one sigmoid, in call order."""
    sizes = []
    fn = sampler.flip_probabilities
    monkeypatch.setattr(sampler, "flip_probabilities",
                        lambda delta, *a: sizes.append(np.size(delta)) or fn(delta, *a))
    return sizes


def _dense_mask(cfg, D, tau, U):
    if cfg.kernel == "regularized":
        return U < flip_probabilities(D, kth_largest(D, cfg.d)[:, None], cfg.epsilon, tau)
    return U < expit((D - tau / cfg.alpha) / (2.0 * tau))


def _threshold(cfg, tau):
    """The rule's a in z = (Delta - a) / (2 tau); _hand_built puts the d-th
    largest Delta at 5.0."""
    return 5.0 - cfg.epsilon if cfg.kernel == "regularized" else tau / cfg.alpha


def _hand_built(kernel, live_share, rng, tau=0.5, shape=(12, 64)):
    """(cfg, Delta, tau, U), each sigmoid argument z = (Delta - a) / (2 tau)
    placed around the cutoffs: z near -40 and -37, far in the tail, and at
    -745 and beyond, where expit underflows to 0. Row 0 is dead but for the
    regularized rule's top d, row 1 all live; about ``live_share`` of the
    other entries are live. U holds zeros, the smallest uniforms and plain
    draws."""
    k, n = shape
    if kernel == "regularized":
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=k, d=2)
    else:
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=k, kernel="ld", alpha=0.05)
    a = _threshold(cfg, tau)
    live_z = np.array([-40.0 + 1e-9, -39.0, -37.0 - 1e-9, -37.0, -36.5, -35.0, -30.0, -5.0, 0.0])
    dead_z = np.array([-40.0, -40.0 - 1e-9, -41.0, -100.0, -700.0, -744.0, -800.0, -1e6])
    z = np.where(rng.random(shape) < live_share, rng.choice(live_z, shape), rng.choice(dead_z, shape))
    z[0] = rng.choice(dead_z, n)
    z[1] = rng.choice(live_z, n)
    D = a + 2.0 * tau * z
    if kernel == "regularized":
        D[:, :cfg.d] = 5.0
    U = rng.random(shape)
    pick = rng.random(shape)
    U[pick < 0.1] = ULP * rng.integers(1, 9, shape)[pick < 0.1]
    U[pick < 0.03] = 0.0
    U[1, ::4] = ULP
    return cfg, D, tau, U


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
@pytest.mark.parametrize("live_share, path", [(0.02, "sparse"), (0.1, "sparse"), (0.6, "dense")])
def test_sparse_flip_mask_equals_the_dense_mask(kernel, live_share, path, monkeypatch):
    rng = np.random.default_rng(17)
    calls = _recording_rules(monkeypatch)
    for _ in range(20):
        cfg, D, tau, U = _hand_built(kernel, live_share, rng)
        got = KERNELS[kernel][1](cfg, D, tau, U)
        assert got.dtype == bool and got.shape == D.shape
        assert np.array_equal(got, _dense_mask(cfg, D, tau, U))
        # the hand-built entries that the zero and the smallest uniforms flip
        assert got[U == 0].any() and got[(U > 0) & (U <= 8 * ULP)].any()
    # the rule's calls; the reference calls flip_probabilities directly
    assert len(calls) == 20
    if path == "sparse":
        assert all(c < D.size for c in calls)
    else:
        assert all(c == D.size for c in calls)


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_sparse_flip_mask_on_all_dead_and_all_live_matrices(kernel):
    rng = np.random.default_rng(18)
    cfg, D, tau, U = _hand_built(kernel, 0.0, rng)
    dead, live = D.copy(), D.copy()
    dead[1:] = D[0]  # every row dead but for the regularized rule's top d
    dead[:, 5] = _threshold(cfg, tau) + 2.0 * tau * -100.0
    live[:] = D[1]  # every row live: the dense mask
    U[:, 5] = 0.0
    for M in (dead, live):
        got = KERNELS[kernel][1](cfg, M, tau, U)
        assert np.array_equal(got, _dense_mask(cfg, M, tau, U))
    assert KERNELS[kernel][1](cfg, dead, tau, U)[:, 5].all()  # U == 0 beats P ~ 1e-44


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_sparse_flip_mask_stays_exact_when_tau_underflows_the_cutoff(kernel, monkeypatch):
    # tau so small that a - 80 tau rounds back to the threshold a: an entry
    # equal to a has z = 0 yet fails the live test, so the dense mask is used
    tau = 1e-20
    if kernel == "regularized":
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=3, d=1)
    else:
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=3, kernel="ld", alpha=1e-19)
    a = _threshold(cfg, tau)
    assert a + 2.0 * tau * sampler._LIVE_Z == a
    D = np.full((3, 16), a - 1.0)
    D[:, -4:] = a
    if kernel == "regularized":
        D[:, 0] = 5.0
    U = np.full(D.shape, 0.25)
    sizes = _recording_rules(monkeypatch)
    got = KERNELS[kernel][1](cfg, D, tau, U)
    assert got[:, -4:].all()  # P = 1/2 there
    assert np.array_equal(got, _dense_mask(cfg, D, tau, U))
    assert sizes == [D.size]


# -- config validation -----------------------------------------------------------

def test_sampler_config_validation():
    with pytest.raises(ValueError):
        small_cfg(tau0=0.0)
    with pytest.raises(ValueError):
        small_cfg(d=0)
    with pytest.raises(ValueError):
        small_cfg(d=2.5)
    with pytest.raises(ValueError):
        small_cfg(steps=0)
    with pytest.raises(ValueError):
        small_cfg(chains=0)
    with pytest.raises(ValueError):
        small_cfg(epsilon=-1e-9)
    with pytest.raises(ValueError):
        small_cfg(seed=-1)
    with pytest.raises(ValueError):
        small_cfg(kernel="cauchy")
    # of d and alpha, exactly the one the kernel takes is set
    with pytest.raises(ValueError, match="requires d"):
        small_cfg(d=None)
    with pytest.raises(ValueError, match="does not take alpha"):
        small_cfg(alpha=0.1)
    with pytest.raises(ValueError, match="does not take alpha"):
        small_cfg(kernel="normalized", alpha=0.1)
    with pytest.raises(ValueError, match="does not take d"):
        small_cfg(kernel="ld", alpha=0.1)
    with pytest.raises(TypeError):
        SamplerConfig(0.01, 100, 8, 2)  # keyword-only: no silent field shifts


def test_kernel_table_names_the_fields_each_rule_takes():
    assert {name: params for name, (params, _) in KERNELS.items()} == {
        "regularized": ("d", "epsilon"),
        "normalized": ("d",),
        "ld": ("alpha",),
    }


@pytest.mark.parametrize("bad", [
    dict(tau0=float("nan")), dict(tau0=float("inf")), dict(epsilon=float("nan")),
    dict(steps=2.5), dict(chains=2.5), dict(seed=True), dict(d=True),
])
def test_sampler_config_rejects_non_finite_and_non_integer(bad):
    with pytest.raises(ValueError):
        small_cfg(**bad)


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_run_rlsa_rejects_bad_worker_count(workers):
    m = EnergyModel("mis", triangle(), beta=1.02)
    with pytest.raises(ValueError, match="workers"):
        run_rlsa(m, small_cfg(), workers=workers)


# -- single chain step -----------------------------------------------------------

def test_rlsa_step_is_pure_and_repeatable():
    g = generate_er(20, 0.3, seed=5)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=3)
    x0 = chain_rng(cfg.seed, 0).integers(0, 2, size=20)
    before1, after1, out1 = one_engine_step(m, cfg, 0)
    before2, after2, out2 = one_engine_step(m, cfg, 0)
    assert np.array_equal(before1, x0) and np.array_equal(before2, x0)
    assert np.array_equal(after1, after2)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)
    assert out1[2][0, 0] == m.energy(after1)
    init = x0.astype(np.int8)
    one_engine_step(m, cfg, 0, init)
    assert np.array_equal(init, x0)  # input untouched


def test_rlsa_step_best_tracking_monotone():
    g = generate_er(16, 0.4, seed=6)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=2, steps=50)
    best_X, best_E, energy_traj, best_traj, _ = run_block(m, cfg, [1])
    energies, bests = energy_traj[:, 0], best_traj[:, 0]
    assert len(bests) == cfg.steps + 1
    assert bests[0] == m.energy(chain_rng(cfg.seed, 1).integers(0, 2, size=16))
    assert (np.diff(bests) <= 0).all()
    assert np.array_equal(bests[1:], np.minimum(bests[:-1], energies))
    assert best_E[0] == bests[-1] == m.energy(best_X[0])


def test_rlsa_step_flips_exactly_top_d_at_tiny_tau():
    g = generate_er(24, 0.3, seed=7)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=4, tau0=1e-8)
    x0 = chain_rng(cfg.seed, 2).integers(0, 2, size=24)
    delta = m.delta(x0)
    ranked = np.sort(delta)[::-1]
    assert ranked[3] > ranked[4]  # strict gap at rank d: the top d are well defined
    top_d = np.argsort(delta)[::-1][:4]
    before, after, _ = one_engine_step(m, cfg, 2)
    assert np.array_equal(before, x0)
    flipped = np.flatnonzero(after != before)
    assert set(flipped.tolist()) == set(top_d.tolist())


# -- full runs --------------------------------------------------------------------

def test_run_rlsa_finds_triangle_optimum():
    m = EnergyModel("mis", triangle(), beta=1.02)
    res = run_rlsa(m, small_cfg())
    assert res.best_energy == -1.0
    assert res.objective == 1
    assert len(res.trajectory) == 100


def test_run_rlsa_single_edge_maxcut():
    m = EnergyModel("mcut", single_edge())
    res = run_rlsa(m, small_cfg(d=1, chains=4, steps=30))
    assert res.objective == 1
    assert res.best_energy == -1.0


def test_run_rlsa_deterministic():
    g = generate_er(30, 0.2, seed=8)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=3, steps=60)
    r1 = run_rlsa(m, cfg)
    r2 = run_rlsa(m, cfg)
    assert np.array_equal(r1.best_x, r2.best_x)
    assert r1.best_energy == r2.best_energy
    assert np.array_equal(r1.trajectory.best_energy, r2.trajectory.best_energy)
    assert np.array_equal(r1.trajectory.mean_energy, r2.trajectory.mean_energy)
    r3 = run_rlsa(m, small_cfg(d=3, steps=60, seed=4))
    assert not np.array_equal(r1.trajectory.mean_energy, r3.trajectory.mean_energy)


def test_worker_count_does_not_change_results():
    g = generate_er(40, 0.15, seed=9)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=3, steps=40, chains=10)
    r1 = run_rlsa(m, cfg, workers=1)
    r4 = run_rlsa(m, cfg, workers=4)
    assert np.array_equal(r1.best_x, r4.best_x)
    assert r1.best_energy == r4.best_energy
    assert np.array_equal(r1.trajectory.best_energy, r4.trajectory.best_energy)
    assert np.array_equal(r1.trajectory.mean_energy, r4.trajectory.mean_energy)
    assert np.array_equal(r1.trajectory.mean_flips, r4.trajectory.mean_flips)
    assert np.array_equal(r1.trajectory.improved, r4.trajectory.improved)


def test_chains_are_independent_of_grouping():
    g = generate_er(25, 0.3, seed=10)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=2, steps=30, chains=5)
    joint = run_block(m, cfg, list(range(5)))
    for k in range(5):
        alone = run_block(m, cfg, [k])
        assert np.array_equal(joint[0][k], alone[0][0])
        assert joint[1][k] == alone[1][0]
        assert np.array_equal(joint[2][:, k], alone[2][:, 0])
        assert np.array_equal(joint[3][:, k], alone[3][:, 0])
        assert np.array_equal(joint[4][:, k], alone[4][:, 0])


def _oracle_models():
    rng = np.random.default_rng(11)
    yield EnergyModel("mis", generate_er(18, 0.3, seed=11), beta=1.02)
    yield EnergyModel("mcl", generate_er(14, 0.6, seed=12), beta=1.02)
    yield EnergyModel("mcut", generate_ba(20, 2, seed=13))
    g = generate_er(16, 0.3, seed=14)
    yield EnergyModel("qubo", g, linear=rng.normal(size=16), quad_scale=0.7,
                      edge_weights=rng.normal(size=g.num_edges))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_engine_matches_reference_chain(kernel):
    # every chain of a jointly run block equals the plain single-vector loop
    rate = dict(alpha=0.05) if kernel == "ld" else dict(d=3)
    for m in _oracle_models():
        tau0 = 0.5 if m.kind in ("mcut", "qubo") else 0.05
        cfg = SamplerConfig(tau0=tau0, steps=25, chains=5, seed=13, kernel=kernel, **rate)
        best_X, best_E, energy_traj, best_traj, flips_traj = run_block(m, cfg, range(5))
        for k in range(5):
            x, e, energies, bests, flips = reference_chain(m, cfg, k)
            assert np.array_equal(best_X[k], x), (m.kind, k)
            assert best_E[k] == e
            assert np.array_equal(energy_traj[:, k], energies)
            assert np.array_equal(best_traj[1:, k], bests)
            assert np.array_equal(flips_traj[:, k], flips)


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_engine_matches_reference_chain_on_the_sparse_path(kernel, monkeypatch):
    # at a small tau0 most sigmoid arguments are far below -40, so the rules
    # take their sparse masks (the small integer-Delta models, whose Deltas
    # tie, often stay dense), and every chain still equals the plain loop
    calls = _recording_rules(monkeypatch)
    rate = dict(alpha=0.05) if kernel == "ld" else dict(d=3)
    paths = {"sparse": 0, "dense": 0}
    for m in _oracle_models():
        cfg = SamplerConfig(tau0=1e-3, steps=25, chains=5, seed=13, kernel=kernel, **rate)
        best_X, best_E, energy_traj, best_traj, flips_traj = run_block(m, cfg, range(5))
        for k in range(5):
            x, e, energies, bests, flips = reference_chain(m, cfg, k)
            assert np.array_equal(best_X[k], x), (m.kind, k)
            assert best_E[k] == e
            assert np.array_equal(energy_traj[:, k], energies)
            assert np.array_equal(best_traj[1:, k], bests)
            assert np.array_equal(flips_traj[:, k], flips)
        assert len(calls) == cfg.steps
        for c in calls:
            paths["sparse" if c < 5 * m.num_nodes else "dense"] += 1
        calls.clear()
    assert paths["sparse"] >= 20 and paths["dense"] >= 20, paths


def test_engine_makes_one_sparse_product_per_step():
    # Per block: the initial energy, then one product per step, because the
    # next step's delta(X_t) reuses the product that energy(X_t) computed.
    # Decode takes one more, and the final energy one unless decode changed
    # nothing.
    cfg = small_cfg(steps=30, chains=6)
    for workers in (1, 2):
        m = EnergyModel("mis", generate_er(25, 0.2, seed=15), beta=1.02)
        m._A = counter = CountingMatrix(m._A)
        res = run_rlsa(m, cfg, workers=workers)
        assert counter.total == workers * (cfg.steps + 1) + 1 + (res.decode_flips > 0)


def test_trajectory_best_energy_non_increasing():
    g = generate_er(30, 0.25, seed=12)
    m = EnergyModel("mis", g, beta=1.02)
    res = run_rlsa(m, small_cfg(d=3, steps=80))
    best = res.trajectory.best_energy
    assert (np.diff(best) <= 0).all()
    # extending the run can only improve on any prefix value
    assert best[-1] <= best[len(best) // 2]
    # the decoded result is at least as good as the raw sampling best
    assert res.best_energy <= best[-1] + 1e-12


def test_common_init_is_used_by_all_chains():
    g = generate_er(20, 0.3, seed=13)
    m = EnergyModel("mis", g, beta=1.02)
    x0 = np.zeros(20, dtype=np.int8)
    cfg = small_cfg(d=2, steps=1, chains=4)
    res = run_rlsa(m, cfg, init=x0)
    assert res.best_energy <= m.energy(x0)
    with pytest.raises(ValueError):
        run_rlsa(m, cfg, init=np.zeros(19, dtype=np.int8))


@pytest.mark.parametrize("rows", [1, 2])
def test_init_must_be_one_solution(rows):
    # a batch of starting solutions is refused before any chain runs, even
    # one whose single row would be a valid init
    m = EnergyModel("mis", generate_er(30, 0.2, seed=14), beta=1.02)
    m._A = counter = CountingMatrix(m._A)
    cfg = small_cfg(steps=5, chains=8)
    with pytest.raises(ValueError, match=r"init must be one solution of shape \(30,\)"):
        run_rlsa(m, cfg, init=np.zeros((rows, 30), dtype=np.int8), workers=2)
    assert counter.total == 0


def test_normalized_kernel_run_smoke():
    m = EnergyModel("mis", triangle(), beta=1.02)
    res = run_rlsa(m, small_cfg(kernel="normalized", steps=200))
    assert res.objective == 1


def test_run_rlsa_rejects_d_above_n():
    m = EnergyModel("mis", triangle(), beta=1.02)
    with pytest.raises(ValueError, match="exceeds"):
        run_rlsa(m, small_cfg(d=5))


def test_run_rlsa_empty_graph():
    m = EnergyModel("mis", from_edge_list(0, []), beta=1.02)
    res = run_rlsa(m, small_cfg())
    assert res.best_x.shape == (0,)
    assert res.best_energy == 0.0
    assert res.objective == 0
    assert len(res.trajectory) == 0
    assert res.trajectory.mean_flips.shape == (0,)
    assert res.trajectory.improved.shape == (0,)
    assert res.decode_flips == 0 and res.decode_gain == 0.0


def test_mean_flips_averages_the_flip_mask_over_all_chains():
    # blocks of 3 and 2 chains combine by chain count, not by block
    g = generate_er(30, 0.2, seed=15)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=3, steps=20, chains=5)
    res = run_rlsa(m, cfg, workers=2)
    flips = np.column_stack([reference_chain(m, cfg, k)[4] for k in range(5)])
    assert np.array_equal(res.trajectory.mean_flips, flips.mean(axis=1))


def test_improved_counts_the_chains_whose_best_improved():
    # oracle per chain: its best before each step is the previous step's
    # best, or the energy of its initial state
    g = generate_er(30, 0.2, seed=17)
    m = EnergyModel("mis", g, beta=1.02)
    cfg = small_cfg(d=3, tau0=0.5, steps=30, chains=5)
    better = []
    for k in range(cfg.chains):
        e0 = m.energy(chain_rng(cfg.seed, k).integers(0, 2, size=30))
        bests = reference_chain(m, cfg, k)[3]
        better.append(bests < np.concatenate(([e0], bests[:-1])))
    better = np.column_stack(better).sum(axis=1)
    assert better.sum() > cfg.chains  # the oracle is not vacuous
    for workers in (1, 2, 3):  # blocks of 5; 3 and 2; 2, 2 and 1 chains
        improved = run_rlsa(m, cfg, workers=workers).trajectory.improved
        assert np.array_equal(improved, better)
        assert improved.dtype == np.int64


def test_mean_flips_tends_to_d_at_tiny_tau():
    # At tau -> 0 the regularized rule flips exactly the coordinates whose
    # Delta reaches the d-th largest: d of them when Delta has no ties
    # (continuous qubo weights), at least d when integer Deltas tie at rank d.
    rng = np.random.default_rng(16)
    g = generate_er(60, 0.1, seed=16)
    qubo = EnergyModel("qubo", g, linear=rng.normal(size=60), quad_scale=0.7,
                       edge_weights=rng.normal(size=g.num_edges))
    res = run_rlsa(qubo, small_cfg(d=5, tau0=1e-8, steps=60, chains=16))
    assert np.array_equal(res.trajectory.mean_flips[-30:], np.full(30, 5.0))
    mis = EnergyModel("mis", g, beta=1.02)
    res = run_rlsa(mis, small_cfg(d=5, tau0=1e-8, steps=60, chains=16))
    assert (res.trajectory.mean_flips >= 5.0).all()


def test_run_result_reports_what_decode_changed(monkeypatch):
    import rlsa.sampler as sampler

    seen = []

    def recording_decode(model, x):
        seen.append(np.array(x, copy=True))
        return greedy_decode(model, x)

    monkeypatch.setattr(sampler, "greedy_decode", recording_decode)
    m = EnergyModel("mis", generate_er(60, 0.2, seed=8), beta=1.02)
    res = run_rlsa(m, small_cfg(d=5, steps=2, chains=2))
    (sampled,) = seen
    assert res.decode_flips == int((sampled != res.best_x).sum()) > 0
    assert res.decode_gain == res.trajectory.best_energy[-1] - res.best_energy
    assert res.decode_gain == pytest.approx(m.energy(sampled) - res.best_energy, abs=1e-12)
    assert res.decode_gain > 0
