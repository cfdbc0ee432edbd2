import hashlib
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import expit, softmax

from rlsa import (
    EnergyModel,
    SamplerConfig,
    Trajectory,
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
from rlsa.sampler import KERNELS, _mean_energy, _run_chain_block, linear_temperature

from oracles import CountingMatrix, reference_chain, single_edge, triangle


def small_cfg(**overrides):
    params = dict(tau0=0.01, d=2, steps=100, chains=8, seed=3)
    params.update(overrides)
    return SamplerConfig(**params)


def schedule(cfg):
    """The temperature schedule that run_rlsa passes to every block."""
    return np.array([linear_temperature(t, cfg.tau0, cfg.steps) for t in range(1, cfg.steps + 1)])


def run_block(model, cfg, chain_ids, init=None, depth=1):
    return _run_chain_block(model, cfg, chain_ids, init, schedule(cfg), depth)


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


def test_kth_largest_ranks_integer_input_in_its_own_dtype():
    rng = np.random.default_rng(1)
    for dtype in (np.int16, np.int32, np.int64, np.uint8):
        V = rng.integers(0, 9, size=(4, 30)).astype(dtype)  # many ties
        for d in (1, 7, 30):
            got = kth_largest(V, d)
            assert got.dtype == dtype
            assert np.array_equal(got, kth_largest(V.astype(np.float64), d))
    assert kth_largest(np.array([True, False]), 1).dtype == np.float64


def test_kth_largest_rejects_bad_rank():
    with pytest.raises(ValueError):
        kth_largest([1, 2, 3], 0)
    with pytest.raises(ValueError):
        kth_largest([1, 2, 3], 4)


@pytest.mark.parametrize("d", [2.5, 2.0, True, "2", None])
def test_rank_d_must_be_an_integer(d):
    # a rank that is not an integer (bool is not) is refused with
    # ValueError, never ranked, truncated or used as a target sum
    with pytest.raises(ValueError, match="d must be an integer"):
        kth_largest([1, 2, 3], d)
    with pytest.raises(ValueError, match="d must be an integer"):
        normalized_flip_probabilities(np.zeros(4), 0.5, d)
    for ok in (np.int64(2), 2):
        assert kth_largest([1, 2, 3], ok) == 2
        assert normalized_flip_probabilities(np.zeros(4), 0.5, ok).sum() == 2.0


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
    # NaN and inf used to pass the sign checks and give NaN or 0.5 everywhere
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            flip_probabilities(np.zeros(3), 0.0, 1e-6, bad)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            flip_probabilities(np.zeros(3), 0.0, bad, 1.0)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            normalized_flip_probabilities(np.zeros(4), bad, 2)


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


def _recording_paths(monkeypatch):
    """The path of each ``flip_probabilities`` call of the regularized and ld
    rules, in call order: "dense" on the whole (K, N) Delta, "table" on the
    values of an integer Delta, one row per distinct threshold, "sparse" on
    gathered entries."""
    paths = []
    fn = sampler.flip_probabilities

    def recording(delta, dth, *a):
        paths.append(_mask_path(delta, dth))
        return fn(delta, dth, *a)

    monkeypatch.setattr(sampler, "flip_probabilities", recording)
    return paths


def _mask_path(delta, dth):
    """The path of a ``flip_probabilities`` call, as ``_recording_paths`` names it."""
    return "dense" if np.ndim(delta) == 2 else "table" if np.ndim(dth) == 2 else "sparse"


def _probabilities(cfg, D, tau):
    if cfg.kernel == "regularized":
        return flip_probabilities(D, kth_largest(D, cfg.d)[:, None], cfg.epsilon, tau)
    return expit((D - tau / cfg.alpha) / (2.0 * tau))


def _dense_mask(cfg, D, tau, U):
    return U < _probabilities(cfg, D, tau)


def _live_mask(cfg, D, tau, U):
    """The rule on a float Delta written out: row k's live entries, in
    coordinate order, take U[k, 0], U[k, 1], ... and flip where that is
    below their P; a dead entry never flips."""
    live = D > _live_cut(cfg, D, tau)
    P = _probabilities(cfg, D, tau)
    want = np.zeros(D.shape, bool)
    for k, row in enumerate(live):
        want[k, row] = U[k, :np.count_nonzero(row)] < P[k, row]
    return want


def _preloaded(U):
    """A reservoir whose row k holds U[k] and nothing after it, for one
    step on a Delta of U's shape. Its generators are missing, so a step
    that needs more uniforms than U holds fails."""
    k, n = U.shape
    draws = sampler._Reservoir([None] * k, n, n, 1)
    draws.draws[:] = U
    draws.cursor[:] = 0
    return draws


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
    # A float Delta takes one uniform per live entry at any live share, the
    # row's next ones in coordinate order, and runs the sigmoid on its live
    # entries alone. Its integer twin, floored and given one entry per row
    # far below the rest so that its table does not fit, takes N uniforms
    # per chain and returns U < P bit for bit: through the sparse mask up
    # to a quarter of its entries live (``path``), the dense one above.
    rng = np.random.default_rng(17)
    calls = _recording_rules(monkeypatch)
    rule = KERNELS[kernel][1]
    for _ in range(20):
        cfg, D, tau, U = _hand_built(kernel, live_share, rng)
        live = D > _live_cut(cfg, D, tau)
        draws = _preloaded(U)
        got = rule(cfg, D, tau, draws, sampler._Buffers())
        assert got.dtype == bool and got.shape == D.shape
        assert np.array_equal(got, _live_mask(cfg, D, tau, U))
        assert not got[~live].any()
        assert np.array_equal(draws.cursor, np.count_nonzero(live, axis=1))
        assert calls.pop() == np.count_nonzero(live)

        Di = np.maximum(np.floor(D), -30000).astype(np.int16)
        Di[:, -1] = -30000
        got = rule(cfg, Di, tau, _preloaded(U), sampler._Buffers())
        assert np.array_equal(got, _dense_mask(cfg, Di.astype(np.float64), tau, U))
        # the hand-built entries that the zero and the smallest uniforms flip
        assert got[U == 0].any() and got[(U > 0) & (U <= 8 * ULP)].any()
        assert (calls.pop() == Di.size) == (path == "dense")
    # the rule's calls; the references call flip_probabilities directly
    assert not calls


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_sparse_flip_mask_on_all_dead_and_all_live_matrices(kernel):
    # Every row dead but for the regularized rule's top d: each chain takes
    # d uniforms, or none, and no dead entry flips, though the uniforms
    # hold zeros. Every row live: each chain takes N, and the mask is U < P.
    rng = np.random.default_rng(18)
    cfg, D, tau, U = _hand_built(kernel, 0.0, rng)
    dead, live = D.copy(), D.copy()
    dead[1:] = D[0]
    live[:] = D[1]
    U[:, :8] = 0.0
    top = cfg.d if kernel == "regularized" else 0
    draws = _preloaded(U)
    got = KERNELS[kernel][1](cfg, dead, tau, draws, sampler._Buffers())
    assert np.array_equal(got, _live_mask(cfg, dead, tau, U))
    assert got[:, :top].all() and not got[:, top:].any()
    assert (draws.cursor == top).all()
    draws = _preloaded(U)
    got = KERNELS[kernel][1](cfg, live, tau, draws, sampler._Buffers())
    assert np.array_equal(got, _dense_mask(cfg, live, tau, U))
    assert (draws.cursor == D.shape[1]).all()


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_sparse_flip_mask_stays_exact_when_tau_underflows_the_cutoff(kernel, monkeypatch):
    # tau so small that a - 80 tau rounds back to the threshold a: an entry
    # equal to a has z = 0 yet fails the live test. The live test defines
    # the rule, so that entry is dead: it takes no uniform and never flips,
    # and the sigmoid runs on the regularized rule's top entry alone.
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
    got = KERNELS[kernel][1](cfg, D, tau, _preloaded(U), sampler._Buffers())
    assert not got[:, 1:].any()
    assert got[:, 0].all() == (kernel == "regularized")
    assert np.array_equal(got, _live_mask(cfg, D, tau, U))
    assert sizes == [3 * (kernel == "regularized")]


def test_sparse_flip_mask_gathers_a_strided_u_without_copying_it(monkeypatch):
    # A float Delta's mask gathers each live entry's uniform from its
    # chain's row of the reservoir, which holds one step of uniforms (a
    # lone block) or several (blocks side by side). Either way each chain
    # takes the same uniforms, its stream's next ones, and the mask
    # allocates about what its live entries need, never a (K, N) block of
    # uniforms.
    rng = np.random.default_rng(21)
    k, n, tau = 100, 800, 0.5
    cfg = SamplerConfig(tau0=1.0, steps=1, chains=k, kernel="ld", alpha=0.05)
    a = _threshold(cfg, tau)
    D = np.where(rng.random((k, n)) < 0.05, a, a - 50.0)  # z = 0 or -50
    paths = _recording_paths(monkeypatch)
    masks, peaks = [], []
    for depth in (1, 5):
        draws = sampler._Reservoir([chain_rng(4, c) for c in range(k)], depth * n, n, 2)
        buf = sampler._Buffers()
        KERNELS["ld"][1](cfg, D, tau, draws, buf)  # fills the rows, makes the reused arrays
        tracemalloc.start()
        try:
            masks.append(KERNELS["ld"][1](cfg, D, tau, draws, buf).copy())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert paths == ["sparse"] * 4
    assert np.array_equal(masks[1], masks[0])
    # the second step's uniforms follow the first step's in each stream
    live = np.count_nonzero(D == a, axis=1)
    U = np.array([chain_rng(4, c).random(n) for c in range(k)])
    later = np.stack([np.roll(row, -c) for row, c in zip(U, live)])
    assert np.array_equal(masks[0], _live_mask(cfg, D, tau, later))
    assert max(peaks) < D.nbytes / 2, (peaks, D.nbytes)


def _live_cut(cfg, D, tau):
    """The rule's live cut a - 80 tau, per row: the entries above it are live."""
    if cfg.kernel == "regularized":
        a = kth_largest(D, cfg.d)[:, None] - cfg.epsilon
    else:
        a = tau / cfg.alpha
    return a + 2.0 * tau * sampler._LIVE_Z


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_table_mask_equals_the_dense_mask_on_integer_delta(kernel, monkeypatch):
    # Integer Deltas in a few values, some so far below that the sigmoid
    # underflows to 0; rows shifted by 0..2, so the regularized rule sees
    # several thresholds. At alpha = 1/80 the ld rule's live cut a - 80 tau
    # sits at 0. Most entries tie at the top, except in the last draw: there
    # under a quarter of the entries are live, and the table still serves. U
    # holds zeros, the smallest uniforms and plain draws.
    rng = np.random.default_rng(19)
    paths = _recording_paths(monkeypatch)
    k, n = 12, 200
    if kernel == "regularized":
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=k, d=5)
    else:
        cfg = SamplerConfig(tau0=1.0, steps=1, chains=k, kernel="ld", alpha=1 / 80)
    values = np.array([-40, -20, -13, -6, 0, 1, 2, 6])
    tied = np.array([1, 1, 1, 1, 1, 1, 6, 8]) / 20
    few = np.array([8, 6, 1, 1, 1, 1, 1, 1]) / 20
    shares = []
    for tau, share in ((0.01, tied), (0.1, tied), (1.0, tied), (0.01, few)):
        D = (rng.choice(values, size=(k, n), p=share) + np.arange(k)[:, None] % 3).astype(np.int16)
        U = rng.random(D.shape)
        pick = rng.random(D.shape)
        U[pick < 0.1] = ULP * rng.integers(1, 9, D.shape)[pick < 0.1]
        U[pick < 0.03] = 0.0
        got = KERNELS[kernel][1](cfg, D, tau, _preloaded(U), sampler._Buffers())
        assert got.dtype == bool and got.shape == D.shape
        assert np.array_equal(got, _dense_mask(cfg, D.astype(np.float64), tau, U))
        assert got[U == 0].any() and got[(U > 0) & (U <= 8 * ULP)].any()
        shares.append(np.count_nonzero(D > _live_cut(cfg, D, tau)) / D.size)
    assert shares[-1] < sampler._DENSE_SHARE < min(shares[:-1])
    assert paths == ["table"] * 4

    # An int16 D whose range (-30000 up to 12) makes the table outgrow D
    # takes the live test, D > cut against the float64 cut. Each row holds
    # entries at floor(cut), dead, and at floor(cut) + 1, live, under a cut
    # that is an integer (epsilon = 0, or tau / alpha = 1) and one that is
    # not.
    paths.clear()
    tau = 0.25
    if kernel == "regularized":
        cfgs = [replace(cfg, epsilon=0.0), cfg]
    else:
        cfgs = [replace(cfg, alpha=0.25), replace(cfg, alpha=0.3)]
    whole = []
    for c in cfgs:
        D = np.full((k, n), -30000, np.int16)
        D[:, :5] = 10 + np.arange(k)[:, None] % 3  # the regularized rule's top d
        cut = _live_cut(c, D, tau)
        whole.append(bool(np.all(cut == np.floor(cut))))
        D[:, 10:30] = np.floor(cut)
        D[:, 30:50] = np.floor(cut) + 1
        U = rng.random(D.shape)
        U[:, 8:52:3] = 0.0
        buf = sampler._Buffers()
        got = KERNELS[kernel][1](c, D, tau, _preloaded(U), buf)
        assert np.array_equal(got, _dense_mask(c, D.astype(np.float64), tau, U))
        live = np.zeros(D.shape, bool)
        live[:, :5] = live[:, 30:50] = True
        assert np.array_equal(buf["live"], live | (U == 0))
        # 0 < P < 2**-53 at and just above the cut: only U == 0 flips there
        assert np.array_equal(got[:, 10:50], U[:, 10:50] == 0)
    assert whole == [True, False]
    assert paths == ["sparse"] * 2


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
    # integer Deltas, which take the table mask on the dense path
    yield EnergyModel("mis", generate_er(18, 0.3, seed=15), beta=2.0)
    g = generate_er(16, 0.3, seed=16)
    yield EnergyModel("qubo", g, linear=rng.integers(-4, 5, size=16).astype(np.float64),
                      quad_scale=1.5, edge_weights=rng.integers(-3, 4, size=g.num_edges))


# draw depths of the reference-chain tests, whose runs take 25 steps
DEPTHS = (1, 2, 3, 25, 28)


def _by_chain(chain_ids, outputs):
    """A block's outputs per chain id: (best_x, best energy, energy per
    step, best energy per step, bits flipped per step), as reference_chain
    gives them."""
    best_X, best_E, energy_traj, best_traj, flips_traj = outputs
    return {int(c): (best_X[j], best_E[j], energy_traj[:, j], best_traj[1:, j], flips_traj[:, j])
            for j, c in enumerate(chain_ids)}


def _engine_chains(monkeypatch, model, cfg):
    """Each chain's outputs from run_block at every depth of DEPTHS and
    from run_rlsa's blocks at 1, 2 and 3 workers, by (run, chain id)."""
    runs = {("depth", depth): _by_chain(range(cfg.chains), run_block(model, cfg, range(cfg.chains), depth=depth))
            for depth in DEPTHS}
    for workers in (1, 2, 3):
        chains = runs["workers", workers] = {}

        def recording(m, c, ids, *args, chains=chains):
            out = _run_chain_block(m, c, ids, *args)
            chains.update(_by_chain(ids, out))
            return out

        monkeypatch.setattr(sampler, "_run_chain_block", recording)
        run_rlsa(model, cfg, workers=workers)
    return runs


def _assert_chains_match_the_reference(monkeypatch, model, cfg):
    want = [reference_chain(model, cfg, k) for k in range(cfg.chains)]
    for run, chains in _engine_chains(monkeypatch, model, cfg).items():
        assert sorted(chains) == list(range(cfg.chains))
        for k, (x, e, energies, bests, flips) in enumerate(want):
            got = chains[k]
            assert np.array_equal(got[0], x), (model.kind, run, k)
            assert got[1] == e
            assert np.array_equal(got[2], energies)
            assert np.array_equal(got[3], bests)
            assert np.array_equal(got[4], flips)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_engine_matches_reference_chain(kernel, monkeypatch):
    # every chain of a jointly run block equals the plain single-vector loop,
    # at every draw depth (T = 25 is a multiple of none of 2, 3 and T + 3)
    # and in the blocks that run_rlsa runs at 1, 2 and 3 workers
    rate = dict(alpha=0.05) if kernel == "ld" else dict(d=3)
    for m in _oracle_models():
        tau0 = 0.5 if m.kind in ("mcut", "qubo") else 0.05
        cfg = SamplerConfig(tau0=tau0, steps=25, chains=5, seed=13, kernel=kernel, **rate)
        _assert_chains_match_the_reference(monkeypatch, m, cfg)


@pytest.mark.parametrize("kernel", ["regularized", "ld"])
def test_engine_matches_reference_chain_on_the_sparse_path(kernel, monkeypatch):
    # at a small tau0 most sigmoid arguments are far below -40. A float
    # Delta takes the sparse mask, one uniform per live entry, on every
    # step. The integer-Delta models (mcut, mis at beta 2, integer qubo)
    # take the table on every step whose table fits, and only such a step:
    # the 16-node integer qubo's table often outgrows its Delta (under the
    # regularized rule it has one row per distinct threshold), and those
    # steps take the integer sparse or dense mask with N uniforms per
    # chain. Every chain still equals the plain loop, at every draw depth
    # and worker count.
    calls = _recording_paths(monkeypatch)
    misses = []
    table = sampler._table_probabilities

    def counting(*args):
        P = table(*args)
        misses.append(P is None)
        return P

    monkeypatch.setattr(sampler, "_table_probabilities", counting)
    rate = dict(alpha=0.05) if kernel == "ld" else dict(d=3)
    paths = {}
    for m in _oracle_models():
        cfg = SamplerConfig(tau0=1e-3, steps=25, chains=5, seed=13, kernel=kernel, **rate)
        _assert_chains_match_the_reference(monkeypatch, m, cfg)
        # one mask per step of each block: a block per depth, then 1, 2
        # and 3 blocks at 1, 2 and 3 workers
        steps = cfg.steps * (len(DEPTHS) + 1 + 2 + 3)
        assert len(calls) == steps
        if m._delta_bound is None:
            assert calls == ["sparse"] * steps and not misses
        else:
            assert len(misses) == steps
            assert calls.count("table") == steps - sum(misses)
        kind = "float" if m._delta_bound is None else "int"
        for c in calls:
            paths[c, kind] = paths.get((c, kind), 0) + 1
        calls.clear()
        misses.clear()
    want = [("sparse", "float"), ("table", "int"), ("sparse", "int")]
    assert min(paths.get(path, 0) for path in want) >= 10 * len(DEPTHS), paths


class _CountingRng:
    """A chain's generator that counts its ``random`` calls and, in
    ``drawn``, the uniforms they return into ``out``."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0
        self.drawn = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        self.drawn += kwargs["out"].size if "out" in kwargs else 0
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("n", [1000, 40])
def test_blocks_side_by_side_draw_several_steps_per_generator_call(n, monkeypatch):
    # Generator.random releases the GIL and takes it back on every call, so
    # blocks on threads draw S = _DRAW_ENTRIES // N steps per call, at most
    # T: ceil(T / S) calls per chain. A lone block draws one step per call.
    rngs = {}

    def counting(seed, chain_id):
        rngs[chain_id] = _CountingRng(chain_rng(seed, chain_id))
        return rngs[chain_id]

    monkeypatch.setattr(sampler, "chain_rng", counting)
    m = EnergyModel("mcut", generate_ba(n, 3, seed=3))
    cfg = SamplerConfig(tau0=0.5, d=5, steps=23, chains=6, seed=2)
    depth = min(cfg.steps, sampler._DRAW_ENTRIES // n)
    assert depth == (4 if n == 1000 else cfg.steps)
    for workers, calls in ((1, cfg.steps), (2, -(-cfg.steps // depth)), (3, -(-cfg.steps // depth))):
        rngs.clear()
        run_rlsa(m, cfg, workers=workers)
        assert {c: r.calls for c, r in rngs.items()} == dict.fromkeys(range(6), calls)


@pytest.mark.parametrize("n", [1000, 40])
def test_float_delta_chains_draw_fewer_generator_calls_than_steps(n, monkeypatch):
    # On a float Delta each chain takes one uniform per live entry, so its
    # row of the reservoir, one step of N uniforms in a lone block and
    # _DRAW_ENTRIES // N steps in blocks side by side, lasts several steps:
    # every chain makes fewer generator calls than steps, at one worker and
    # at several. A lone block's chains also draw fewer uniforms than N per
    # step; side by side, a row of all the steps' N (ER(40)) is drawn whole.
    rngs = {}

    def counting(seed, chain_id):
        rngs[chain_id] = _CountingRng(chain_rng(seed, chain_id))
        return rngs[chain_id]

    monkeypatch.setattr(sampler, "chain_rng", counting)
    m = EnergyModel("mis", generate_er(n, 0.15, seed=3), beta=1.001)
    cfg = SamplerConfig(tau0=0.01, d=5, steps=23, chains=6, seed=2)
    for workers in (1, 2, 3):
        rngs.clear()
        run_rlsa(m, cfg, workers=workers)
        assert sorted(rngs) == list(range(6))
        for r in rngs.values():
            assert 1 <= r.calls < cfg.steps, (workers, r.calls)
            assert r.drawn < cfg.steps * n or workers > 1, r.drawn


def test_reservoir_hands_each_chain_its_stream_in_order():
    # chains take uneven counts per step, at times a whole row, so rows
    # refill at different steps and carry their unread uniforms over; each
    # chain still receives its own stream in order, and no generator draws
    # more than the steps left could consume
    rng = np.random.default_rng(5)
    k, n, steps = 4, 10, 30
    for depth in (1, 3):
        rngs = [_CountingRng(chain_rng(9, c)) for c in range(k)]
        draws = sampler._Reservoir(rngs, depth * n, n, steps)
        got = [[] for _ in range(k)]
        for t in range(steps):
            counts = rng.integers(0, n + 1, k)
            counts[t % k] = n
            rows = np.repeat(np.arange(k), counts)
            u = draws.take(rows)
            for c in range(k):
                got[c].extend(u[rows == c])
        for c in range(k):
            assert np.array_equal(got[c], chain_rng(9, c).random(len(got[c])))
            assert rngs[c].drawn <= steps * n
            assert rngs[c].calls > 1


def test_engine_makes_one_sparse_product_per_step(monkeypatch):
    # Per block: the initial energy, then one product or update per step
    # in which any of its chains flips, because the next step's delta(X_t)
    # reuses the product that energy(X_t) computed, and a step with no flip
    # leaves the batch as the memo holds it. Decode takes one more, and
    # scoring its result none: decode leaves the memo holding the decoded
    # row's product. Each chain flips about d of the graph's nodes per
    # step. On ER(25) a full product costs less than an update; on ER(600)
    # the steps take the flip list through the dense rows; ER(1500) is
    # above the dense-row cap, and its steps take the flip list through A's
    # CSR rows, whose flipped rows hold a few percent of its 340k nonzeros.
    blocks = []
    run = sampler._run_chain_block
    monkeypatch.setattr(sampler, "_run_chain_block",
                        lambda *a: blocks.append(run(*a)) or blocks[-1])
    for g, d, path in ((generate_er(25, 0.2, seed=15), 2, "full"),
                       (generate_er(600, 0.15, seed=17), 20, "flips"),
                       (generate_er(1500, 0.15, seed=16), 20, "csr")):
        cfg = small_cfg(steps=30, chains=6, d=d)
        for workers in (1, 2):
            m = EnergyModel("mis", g, beta=1.02)
            m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
            blocks.clear()
            run_rlsa(m, cfg, workers=workers)
            assert len(blocks) == workers
            moved = sum(np.count_nonzero(flips.any(axis=1)) for *_, flips in blocks)
            assert counter.total == workers + moved + 1
            assert (counter.flips > 0, counter.csr > 0) == (path == "flips", path == "csr")


def test_no_product_follows_decode(monkeypatch):
    # run_rlsa scores the decoded row, and its objective, from the product
    # that decode left in the memo: after decode's own product, none
    counts = []

    def counting_decode(model, x):
        out = greedy_decode(model, x)
        counts.append(model._A.total)
        return out

    monkeypatch.setattr(sampler, "greedy_decode", counting_decode)
    for kind in ("mis", "mcl", "mcut"):
        m = EnergyModel(kind, generate_er(60, 0.3, seed=18), beta=1.02)
        m._A = counter = CountingMatrix(m._A)
        res = run_rlsa(m, small_cfg(d=5, steps=3, chains=4))
        assert res.decode_flips > 0, kind
        assert counter.total == counts[-1], kind


def test_the_engine_never_makes_dense_rows_on_the_benchmark_mcut_and_mis_er2000():
    # mcut on BA(1000, 4) at the benchmark's preset: every chain flips too
    # many nodes for the flip list to pay, at one block of 200 chains and
    # at two of 100, and the second solve's decode, one row against the
    # first solve's decoded row, reads A's CSR rows; mis on ER(2000, 0.15)
    # is above the dense-row cap
    mcut = EnergyModel("mcut", generate_ba(1000, 4, seed=19))
    for workers in (1, 2):
        run_rlsa(mcut, SamplerConfig(tau0=5.0, d=20, steps=50, chains=200, seed=19),
                 workers=workers)
    mis = EnergyModel("mis", generate_er(2000, 0.15, seed=19), beta=1.001)
    run_rlsa(mis, SamplerConfig(tau0=0.01, d=20, steps=5, chains=32, seed=19))
    assert mcut._rows is None and mis._rows is None


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


@pytest.mark.parametrize("init", [[[5, 7], [1, 1]], [0], [[]], np.zeros((1, 0))])
def test_run_rlsa_checks_init_on_an_empty_graph(init):
    m = EnergyModel("mis", from_edge_list(0, []), beta=1.02)
    with pytest.raises(ValueError):
        run_rlsa(m, small_cfg(), init=init)
    assert run_rlsa(m, small_cfg(), init=np.zeros(0)).best_x.shape == (0,)


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


def test_flips_per_step_end_above_d_where_integer_deltas_tie():
    # Max-cut Deltas are integers, and near the end many coordinates tie at
    # Delta_(d). Each tied one flips with probability sigmoid(epsilon / (2 tau)),
    # about 1/2, so the last tenth of the steps flips about 5.09 bits at d = 3.
    # ER mis at the same d stays at about 3.
    cfg = SamplerConfig(tau0=0.5, d=3, steps=200, chains=8, seed=1)
    mcut = EnergyModel("mcut", generate_ba(60, 2, 1))
    assert run_rlsa(mcut, cfg).trajectory.mean_flips[-20:].mean() > 4.5
    mis = EnergyModel("mis", generate_er(60, 0.2, 1), beta=1.02)
    assert abs(run_rlsa(mis, cfg).trajectory.mean_flips[-20:].mean() - 3.0) < 0.25


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


def _golden_model(case):
    # mis on graphs where the steps take the flip list: through the dense
    # rows below the dense-row cap and through A's CSR rows above it
    # (test_golden_update_settings_take_their_path)
    if case in _GOLDEN_UPDATES:
        return EnergyModel("mis", generate_er(_GOLDEN_UPDATES[case], 0.2, seed=61), beta=1.001)
    # mcl on a dense graph, where cliques are larger; the rest on a sparse one
    kind, _, beta = case.partition("-beta-")
    if kind in ("mis", "mcl"):
        g = generate_er(30, 0.5, seed=61) if kind == "mcl" else generate_er(40, 0.2, seed=61)
        return EnergyModel(kind, g, beta=float(beta))
    g = generate_er(40, 0.2, seed=61)
    if kind == "mcut":
        return EnergyModel("mcut", g)
    rng = np.random.default_rng(62)
    n, e = g.num_nodes, g.num_edges
    if case == "qubo-integer":  # int16 product and Delta
        return EnergyModel("qubo", g, linear=rng.integers(-3, 4, size=n).astype(np.float64),
                           quad_scale=1.0, edge_weights=rng.integers(-3, 4, size=e).astype(np.float64))
    if case == "qubo-float":  # int16 product, float64 Delta
        return EnergyModel("qubo", g, linear=rng.normal(size=n), quad_scale=0.7)
    # float64 product and Delta
    return EnergyModel("qubo", g, linear=rng.normal(size=n), quad_scale=0.7,
                       edge_weights=rng.normal(size=e))


# the update path each setting's steps take -> the nodes of its ER(n, 0.2)
_GOLDEN_UPDATES = {"mis-flips": 600, "mis-csr": 1100}


def _run_digest(case):
    # sha256 of every output of full solves under each kernel at 1, 2 and 3
    # workers: best_x, each Trajectory array with its dtype and shape, the
    # best energy, objective and what decode changed. The short hot runs
    # end away from a local optimum, so decode flips bits in most of them.
    # Two or three workers run blocks side by side, whose reservoirs hold
    # several steps of uniforms per chain.
    m = _golden_model(case)
    h = hashlib.sha256()
    for kernel in sorted(KERNELS):
        rate = dict(alpha=0.2) if kernel == "ld" else dict(d=3)
        for tau0, steps in ((0.5, 15), (2.0, 6)):
            cfg = SamplerConfig(tau0=tau0, steps=steps, chains=5, seed=63, kernel=kernel, **rate)
            for workers in (1, 2, 3):
                res = run_rlsa(m, cfg, workers=workers)
                traj = res.trajectory
                for a in [res.best_x] + [getattr(traj, f.name) for f in fields(Trajectory)]:
                    h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
                h.update(repr((res.best_energy, res.objective, res.decode_flips,
                               res.decode_gain)).encode())
    return h.hexdigest()


# Made with numpy 2.4.6 and scipy 1.17.1. Unlike decode, a solve draws
# uniforms from numpy's PCG64 streams and takes flip probabilities from
# scipy's expit, so a new numpy or scipy may change a hash by changing
# those draws or that function's last bit. A mismatch is then looked into
# and the hashes remade on purpose, never skipped: it pins the results
# that a refactor must keep bit for bit.
GOLDEN_RUNS = {
    "mis-beta-1.001": "01d65810feaac1923e632c6b3de72fc5f33036e8bff6edfbffc5e8b31c301410",
    "mis-beta-1.02": "1ebc24be8f518a5aecbea5881bc1f1aa7461194806c8e351ea30ce19b75a23da",
    "mis-beta-2": "acb565b14eed6389507be7cb68d81db18c949f424e89c5ce29f5cdfd0f496c56",
    "mcl-beta-1.5": "608cfbe42f34236dca8966048171968d4a718ee2af69072ab8cff686da1b91e0",
    "mcl-beta-2": "18bc140cb094b9d04a404ad8b203c482257402ef3b993c1777c74a4d6f9628e5",
    "mcut": "2291ee288bed403ea1d49fe1260b2bf9465c4c0736d19cadf98ac5e4e788b459",
    "qubo-integer": "eefe558cf72ad77af686de2a26706dbf7391c52182e2f1cd64c8b3a9e09b3ea4",
    "qubo-float": "5b116d5a2a7be8f5afc0ce842795440cc7330d299e7acfb8ce36649d5864b35f",
    "qubo-normal-weights": "ded9746bad17ebc65349aa0c56ae6b5dc430ec832891e00aa2cd4e1c8a02db43",
    "mis-flips": "48ed6f3bf25c22ce2d97d107228dd98c69cc6a8dcb2917bc2fde025c01289581",
    "mis-csr": "771a05dbd2c763f4dfe1d3af175887f48e4dc99670fc20a2a80ca2a198f66066",
}


@pytest.mark.parametrize("case", list(GOLDEN_RUNS))
def test_run_matches_its_golden_hashes(case):
    assert _run_digest(case) == GOLDEN_RUNS[case]


def test_golden_settings_reach_every_flip_mask_path(monkeypatch):
    # together the golden solves take the table mask, the dense mask, and
    # the sparse mask of a float Delta from a reservoir of one step of
    # uniforms per chain (a lone block) and of several (blocks side by
    # side). Blocks run on threads, so each mask keeps its reservoir's
    # depth in a thread-local that the same call's flip_probabilities reads.
    local = threading.local()
    reached = set()
    mask, fn = sampler._flip_mask, sampler.flip_probabilities

    def recording_mask(D, dth, epsilon, tau, draws, buf):
        local.deep = draws.draws.shape[1] > draws.n
        try:
            return mask(D, dth, epsilon, tau, draws, buf)
        finally:
            del local.deep

    def recording(delta, dth, *a):
        path = _mask_path(delta, dth)
        reached.add((path, local.deep) if path == "sparse" else path)
        return fn(delta, dth, *a)

    monkeypatch.setattr(sampler, "_flip_mask", recording_mask)
    monkeypatch.setattr(sampler, "flip_probabilities", recording)
    for case in GOLDEN_RUNS:
        _run_digest(case)
    assert {"table", "dense", ("sparse", False), ("sparse", True)} <= reached


@pytest.mark.parametrize("case", list(_GOLDEN_UPDATES))
def test_golden_update_settings_take_their_path(case, monkeypatch):
    # the counter shows that each setting's steps update the product along
    # its path, at one and at three workers; three workers split the five
    # chains into blocks of 2, 2 and 1, and a lone chain reads A's CSR rows
    # at any N
    for workers in (1, 3):
        m = _golden_model(case)
        m._A = counter = CountingMatrix(m._A).watch(monkeypatch)
        run_rlsa(m, SamplerConfig(tau0=0.5, steps=15, chains=5, seed=63, d=3), workers=workers)
        assert (counter.flips > 0, counter.csr > 0) == (case == "mis-flips",
                                                        case == "mis-csr" or workers == 3)


def _overflow_qubo(linear):
    # qubo on ER(30, 0.2), whose coefficients construction accepts
    return EnergyModel("qubo", generate_er(30, 0.2, 0), linear=linear, quad_scale=1.0)


def test_flip_rules_take_an_overflowing_quotient_without_a_warning():
    # (Delta - Delta_(d)) / (2 tau) overflows for a large finite Delta at a
    # small tau; its expit, exactly 1 or 0, is the probability the rule wants
    D = np.array([[8e307, -8e307, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flip_probabilities(D, 0.0, 0.0, 0.25).tolist() == [[1.0, 0.0, 0.5]]
        P = normalized_flip_probabilities(D, 0.25, 1)
        assert np.array_equal(P, np.array([[1.0, 0.0, 0.5]]) / 1.5)
        linear = np.zeros(30)
        linear[0] = -8e307
        m = _overflow_qubo(linear)
        for kernel, rate in (("regularized", dict(d=2)), ("normalized", dict(d=2)),
                             ("ld", dict(alpha=0.1))):
            cfg = SamplerConfig(tau0=0.5, steps=5, chains=8, kernel=kernel, **rate)
            assert np.isfinite(run_rlsa(m, cfg).trajectory.mean_energy).all()


def test_mean_energy_is_finite_where_the_sum_of_energies_overflows():
    m = _overflow_qubo(np.full(30, -2e306))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_rlsa(m, SamplerConfig(tau0=0.5, d=2, steps=5, chains=8))
    traj = res.trajectory
    assert np.isfinite(traj.mean_energy).all()
    assert (traj.mean_energy >= traj.best_energy).all()
    # rows whose sum is finite keep numpy's mean bit for bit; the others
    # take the same mean of the energies scaled by 1/8 for K = 7, scaled back
    rng = np.random.default_rng(20)
    E = rng.uniform(-1, 1, size=(4, 7)) * np.array([[1.0], [1e300], [1.7e308], [1.7e308]])
    E[2] = -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mean_energy(E)
    with np.errstate(over="ignore"):
        plain = E.mean(axis=1)
    assert np.isinf(plain[2]) and np.isfinite(plain[[0, 1, 3]]).all()
    assert got[[0, 1, 3]].tobytes() == plain[[0, 1, 3]].tobytes()
    assert np.array_equal(got, (E / 8).mean(axis=1) * 8)
    assert got[2] == pytest.approx(-1.7e308, rel=1e-15)
