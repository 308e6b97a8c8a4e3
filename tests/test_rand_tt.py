import numpy as np
import pytest
from scipy import stats

from hatt import gaussian_tt, random_tt
from hatt.rand_tt import seed_sequence


def test_same_seed_bit_identical():
    a = gaussian_tt((3, 4, 3), (1, 2, 2, 1), seed=42)
    b = gaussian_tt((3, 4, 3), (1, 2, 2, 1), seed=42)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca.values, cb.values)
    c = gaussian_tt((3, 4, 3), (1, 2, 2, 1), seed=43)
    assert not np.array_equal(a.cores[0].values, c.cores[0].values)


def test_core_streams_stable_under_order_change():
    # appending a mode must not reshuffle earlier cores
    short = gaussian_tt((4, 4, 4), (1, 2, 2, 1), seed=7)
    longer = gaussian_tt((4, 4, 4, 4), (1, 2, 2, 2, 1), seed=7)
    for k in (0, 1):
        assert np.array_equal(short.cores[k].values, longer.cores[k].values)


@pytest.mark.parametrize("kind", ("gaussian", "uniform"))
def test_one_generator_draws_the_cores_in_order(kind):
    shape, ranks, seed = (3, 5, 2, 4), (1, 2, 3, 2, 1), 11
    rng = np.random.default_rng(seed_sequence(seed))
    for core, n, l_prev, l_next in zip(random_tt(shape, ranks, kind, seed).cores, shape,
                                       ranks, ranks[1:]):
        size = (l_prev, n, l_next)
        if kind == "gaussian":
            want = rng.normal(0.0, 1.0 / np.sqrt(l_prev * n * l_next), size=size)
        else:
            want = rng.uniform(0.0, 1.0, size=size)
        assert np.array_equal(core.values, want)


def test_a_draw_builds_one_seed_sequence(monkeypatch):
    real, built = np.random.SeedSequence, []

    def counting(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    random_tt((4,) * 8, (1,) + (3,) * 7 + (1,), "gaussian", 5)
    assert len(built) == 1


def test_invalid_chain_rejected():
    with pytest.raises(ValueError):
        random_tt((3, 3), (1, 2, 2), "gaussian", 0)
    with pytest.raises(ValueError):
        random_tt((3, 3), (2, 2, 1), "gaussian", 0)
    with pytest.raises(ValueError):
        random_tt((3, 3), (1, 2, 1), "poisson", 0)
    with pytest.raises(ValueError, match="ranks must be positive"):
        random_tt((3, 3, 3), (1, 2, 0, 1), "gaussian", 0)
    for bad in (2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="whole numbers"):
            random_tt((3, 3), (1, bad, 1), "gaussian", 0)
    with pytest.raises(ValueError, match="whole numbers"):
        random_tt((2.9, 3), (1, 2, 1), "gaussian", 0)
    assert random_tt((3, 3), (1, np.int64(2), 1), "gaussian", 0).ranks == (1, 2, 1)


def test_gaussian_variance_band():
    # interior 4 x 4 x 4 core has entry variance 1/64; pooled second moment
    # over 200 seeds sits inside the central 99% chi-square band
    sq_sum = 0.0
    count = 0
    for seed in range(200):
        tt = random_tt((4, 4, 4), (1, 4, 4, 1), "gaussian", seed)
        core = tt.cores[1].values
        sq_sum += float(np.sum(core**2))
        count += core.size
    stat = sq_sum * 64.0  # sum of squared standard normals
    lo, hi = stats.chi2.ppf([0.005, 0.995], count)
    assert lo <= stat <= hi


def test_uniform_range_and_mean():
    tt = random_tt((5, 5, 5), (1, 6, 6, 1), "uniform", 3)
    pooled = np.concatenate([c.values.ravel() for c in tt.cores])
    assert np.all((pooled >= 0.0) & (pooled <= 1.0))
    sigma = 1.0 / np.sqrt(12.0)
    assert abs(pooled.mean() - 0.5) <= 3.0 * sigma / np.sqrt(pooled.size)


def test_gaussian_pooled_entries_look_normal():
    # rescaled by sqrt(l_{k-1} n_k l_k) the entries pool to a standard normal
    samples = []
    for seed in range(2):
        tt = random_tt((10,) * 5, (1, 20, 20, 20, 20, 1), "gaussian", 1234 + seed)
        for core in tt.cores:
            l_prev, n, l_next = core.values.shape
            samples.append(core.values.ravel() * np.sqrt(l_prev * n * l_next))
    pooled = np.concatenate(samples)
    assert pooled.size >= 10_000
    _, pvalue = stats.kstest(pooled, "norm")
    assert pvalue > 0.01
