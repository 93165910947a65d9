"""Deterministic uniforms and inverse-CDF sampling."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gtsfit import sampler
from gtsfit.errors import DomainError
from gtsfit.frft import Field, GridSpec, interpolate
from gtsfit.model import GtsParams, cumulant
from gtsfit.sampler import (
    SampleConfig,
    _default_cdf,
    _invert,
    _write_samples,
    sample_gts,
    samples_to_csv,
    uniforms,
)

MASK = (1 << 64) - 1
CHUNK = 65536
K = sampler._LANE


def np_splitmix64(state, count):
    """count splitmix64 outputs from each uint64 state: shape (count, states)."""
    s = np.array(state, dtype=np.uint64)
    out = np.empty((count, s.size), dtype=np.uint64)
    for i in range(count):
        s = s + np.uint64(0x9E3779B97F4A7C15)
        z = (s ^ (s >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        out[i] = z ^ (z >> np.uint64(31))
    return out


def np_rotl(x, k):
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def oracle_uniforms(seeds, n):
    """Test-only reference: {seed: n uniforms}, every chunk of every seed
    stepped in lock-step as numpy uint64 lanes (wrapping arithmetic)."""
    chunks = -(-n // CHUNK)
    chunk_seeds = np_splitmix64([s & MASK for s in seeds], chunks).T.ravel()
    s0, s1, s2, s3 = np_splitmix64(chunk_seeds, 4)
    s0[(s0 | s1 | s2 | s3) == 0] = 1
    raw = np.empty((CHUNK, chunk_seeds.size), dtype=np.uint64)
    for i in range(CHUNK):
        raw[i] = np_rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = np_rotl(s3, 45)
    u = (raw >> np.uint64(11)).astype(float) * 2.0**-53
    lanes = u.T.reshape(len(seeds), chunks * CHUNK)
    return {seed: lane[:n] for seed, lane in zip(seeds, lanes)}


def scalar_rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


def scalar_step(state):
    """One xoshiro256** state update in Python ints."""
    s0, s1, s2, s3 = state
    t = (s1 << 17) & MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    return s0, s1, s2, scalar_rotl(s3, 45)


def scalar_uniforms(state, n):
    """Test-only reference: n uniforms stepped one at a time from a state."""
    out = []
    for _ in range(n):
        out.append((scalar_rotl((state[1] * 5) & MASK, 7) * 9 & MASK) >> 11)
        state = scalar_step(state)
    return np.array(out, dtype=float) * 2.0**-53


def oracle_invert(field, u):
    """Test-only reference: the whole-array bisection, every temporary as
    long as u, the cubic weights written out as interpolate() has them."""
    grid = field.grid
    f = field.values
    cell = np.clip(np.searchsorted(f, u, side="left") - 1, 2, grid.n - 4)
    stencil = np.stack([f[cell - 1], f[cell], f[cell + 1], f[cell + 2]])
    lo = np.zeros(u.size)
    hi = np.ones(u.size)
    for _ in range(60):
        t = 0.5 * (lo + hi)
        w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
        w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
        w3 = (t + 1.0) * t * (t - 1.0) / 6.0
        val = stencil[0] * w0 + stencil[1] * w1 + stencil[2] * w2 + stencil[3] * w3
        below = val < u
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    t = 0.5 * (lo + hi)
    return grid.x_nodes()[cell] + t * grid.dx


@pytest.fixture(scope="module")
def spy_cdf(spy_params):
    return _default_cdf(spy_params)


class TestUniforms:
    def test_deterministic(self):
        assert np.array_equal(uniforms(123, 1000), uniforms(123, 1000))
        assert not np.array_equal(uniforms(123, 1000), uniforms(124, 1000))

    def test_unit_interval_half_open(self):
        u = uniforms(9, 50000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_chunk_streams_are_prefix_stable(self):
        """Asking for more draws never changes the ones already emitted."""
        long = uniforms(7, 70000)
        short = uniforms(7, 65536)
        assert np.array_equal(long[:65536], short)
        tiny = uniforms(7, 100)
        assert np.array_equal(long[:100], tiny)

    def test_mean_and_variance_sane(self):
        u = uniforms(2024, 65536)
        assert u.mean() == pytest.approx(0.5, abs=0.005)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=0.005)

    def test_generator_zero_state_guard(self):
        assert len(set(uniforms(0, 8))) == 8

    def test_zero_chunk_state_starts_from_one(self, monkeypatch):
        """An all-zero chunk state is replaced by (1, 0, 0, 0). No seed is
        known to give one, so splitmix64 is patched to return zeros; every
        chunk then repeats that state's scalar stream, across lanes."""
        monkeypatch.setattr(sampler, "_splitmix64", lambda state, count: [0] * count)
        n = 2 * K + 5
        want = scalar_uniforms((1, 0, 0, 0), n)
        assert np.array_equal(uniforms(0, n), want)
        both = uniforms(0, CHUNK + n)
        assert np.array_equal(both[:n], want)
        assert np.array_equal(both[CHUNK:], want)

    def test_jump_is_k_scalar_steps(self):
        """The cached J = A^K applied to random states equals K xoshiro
        steps taken one at a time in Python ints."""
        rng = np.random.default_rng(5)
        states = rng.integers(0, 2**64, size=(12, 4), dtype=np.uint64, endpoint=False)
        states[0] = (1, 0, 0, 0)
        states[1] = (0, 0, 0, 1 << 63)
        jumped = sampler._jump(states)
        for row, got in zip(states, jumped):
            state = tuple(int(w) for w in row)
            for _ in range(K):
                state = scalar_step(state)
            assert tuple(int(w) for w in got) == state
        assert not sampler._jump_columns().flags.writeable

    def test_empty_draw_is_empty_float_array(self):
        u = uniforms(3, 0)
        assert u.shape == (0,)
        assert u.dtype == np.float64

    def test_equals_numpy_oracle_bit_for_bit(self):
        """Sizes end inside, at and past a lane of K draws and a chunk."""
        sizes = (0, 1, K - 1, K, K + 1, 65535, 65536, 65537, 131073, 262144)
        seeds = (0, 7, 2**64 + 5, -3)
        ref = oracle_uniforms(seeds, max(sizes))
        for seed in seeds:
            for n in sizes:
                assert np.array_equal(uniforms(seed, n), ref[seed][:n]), (seed, n)

    def test_negative_count_is_domain_error(self):
        with pytest.raises(DomainError, match="count"):
            uniforms(1, -1)

    @pytest.mark.parametrize("n", [5.5, float("nan"), float("inf"), "5", None, True])
    def test_non_integral_count_is_domain_error(self, n):
        with pytest.raises(DomainError, match="count"):
            uniforms(1, n)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), -float("inf"), "1", None, False])
    def test_non_integral_seed_is_domain_error(self, seed):
        """1.5 does not draw seed 1's stream."""
        with pytest.raises(DomainError, match="seed"):
            uniforms(seed, 5)

    def test_integral_floats_and_numpy_integers_are_taken(self):
        ref = uniforms(7, 5)
        for seed, n in [(7.0, 5.0), (np.int64(7), np.uint16(5)), (np.float32(7), np.int8(5))]:
            assert np.array_equal(uniforms(seed, n), ref)

    def test_seed_is_taken_mod_2_64(self):
        assert np.array_equal(uniforms(-1, 5), uniforms(MASK, 5))
        assert np.array_equal(uniforms(np.uint64(MASK), 5), uniforms(MASK, 5))
        assert np.array_equal(uniforms(2**64 + 3, 5), uniforms(3, 5))
        assert np.array_equal(uniforms(2.0**64, 5), uniforms(0, 5))


class TestSampleGts:
    def test_deterministic_in_seed(self, spy_params):
        a = sample_gts(spy_params, SampleConfig(n=500, seed=11))
        b = sample_gts(spy_params, SampleConfig(n=500, seed=11))
        assert np.array_equal(a, b)
        c = sample_gts(spy_params, SampleConfig(n=500, seed=12))
        assert not np.array_equal(a, c)

    def test_probability_integral_transform(self, spy_params):
        """Reading the CDF the draws invert back at the draws recovers the
        uniforms."""
        x = sample_gts(spy_params, SampleConfig(n=2000, seed=21))
        f = _default_cdf(spy_params)
        u = uniforms(21, 2000)
        back = interpolate(f, x)
        assert np.max(np.abs(back - u)) < 1e-9

    def test_sample_moments_near_cumulants(self, spy_params):
        n = 60000
        x = sample_gts(spy_params, SampleConfig(n=n, seed=33))
        k1 = cumulant(spy_params, 1)
        k2 = cumulant(spy_params, 2)
        # mean of n draws has sd sqrt(k2/n); allow 5 of those
        assert x.mean() == pytest.approx(k1, abs=5.0 * np.sqrt(k2 / n))
        assert x.var() == pytest.approx(k2, rel=0.05)

    def test_config_validated(self):
        with pytest.raises(DomainError):
            SampleConfig(n=0, seed=1)

    @pytest.mark.parametrize("n", [5.5, float("nan"), float("inf"), "5", None, True, 0.0])
    def test_config_count_must_be_whole_and_positive(self, n):
        with pytest.raises(DomainError, match="count"):
            SampleConfig(n=n, seed=1)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), "1", None, np.bool_(True)])
    def test_config_seed_must_be_whole(self, seed):
        with pytest.raises(DomainError, match="seed"):
            SampleConfig(n=5, seed=seed)

    def test_config_keeps_whole_numbers_as_ints(self, spy_params):
        cfg = SampleConfig(n=np.int32(5), seed=-3.0)
        assert (cfg.n, cfg.seed) == (5, -3)
        assert type(cfg.n) is int and type(cfg.seed) is int
        assert cfg == SampleConfig(n=5, seed=-3)
        assert np.array_equal(sample_gts(spy_params, SampleConfig(n=5.0, seed=-3.0)),
                              sample_gts(spy_params, SampleConfig(n=5, seed=(-3) & MASK)))

    def test_draws_inside_grid_range(self, spy_params):
        x = sample_gts(spy_params, SampleConfig(n=5000, seed=44))
        assert np.all(np.isfinite(x))
        # percent daily equity returns: far tails beyond +-40 are absent
        assert np.max(np.abs(x)) < 40.0


def residual(field, x, u):
    """|F(x) - u| read through interpolate()'s Lagrange weights. A draw at
    t = 1 of the last cell can round past interpolate()'s range by an ulp,
    so x is clipped into it."""
    g = field.grid
    nodes = g.x_nodes()
    x = np.clip(x, nodes[0] + 2.0 * g.dx, nodes[-1] - 2.0 * g.dx)
    return np.abs(interpolate(field, x) - u)


# two ulps of a CDF value near 1: below it the power and the Lagrange form
# of the cubic round apart, so residuals are compared down to it only
FLOOR = 2.0**-51


class TestInvert:
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 70000])
    def test_matches_whole_array_oracle(self, spy_cdf, n):
        """Blocks of 8192 end inside, at and past these sizes; the ends of
        [0, 1) take the clipped first and last cells. Each draw's residual
        is no worse than the oracle bisection's down to FLOOR, the largest
        is no worse at all, and each draw is within 1e-6 dx of the
        oracle's."""
        u = uniforms(17, n)
        u[0] = 0.0
        u[-1] = 1.0 - 2.0**-53
        got = _invert(spy_cdf, u)
        ref = oracle_invert(spy_cdf, u)
        r_got, r_ref = residual(spy_cdf, got, u), residual(spy_cdf, ref, u)
        assert np.all(r_got <= np.maximum(r_ref, FLOOR))
        assert r_got.max() <= r_ref.max()
        assert np.max(np.abs(got - ref)) <= 1e-6 * spy_cdf.grid.dx

    def test_flat_and_falling_cells_are_bisected(self, monkeypatch):
        """u = 0 lands in a flat cell (0 / 0 for the linear guess); u just
        above 0.5 lands in a cell whose cubic through 0, 0.5, 0.501, 1 falls
        in its middle, so Newton ends on a negative slope. Only those points
        go to the bisection, which solves them as the oracle does."""
        f = np.zeros(64)
        f[21], f[22], f[23:] = 0.5, 0.501, 1.0
        field = Field(GridSpec(n=64, x_center=0.0, dx=1.0, xi_max=1.0), f, "cdf")
        u = np.array([0.0, 0.25, 0.5001, 0.5005, 0.5009, 0.75])
        bisected = []
        real = sampler._bisect

        def recorded(c, ub):
            bisected.extend(ub)
            return real(c, ub)

        monkeypatch.setattr(sampler, "_bisect", recorded)
        got = _invert(field, u)
        assert bisected == [0.0, 0.5001, 0.5005, 0.5009]
        ref = oracle_invert(field, u)
        r_got, r_ref = residual(field, got, u), residual(field, ref, u)
        assert np.all(np.abs(r_got - r_ref) <= FLOOR)
        assert np.all(r_got <= FLOOR)
        assert np.max(np.abs(got - ref)) <= 1e-6

    def test_peak_memory_independent_of_block_count(self, spy_cdf):
        """262144 draws: the 2 MB output plus one block's temporaries. A
        whole-array bisection holds a dozen 2 MB temporaries at once."""
        u = uniforms(3, 262144)
        tracemalloc.start()
        try:
            _invert(spy_cdf, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


@pytest.fixture(scope="module")
def law_cdfs(spy_params, sp500_params, btc_params, btc_recentered_params):
    laws = {"spy": spy_params, "sp500": sp500_params, "btc": btc_params,
            "btc_recentered": btc_recentered_params}
    return {name: _default_cdf(p) for name, p in laws.items()}


def searched(f, u):
    """sampler._search through f's guide table, with its branches counted:
    draws in buckets of no node, of one node and of several."""
    guide = sampler._guide(f)
    w = np.diff(guide)[np.clip(u * f.size, 0, f.size - 1).astype(np.intp)]
    return sampler._search(f, guide, u), np.bincount(np.minimum(w, 2), minlength=3)


class TestGuideSearch:
    """The guide table's index is np.searchsorted(f, u, side="left"),
    element for element."""

    @pytest.mark.parametrize("law", ["spy", "btc"])
    def test_field_at_uniforms(self, law_cdfs, law):
        f = law_cdfs[law].values
        u = uniforms(5, 262144)
        got, branches = searched(f, u)
        assert np.array_equal(got, np.searchsorted(f, u, side="left"))
        # every branch is taken: empty buckets in the body, one-node
        # buckets and several-node buckets in the tails
        assert np.all(branches > 0)

    @pytest.mark.parametrize("law", ["spy", "btc"])
    def test_nodes_edges_and_ends(self, law_cdfs, law):
        """u = 0, u = 1 - 2^-53, every node value and the ulps either side
        of it, and every bucket edge b/n and its neighbours; beyond [0, 1),
        where no uniform lies, the index is still the binary search's."""
        f = law_cdfs[law].values
        n = f.size
        edges = np.arange(n + 1) / n
        u = np.concatenate([
            [0.0, -0.0, 1.0 - 2.0**-53, 1.0, 2.0, -1e-300, -0.5, np.inf, -np.inf],
            f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ])
        got, _ = searched(f, u)
        assert np.array_equal(got, np.searchsorted(f, u, side="left"))

    @pytest.mark.parametrize("kind", ["flat", "short"])
    def test_64_node_fields(self, kind):
        """flat: the field of test_flat_and_falling_cells_are_bisected,
        whose 21 nodes at 0 and 41 at 1 share one bucket each. short: a
        field from -0.25 to 0.5, so the buckets above it are empty and
        hold no node to compare."""
        if kind == "flat":
            f = np.zeros(64)
            f[21], f[22], f[23:] = 0.5, 0.501, 1.0
        else:
            f = np.linspace(-0.25, 0.5, 64)
        edges = np.arange(65) / 64
        u = np.concatenate([[0.0, 0.25, 0.5001, 0.5005, 0.5009, 0.75, 1.0 - 2.0**-53, -0.5, 2.0],
                            f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf),
                            edges, np.nextafter(edges, -np.inf), uniforms(9, 4096)])
        got, branches = searched(f, u)
        assert np.array_equal(got, np.searchsorted(f, u, side="left"))
        assert branches[2] > 0

    def test_invert_is_the_binary_search_inversion(self, law_cdfs, monkeypatch):
        """_invert through the guide table gives the bits _invert gives
        through np.searchsorted, on every bundled law."""
        u = uniforms(1000004, 262144)
        u[:2] = 0.0, 1.0 - 2.0**-53
        got = {law: _invert(field, u) for law, field in law_cdfs.items()}
        monkeypatch.setattr(sampler, "_search", lambda f, guide, u: np.searchsorted(f, u, side="left"))
        for law, field in law_cdfs.items():
            assert np.array_equal(got[law], _invert(field, u)), law


def percent_17g(values):
    """Test-only reference: the CSV as "%.17g\\n" formats each draw."""
    return "sample\n" + "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist())


def stress_values():
    """Random bit patterns (subnormals, inf and nan among them), explicit
    subnormals, signed zeros and infinities, powers of ten +-1 ulp from
    1e-5 to 1e17 with the 1e-4 and 1e17 edges, and exact decimal ties
    (4e15 + j) / 4, j odd, at three scales."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False).view(float)
    sub = np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3e-320])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-4, -1e-4, 1e17, -1e17,
                        1e300, -1e300, 0.5, 1.0, 3.0, 10.0, 99999999999999984.0])
    tens = np.array([float(10**k) for k in range(18)] + [10.0**-k for k in range(1, 6)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    j = 2.0 * np.arange(4000) + 1.0
    ties = (4e15 + j) / 4.0
    scales = 10.0 ** rng.uniform(-6.0, 18.0, 30000) * rng.choice([-1.0, 1.0], 30000)
    with np.errstate(over="ignore"):
        return np.concatenate([bits, sub, special, tens, -tens, ties, ties * 1e-3,
                               -ties * 1e5, scales])


class TestSamplesCsv:
    def test_header_and_round_trip(self, tmp_path, capsys):
        """Three draws, and 8193 that end one row into a second block;
        17 significant digits give back every float64 exactly."""
        for vals in (np.array([0.5, -1.25, 3.0]), uniforms(5, 8193) - 0.5):
            path = tmp_path / "draws.csv"
            samples_to_csv(vals, path)
            lines = path.read_text().splitlines()
            assert lines[0] == "sample"
            assert np.array_equal(np.array(lines[1:], dtype=float), vals)
            _write_samples(sys.stdout, vals)
            assert capsys.readouterr().out.encode() == path.read_bytes()

    @pytest.mark.parametrize("n", [None, sampler._ROWS - 1, sampler._ROWS, sampler._ROWS + 1,
                                   8191, 8192, 8193])
    def test_bytes_are_percent_17g(self, n, tmp_path, capsys):
        """Row for row the bytes of "%.17g\\n", through the file and the
        stdout path: the stress values whole, and draws of sizes around the
        writer's block and the inversion's, mixed with values outside the
        fixed-notation range."""
        if n is None:
            vals = stress_values()
        else:
            vals = uniforms(n, n) - 0.5
            vals[::97] = stress_values()[: vals[::97].size]
        path = tmp_path / "draws.csv"
        samples_to_csv(vals, path)
        want = percent_17g(vals)
        assert path.read_bytes() == want.encode()
        _write_samples(sys.stdout, vals)
        assert capsys.readouterr().out == want

    def test_block_of_fallback_rows_only(self, tmp_path):
        """Blocks whose every draw is outside [1e-4, 1e17) in magnitude,
        then a block that mixes them with fixed-notation draws."""
        u = uniforms(9, 3 * sampler._ROWS) - 0.5
        vals = np.concatenate([u[: 2 * sampler._ROWS] * 1e-6, u[2 * sampler._ROWS :]])
        vals[: 5] = [0.0, -0.0, np.inf, -np.nan, 1e200]
        path = tmp_path / "draws.csv"
        samples_to_csv(vals, path)
        assert path.read_text() == percent_17g(vals)

    def test_non_finite_and_huge_rows_warn_nothing(self, capsys):
        """pytest does not make a numpy RuntimeWarning an error, so a cast
        or log of inf, nan or 1e300 leaking one would otherwise pass."""
        vals = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, 1.5, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _write_samples(sys.stdout, vals)
        assert capsys.readouterr().out == percent_17g(vals)

    def test_writer_peak_memory_is_one_block(self):
        """262144 draws: the writer holds its per-call buffers and one
        block's strings, about 1 MB. The whole file as one string is 5 MB."""

        class Sink:
            def write(self, text):
                pass

        vals = uniforms(3, 262144) - 0.5
        _write_samples(Sink(), vals[:10])
        tracemalloc.start()
        try:
            _write_samples(Sink(), vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
