"""Functionals and rate fitting."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flocklab import diagnostics, dynamics, runner
from flocklab.diagnostics import (
    energy,
    fit_rate,
    fluctuations,
    lyapunov_v,
    pair_functional_f,
    pair_scan,
    particle_energy_max,
    particle_energy_support,
    perturbed_particle_energy_max,
)
from flocklab.dynamics import Ensemble, means, recenter
from flocklab.kernels import PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential
from oracles import (
    dense_fluctuations,
    dense_pair_functional_f,
    dense_particle_energy_support,
    full_pair_scan,
    reference_agent_functionals,
)


def _pair():
    return Ensemble(x=[[1.0], [-1.0]], u=[[1.0], [-1.0]], m=[0.5, 0.5])


def test_energy_rest_state():
    ens = Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0])
    assert energy(ens, QuadraticPotential(1.0)) == (0.0, 0.0)


def test_energy_pair_hand_sum():
    e, e_k = energy(_pair(), QuadraticPotential(1.0))
    assert e == pytest.approx(1.0, abs=1e-15)
    assert e_k == pytest.approx(0.5, abs=1e-15)


def test_fluctuations_identical_particles():
    ens = Ensemble(x=[[0.4], [0.4]], u=[[0.2], [0.2]], m=[0.3, 0.7])
    assert fluctuations(ens, 1.0) == (0.0, 0.0)


def test_fluctuations_pair_hand_sum():
    l2, linf = fluctuations(_pair(), 1.0)
    assert l2 == pytest.approx(4.0, abs=1e-15)
    assert linf == pytest.approx(8.0, abs=1e-15)


def test_fluctuations_rejects_negative_weight():
    with pytest.raises(ValueError):
        fluctuations(_pair(), -0.5)


def test_zero_mean_fluctuation_energy_identity():
    # deltaE_L2 = 4 m0 E for centered states and the matching quadratic weight
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 3))
        ens = recenter(
            Ensemble(
                x=rng.uniform(-2, 2, (n, d)),
                u=rng.uniform(-2, 2, (n, d)),
                m=rng.uniform(0.1, 1.0, n),
            )
        )
        a = float(rng.uniform(0.1, 3.0))
        l2, _ = fluctuations(ens, a)
        e_total, _ = energy(ens, QuadraticPotential(a))
        assert abs(l2 - 4.0 * ens.total_mass * e_total) <= 1e-12 * max(1.0, abs(l2))


def test_linf_dominates_l2():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ens = Ensemble(
            x=rng.uniform(-1, 1, (12, 2)),
            u=rng.uniform(-1, 1, (12, 2)),
            m=rng.uniform(0.1, 1.0, 12),
        )
        l2, linf = fluctuations(ens, 0.7)
        assert l2 <= ens.total_mass**2 * linf + 1e-12


def test_particle_energy_support_examples():
    single = Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0])
    assert particle_energy_support(single, QuadraticPotential(1.0)) == (0.0, 0.0)
    pair = Ensemble(x=[[1.0], [-1.0]], u=[[0.0], [0.0]], m=[0.5, 0.5])
    p, d = particle_energy_support(pair, QuadraticPotential(1.0))
    assert p == pytest.approx(0.5)
    assert d == pytest.approx(2.0)
    # symmetric pair attains equality in (a/8) D^2 <= P
    assert 1.0 / 8.0 * d * d == pytest.approx(p)


def test_support_energy_inequality_random():
    rng = np.random.default_rng(29)
    a = 1.3
    for _ in range(50):
        ens = Ensemble(
            x=rng.uniform(-2, 2, (15, 2)),
            u=rng.uniform(-1, 1, (15, 2)),
            m=rng.uniform(0.1, 1.0, 15),
        )
        p, d = particle_energy_support(ens, QuadraticPotential(a))
        assert a / 8.0 * d * d <= p + 1e-12


def test_lyapunov_rest_and_lambda_zero():
    ens = Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0])
    assert lyapunov_v(ens, 1.0, 0.1) == 0.0
    rng = np.random.default_rng(31)
    ens = recenter(
        Ensemble(x=rng.uniform(-1, 1, (10, 2)), u=rng.uniform(-1, 1, (10, 2)), m=np.full(10, 0.1))
    )
    a = 0.9
    e_total, _ = energy(ens, QuadraticPotential(a))
    assert lyapunov_v(ens, a, 0.0) == pytest.approx(e_total, rel=1e-14)


def test_lyapunov_comparable_to_fluctuations():
    # the cross term is dominated by half the quadratic part whenever
    # 2 lam <= sqrt(a)/2, squeezing V into [deltaE/(8 m0), 3 deltaE/(8 m0)];
    # a perfectly anti-correlated state (u = -x) attains the lower edge
    rng = np.random.default_rng(37)
    for _ in range(30):
        ens = recenter(
            Ensemble(
                x=rng.uniform(-2, 2, (12, 2)),
                u=rng.uniform(-2, 2, (12, 2)),
                m=rng.uniform(0.1, 1.0, 12),
            )
        )
        a = float(rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(0.0, math.sqrt(a) / 4.0))
        v = lyapunov_v(ens, a, lam)
        l2, _ = fluctuations(ens, a)
        m0 = ens.total_mass
        assert l2 / (8.0 * m0) <= v + 1e-12
        assert v <= 3.0 * l2 / (8.0 * m0) + 1e-12


def test_lyapunov_lower_edge_attained_by_anticorrelated_state():
    ens = recenter(Ensemble(x=[[1.0], [-1.0]], u=[[-1.0], [1.0]], m=[0.5, 0.5]))
    a = 1.0
    v = lyapunov_v(ens, a, math.sqrt(a) / 4.0)
    l2, _ = fluctuations(ens, a)
    assert v == pytest.approx(l2 / (8.0 * ens.total_mass), rel=1e-14)


def test_lyapunov_warns_off_center():
    ens = Ensemble(x=[[1.0]], u=[[1.0]], m=[1.0])
    with pytest.warns(UserWarning) as record:
        lyapunov_v(ens, 1.0, 0.1)
    assert record[0].filename == __file__  # the warning names the caller's line
    with pytest.warns(UserWarning, match="lyapunov_v expects a recentered state"):
        runner._state_frame(SimpleNamespace(potential=QuadraticPotential(1.0)), ens, 1.0, (), (0.1, 0.2))


def _bits(*values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0, unlike ==


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 24),
    d=st.sampled_from([1, 2]),
    potential=st.sampled_from([
        ZeroPotential(),
        QuadraticPotential(1.0),
        QuadraticPotential(0.3),
        PerturbedQuadraticPotential(1.25, 0.25, 1.0),
        PerturbedQuadraticPotential(2.0, 1.5, 3.0),
    ]),
    lams=st.tuples(*[st.sampled_from([0.0, 0.05, 0.1, 1.0 / 3.0, 0.7, -0.2])] * 2),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_agent_pass_has_the_bits_of_each_functional(data, n, d, potential, lams, scale):
    # E, E_k, P, V, F1_max and the means of one shared pass, of the runner's frame and of each public
    # functional equal, bit for bit, each functional computed from its own per-agent arrays
    floats = st.floats(-scale, scale, allow_subnormal=False)
    x = data.draw(hnp.arrays(float, (n, d), elements=floats))
    u = data.draw(hnp.arrays(float, (n, d), elements=floats))
    m = data.draw(hnp.arrays(float, n, elements=st.floats(0.01, 10.0)))
    ens, (lam, lam1) = Ensemble(x=x, u=u, m=m), lams
    a = getattr(potential, "a", 0.0)
    total, kinetic, p, v, f1, x_c, u_c = reference_agent_functionals(ens, potential, a, lam, lam1)
    expected = _bits(total, kinetic, p, v, f1, *x_c, *u_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an off-center state warns in V; the bits are still V's
        frame = runner._state_frame(SimpleNamespace(potential=potential), ens, a, (), (lam, lam1))
        sums = diagnostics.AgentPass(ens, potential)
        c = means(ens)
        assert _bits(
            frame.total_energy, frame.kinetic_energy, frame.particle_energy, frame.lyapunov, frame.f1_max,
            *frame.x_c, *frame.u_c,
        ) == expected
        assert _bits(
            sums.total_energy, sums.kinetic_energy, sums.particle_energy, *sums.lyapunov(a, lam, lam1),
            *sums.means.x_c, *sums.means.u_c,
        ) == expected
        assert _bits(
            *energy(ens, potential), particle_energy_max(ens, potential), lyapunov_v(ens, a, lam),
            perturbed_particle_energy_max(ens, a, lam1), *c.x_c, *c.u_c,
        ) == expected


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def _assert_mass_sum(got, want, n):
    # both are sums of N^2 nonnegative products m_i pair_ij m_j, each within
    # gamma_2N ~ N eps of the exact value whatever the order, so within 2 N eps
    # of each other; 4 N eps leaves room for gamma's denominator
    assert abs(got - want) <= 4 * n * np.finfo(float).eps * want


def _exact_states(n):
    # small-integer coordinates and dyadic masses: every pair value and every partial sum of the
    # mass sum is a dyadic rational of a few dozen bits, exact in any order and any expansion
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        x, u = rng.integers(-8, 9, (2, n, d))
        yield Ensemble(x=x, u=u, m=rng.integers(1, 9, n) / 8)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 700])
def test_pair_scan_is_bitwise_the_dense_forms(n):
    # where the expansion about one agent is exact, all four outputs are the dense N x N x d forms'
    # bits, with and without the cross form, and the wrappers are the scan's
    potential = QuadraticPotential(0.75)
    for ens in _exact_states(n):
        p, diameter = dense_particle_energy_support(ens, potential)
        for a in (0.0, 0.75):
            want = (*dense_fluctuations(ens, a), diameter)
            for cross in ((2.0, 1.0), (1.5, 1.25)):
                f = dense_pair_functional_f(ens, *cross)
                assert _bits(*pair_scan(ens, a, *cross)) == _bits(*want, f), (ens.x.shape, a, cross)
            plain = pair_scan(ens, a)
            assert _bits(*plain[:3]) == _bits(*want) and math.isnan(plain[3])
            assert _bits(*fluctuations(ens, a)) == _bits(*want[:2])
        assert _bits(*particle_energy_support(ens, potential)) == _bits(p, diameter)
        assert _bits(pair_functional_f(ens, 1.5, 1.25)) == _bits(dense_pair_functional_f(ens, 1.5, 1.25))


def test_pair_scan_at_the_consensus_floor():
    # identical agents give exact zeros; velocities one ulp apart give the
    # pairwise sum to within its summation bound, which a centered O(N) form
    # (u_i - u_c, with u_c carrying round-off) misses
    rng = np.random.default_rng(3)
    n = 130
    m = rng.uniform(0.1, 1.0, n)
    x = np.tile([0.25, -1.5], (n, 1))
    same = pair_scan(Ensemble(x=x, u=np.tile([1.7, -0.3], (n, 1)), m=m), 0.9, 2.0, 1.0)
    assert same == (0.0, 0.0, 0.0, 0.0)
    u = np.tile([1.7, -0.3], (n, 1))
    u[rng.permutation(n)[: n // 3], 0] = np.nextafter(1.7, 2.0)
    ens = Ensemble(x=x, u=u, m=m)
    scan = pair_scan(ens, 0.9, 2.0, 1.0)
    assert scan[1] == np.spacing(1.7) ** 2
    l2, linf = dense_fluctuations(ens, 0.9)
    assert _bits(scan[1]) == _bits(linf)
    _assert_mass_sum(scan[0], l2, n)
    assert _bits(scan[3]) == _bits(dense_pair_functional_f(ens, 2.0, 1.0))



def _consensus_floor_states():
    # the data of test_pair_scan_at_the_consensus_floor: identical agents, then velocities one ulp apart
    rng = np.random.default_rng(3)
    n = 130
    m = rng.uniform(0.1, 1.0, n)
    x = np.tile([0.25, -1.5], (n, 1))
    u = np.tile([1.7, -0.3], (n, 1))
    yield Ensemble(x=x, u=u, m=m)
    u = u.copy()
    u[rng.permutation(n)[: n // 3], 0] = np.nextafter(1.7, 2.0)
    yield Ensemble(x=x, u=u, m=m)


def _scan_states():
    for n in (1, 2, 63, 64, 65, 129, 130, 700):
        rng = np.random.default_rng(n)
        for d in (1, 2, 3):
            yield Ensemble(
                x=rng.normal(0.0, 2.0, (n, d)),
                u=rng.normal(0.3, 10.0 ** rng.uniform(-6, 1), (n, d)),
                m=rng.uniform(0.1, 1.0, n),
            )
    yield from _consensus_floor_states()


def _far_states():
    # clouds far from the origin against their spread: only an expansion about an agent, not about
    # the origin, keeps their pair values to a few eps
    for n in (2, 65, 130):
        rng = np.random.default_rng(1000 + n)
        for d in (1, 2, 3):
            yield Ensemble(
                x=rng.normal(1e3, 2.0, (n, d)), u=rng.normal(-1e3, 0.5, (n, d)), m=rng.uniform(0.1, 1.0, n)
            )


def test_pair_scan_is_within_its_budget_of_the_dense_forms():
    # the maxima within 16 eps, relative, and the mass sum within its summation bound, of the dense
    # N x N x d forms, on states that need every part of the scan: several row blocks, d up to 3,
    # velocity spreads from 1e-6 to 10, the consensus floor and far-off clouds
    eps = np.finfo(float).eps
    for ens in (*_scan_states(), *_far_states()):
        diameter = dense_particle_energy_support(ens, ZeroPotential())[1]
        for a in (0.0, 0.8):
            l2, linf = dense_fluctuations(ens, a)
            for cross in ((), (1.7, 0.9), (2.0, 1.0)):
                got = pair_scan(ens, a, *cross)
                want = (linf, diameter, dense_pair_functional_f(ens, *cross) if cross else math.nan)
                case = (ens.n, ens.x.shape[1], a, cross)
                _assert_mass_sum(got[0], l2, ens.n)
                assert all(abs(g - w) <= 16 * eps * w for g, w in zip(got[1:], want[: 2 + bool(cross)])), case
                assert math.isnan(got[3]) == (not cross), case


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    a=st.sampled_from([0.0, 0.8]) | st.floats(0.0, 4.0),
    spreads=st.tuples(st.floats(-6.0, 3.0), st.floats(-6.0, 3.0)),
)
def test_pair_scan_mass_sum_is_the_one_agent_identity(n, d, seed, a, spreads):
    # a second, O(N) route: sum_ij m_i m_j q(p_i - p_j) = 2 m0 sum_i m_i q(p_i) - 2 q(sum_i m_i p_i)
    # for q = a |x|^2 + |u|^2.  On a centered state the second term is round-off, and the scan is
    # within a few N eps of S = 2 m0 sum_i m_i q(p_i): its entries carry a few eps times
    # q(p~_i) + q(p~_j), whose mass sum is S + 2 m0^2 q(p_k) <= (1 + m0 / m_k) S <= (1 + N) S, as k
    # is the heaviest agent, and its summation adds about N eps S; the budget, fixed before
    # measuring, is _assert_mass_sum's 4 N eps S
    rng = np.random.default_rng(seed)
    ens = recenter(Ensemble(
        x=rng.normal(0.0, 10.0 ** spreads[0], (n, d)),
        u=rng.normal(0.0, 10.0 ** spreads[1], (n, d)),
        m=rng.uniform(0.1, 1.0, n),
    ))
    m, m0 = ens.m, ens.total_mass
    q = a * np.einsum("nd,nd->n", ens.x, ens.x) + np.einsum("nd,nd->n", ens.u, ens.u)
    scale = 2.0 * m0 * float(m @ q)
    mx, mu = m @ ens.x, m @ ens.u
    identity = scale - 2.0 * (a * float(mx @ mx) + float(mu @ mu))
    assert abs(pair_scan(ens, a)[0] - identity) <= 4 * n * np.finfo(float).eps * scale


def _ellipse_state(n, d, a):
    # antipodal agents of equal mass on one ellipse |u|^2 + a |dx|^2 = 1 of the pair form about
    # x = 1.5, u = -0.5: every radius is the largest, so no agent can be pruned
    rng = np.random.default_rng(10 * n + d)
    z = rng.normal(size=(n // 2, 2 * d))
    z /= np.sqrt(a * (z[:, :d] ** 2).sum(axis=1) + (z[:, d:] ** 2).sum(axis=1))[:, None]
    z = np.vstack([z, -z])
    return Ensemble(x=1.5 + z[:, :d], u=-0.5 + z[:, d:], m=np.ones(len(z)))


def _pruning_states():
    # the states the candidate pass must get right: far-off clouds, coincident agents, one far
    # outlier, N = 1 and 2, agents on one ellipse (nothing pruned), a ring with an inner cloud
    # (more candidates than one row block) and clouds whose candidates' row blocks are not the
    # full scan's
    yield from _far_states()
    for n, d in ((1, 1), (1, 3), (2, 1), (2, 2), (130, 2)):
        rng = np.random.default_rng(n + d)
        yield Ensemble(x=rng.normal(size=(n, d)), u=rng.normal(size=(n, d)), m=rng.uniform(0.1, 1.0, n))
        yield Ensemble(x=np.full((n, d), 0.3), u=np.full((n, d), -1.1), m=rng.uniform(0.1, 1.0, n))
    for d in (1, 2, 3):
        rng = np.random.default_rng(70 + d)
        x, u = rng.normal(size=(2, 90, d))
        x[rng.permutation(90)[:40]] = x[0]  # coincident agents
        yield Ensemble(x=x, u=u, m=rng.uniform(0.1, 1.0, 90))
        for far in (1e2, 1e6):
            x, u = rng.normal(size=(2, 200, d))
            x[17] += far  # one far outlier, once the heaviest agent
            yield Ensemble(x=x, u=u, m=rng.uniform(0.1, 1.0, 200))
            m = rng.uniform(0.1, 0.5, 200)
            m[17] = 1.0
            yield Ensemble(x=x, u=u, m=m)
        yield _ellipse_state(300, d, 0.8)
        ring = _ellipse_state(280, d, 0.8)
        inner = 0.3 * rng.normal(size=(2, 150, d))
        yield Ensemble(x=np.vstack([ring.x, 1.5 + inner[0]]), u=np.vstack([ring.u, inner[1] - 0.5]),
                       m=np.ones(430))
    for seed in range(12):  # 250 agents: kept whole (F indefinite), their blocks straddle the full scan's
        rng = np.random.default_rng(seed)
        for d in (1, 2, 3):
            x, u = rng.normal(size=(2, 250, d))
            yield Ensemble(x=x, u=u, m=rng.uniform(0.1, 1.0, 250))


def _assert_scan_is_the_full_scan(ens, a, cross):
    got, want = pair_scan(ens, a, *cross), full_pair_scan(ens, a, *cross)
    case = (ens.n, ens.x.shape[1], a, cross)
    assert _bits(*got[1:]) == _bits(*want[1:]), case
    _assert_mass_sum(got[0], dense_fluctuations(ens, a)[0], ens.n)


def test_pair_scan_maxima_are_the_full_scan_bits():
    # the candidate pass keeps the agents of every pair that can reach a maximum: each maximum has the
    # bits of the scan over all pairs, with a positive definite F (K beta = 1.53), an indefinite one
    # (K beta = 0.81 and 1, where every agent is kept) and none; the O(N) mass sum is within its bound
    for ens in _pruning_states():
        for a in (0.0, 0.8):
            for cross in ((), (1.7, 0.9), (0.9, 0.9), (2.0, 0.5)):
                _assert_scan_is_the_full_scan(ens, a, cross)


@st.composite
def _scan_draws(draw):
    # clouds shifted and scaled over many decades, with a far agent, coincident agents or a ring
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift, x_scale, u_scale = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    x = rng.normal(shift, x_scale, (n, d))
    u = rng.normal(-shift, u_scale, (n, d))
    shape = draw(st.sampled_from(["cloud", "outlier", "coincident", "ring"]))
    if shape == "outlier":
        x[rng.integers(n)] += x_scale * 10.0 ** draw(st.floats(1.0, 8.0))
    elif shape == "coincident":
        same = rng.permutation(n)[: n // 2]
        x[same], u[same] = x[0], u[0]
    elif shape == "ring":
        z = rng.normal(size=(n, 2 * d))
        z /= np.linalg.norm(z, axis=1)[:, None]
        x, u = shift + x_scale * z[:, :d], -shift + x_scale * z[:, d:]
    a = draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 4.0))
    cross = draw(st.sampled_from([(), (2.0, 1.0)]) | st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)))
    return Ensemble(x=x, u=u, m=rng.uniform(0.1, 1.0, n)), a, cross


@settings(max_examples=150, deadline=None)
@given(_scan_draws())
def test_pair_scan_candidate_pass_is_exact(draw):
    _assert_scan_is_the_full_scan(*draw)


@pytest.mark.parametrize(
    "args, name",
    [
        ((0.8, 2.0), "beta"),
        ((0.8, None, 1.0), "coupling"),
        ((0.8, 2.0, math.nan), "beta"),
        ((0.8, math.nan, 1.0), "coupling"),
        ((0.8, math.inf, 1.0), "coupling"),
        ((math.nan,), "weight a"),
        ((math.inf, 2.0, 1.0), "weight a"),
        ((-0.5,), "weight a"),
    ],
    ids=[
        "no-beta", "no-coupling", "nan-beta", "nan-coupling", "inf-coupling", "nan-a", "inf-a", "negative-a",
    ],
)
def test_pair_scan_rejects_bad_arguments(args, name):
    with pytest.raises(ValueError, match=name):
        pair_scan(_pair(), *args)


def _recording_matmul(monkeypatch):
    products, matmul = [], np.matmul

    def record(a, b, *args, **kwargs):  # (rows, cols, rank, vector) of each product of the two
        rows, cols = (a.shape[-2] if a.ndim > 1 else 1), (b.shape[-1] if b.ndim > 1 else 1)
        products.append((rows, cols, a.shape[-1], min(rows, cols) == 1))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", record)
    return products


def test_products_stay_within_the_one_thread_budget(monkeypatch):
    # OpenBLAS runs a product of 1e6 multiplies on two threads, which moves its last bits; every
    # product of a plan's pass and of the frame scan at the config cap N = 2048, d = 3, keeps to
    # 2**19 multiplies (2**18 for a vector product), with a pruned scan and one that keeps every agent
    n, d = 2048, 3
    rng = np.random.default_rng(11)
    x, u, m = *rng.normal(size=(2, n, d)), rng.uniform(0.1, 1.0, n)
    ens = Ensemble(x=x, u=u, m=m)
    products = _recording_matmul(monkeypatch)
    dynamics.alignment_force(x, u, m, PowerLawKernel(1.0, 0.5))
    planned = len(products)
    for cross in ((1.7, 0.9), (0.9, 0.9)):  # K beta = 0.81: F is indefinite and every agent is kept
        pair_scan(ens, 0.8, *cross)
    assert planned > 0 and len(products) > planned
    assert max(rows for rows, *_ in products[planned:]) > 8  # the unpruned scan's blocks
    for rows, cols, rank, vector in products:
        assert rows * cols * rank <= (2**18 if vector else 2**19), (rows, cols, rank)


def test_pair_scan_builds_no_pair_matrix(monkeypatch):
    # the scan's buffers are O(N) and cached per (N, d), it takes nothing from the pair passes' pool,
    # and a call allocates well under an N x N array: with candidates pruned and with every agent kept
    n = 700
    rng = np.random.default_rng(2)
    ens = Ensemble(x=rng.normal(size=(n, 2)), u=rng.normal(size=(n, 2)), m=rng.uniform(0.1, 1.0, n))
    monkeypatch.setattr(dynamics, "_block_buffers", (np.empty(0), np.empty(0)))
    for cross in ((2.0, 1.0), (0.9, 0.9)):
        pair_scan(ens, 1.0, *cross)  # lays out the buffers, once per (N, d)
        assert [buf.size for buf in dynamics._block_buffers] == [0, 0]
        assert diagnostics._scan_layout(n, 2).flat.size == (4 * 8 + 4 * 5 + 3) * n
        tracemalloc.start()
        try:
            pair_scan(ens, 1.0, *cross)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 4


@pytest.mark.parametrize("d", [1, 2])
def test_pair_scan_rejects_an_overflowed_state(d):
    # finite positions whose squared spread overflows float64 (at 1e150 it stays finite)
    rng = np.random.default_rng(7)
    x, u, m = rng.normal(size=(5, d)), rng.normal(size=(5, d)), np.full(5, 0.2)
    assert all(map(math.isfinite, pair_scan(Ensemble(x=x * 1e150, u=u, m=m), 1.0, 2.0, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        pair_scan(Ensemble(x=x * 1e160, u=u, m=m), 1.0)
    if d == 1:  # the 1D span is the extremes' difference, also where its square overflows
        wide = Ensemble(x=[[-9e153], [0.0], [9e153]], u=[[0.1], [0.2], [0.3]], m=[0.25, 0.5, 0.25])
        with np.errstate(over="ignore"):
            assert pair_scan(wide, 0.0)[2] == 1.8e154


def test_pair_functional_identical_pair():
    ens = Ensemble(x=[[0.3], [0.3]], u=[[0.1], [0.1]], m=[0.5, 0.5])
    assert pair_functional_f(ens, 2.0, 1.0) == 0.0


def test_pair_functional_positive_definite_when_stable():
    # K * beta > 1 makes the pair form positive definite, so the max over
    # pairs is nonnegative for every state
    rng = np.random.default_rng(41)
    coupling, beta = 2.0, 16.0 / 9.0
    assert coupling * beta > 1.0
    for _ in range(50):
        ens = Ensemble(
            x=rng.uniform(-3, 3, (8, 2)),
            u=rng.uniform(-3, 3, (8, 2)),
            m=rng.uniform(0.1, 1.0, 8),
        )
        assert pair_functional_f(ens, coupling, beta) >= 0.0


def test_perturbed_particle_energy_matches_brute_force():
    rng = np.random.default_rng(43)
    ens = Ensemble(x=rng.uniform(-1, 1, (9, 2)), u=rng.uniform(-1, 1, (9, 2)), m=np.full(9, 1.0))
    a, lam1 = 0.8, 0.05
    vals = [
        0.5 * float(ens.u[i] @ ens.u[i])
        + 0.5 * a * float(ens.x[i] @ ens.x[i])
        + 2.0 * lam1 * float(ens.u[i] @ ens.x[i])
        for i in range(9)
    ]
    assert perturbed_particle_energy_max(ens, a, lam1) == pytest.approx(max(vals), rel=1e-14)


# --- rate fitting ---


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 20)
    v = 3.0 * np.exp(-0.7 * t)
    fit = fit_rate(t, v)
    assert fit.rate == pytest.approx(0.7, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.residual_rms < 1e-12


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 5.0, 10)
    fit = fit_rate(t, np.full(10, 2.5))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_rejects_mismatched_series():
    with pytest.raises(ValueError, match="equal-length"):
        fit_rate(np.linspace(0.0, 5.0, 10), np.ones(9))


def test_fit_rate_window_restriction():
    t = np.linspace(0.0, 10.0, 101)
    v = np.exp(-t)
    v[: 50] = 1.0  # transient garbage outside the window
    fit = fit_rate(t, v, window=(6.0, 10.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-10)
    assert fit.window == (6.0, 10.0)


def test_fit_rate_rejects_bad_windows():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        fit_rate(t, np.exp(-t), window=(0.0, 0.1))  # too few samples
    v = np.exp(-t)
    v[3] = 0.0
    with pytest.raises(ValueError):
        fit_rate(t, v)


def test_energy_zero_potential_is_kinetic():
    ens = _pair()
    e, e_k = energy(ens, ZeroPotential())
    assert e == e_k == 0.5
