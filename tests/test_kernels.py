"""Component kernels: batch evaluation equals per-state evaluation bit for bit."""

import math
import random

import numpy as np
import pytest

from screened_sphere import conserved
from screened_sphere.conserved import (
    FRADKIN_1,
    FRADKIN_XY,
    HAMILTONIAN,
    LZ,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    verify_oscillator_algebra,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    equations_of_motion,
)
from screened_sphere.errors import AccuracyError, DomainError, ImaginaryAlphaError
from screened_sphere.phase_space import h_gradient, hamilton_field
from state_sampler import sample_states

SYSTEMS = [
    (SystemKind.COULOMB, (LZ, HAMILTONIAN, RUNGE_LENZ_X, RUNGE_LENZ_Y)),
    (SystemKind.OSCILLATOR, (LZ, HAMILTONIAN, FRADKIN_XY, FRADKIN_1)),
]


def reference_sample_states(params, n, seed):
    """The scalar rejection loop on the seeded stdlib stream, one candidate at a time:
    positions uniform on the square [-3, 3]**2 and kept on the annulus 0.3 <= r <= 3,
    momenta uniform on [-2, 2]**2, and a state with 2k >= Lz**2 dropped."""
    rng = random.Random(seed)
    states = []
    while len(states) < n:
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        p1, p2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        lz = x * p2 - y * p1
        if not 0.3**2 <= x * x + y * y <= 3.0**2 or 2.0 * params.k >= lz * lz:
            continue
        states.append(PhaseState(x, y, p1, p2))
    return states


def batch(states):
    return np.array(states).T


@pytest.mark.parametrize("kind,observables", SYSTEMS)
def test_batch_kernels_equal_scalar_observables(kind, observables):
    params = SystemParams(kind, 0.1, 0.05)
    states = sample_states(params, 1000, seed=21)
    z = batch(states)
    floats = [(st.x1, st.x2, st.p1, st.p2) for st in states]
    for obs in observables:
        scalar_values = np.array([obs.value(*c, params) for c in floats])
        scalar_grads = np.array([obs.gradient(*c, params) for c in floats]).T
        assert np.array_equal(obs.value(*z, params), scalar_values), obs.name
        assert np.array_equal(np.array(obs.gradient(*z, params)), scalar_grads), obs.name


@pytest.mark.parametrize("kind", [SystemKind.COULOMB, SystemKind.OSCILLATOR])
def test_equations_of_motion_are_symplectic_gradient_of_h(kind):
    params = SystemParams(kind, 0.1, 0.05)
    states = sample_states(params, 1000, seed=22)
    hx1, hx2, hp1, hp2 = h_gradient(*batch(states), params)
    eom = np.array([equations_of_motion(st, params) for st in states]).T
    assert np.array_equal(eom, np.array([hp1, hp2, -hx1, -hx2]))
    # the array path of the dense output's stages and the circular-orbit test, bit for bit
    assert np.array(hamilton_field(*batch(states), params)).tobytes() == np.array(
        [hp1, hp2, -hx1, -hx2]).tobytes()


@pytest.mark.parametrize("kind", [SystemKind.COULOMB, SystemKind.OSCILLATOR])
@pytest.mark.parametrize("k,seed", [(0.05, 0), (0.05, 7), (3.0, 1)])
def test_sampler_reproduces_scalar_stream(kind, k, seed):
    params = SystemParams(kind, 0.1, k)
    got = batch(sample_states(params, 1000, seed=seed))
    want = batch(reference_sample_states(params, 1000, seed))
    assert np.array_equal(got, want)


def test_sampler_rejects_empty_and_impossible_requests():
    with pytest.raises(DomainError):
        sample_states(SystemParams(SystemKind.COULOMB, 0.0, 0.05), 0)
    # |Lz| <= 3 * 2*sqrt(2) on the sampling box, so 2k >= 72 admits no state
    with pytest.raises(ImaginaryAlphaError):
        sample_states(SystemParams(SystemKind.COULOMB, 0.0, 36.0), 1)


def test_block_draw_equals_random_one_value_at_a_time():
    # blocks of 1, 3, 17 and 229 candidates read across getrandbits' word boundaries
    rng = random.Random(5)
    got = np.concatenate([conserved._uniforms(rng, 4 * m) for m in (1, 3, 17, 229)])
    ref = random.Random(5)
    assert got.tolist() == [ref.random() for _ in range(got.size)]
    assert rng.random() == ref.random()  # and leaves the stream where random() would


def _both_paths(kind, params, n, seed):
    """(float path, batch path) outcome of one analytic check: its reports or its error."""
    def outcome():
        try:
            return conserved._verify_pair(kind, params, n, seed, "analytic")
        except DomainError as exc:  # the error itself is compared
            return type(exc), str(exc)

    floats = outcome()
    limit, conserved._FLOAT_PATH_MAX = conserved._FLOAT_PATH_MAX, 0
    try:
        return floats, outcome()
    finally:
        conserved._FLOAT_PATH_MAX = limit


@pytest.mark.parametrize("kind", [SystemKind.COULOMB, SystemKind.OSCILLATOR])
@pytest.mark.parametrize("seed", [0, 1, 1702990478])
def test_float_and_batch_paths_give_the_same_reports(kind, seed):
    # k = 30 passes about 1e-4 of the candidates, so the float path hands over to the batch
    # path, which finds the same states; at n = 300 neither finds them within the draw cap
    cases = [(k, lam, n) for k in (0.05, 3.0) for lam in (0.0, 0.1)
             for n in (1, 7, 300, conserved._FLOAT_PATH_MAX)]
    cases += [(30.0, lam, n) for lam in (0.0, 0.1) for n in (1, 7)]
    cases += [(30.0, 0.1, 300)] if (kind, seed) == (SystemKind.COULOMB, 0) else []
    for k, lam, n in cases:
        params = SystemParams(kind, lam, k)
        floats, arrays = _both_paths(kind, params, n, seed)
        assert floats == arrays, (k, lam, n)
        assert isinstance(floats, list) is (n < 300 or k < 30.0), (k, lam, n)
        # k = 30 hands the small requests over: too few states among 6n + 64 candidates
        assert n > 7 or k < 30.0 or conserved._sample_floats(params, n, seed) is None


def test_sampler_states_do_not_depend_on_the_path():
    params = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
    n = conserved._FLOAT_PATH_MAX
    floats = conserved._sample_floats(params, n, 3)
    assert np.array_equal(np.array(floats).T, conserved._sample_batch(params, n, 3))
    # sample_states takes the batch path, whose n + 1 states begin with the float path's n
    more = batch(sample_states(params, n + 1, seed=3))
    assert np.array_equal(more[:, :n], np.array(floats).T)


@pytest.mark.parametrize("kind", [SystemKind.COULOMB, SystemKind.OSCILLATOR])
def test_overflowing_terms_raise_the_same_error_on_both_paths(kind):
    floats, arrays = _both_paths(kind, SystemParams(kind, 1e300, 0.0), 3, 0)
    assert floats == arrays == (AccuracyError, "bracket residuals are not finite at "
                                              "lam = 1e+300, k = 0: the terms overflow")


@pytest.mark.parametrize("res", [[1e308, 1e308], [1.5e308] * 3 + [0.0]])
def test_finite_residuals_whose_sum_overflows_are_an_accuracy_error(res):
    # fsum returns inf for infinite terms but raises OverflowError when finite ones sum past
    # the largest float; both end in the same coded error, not in a traceback
    with pytest.raises(OverflowError):
        math.fsum(res)
    with pytest.raises(AccuracyError, match=r"^bracket residuals are not finite at lam = 0\.1, "
                                            r"k = 0\.05: the terms overflow$"):
        conserved._report("{R'x,Lz}+R'y", res, SystemParams(SystemKind.COULOMB, 0.1, 0.05))


@pytest.mark.parametrize("n", [300, 5000], ids=["float-path", "batch-path"])
def test_reports_give_the_exact_max_and_the_correctly_rounded_mean(n):
    params = SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05)
    algebra = conserved._ALGEBRAS[SystemKind.OSCILLATOR]
    z = batch(sample_states(params, n, seed=4))
    res = np.abs(conserved._residuals(algebra, params, z))
    for report, row in zip(verify_oscillator_algebra(params, n, seed=4), res):
        assert (report.n_samples, report.max_abs_residual, report.mean_abs_residual) == (
            n, row.max(), math.fsum(row.tolist()) / n)
