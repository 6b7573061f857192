"""Component kernels: batch evaluation equals per-state evaluation bit for bit."""

import math

import numpy as np
import pytest

from screened_sphere.conserved import (
    FRADKIN_1,
    FRADKIN_XY,
    HAMILTONIAN,
    LZ,
    RUNGE_LENZ_X,
    RUNGE_LENZ_Y,
    sample_states,
)
from screened_sphere.dynamics import (
    PhaseState,
    SystemKind,
    SystemParams,
    equations_of_motion,
    h_gradient,
)
from screened_sphere.errors import DomainError, ImaginaryAlphaError

SYSTEMS = [
    (SystemKind.COULOMB, (LZ, HAMILTONIAN, RUNGE_LENZ_X, RUNGE_LENZ_Y)),
    (SystemKind.OSCILLATOR, (LZ, HAMILTONIAN, FRADKIN_XY, FRADKIN_1)),
]


def reference_sample_states(params, n, seed):
    """The scalar rejection loop that the batched sampler replaced."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < n:
        u = rng.uniform(0.0, 1.0)
        r = math.sqrt(0.3**2 + u * (3.0**2 - 0.3**2))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p1, p2 = rng.uniform(-2.0, 2.0, size=2)
        st = PhaseState(r * math.cos(phi), r * math.sin(phi), float(p1), float(p2))
        if 2.0 * params.k >= (st.x1 * st.p2 - st.x2 * st.p1) ** 2:
            continue
        states.append(st)
    return states


def batch(states):
    return np.array([st.as_array() for st in states]).T


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
