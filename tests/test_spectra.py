"""Closed-form spectra, the grid oracle, and the reference oscillator eigenstates."""

import itertools
import math
import sys
from array import array

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from screened_sphere import spectra
from screened_sphere.closed_forms import (SystemParams, analytic_energy, coulomb_energy,
                                          oscillator_energy)
from screened_sphere.dynamics import SystemKind
from screened_sphere.errors import AccuracyError, CurvatureError, DomainError, ImaginaryMPrimeError
from screened_sphere.spectra import (
    RadialGrid,
    _eigenvalues_on_grid,
    default_grid,
    m_prime,
    radial_solve_numeric,
    spectrum_csv,
    spectrum_entries,
)
from golden_digests import run_process
from oscillator_reference import (
    hypergeometric_terminating,
    oscillator_operator_residual,
    oscillator_wavefunction,
)


SCREENED = SystemParams(SystemKind.COULOMB, 0.1, 0.05)


def direct_series_sum(n, b, c, z):
    """Independent factorial-product oracle in exact rational arithmetic.

    Returns (sum, sum of |terms|); the second is the natural scale against
    which float cancellation error must be judged.
    """
    from fractions import Fraction

    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    total = Fraction(0)
    scale = Fraction(0)
    for j in range(n + 1):
        term = Fraction(1, math.factorial(j)) * z**j
        for i in range(j):
            term *= Fraction(-n + i) * (b + i) / (c + i)
        total += term
        scale += abs(term)
    return float(total), float(scale)


# --- m' and closed forms -----------------------------------------------------

def test_m_prime_values():
    assert m_prime(1, 0.0) == 1.0
    assert m_prime(1, 0.05) == pytest.approx(math.sqrt(0.9), rel=1e-15)
    assert m_prime(0, 0.0) == 0.0
    with pytest.raises(ImaginaryMPrimeError):
        m_prime(0, 0.05)
    # an integer-valued float m is its int, as an integer-valued float N is
    assert m_prime(-2.0, 0.05) == m_prime(2, 0.05)
    assert spectrum_entries(SCREENED, [1.0], [1], numeric=True)[0][5:] == spectrum_entries(
        SCREENED, [1], [1], numeric=True)[0][5:]


def test_coulomb_energy_flat_unscreened_ground_state():
    # 2D hydrogen with n = N + m' + 1/2 = 1/2: E = -1/(2 n^2) = -2
    assert coulomb_energy(0.0, 0.0, 0, 0) == pytest.approx(-2.0, rel=1e-15)


def test_coulomb_energy_spherical_unscreened():
    expected = 0.1 * 1.0 * 2.0 / 2.0 - 0.5 / 1.5**2
    assert coulomb_energy(0.1, 0.0, 1, 0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(-0.1222222222222222, rel=1e-12)


def test_oscillator_energy_flat():
    assert oscillator_energy(0.0, 0.0, 0, 0) == pytest.approx(1.0, rel=1e-15)
    assert oscillator_energy(0.0, 0.0, 1, 1) == pytest.approx(4.0, rel=1e-15)


def test_energy_validation():
    with pytest.raises(ImaginaryMPrimeError):
        oscillator_energy(0.1, 0.5, 0, 0)
    for energy in (coulomb_energy, oscillator_energy):
        for bad in (math.nan, math.inf, -math.inf, -0.1):
            with pytest.raises(CurvatureError):
                energy(bad, 0.0, 1, 0)
            with pytest.raises(DomainError) as exc:
                energy(0.1, bad, 1, 0)
            assert exc.value.code == "ERR_DOMAIN"


def test_unscreened_limit_matches_spherical_closed_form():
    # k -> 0: same formula with m' -> |m|
    for m in (1, 2):
        for n in (0, 1, 2):
            higgs = 0.5 * 0.1 * (m + n) * (m + n + 1) - 0.5 / (m + n + 0.5) ** 2
            assert abs(coulomb_energy(0.1, 1e-12, m, n) - higgs) < 1e-9
            s = 1 + m + 2 * n
            higgs_osc = 0.5 * s * (math.sqrt(4.0 + 0.01) + 0.1 * s)
            assert abs(oscillator_energy(0.1, 1e-12, m, n) - higgs_osc) < 1e-9


def test_flat_limit_matches_screened_plane_closed_form():
    for m in (1, 2):
        for n in (0, 1, 2):
            mp = m_prime(m, 0.05)
            flat = -0.5 / (n + mp + 0.5) ** 2
            assert abs(coulomb_energy(1e-12, 0.05, m, n) - flat) < 1e-9
            assert abs(oscillator_energy(1e-12, 0.05, m, n) - (1 + mp + 2 * n)) < 1e-9


def test_energy_monotonic_in_radial_index():
    for lam in (0.0, 0.05, 0.1):
        for k in (0.0, 0.02, 0.05):
            for m in (1, 2):
                ec = [coulomb_energy(lam, k, m, n) for n in range(4)]
                eo = [oscillator_energy(lam, k, m, n) for n in range(4)]
                assert all(a < b for a, b in zip(ec, ec[1:]))
                assert all(a < b for a, b in zip(eo, eo[1:]))


def _energy_terms_mp(kind: SystemKind, lam: float, k: float, m: int, n: int):
    """The closed form's terms at 50 digits and its derivative in m', on the exact float inputs."""
    lam, k = mpmath.mpf(lam), mpmath.mpf(k)
    mp = mpmath.sqrt(m * m - 2 * k)
    if kind is SystemKind.COULOMB:
        nu = mp + n + mpmath.mpf(1) / 2
        terms = (lam / 2 * (mp + n) * (mp + n + 1), -1 / (2 * nu**2), lam * k)
        return terms, mp, lam * nu + 1 / nu**3
    s, root = 1 + mp + 2 * n, mpmath.sqrt(4 + lam * lam)
    return (s / 2 * (root + lam * s), lam * k), mp, root / 2 + lam * s


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("lam", [1e-12, 1e-6])
def test_energies_match_50_digit_values(kind, lam):
    # The bound: 4 eps of the summed term sizes for the float arithmetic (the
    # coulomb terms cancel near N = lam**-0.25, so |E| itself cannot scale it),
    # plus 4 eps of m' times the cancellation factor (m**2 + 2k)/(m**2 - 2k) of
    # sqrt(m**2 - 2k), as the benchmark's oracle allows, carried through dE/dm'.
    energy = coulomb_energy if kind is SystemKind.COULOMB else oscillator_energy
    with mpmath.workdps(50):
        for m, n in itertools.product((1, 2, 5), (0, 1, 10, 100, 1000, 10**4)):
            for k in (0.0, 0.5 * m * m * (1.0 - 1e-8)):  # unscreened, and m' -> 0
                terms, mp, de_dmp = _energy_terms_mp(kind, lam, k, m, n)
                cancel = (m * m + 2 * k) / (m * m - 2 * k)
                size = sum(abs(t) for t in terms) + de_dmp * mp * (1 + cancel)
                bound = 4 * sys.float_info.epsilon * size
                assert abs(energy(lam, k, m, n) - sum(terms)) <= bound, (m, n, k)


# --- terminating hypergeometric ------------------------------------------------

def test_hypergeometric_trivial_cases():
    assert hypergeometric_terminating(0, 3.7, 1.2, 0.8) == 1.0
    assert hypergeometric_terminating(1, 2.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_hypergeometric_against_direct_sum():
    # fixed benign cases: plain 1e-12 relative agreement
    for n, b, c, z in [(5, 2.0, 3.0, 0.3), (8, 1.5, 4.0, 0.1), (3, 0.7, 2.2, 0.5)]:
        want, _ = direct_series_sum(n, b, c, z)
        assert hypergeometric_terminating(n, b, c, z) == pytest.approx(want, rel=1e-12)

    # random cases: error bounded by 1e-12 of the summation scale (the
    # alternating series is ill-conditioned for small c, so plain relative
    # error is not achievable by any float summation there)
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(0, 11))
        b = float(rng.uniform(0.1, 8.0))
        c = float(rng.uniform(0.1, 8.0))
        z = float(rng.uniform(0.0, 0.9))
        got = hypergeometric_terminating(n, b, c, z)
        want, scale = direct_series_sum(n, b, c, z)
        assert abs(got - want) <= 1e-12 * max(1.0, scale)


def test_hypergeometric_pole_detected():
    with pytest.raises(ValueError):
        hypergeometric_terminating(3, 1.0, -1.0, 0.5)


# --- oscillator wavefunction ---------------------------------------------------

def test_wavefunction_small_r_power():
    lam, k, m = 0.1, 0.05, 1
    mp = m_prime(m, k)
    r = np.array([1e-6, 1e-5, 1e-4])
    ratio = oscillator_wavefunction(r, lam, k, m, 2) / r**mp
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-6


def test_wavefunction_ground_state_nodeless():
    r = np.linspace(1e-3, 40.0, 4000)
    psi = oscillator_wavefunction(r, 0.1, 0.05, 1, 0)
    assert np.all(psi > 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_wavefunction_operator_residual(n):
    assert oscillator_operator_residual(0.1, 0.05, 1, n) < 1e-3


def test_wavefunction_node_count():
    # N radial nodes on (0, infinity)
    r = np.linspace(1e-3, 60.0, 20000)
    for n in (1, 2, 3):
        psi = oscillator_wavefunction(r, 0.1, 0.02, 1, n)
        sign_changes = int(np.sum(np.sign(psi[:-1]) * np.sign(psi[1:]) < 0))
        assert sign_changes == n


# --- radial grid oracle ----------------------------------------------------------

def test_flat_hydrogen_lowest_level():
    result = radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.0, 0.0), 1, 1)
    assert result.energies[0] == pytest.approx(-0.5 / 1.5**2, abs=1e-4)


def test_oracle_matches_coulomb_spectrum_on_sphere():
    result = radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.1, 0.0), 1, 3)
    for n in range(3):
        want = coulomb_energy(0.1, 0.0, 1, n)
        assert abs(result.energies[n] - want) / abs(want) < 1e-4


def test_oracle_matches_screened_oscillator_spectrum():
    result = radial_solve_numeric(SystemParams(SystemKind.OSCILLATOR, 0.1, 0.05), 1, 3)
    for n in range(3):
        want = oscillator_energy(0.1, 0.05, 1, n)
        assert abs(result.energies[n] - want) / abs(want) < 1e-4


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("lam,k,m", [(0.0, 0.0, 0), (0.1, 0.0, 0), (0.0, 0.4, 1),
                                     (0.1, 0.3799, 1)], ids=["m=0", "m=0-sphere", "mp=0.45",
                                                             "mp=0.49"])
def test_oracle_refuses_m_prime_below_one_half(kind, lam, k, m):
    # u ~ x**(m'+1/2) is too rough at x = 0 for the h**2 step: at m' = 0 the grid printed
    # -1.2185 for the coulomb E(0, 0) = -2, 12-15 times past its own error estimate
    params = SystemParams(kind, lam, k)
    for solve in (lambda: radial_solve_numeric(params, m, 2),
                  lambda: spectrum_entries(params, [1, m], [0, 1], numeric=True)):
        with pytest.raises(AccuracyError, match=f"m' >= 1/2, got m' = .* at m = {m}") as exc:
            solve()
        assert exc.value.code == "ERR_ACCURACY"
    assert spectrum_entries(params, [m], [0, 1])[0].e_numeric is None


def test_oracle_level_cap_is_the_same_for_the_table_and_the_solve():
    # ten levels, N = 0..9, on both sides of the cap, each refusal in its own words
    for n_levels in (0, 11):
        with pytest.raises(DomainError, match=r"^n_levels must lie in 1\.\.10$"):
            radial_solve_numeric(SCREENED, 1, n_levels)
    with pytest.raises(DomainError, match=r"^radial index N must be at most 9 for the grid "
                                          r"oracle, got 10$"):
        spectrum_entries(SCREENED, [1], [10], numeric=True)
    [entry] = spectrum_entries(SCREENED, [1], [9], numeric=True)
    assert entry.e_numeric == radial_solve_numeric(SCREENED, 1, 10).energies[9]


def test_an_integer_valued_float_n_is_its_int_on_the_grid_path_too():
    # the closed forms admit N = 1.0; the grid path indexed its levels with 1.0 and passed
    # n_levels = 2.0 to ctypes, a bare TypeError
    [by_float] = spectrum_entries(SCREENED, [1], [1.0], numeric=True)
    [by_int] = spectrum_entries(SCREENED, [1], [1], numeric=True)
    assert by_float.n == 1.0 and by_float[5:] == by_int[5:]
    assert by_float.e_numeric == radial_solve_numeric(SCREENED, 1, 2).energies[1]


def test_oracle_takes_m_prime_of_one_half():
    # m' = 1/2 is the smallest the oracle takes: u ~ x, and the levels keep to their estimate
    result = radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.0, 0.375), 1, 3)
    want = [coulomb_energy(0.0, 0.375, 1, n) for n in range(3)]
    assert np.all(np.abs(np.asarray(result.energies) - want) <= np.asarray(result.error_estimate))


@pytest.mark.parametrize("k", [0.0, 0.3])
@pytest.mark.parametrize("m", [2, 6, 20, 100])
def test_flat_coulomb_levels_keep_to_their_estimate_past_n_eff_5(m, k):
    # the outer turning point of a flat coulomb level is near r = 2 n_eff**2; a grid of
    # 30 n_eff cut the levels past n_eff = 5 off: m = 100 printed 2.998e-4 for E(100, 0) =
    # -4.950e-5, and m = 20 was 8e5 times past its estimate
    result = radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.0, k), m, 10)
    want = [coulomb_energy(0.0, k, m, n) for n in range(10)]
    assert np.all(np.abs(np.asarray(result.energies) - want) <= np.asarray(result.error_estimate))


_SWEEP_LAMS = [0.0, 1e-320, 1e-300, 1e-12, 1e-9, 1e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1,
               0.5, 1.0]
_DEGENERACY_LAMS = [0.0, 1e-9, 1e-4, 0.05, 0.5]


@pytest.fixture(scope="module")
def ten_levels():
    """radial_solve_numeric(SystemParams(kind, lam, k), m, 10), keyed by (kind, lam, k, m), for
    the sweep's and the degeneracy test's cases, solved on two threads: ctypes lets go of the
    GIL while dstebz, most of a solve, runs."""
    from concurrent.futures import ThreadPoolExecutor

    cases = sorted(set(itertools.product(SystemKind, _SWEEP_LAMS, (0.0, 0.05), (1, 2, 3)))
                   | set(itertools.product(SystemKind, _DEGENERACY_LAMS, (0.0, 0.05),
                                           range(1, 6))))
    spectra._dstebz_routine()  # loaded once, before the two threads start
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(cases, pool.map(
            lambda case: radial_solve_numeric(SystemParams(*case[:3]), case[3], 10), cases)))


@pytest.mark.parametrize("lam", _SWEEP_LAMS)
@pytest.mark.parametrize("kind", list(SystemKind))
def test_grid_levels_keep_to_their_estimate_at_every_lambda(ten_levels, kind, lam):
    # a chi grid of 2000 points on the whole sphere could not see a state of extent
    # ~sqrt(lam)*r at small lam: it printed -0.00148 for the coulomb E(1, 0) = -0.2222 at
    # lam = 1e-12, and -3.16e286 for the oscillator E(1, 0) = 2 at lam = 1e-300
    for k, m in itertools.product((0.0, 0.05), (1, 2, 3)):
        result = ten_levels[kind, lam, k, m]
        want = [analytic_energy(kind, lam, k, m, n) for n in range(10)]
        error = np.abs(np.asarray(result.energies) - want)
        assert np.all(error <= np.asarray(result.error_estimate)), (k, m)


def _numpy_matrix(kind, lam, k, m, grid):
    """The grid matrix's diagonal and off-diagonal built with numpy: the test-only reference
    for the float matrix."""
    h = grid.x_max / (grid.n_points + 1)
    s = h * np.arange(1, grid.n_points + 1)
    q = math.sqrt(lam)
    sine, tangent = (np.sin(q * s) / q, np.tan(q * s) / q) if lam > 0.0 else (s, s)
    mp = m_prime(m, k)
    v0 = -1.0 / tangent if kind is SystemKind.COULOMB else 0.5 * tangent**2
    potential = 0.5 * (mp * mp - 0.25) / sine**2 + v0 + (lam * k - lam / 8.0)
    return 1.0 / h**2 + potential, np.full(grid.n_points - 1, -0.5 / h**2)


@pytest.fixture
def grid_solves(monkeypatch):
    """Each (d, e, il, iu, (found, values, info)) that the grid oracle passes to dstebz."""
    solves = []
    dstebz = spectra._dstebz

    def spy(d, e, il, iu):
        solves.append((d, e, il, iu, dstebz(d, e, il, iu)))
        return solves[-1][-1]

    monkeypatch.setattr(spectra, "_dstebz", spy)
    return solves


def _grids(kind, lam):
    """(n_levels, grid) for every grid the oracle solves on at k = 0.05, m = 1."""
    for n_levels in (1, 3, 10):
        coarse = default_grid(SystemParams(kind, lam, 0.05), 1, n_levels)
        for grid in (coarse, RadialGrid(2 * coarse.n_points + 1, coarse.x_max)):
            yield n_levels, grid


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("lam", [0.0, 0.015, 0.5])
def test_grid_eigenvalues_equal_scipy_eigh_tridiagonal(grid_solves, kind, lam):
    # scipy's public path is the test-only oracle for the direct dstebz call
    from scipy.linalg import eigh_tridiagonal

    for n_levels, grid in _grids(kind, lam):
        vals = _eigenvalues_on_grid(SystemParams(kind, lam, 0.05), 1, n_levels, grid)
        d, e, *_ = grid_solves.pop()
        assert len(d) == grid.n_points
        want = eigh_tridiagonal(np.asarray(d), np.asarray(e), select="i",
                                select_range=(0, n_levels - 1), eigvals_only=True)
        assert np.array(vals).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("lam", [0.0, 0.015, 0.5])
def test_float_diagonal_matches_the_numpy_reference(grid_solves, kind, lam):
    # at lam = 0 the arithmetic is the same, op for op; at lam > 0 libm's sin and tan may
    # round differently from numpy's by an ulp, which the oscillator's tan**2 doubles
    ulps = 1 if kind is SystemKind.COULOMB else 2
    for n_levels, grid in _grids(kind, lam):
        _eigenvalues_on_grid(SystemParams(kind, lam, 0.05), 1, n_levels, grid)
        d, e, *_ = grid_solves.pop()
        want, off = _numpy_matrix(kind, lam, 0.05, 1, grid)
        assert np.asarray(e).tobytes() == off.tobytes()
        if lam == 0.0:
            assert np.asarray(d).tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(np.asarray(d) - want) <= ulps * np.spacing(np.abs(want)))


# arrays() fills most entries with one repeated value, so ties and clusters come often
_tridiagonals = st.integers(1, 300).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-1e6, 1e6)),
    arrays(np.float64, n - 1, elements=st.floats(-1e6, 1e6)),
    st.integers(1, n).flatmap(lambda il: st.tuples(st.just(il), st.integers(il, n)))))


@settings(max_examples=200)
@given(_tridiagonals)
def test_dstebz_call_matches_scipy_lapack(matrix):
    from scipy.linalg import lapack

    d, e, (il, iu) = matrix
    found, vals, info = spectra._dstebz(array("d", d), array("d", e), il, iu)
    e_f2py = e if e.size else np.zeros(1)  # the f2py wrapper takes no empty array at n = 1
    want = lapack.dstebz(d, e_f2py, 2, 0.0, 1.0, il, iu, 0.0, "E")
    assert (found, info) == (want[0], want[4])
    assert array("d", vals).tobytes() == want[1][:found].tobytes()


@pytest.mark.parametrize("n_off,il,iu", [(2, 1, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 3)])
def test_dstebz_call_refuses_a_bad_shape_before_lapack_sees_it(n_off, il, iu):
    with pytest.raises(ValueError, match="bad tridiagonal"):
        spectra._dstebz(array("d", [1.0, 2.0]), array("d", [0.5] * n_off), il, iu)


@pytest.mark.parametrize("found,info", [(3, 1), (2, 0)])
def test_eigensolver_failure_is_an_accuracy_error(monkeypatch, found, info):
    def fake(d, e, il, iu):
        return found, (0.0,) * found, info

    monkeypatch.setattr(spectra, "_dstebz", fake)
    with pytest.raises(AccuracyError) as exc:
        radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.1, 0.0), 1, 3)
    assert exc.value.code == "ERR_ACCURACY"
    assert str(exc.value) == (f"tridiagonal eigensolver failed: dstebz found {found} of 3 "
                              f"levels (LAPACK info={info})")


@pytest.mark.parametrize("kind,lam,m,message", [
    pytest.param(SystemKind.COULOMB, 1e300, 1, "dstebz found 0 of 1 levels (LAPACK info=4)",
                 id="coulomb-1e+300-info=4"),  # LAPACK's bisection fails
    pytest.param(SystemKind.OSCILLATOR, 1e308, 1, "array must not contain infs or NaNs",
                 id="oscillator-1e+308-infs or NaNs"),  # the matrix overflows
    # the flat grid reaches r = 2e200 and its h**2 overflows, which was an OverflowError
    pytest.param(SystemKind.COULOMB, 0.0, 10**100, "array must not contain infs or NaNs",
                 id="coulomb-0-m=1e100-h**2 overflows"),
])
def test_unsolvable_grid_matrix_is_an_accuracy_error(kind, lam, m, message):
    with pytest.raises(AccuracyError) as exc:
        radial_solve_numeric(SystemParams(kind, lam, 0.0), m, 1)
    assert str(exc.value) == f"tridiagonal eigensolver failed: {message}"


def test_a_zero_division_on_the_diagonal_is_the_non_finite_matrix_error(monkeypatch):
    # where numpy's division gave an inf or a NaN, Python's raises
    monkeypatch.setattr(spectra, "_transformed_potential", lambda *args: [1.0 / 0.0])
    with pytest.raises(AccuracyError) as exc:
        radial_solve_numeric(SystemParams(SystemKind.COULOMB, 0.1, 0.0), 1, 1)
    assert str(exc.value) == "tridiagonal eigensolver failed: array must not contain infs or NaNs"


_IMPORT_ORDER = """
import sys
from array import array
from screened_sphere import spectra
from screened_sphere.closed_forms import SystemKind, SystemParams

PARAMS = SystemParams(SystemKind.COULOMB, 0.1, 0.05)
solves = []
dstebz = spectra._dstebz

def spy(d, e, il, iu):
    solves.append((d, e, il, iu, dstebz(d, e, il, iu)))
    return solves[-1][-1]

spectra._dstebz = spy

def solve():
    return array("d", spectra.radial_solve_numeric(PARAMS, 1, 3).energies)

if sys.argv[1] == "linalg-first":
    import scipy.linalg
    before = solve()
else:
    before = solve()
    assert not [m for m in sys.modules if m.startswith(("scipy", "numpy"))]
    import scipy.linalg
import numpy as np
assert solve().tobytes() == before.tobytes()
assert len(solves) == 4
for d, e, il, iu, (found, vals, info) in solves:
    want = scipy.linalg.lapack.dstebz(np.asarray(d), np.asarray(e), 2, 0.0, 1.0, il, iu, 0.0, "E")
    assert (found, info) == (want[0], want[4]) == (3, 0)
    assert array("d", vals).tobytes() == want[1][:found].tobytes()
print("ok")
"""


@pytest.mark.parametrize("order", ["solve-first", "linalg-first"])
def test_scipy_linalg_loads_beside_the_grid_solve_and_agrees_bitwise(tmp_path, order):
    # a fresh interpreter, so that no earlier test has loaded scipy already
    rc, out = run_process([order], tmp_path, entry=["-c", _IMPORT_ORDER])
    assert rc == 0, out["stderr"]
    assert out["stdout"] == b"ok\n"


# --- degeneracy splitting ---------------------------------------------------------

def _levels(kind, lam, k, pair):
    """The energies of the two (m, N) levels of ``pair``."""
    return [analytic_energy(kind, lam, k, m, n) for m, n in pair]


def test_coulomb_degeneracy_split():
    pair = ((1, 1), (2, 0))
    e1_unscreened, e2_unscreened = _levels(SystemKind.COULOMB, 0.0, 0.0, pair)
    e1, e2 = _levels(SystemKind.COULOMB, 0.0, 0.05, pair)
    assert e1_unscreened == e2_unscreened
    assert e1_unscreened == pytest.approx(-0.5 / 2.5**2, rel=1e-14)
    assert abs(e1 - e2) > 1e-4
    # m' + N values quoted against direct evaluation
    assert m_prime(1, 0.05) + 1 == pytest.approx(1.9486832980505138, rel=1e-12)
    assert m_prime(2, 0.05) == pytest.approx(1.9748417658131499, rel=1e-12)


def test_oscillator_degeneracy_split():
    pair = ((4, 0), (2, 1))
    e1_unscreened, e2_unscreened = _levels(SystemKind.OSCILLATOR, 0.0, 0.0, pair)
    e1, e2 = _levels(SystemKind.OSCILLATOR, 0.0, 0.05, pair)
    assert e1_unscreened == e2_unscreened
    assert e1_unscreened == pytest.approx(5.0, rel=1e-14)
    assert abs(e1 - e2) > 1e-4


def test_degeneracy_gap_confirmed_by_oracle():
    lam, k = 0.1, 0.05
    gap_analytic = abs(coulomb_energy(lam, k, 1, 1) - coulomb_energy(lam, k, 2, 0))
    e_m1 = radial_solve_numeric(SystemParams(SystemKind.COULOMB, lam, k), 1, 2).energies[1]
    e_m2 = radial_solve_numeric(SystemParams(SystemKind.COULOMB, lam, k), 2, 1).energies[0]
    assert abs(abs(e_m1 - e_m2) - gap_analytic) < 1e-4


@pytest.mark.parametrize("lam", _DEGENERACY_LAMS)
@pytest.mark.parametrize("kind", list(SystemKind))
def test_grid_levels_are_degenerate_unscreened_and_split_screened(ten_levels, kind, lam):
    # with no closed form: at k = 0 a level depends on m + N (coulomb) or m + 2N (oscillator)
    # alone, so E(m, N) = E(m + dm, N - 1) within the two levels' estimates; at k > 0 it
    # depends on m' = sqrt(m**2 - 2k) instead, which splits the pair by more than that
    dm = 1 if kind is SystemKind.COULOMB else 2
    for m, n in itertools.product(range(1, 6 - dm), range(1, 10)):
        for k in (0.0, 0.05):
            a, b = ten_levels[kind, lam, k, m], ten_levels[kind, lam, k, m + dm]
            gap = abs(a.energies[n] - b.energies[n - 1])
            estimates = a.error_estimate[n] + b.error_estimate[n - 1]
            assert gap <= estimates if k == 0.0 else gap > estimates, (m, n, k, gap, estimates)


# --- tables --------------------------------------------------------------------

def test_spectrum_entries_and_csv():
    entries = spectrum_entries(SystemParams(SystemKind.OSCILLATOR, 0.0, 0.0), ms=[0], ns=[0])
    assert entries[0].e_analytic == pytest.approx(1.0)
    text = spectrum_csv(entries)
    lines = text.splitlines()
    assert lines[0] == "kind,lambda,k,m,N,m_prime,E_analytic,E_numeric,abs_diff"
    assert lines[1].startswith("oscillator,0,0,0,0,0,1,")

    entries = spectrum_entries(SCREENED, ms=[1], ns=[0, 1], numeric=True)
    for e in entries:
        assert e.e_numeric is not None
        assert e.abs_diff == pytest.approx(abs(e.e_analytic - e.e_numeric))
        assert e.abs_diff < 1e-4


@pytest.mark.parametrize("numeric", [False, True])
def test_spectrum_table_of_no_levels_is_empty(numeric):
    # the numeric table sized its solve by max(ns), which raised on an empty N list
    assert spectrum_entries(SCREENED, [1], [], numeric=numeric) == []


def _csv_field(value) -> str:
    return "" if value is None else f"{value:.17g}" if isinstance(value, float) else str(value)


# about one example in nine solves the grid oracle, which takes most of the test's time
@settings(max_examples=100)
@given(st.sampled_from(SystemKind), st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       st.floats(0.0, 0.3), st.sets(st.integers(1, 4), min_size=1),
       st.sets(st.integers(0, 5), min_size=1), st.sampled_from([False] * 3 + [True]))
def test_spectrum_csv_rows_are_the_json_records(kind, lam, k, ms, ns, numeric):
    entries = spectrum_entries(SystemParams(kind, lam, k), sorted(ms), sorted(ns), numeric=numeric)
    header, *rows = spectrum_csv(entries).splitlines()
    assert len(rows) == len(entries)
    for entry, row in zip(entries, rows):
        record = entry.to_dict()
        assert header.split(",") == list(record)
        fields = row.split(",")
        assert fields == [_csv_field(v) for v in record.values()]
        for field, value in zip(fields, record.values()):
            if isinstance(value, float):
                assert float(field) == value


def test_spectrum_entries_solve_each_distinct_m_once(monkeypatch):
    solved = []
    solve = spectra.radial_solve_numeric

    def counting(params, m, n_levels):
        solved.append(m)
        return solve(params, m, n_levels)

    monkeypatch.setattr(spectra, "radial_solve_numeric", counting)
    entries = spectrum_entries(SCREENED, ms=[1, 2, 1], ns=[1, 0], numeric=True)
    assert solved == [1, 2]
    assert entries[4:] == entries[:2]
    assert entries == spectrum_entries(SCREENED, ms=[1, 2], ns=[1, 0], numeric=True) + entries[:2]
