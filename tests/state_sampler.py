"""The seeded random phase states that ``brackets`` draws, as ``PhaseState`` records.

``sample_states(params, n, seed)`` takes the same states, in the same order, as
``conserved.verify_coulomb_algebra`` and ``verify_oscillator_algebra`` with that
``n`` and ``seed``, under the same checks.  It takes them from the array path,
``conserved._sample_batch``, which finds the ones the float path finds, since both
draw through one map and one acceptance rule made of +, - and *
(``conserved._candidates``).  No command runs it; the sampling rule itself stays
in ``conserved``.
"""

from screened_sphere import conserved
from screened_sphere.phase_space import PhaseState


def sample_states(params, n: int, seed: int = 0) -> list[PhaseState]:
    """``n`` states for ``seed``; raises as the algebra checks do before any draw."""
    conserved._check_sampling(params, n, seed)
    return [PhaseState(*z) for z in conserved._sample_batch(params, n, seed).T.tolist()]
