"""Every shape route of matcore against its twin.

Each predicate of the matcore route table is turned the other way at every
call, alone, on elements at each crossover shape and on near-degenerate
faces.  Both routes must give every public operation the same verdict
wherever ``|margin + tol|`` exceeds 1e-12, the same margins and values within
a few eps at the unit-pair scale, and valid witnesses.  Near a degenerate
face the face vector itself moves by eps over the face gap (Davis and
Kahan, SIAM J. Numer. Anal. 7, 1970), so the margins are compared at that
scale.  On those shapes each predicate must also answer both ways, so that
none of them decides nothing.
"""

import functools
from unittest import mock

import numpy as np
import pytest

from rhoperp import (face_compression, hermitian_spectrum, inner_product, is_bj, is_bj_real,
                     is_bj_strong, is_ip_orthogonal, is_norm_parallel, is_rho_orthogonal,
                     m_lower_bound, matcore, module_daugavet_check, operator_daugavet_witness,
                     operator_norm, rho_cube_identity, rho_pair, state_value, top_face,
                     zero_in_numrange)
from rhoperp.verify import (_witness_margins, bj_orthogonal_pair, inner_orthogonal_pair,
                            random_degenerate_element, random_element)

# The predicate of each shape-dependent choice in matcore.
ROUTES = ("_gram_norm", "_gram_face", "_row_ip", "_row_cube")

# At and around each crossover: 8/9 columns, n = 2m -/+ 1, a smaller side
# of 8/9, and wide elements with m <= 8 and m > 8.
SHAPES = ((8, 8), (9, 9), (12, 8), (12, 9), (5, 9), (5, 11), (9, 17), (9, 19),
          (20, 9), (8, 20), (10, 24))

RELATIONS = (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong, is_rho_orthogonal,
             is_norm_parallel)

# Margins and values of the two routes, all at the unit-pair scale, agree
# within this over the relative face gap of x (at most 1).
AGREE = 16 * np.finfo(float).eps

# Verdicts are compared only where the margin is this far from -tol.
UNDECIDED = 1e-12


def _unit(a):
    return a / np.linalg.svd(a, compute_uv=False)[0]


def _pairs(m, n):
    """Unit-norm pairs: generic, BJ- and ip-orthogonal, x with a 2-dim top
    face and y BJ-orthogonal to it on the face, and x whose second singular
    value lies within 10 gap_tol below the face cut (flagged, not joined)."""
    rng = np.random.default_rng(m * 100 + n)
    x = random_degenerate_element(rng, m, n, multiplicity=2)
    v = top_face(x).isometry
    u, s, vh = np.linalg.svd(random_element(rng, m, n), full_matrices=False)
    s[1] = s[0] * np.sqrt(1.0 - 6e-10)
    pairs = ((random_element(rng, m, n), random_element(rng, m, n)),
             bj_orthogonal_pair(rng, m, n), inner_orthogonal_pair(rng, m, n),
             (x, x @ v @ np.array([[1.0, 2.0], [0.5j, -1.0]]) @ v.conj().T),
             ((u * s) @ vh, random_element(rng, m, n)))
    return [(_unit(x), _unit(y)) for x, y in pairs]


def _outputs(x, y):
    """(verdicts, values, face) of every public operation on a unit pair:
    verdicts as (holds, |margin + tol|), margins and values as floats, and
    the top face of x.  Witnesses are checked on the way."""
    reports = [op(x, y) for op in RELATIONS]
    verdicts = [(r.holds, abs(r.margin + r.tol)) for r in reports]
    values = [r.margin for r in reports]
    assert min(_witness_margins(x, y), default=0.0) >= 0.0

    pair = rho_pair(x, y)
    for state, rho in ((pair.max_witness, pair.rho_plus), (pair.min_witness, pair.rho_minus)):
        assert abs(state_value(state, inner_product(x, x)).real - 1.0) <= 1e-12
        assert abs(state_value(state, inner_product(x, y)).real - rho) <= 1e-12
    face = top_face(x)
    v = face.isometry
    assert np.linalg.norm(v.conj().T @ v - np.eye(face.dim)) <= 1e-12
    assert np.linalg.norm(inner_product(x, x) @ v - face.lambda_max * v) <= 1e-12
    compression = face_compression(face, inner_product(x, y))
    values += [pair.rho_plus, pair.rho_minus, face.lambda_max, face.gap,
               *np.linalg.svd(compression, compute_uv=False)]

    k = min(x.shape)
    numrange = zero_in_numrange(x[:k, :k] @ x[:k, :k].conj().T)
    verdicts.append((numrange.contains_zero, abs(numrange.margin + 1e-9)))
    cube = rho_cube_identity(x)
    module = module_daugavet_check(x, 1.0, 0.5)
    operator = operator_daugavet_witness(x)
    verdicts += [(rep.within_tol, 1.0) for rep in (cube, module, operator)]
    values += [numrange.margin, cube.rho_plus, cube.rho_minus, module.lhs, operator.norm_t,
               operator.norm_cube, operator.sum_norm, operator_norm(x), operator_norm(y),
               m_lower_bound(y), hermitian_spectrum(inner_product(x, x)).eigenvalues[0]]
    return verdicts, np.array(values), face


def _recorder(name, answers):
    taken = getattr(matcore, name)

    def natural(*dims):
        answer = taken(*dims)
        answers.add(answer)
        return answer

    return natural


@functools.cache
def _natural(shape):
    """(the pairs of ``shape`` with their outputs on the routes matcore takes,
    the set of answers each predicate gave on the way)."""
    answers = {name: set() for name in ROUTES}
    with mock.patch.multiple(matcore, **{name: _recorder(name, answers[name])
                                         for name in ROUTES}):
        return [((x, y), *_outputs(x, y)) for x, y in _pairs(*shape)], answers


@pytest.mark.parametrize("name", ROUTES)
def test_every_route_agrees_with_its_twin(name, monkeypatch):
    natural = {shape: _natural(shape)[0] for shape in SHAPES}
    taken, asked = getattr(matcore, name), []

    def twin(*dims):
        asked.append(dims)
        return not taken(*dims)

    monkeypatch.setattr(matcore, name, twin)
    for shape, cases in natural.items():
        for i, (pair, verdicts, values, face) in enumerate(cases):
            twin_verdicts, twin_values, twin_face = _outputs(*pair)
            where = (shape, i)
            assert twin_face.dim == face.dim, where
            assert twin_face.near_degenerate == face.near_degenerate, where
            for (holds, gap), (twin_holds, _) in zip(verdicts, twin_verdicts):
                assert holds == twin_holds or gap <= UNDECIDED, where
            assert np.abs(twin_values - values).max() <= AGREE / min(face.gap, 1.0), where
    assert asked


@pytest.mark.parametrize("name", ROUTES)
def test_every_route_decides_something(name):
    assert set().union(*(_natural(shape)[1][name] for shape in SHAPES)) == {True, False}
