"""The block Cholesky frame against the paper's +-i parametrization.

Every admissible unitary V of the Cholesky frame must give a solution the
paper's route gives too.  On seeded full-defect and rank-drop draws with
N in {1, 2, 3} and d in {1..4}, the extension A_V is carried into the
eigen-frame Gram model of tests/eigen_frame.py by the unitary
intertwining the two models, where it determines the paper's parameter

    V_old = B_minus^H (A - i)^{-1} (A + i) B_plus

(the relation between the domain and image columns of that route).
V_old must be unitary and admissible there, and the paper's route at
V_old must give the same measure within 1e-10 relative.
"""

from __future__ import annotations

import numpy as np

from momext import prepare, selfadjoint_extension, spectral_measure
from momext.tolerances import DEFAULT

import eigen_frame
from sampling import (random_admissible_isometry, random_deficient_instance,
                      random_feasible_instance)
from test_pipeline import _intertwiner

RNG_SEED = 20261102
GATE_REL = 1e-10


def test_every_cholesky_frame_solution_is_a_solution_of_the_paper():
    rng = np.random.default_rng(RNG_SEED)
    checked = 0
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                ws = prepare(seq)
                if ws.defect == 0:
                    continue
                ref = eigen_frame.eigen_workspace(seq)
                t_map = _intertwiner(ws, ref, np.eye(n))
                parameter = random_admissible_isometry(
                    rng, ws.shift, ws.pair, ws.forbidden, min_margin=0.25)
                ext = selfadjoint_extension(ws.shift, ws.pair, parameter)
                carried = t_map @ ext.matrix @ np.conj(t_map.T)
                eye = np.eye(len(carried))
                v_old = np.conj(ref.minus.T) @ np.linalg.solve(
                    carried - 1j * eye, (carried + 1j * eye) @ ref.plus)
                label = (n, d, draw.__name__)
                q = ws.defect
                assert np.abs(np.conj(v_old.T) @ v_old
                              - np.eye(q)).max() <= 1e-10, label
                assert eigen_frame.margin(ref, v_old) > DEFAULT.adm_abs, label

                new = spectral_measure(ext, ws.shift)
                old = eigen_frame.measure(ref, v_old)
                assert new.n_atoms == old.n_atoms, label
                reach = np.maximum(np.abs(new.locations), 1.0)
                assert np.all(np.abs(new.locations - old.locations)
                              <= GATE_REL * reach), label
                scale = max(1.0, float(np.abs(new.weights).max()))
                assert np.abs(new.weights - old.weights).max() <= \
                    GATE_REL * scale, label
                checked += 1
    assert checked >= 20
