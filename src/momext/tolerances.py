"""Numerical tolerance knobs, bundled so every routine reads the same dials.

Names ending in ``_rel`` are taken relative to the natural scale of the
matrix at hand (largest absolute entry or largest eigenvalue magnitude);
names ending in ``_abs`` apply to quantities that are already normalized
(unit-norm parameter matrices, singular values of products of orthonormal
bases).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Tolerances:
    herm_rel: float = 1e-10     # Hermitian-symmetry defect allowed, relative
    psd_rel: float = 1e-10      # eigenvalue floor for "is PSD", relative
    pos_rel: float = 1e-10      # eigenvalue floor for "is positive definite"
    rank_rel: float = 1e-12     # eigen/singular value cutoff for numerical rank
    proj_abs: float = 1e-10     # conditioning floor for deficiency projections
    adm_abs: float = 1e-8       # admissibility margin floor
    norm_abs: float = 1e-8      # slack allowed around operator norm 1
    solve_rel: float = 1e-8     # relative residual allowed in resolvent solves
    cluster_rel: float = 1e-9   # eigenvalue clustering gap, rel. spectral radius
    weight_rel: float = 1e-12   # atom weight drop threshold, rel. total mass
    perron_abs: float = 1e-3    # eps-ladder stabilization; residue-form check

    def replace(self, **kw) -> "Tolerances":
        return dataclasses.replace(self, **kw)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_overrides(cls, overrides: dict[str, float] | None) -> "Tolerances":
        if not overrides:
            return cls()
        unknown = set(overrides) - set(cls.names())
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}; "
                             f"known: {list(cls.names())}")
        return cls(**{k: float(v) for k, v in overrides.items()})


DEFAULT = Tolerances()
