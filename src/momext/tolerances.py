"""Numerical tolerance knobs, bundled so every routine reads the same dials.

Names ending in ``_rel`` are taken relative to the natural scale of the
matrix at hand (largest absolute entry or largest eigenvalue magnitude);
names ending in ``_abs`` apply to quantities that are already normalized
(parameter matrices of norm at most 1 and their admissibility margins,
which lie in [0, 2]).  A few thresholds are fixed module constants next
to the code that reads them (the Hermitian check on moments, the
verification tolerances, among them measures.TRANSFORM_REL_TOL for the
transform route's moments and the residues' mass in Perron inversion,
and the sweep's site tolerance); the README lists them.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Tolerances:
    psd_rel: float = 1e-10      # eigenvalue floor for "is PSD", relative
    pos_rel: float = 1e-10      # eigenvalue floor for "is positive definite"
    rank_rel: float = 1e-12     # eigen/singular value cutoff for numerical rank
    adm_abs: float = 1e-8       # admissibility margin floor
    norm_abs: float = 1e-8      # slack allowed around operator norm 1
    cluster_rel: float = 1e-9   # eigenvalue clustering gap, rel. max(1, |t|)
    weight_rel: float = 1e-12   # atom drop threshold, rel. total mass

    def replace(self, **kw) -> "Tolerances":
        return dataclasses.replace(self, **kw)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    def override(self, overrides: dict) -> "Tolerances":
        """A copy with the named thresholds replaced; the one validator of
        names and values from the command line and from problem files.
        Every threshold is a finite, non-negative number: a NaN compares
        false against everything and would flip verdicts silently."""
        unknown = set(overrides) - set(self.names())
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}; "
                             f"known: {list(self.names())}")
        values = {k: float(v) for k, v in overrides.items()}
        for k, v in values.items():
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"tolerance {k} must be a finite, "
                                 f"non-negative number, got {v!r}")
        return self.replace(**values)


DEFAULT = Tolerances()
