"""Randomized CUR-family decompositions for matrix pairs and triplets.

Library surface:

* :mod:`rcur.gsvd` — generalized SVD of a pair and its sketched variant,
* :mod:`rcur.gcur` — generalized CUR of a pair (deterministic / randomized),
* :mod:`rcur.rsvd` — restricted SVD of a triplet,
* :mod:`rcur.rsvd_cur` — CUR of a triplet driven by restricted-SVD factors,
* :mod:`rcur.selection` — DEIM and L-DEIM index selection,
* :mod:`rcur.synth` / :mod:`rcur.bench` — seeded generators and experiments.

The functions ``gsvd`` and ``rsvd_cur`` share their modules' names, so they
are not re-exported here: ``rcur.gsvd`` and ``rcur.rsvd_cur`` are the
modules, and ``from rcur.gsvd import gsvd`` gives the function.
"""
from .cur import CurFactors, deim_cur
from .gcur import (
    GcurBound,
    GcurFactors,
    gcur_bound,
    gcur_deterministic,
    gcur_error,
    gcur_from_factors,
    middle_matrix,
    r_deim_gcur,
    r_ldeim_gcur,
    sketch_tail_bound,
)
from .gsvd import GsvdFactors, randomized_gsvd
from .linalg import DimensionError, RankDeficiencyError, relative_error
from .rsvd import RsvdFactors, randomized_rsvd, rsvd_deterministic
from .rsvd_cur import (
    RsvdCurBound,
    RsvdCurFactors,
    r_ldeim_rsvd_cur,
    rsvd_cur_from_factors,
    rsvdcur_bound,
)
from .selection import (
    deim_select,
    ldeim_select,
    select_indices,
)
from .sketch import SketchConfig, gaussian_matrix, range_finder, split_seed
from .synth import (
    bfg_perturb,
    sparse_lowrank,
    subgroup_data,
    toeplitz_noise,
)

__version__ = "0.1.0"

__all__ = [
    "CurFactors",
    "DimensionError",
    "GcurBound",
    "GcurFactors",
    "GsvdFactors",
    "RankDeficiencyError",
    "RsvdCurBound",
    "RsvdCurFactors",
    "RsvdFactors",
    "SketchConfig",
    "bfg_perturb",
    "deim_cur",
    "deim_select",
    "gaussian_matrix",
    "gcur_bound",
    "gcur_deterministic",
    "gcur_error",
    "gcur_from_factors",
    "ldeim_select",
    "middle_matrix",
    "r_deim_gcur",
    "r_ldeim_gcur",
    "r_ldeim_rsvd_cur",
    "randomized_gsvd",
    "randomized_rsvd",
    "range_finder",
    "relative_error",
    "rsvd_cur_from_factors",
    "rsvd_deterministic",
    "rsvdcur_bound",
    "select_indices",
    "sketch_tail_bound",
    "sparse_lowrank",
    "split_seed",
    "subgroup_data",
    "toeplitz_noise",
    "__version__",
]
