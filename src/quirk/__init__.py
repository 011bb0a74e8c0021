"""QuIRK: Kolmogorov-Arnold networks with data re-uploading activations.

A small numpy library for regression with networks whose trainable
univariate activations are single-qubit data re-uploading circuits,
plus pruning, interpretability fits, a B-spline baseline, and a CLI.
"""

import ctypes as _ctypes
import sys as _sys

# Left to itself, glibc raises its mmap and trim thresholds as big mapped
# blocks are freed, so whether a batch's numpy temporaries reuse the heap or
# fault in pages it has just trimmed depends on what the process ran before
# (a 2000-row forward of a [6, 8, 4, 1] network on a 2-vCPU host: 1.4 ms, or
# 2.5 ms with 2300 page faults).  Pin both at the caps that rule moves
# toward: blocks under 32 MiB come from the heap, which keeps up to 64 MiB
# free.
if _sys.platform.startswith("linux"):
    try:
        _mallopt = _ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no libc mallopt to call
        pass
    else:
        _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

from .dr import (
    DEFAULT_TEMPLATE,
    SU2_TEMPLATE,
    CapacityError,
    DRParams,
    GateTemplate,
    dr_forward_batch,
)
from .network import (
    LayerSpec,
    Model,
    ModelFormatError,
    ModelVersionError,
    NetworkSpec,
    init_model,
    load_model,
    network_backward,
    network_forward,
    param_count,
    save_model,
    spec_from_shape,
)
from .train import (
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    edge_scores,
    prune,
    rmse,
    train,
)
from .data import (
    CSVFormatError,
    Dataset,
    EQUATIONS,
    FEYNMAN_EQUATIONS,
    generate,
    generate_univariate,
    load_csv,
    save_csv,
    target_scale,
)
from .bspline import BSplineModel, basis_eval
from .bspline import fit as fit_bspline
from .interpret import (
    InterpretReport,
    PolyFit,
    fit_poly,
    report,
    surrogate_forward,
)

__version__ = "0.1.0"
