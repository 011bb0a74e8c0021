"""QuIRK: Kolmogorov-Arnold networks with data re-uploading activations.

A small numpy library for regression with networks whose trainable
univariate activations are single-qubit data re-uploading circuits,
plus pruning, interpretability fits, a B-spline baseline, and a CLI.
"""

from .dr import (
    DEFAULT_TEMPLATE,
    SU2_TEMPLATE,
    CapacityError,
    DRParams,
    GateTemplate,
    dr_forward_batch,
    dr_gradient,
    init_dr_params,
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
    EdgeFunctionSample,
    InterpretReport,
    PolyFit,
    fit_poly,
    report,
    sample_edge,
    surrogate_forward,
)

__version__ = "0.1.0"
