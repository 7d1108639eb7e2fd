"""Recursive least-squares aided online learning with memory retention."""

from .bench import (
    BenchParams,
    DriftScenario,
    RunReport,
    build_scenario,
    compare_retention,
    generate_stream,
    run_learner,
)
from .conv import (
    ConvLayer,
    FeatureMap,
    WeightedSample,
    conv_forward,
    conv_gradient,
    conv_loss,
    conv_update_stage,
    conv_virtual_input,
    im2col,
    run_conv_session,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DimensionError,
    DivergenceError,
    FactorizationError,
    InputError,
    ProtocolError,
    RlsolError,
)
from .linalg import cholesky_lower, spd_solve
from .mlp import (
    MlpModel,
    SessionConfig,
    SessionEvent,
    backward,
    forward,
    init_bank,
    layer_virtual_input,
    rls_update_layers,
    run_session,
)
from .optimizers import (
    EmaConfig,
    GdConfig,
    SlidingWindow,
    bgd_update,
    ema_combine,
    mbsgd_update,
    precond_gd_iterate,
    precond_update_stage,
)
from .rls import (
    CorrelationPair,
    RlsConfig,
    RlsState,
    SampleBlock,
    accumulate_correlations,
    advance_precision,
    batch_solve,
    block_virtual_input,
    gain_vector,
    init_state,
    lse_cost,
    rls_step,
    update_precision,
)

__version__ = "0.1.0"
