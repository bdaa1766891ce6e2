"""Blind interference alignment supersymbols for multi-user MISO channels.

Construct preset-mode switching patterns (flat or grouping based), verify
their alignment numerically on simulated block-fading channels, evaluate
exact degrees of freedom, and search grouping configurations under a
supersymbol length budget.
"""

from .patterns import (
    GroupingConfig,
    PresetPattern,
    UserPattern,
    base_pattern,
    flat_length,
    grouped_length,
    grouped_pattern,
    pattern_table,
)
from .dof import (
    ReceiverPrediction,
    ReductionRatio,
    config_sum_dof,
    per_user_dof,
    rank_predictions,
    reduction_ratio,
    render_decimal,
    render_rational,
    sum_dof_flat,
    sum_dof_grouped,
)
from .signal import (
    AlignmentReport,
    ChannelSet,
    DecodeResult,
    ReceivedBlock,
    StreamPlacement,
    alignment_report,
    assemble_received,
    build_streams,
    decode,
    draw_channels,
    random_symbols,
    report_to_csv,
    verify_receivers,
)
from .search import (
    BestEntry,
    OptimizeResult,
    SearchSpace,
    SweepResult,
    enumerate_configs,
    optimize,
    sweep,
    sweep_to_csv,
    verify_sweep,
)

__version__ = "0.1.0"
