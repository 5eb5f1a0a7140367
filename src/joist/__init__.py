"""Transaction-feature modeling of blockchain block verification time.

The core model predicts a block's verification time from four per-block
counts: JoinSplit descriptions, Output descriptions, transparent inputs, and
Spend descriptions. The package covers the full workflow: feature extraction
and dataset ingestion, least-squares fitting, evaluation statistics, and
reproducible comparison experiments against byte-rate baseline models.
"""

from .errors import (
    DataError,
    DegenerateDataError,
    DegenerateVarianceError,
    FormatError,
    HeightRangeError,
    IntegrityError,
    JoistError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    RemoteError,
    RpcConnectionError,
    SampleCountError,
    ShapeError,
    SynthSpecError,
    UnsupportedKindError,
)
from .experiment import (
    ComparisonRow,
    CompositionReport,
    SplitPlan,
    SynthSpec,
    composition_analysis,
    correlation_table,
    emit_plot_data,
    generate_synthetic,
    run_comparison,
    split,
)
from .features import (
    BlockFeatures,
    Dataset,
    TxFeatures,
    aggregate_block,
    extract_tx_features,
)
from .fit import FitResult, ols_fit
from .ingest import (
    CSV_HEADER,
    RpcEndpoint,
    fetch_block_features,
    read_dataset,
    write_dataset,
    write_features_csv,
)
from .models import (
    GERVAIS_BASELINE,
    ModelKind,
    ModelSpec,
    load_model,
    n_predictors,
    predict,
    save_model,
)
from .stats import EvalReport, adjusted_r_squared, evaluate

__version__ = "0.1.0"
