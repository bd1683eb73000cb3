"""Model-fusion toolkit: trains small dense classifiers on synthetic tasks
and merges them without retraining, guided by loss comparisons on prototype
evaluation sets, with uniform-averaging and Fisher-weighted baselines."""

from .baseline import fisher_information, fisher_merge, uniform_average
from .merge import (
    DecisionRecord,
    KickoffConfig,
    LevelThresholds,
    MergeConfig,
    MergeReport,
    Thresholds,
    build_eval_set,
    classify_case,
    cogram_iterate,
    cogram_merge,
    convex_combine,
    gradient_kickoff,
    mixing_factor,
)
from .net import (
    DenseLayer,
    FormatError,
    Network,
    NetworkStack,
    ShapeError,
    Workspace,
    compatible,
    cross_entropy_loss,
    deserialize,
    forward,
    load_model,
    mse_loss,
    random_network,
    save_model,
    serialize,
    softmax,
)
from .prototypes import (
    build_prototypes_kmeans,
    build_raw_batch,
    geometric_mean_prototype,
)
from .synthdata import DataConfig, Dataset, generate_pair
from .training import (
    OptimizerConfig,
    TrainReport,
    accuracy,
    clip_gradients,
    train,
    train_stack,
)

__version__ = "0.1.0"
