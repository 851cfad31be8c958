"""Backdoor-adjusted few-shot classification over precomputed features.

The package covers the full pipeline: feature/knowledge-base file formats,
stratum-adjusted classifier heads with exact gradients, episode sampling and
hardness-binned evaluation, causal-graph machinery (d-separation, do-calculus
rule conditions, instrumental variables), a synthetic confounded-data
generator, and first-order meta-learned head initializations.
"""

from .adjust import (
    AdjustmentConfig,
    Predictor,
    backdoor_exact_classwise,
    class_context,
    nwgm,
)
from .causal_graph import (
    BUILTIN_GRAPHS,
    Dag,
    ancestors,
    backdoor_admissible,
    builtin_graph,
    d_separated,
    descendants,
    graph_from_json,
    graph_to_json,
    is_instrumental,
    manipulate,
    rule_condition,
)
from .episodes import (
    Episode,
    EpisodeResult,
    episode_hardness,
    episode_rng,
    run_episode,
    run_many,
    sample_episode,
)
from .heads import (
    FitConfig,
    HeadParams,
    fit_head,
)
from .knowledge import (
    FeatureDataset,
    FormatError,
    KnowledgeBase,
    PartitionConfig,
    load_features,
    load_features_csv,
    load_kb,
    pretrain_probs,
    save_features,
    save_features_csv,
    save_kb,
)
from .meta import MetaInit, adapt, load_meta, meta_train, save_meta, zero_meta_init
from .evalmetrics import HardnessBin, Report, accuracy_report, hardness_report, query_hardness
from .numerics import softmax
from .synth import (
    IvResult,
    LinearScmConfig,
    SynthConfig,
    SynthOutput,
    fit_kb,
    gen_confounded,
    iv_demo,
    run_confounded,
    sample_confounded_episode,
)

__version__ = "0.1.0"
