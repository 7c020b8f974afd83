"""sermtl: multi-task speech emotion recognition.

Frame-level acoustic features feed a shared DNN or LSTM trunk trained jointly
on emotion with gender/naturalness auxiliary heads; per-frame emotion
posteriors are collapsed into 16 utterance-level functionals classified by an
extreme learning machine, with within-/cross-corpus evaluation, significance
testing, and t-SNE diagnostics on top.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    CorpusManifest,
    EmotionLabel,
    GenderLabel,
    NaturalnessLabel,
    SynthConfig,
    UtteranceRecord,
    generate_synthetic,
    load_manifest,
    make_folds,
    stratified_split,
    write_manifest,
)
from .elm import ELMConfig, elm_fit, elm_predict  # noqa: F401
from .experiment import PipelineConfig, run_experiment, run_grid  # noqa: F401
from .features import FeatureStore, extract_features  # noqa: F401
from .hlf import compute_hlf  # noqa: F401
from .metrics import confusion_matrix, unweighted_accuracy, wilcoxon_signed_rank  # noqa: F401
from .mtl import MTLNetworkConfig, MultiTaskModel, TrainConfig, train  # noqa: F401
from .tsne import TsneConfig, compute_affinities, tsne_embed  # noqa: F401
