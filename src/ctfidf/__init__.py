"""Sparse text classification with clement TF-IDF and truncated SVD.

The pipeline: delimited corpus -> tokenize/stem -> sparse count matrix ->
TF-IDF or arcsinh-based clement weighting -> optional Lanczos truncated
SVD projection -> decision tree or linear SVM -> confusion-matrix report.
"""

from .dfm import Vocabulary, build_dfm, build_vocabulary
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    MetricsFragment,
    confusion,
    kfold_indices,
    metrics,
    time_train,
)
from .ingest import (
    LabeledCorpus,
    LoadFormat,
    RawRecord,
    SplitSpec,
    load_dataset,
    normalize_labels,
    split,
)
from .irlba import IrlbaConfig, SvdFactors, irlba, project
from .pipeline import (
    DatasetConfig,
    ExperimentConfig,
    ModelSpec,
    ReduceConfig,
    compare,
    explain,
    load_config,
    run_experiment,
)
from .porter import porter_stem
from .preprocess import (
    PreprocessConfig,
    ProcessedDoc,
    load_stopwords,
    preprocess_corpus,
    preprocess_doc,
    remove_stopwords,
    tokenize,
)
from .svm import SvmModel, predict_svm, train_svm
from .tree import (
    DecisionTreeModel,
    TreeParams,
    feature_importance,
    predict_dtree,
    train_dtree,
)
from .weighting import (
    Scheme,
    WeightingModel,
    apply_weighting,
    fit_weighting,
    idf_arcsinh,
    idf_classic,
    tf_row,
)

__version__ = "0.1.0"
