"""satira: lexico-grammatical analysis and classification of Arabic
satirical fake news articles."""

__version__ = "0.1.0"

from .corpus_io import (
    Document,
    Label,
    LabeledCorpus,
    SplitConfig,
    load_corpus,
    make_document,
    save_corpus,
    split,
)
from .errors import DataError, SatiraError
from .evaluation import (
    EvalReport,
    FeatureRanking,
    evaluate,
    top_informative_features,
)
from .preprocess import (
    NgramFrequency,
    NormalizationConfig,
    StopPhraseList,
    apply_stop_phrases,
    clean_corpus,
    ngram_frequency,
    normalize,
    top_fraction,
)
from .stats import (
    DensityEstimate,
    NanPolicy,
    TTestResult,
    TTestVariant,
    density_histogram,
    regularized_incomplete_beta,
    student_t_sf,
    ttest_two_tailed,
)
from .stylometrics import (
    Lexicon,
    MeasureVector,
    corpus_profile,
    lexicon_score,
)
from .vectorize import (
    Analyzer,
    DocTermMatrix,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    fit,
    transform,
)

__all__ = [
    "Analyzer",
    "DataError",
    "DensityEstimate",
    "DocTermMatrix",
    "Document",
    "EvalReport",
    "FeatureRanking",
    "Label",
    "LabeledCorpus",
    "Lexicon",
    "MeasureVector",
    "NanPolicy",
    "NgramFrequency",
    "NormalizationConfig",
    "SatiraError",
    "SplitConfig",
    "StopPhraseList",
    "TTestResult",
    "TTestVariant",
    "VectorizerConfig",
    "Vocabulary",
    "Weighting",
    "apply_stop_phrases",
    "clean_corpus",
    "corpus_profile",
    "density_histogram",
    "evaluate",
    "fit",
    "lexicon_score",
    "load_corpus",
    "make_document",
    "ngram_frequency",
    "normalize",
    "regularized_incomplete_beta",
    "save_corpus",
    "split",
    "student_t_sf",
    "top_fraction",
    "top_informative_features",
    "transform",
    "ttest_two_tailed",
    "__version__",
]
