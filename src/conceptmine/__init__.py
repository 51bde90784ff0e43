"""conceptmine: ontology-driven concept mention mining, co-occurrence
embeddings, self-labeling, and evaluation for free-text corpora."""

from .autoencoder import (
    AEConfig,
    AEModel,
    TrainReport,
    encode_all,
    forward,
    init_model,
    loss_and_gradients,
    train,
)
from .evaluate import (
    ConfusionCounts,
    GoldAnnotation,
    PRPoint,
    compute_metrics,
    match_to_gold,
    per_concept_metrics,
    pr_auc,
    pr_sweep,
)
from .ingest import Corpus, Document, load_corpus
from .lexicon import (
    Concept,
    Lexicon,
    Vocabulary,
    build_vocabulary,
    expand_descendants,
    extract_leaf_concepts,
    load_lexicon,
)
from .matrix import (
    CoocMatrix,
    DocConceptMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embedding,
    cosine_similarity,
    document_context_vector,
)
from .ner import (
    FilterRules,
    Mention,
    apply_filter_rules,
    find_mentions,
)
from .selflabel import ScoredMention, ThresholdSweep, label_at_threshold, score_mentions
from .tokenize import Token, tokenize

__version__ = "0.1.0"

__all__ = [
    "AEConfig",
    "AEModel",
    "Concept",
    "ConfusionCounts",
    "CoocMatrix",
    "Corpus",
    "DocConceptMatrix",
    "Document",
    "FilterRules",
    "GoldAnnotation",
    "Lexicon",
    "Mention",
    "PRPoint",
    "ScoredMention",
    "ThresholdSweep",
    "Token",
    "TrainReport",
    "Vocabulary",
    "apply_filter_rules",
    "build_cooc_matrix",
    "build_doc_concept_matrix",
    "build_vocabulary",
    "compute_metrics",
    "concept_embedding",
    "cosine_similarity",
    "document_context_vector",
    "encode_all",
    "expand_descendants",
    "extract_leaf_concepts",
    "find_mentions",
    "forward",
    "init_model",
    "label_at_threshold",
    "load_corpus",
    "load_lexicon",
    "loss_and_gradients",
    "match_to_gold",
    "per_concept_metrics",
    "pr_auc",
    "pr_sweep",
    "score_mentions",
    "tokenize",
    "train",
]
