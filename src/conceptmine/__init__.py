"""conceptmine: ontology-driven concept mention mining, co-occurrence
embeddings, self-labeling, and evaluation for free-text corpora.

Import names from their modules, e.g. ``from conceptmine.lexicon import
load_lexicon``; the package root re-exports nothing.
"""

__version__ = "0.1.0"
