"""End-to-end pipeline: NER, matrices, autoencoder, scoring, evaluation.

The pipeline is one table of stages in run order. Each entry names the
stage, the files it writes under the output directory, the earlier stages
it ``reads``, ``compute`` (a pure computation plus the writers of those
files) and ``read`` (the cached load; ``eval`` has none).

:func:`run_pipeline` decides first, then reads. It decides to reuse a
stage only when ``upto`` names a later stage, every stage before it is
reused too and ``fingerprint.json`` holds this run's :func:`fingerprint`
and each of the stage's files at its current size and CRC-32; otherwise
the stage is computed. It then walks the table, computing the stages it
does not reuse and reading a reused one back only when a computed stage
reads it; the mentions are always read, since the run's counts need
them. A cached ``--stage eval`` rerun so parses the mentions and the
scores but no matrix and no model, and numpy, which only the stages that
compute or parse arrays import, is never loaded.

Any exception inside a stage becomes a :class:`PipelineError` naming it.
All outputs are canonically ordered; reruns with the same config and
seed are byte-identical.
"""

from __future__ import annotations

import json
import shutil
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from . import evaluate as ev
from .config import PipelineConfig
from .ingest import Corpus, load_corpus, read_id_file, read_records, write_id_file
from .lexicon import (
    ConceptId,
    Lexicon,
    LexiconError,
    Vocabulary,
    build_vocabulary,
    expand_descendants,
    extract_leaf_concepts,
    load_lexicon,
)
from .ner import Mention, find_corpus_mentions, read_mentions, write_mentions
from .selflabel import score_column, write_label_files, write_scores

if TYPE_CHECKING:
    from .autoencoder import AEModel
    from .matrix import CoocMatrix, DocConceptMatrix

SELECTED_CONCEPTS = "selected_concepts.txt"
FINGERPRINT = "fingerprint.json"
# Outputs do not depend on these: eval is never read back, threads change no byte.
_UNFINGERPRINTED = ("output_dir", "gold_path", "threads")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class RunResult:
    n_docs: int
    n_mentions: int
    n_unfiltered: int
    m_concepts: int
    encoded_dim: int | None
    auc_raw: float | None
    auc_encoded: float | None

    @property
    def auc_gap(self) -> float | None:
        if self.auc_raw is None or self.auc_encoded is None:
            return None
        return abs(self.auc_raw - self.auc_encoded)


@dataclass
class _Run:
    """The inputs every stage sees, plus the result of each stage so far."""

    config: PipelineConfig
    lexicon: Lexicon
    corpus: Corpus
    vocab: Vocabulary
    mentions: list[Mention] = field(default_factory=list)
    X: DocConceptMatrix | None = None
    C: CoocMatrix | None = None
    model: AEModel | None = None
    # One score column per space: entry k scores mentions[k].
    scores: dict[str, list[float]] = field(default_factory=dict)
    aucs: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Stage:
    """One table entry. ``reads`` names the earlier stages whose results
    ``compute`` uses; a reused stage is read back only for a computed
    stage that names it. ``compute`` and ``read`` take the run and the
    paths of ``files``, in order."""

    name: str
    files: tuple[str, ...]
    reads: tuple[str, ...]
    compute: Callable[..., None]
    read: Callable[..., None] | None = None


def _selection(lexicon: Lexicon, expand_groups: tuple[str, ...]) -> tuple[set[ConceptId], ...]:
    """The leaf concepts, the concepts of the expansion groups and their
    descendant closure. A group that no concept carries is an error."""
    groups = {c.group for c in lexicon.concepts}
    for group in expand_groups:
        if group not in groups:
            raise LexiconError(f"expand group {group!r} names no concept of the lexicon")
    roots = {c.id for c in lexicon.concepts if c.group in expand_groups}
    return extract_leaf_concepts(lexicon), roots, expand_descendants(lexicon, roots)


def select_concepts(lexicon: Lexicon, expand_groups: tuple[str, ...]) -> set[ConceptId]:
    """Matching vocabulary selection: every leaf concept, plus the full
    descendant closure of the concepts in the expansion groups."""
    leaves, _, expanded = _selection(lexicon, expand_groups)
    return leaves | expanded


def _lexicon_step(
    lexicon: Lexicon, config: PipelineConfig
) -> tuple[Vocabulary, set[ConceptId], set[ConceptId], set[ConceptId]]:
    """Select the concepts and write their ids to ``selected_concepts.txt``;
    return their vocabulary and the leaf, root and expanded sets."""
    leaves, roots, expanded = _selection(lexicon, config.expand_groups)
    vocab = build_vocabulary(lexicon, leaves | expanded)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_id_file(sorted(leaves | expanded), config.output_dir / SELECTED_CONCEPTS)
    return vocab, leaves, roots, expanded


def _ner(run: _Run, path: Path) -> None:
    run.mentions = find_corpus_mentions(
        run.corpus, run.vocab, rules=run.config.rules, threads=run.config.threads
    )
    write_mentions(run.mentions, path)


def _read_ner(run: _Run, path: Path) -> None:
    run.mentions = read_mentions(path)


def _matrix(
    run: _Run, doc_matrix: Path, doc_order: Path, concept_order: Path, cooc: Path
) -> None:
    from .matrix import build_cooc_matrix, build_doc_concept_matrix, write_sparse_matrix

    run.X = build_doc_concept_matrix(run.corpus, run.mentions, run.lexicon)
    run.C = build_cooc_matrix(run.X)
    write_sparse_matrix(run.X, doc_matrix)
    write_id_file(run.X.doc_ids, doc_order)
    write_id_file(run.X.concept_ids, concept_order)
    write_sparse_matrix(run.C, cooc)


def _read_matrix(
    run: _Run, doc_matrix: Path, doc_order: Path, concept_order: Path, cooc: Path
) -> None:
    from .matrix import CoocMatrix, DocConceptMatrix, read_sparse_counts

    concept_ids = read_id_file(concept_order)
    run.X = DocConceptMatrix(
        doc_ids=read_id_file(doc_order),
        concept_ids=concept_ids,
        counts=read_sparse_counts(doc_matrix),
    )
    run.C = CoocMatrix(concept_ids=concept_ids, counts=read_sparse_counts(cooc))


def _autoencoder(run: _Run, model_path: Path, report_path: Path) -> None:
    from . import autoencoder as ae
    from .matrix import concept_embeddings

    config = run.config
    m = run.C.m_concepts
    if m < 2:
        raise ValueError(f"need at least 2 observed concepts to train, got {m}")
    encoded_dim = config.ae.encoded_dim
    ae_config = ae.AEConfig(
        input_dim=m,
        encoded_dim=max(1, m // 4) if encoded_dim is None else encoded_dim,
        learning_rate=config.ae.learning_rate,
        epochs=config.ae.epochs,
        batch_size=config.ae.batch_size,
        seed=config.seed,
        activation=config.ae.activation,
    )
    data = concept_embeddings(run.C, normalized=config.normalized)
    run.model, report = ae.train(ae.init_model(ae_config), data, ae_config)
    ae.save_model(run.model, model_path, seed=config.seed)
    report_path.write_text(json.dumps(asdict(report), indent=1) + "\n", encoding="utf-8")


def _read_autoencoder(run: _Run, model_path: Path, report_path: Path) -> None:
    from . import autoencoder as ae

    run.model = ae.load_model(model_path)


def _score(
    run: _Run, raw: Path, encoded: Path, raw_labels: Path, encoded_labels: Path
) -> None:
    from . import autoencoder as ae
    from .matrix import concept_embeddings

    embeddings = {
        "raw": concept_embeddings(run.C, normalized=run.config.normalized),
        "encoded": ae.encode_all(run.model, run.C, normalized=run.config.normalized),
    }
    outputs = {"raw": (raw, raw_labels), "encoded": (encoded, encoded_labels)}
    for space, (scored_path, labels_dir) in outputs.items():
        scores = run.scores[space] = score_column(run.mentions, run.X, embeddings[space])
        write_scores(run.mentions, scores, scored_path)
        write_label_files(run.mentions, scores, run.config.sweep, labels_dir)


def _read_score(run: _Run, raw: Path, encoded: Path, *labels: Path) -> None:
    for space, path in (("raw", raw), ("encoded", encoded)):
        records = read_records(path, required=("score",))
        run.scores[space] = [record["score"] for _, record in records]


def _eval(
    run: _Run, raw_pr: Path, encoded_pr: Path, metrics_path: Path, auc_path: Path
) -> None:
    gold = ev.load_gold(run.config.gold_path, run.corpus)
    baseline_counts, per_concept, points = ev.evaluate_mentions(
        run.mentions, run.scores, gold, run.lexicon, run.config.sweep
    )
    baseline = ev.compute_metrics(baseline_counts)

    aucs = run.aucs
    for space, pr_path in (("raw", raw_pr), ("encoded", encoded_pr)):
        ev.write_pr_csv(points[space], pr_path)
        aucs[space] = ev.pr_auc(points[space])
    gap = abs(aucs["raw"] - aucs["encoded"])

    metrics_doc = {
        "gold": {
            "total": len(gold),
            "true": sum(1 for g in gold if g.is_true),
            "not_aces": sum(1 for g in gold if not g.is_true),
        },
        "baseline": {**asdict(baseline_counts), **baseline._asdict()},
        "per_concept": {cid: m._asdict() for cid, m in per_concept.items()},
        "selflabel": {
            "raw": {"pr_auc": aucs["raw"]},
            "encoded": {"pr_auc": aucs["encoded"]},
            "auc_gap": gap,
        },
    }
    metrics_path.write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    auc_doc = {"raw": aucs["raw"], "encoded": aucs["encoded"], "gap": gap}
    auc_path.write_text(
        json.dumps(auc_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


_TABLE = (
    _Stage("ner", ("mentions.jsonl",), (), _ner, _read_ner),
    _Stage(
        "matrix",
        ("doc_concept_matrix.txt", "doc_order.txt", "concept_order.txt", "cooc_matrix.txt"),
        ("ner",),
        _matrix,
        _read_matrix,
    ),
    _Stage(
        "autoencoder",
        ("autoencoder.json", "train_report.json"),
        ("matrix",),
        _autoencoder,
        _read_autoencoder,
    ),
    _Stage(
        "score",
        ("scored_raw.jsonl", "scored_encoded.jsonl", "labels_raw", "labels_encoded"),
        ("ner", "matrix", "autoencoder"),
        _score,
        _read_score,
    ),
    _Stage(
        "eval",
        ("pr_raw.csv", "pr_encoded.csv", "metrics.json", "auc_summary.json"),
        ("ner", "score"),
        _eval,
    ),
)

STAGES = tuple(stage.name for stage in _TABLE)


def stage_of(name: str) -> str:
    """The stage that writes the output file ``name``; "run" for any other."""
    return next((stage.name for stage in _TABLE if name in stage.files), "run")


def _plain(value: object) -> object:
    """JSON form of a config value; a file is its size and CRC-32."""
    if isinstance(value, Path):
        crc = 0
        with value.open("rb") as handle:  # 64 KiB at a time, so peak RSS stays put
            while chunk := handle.read(1 << 16):
                crc = zlib.crc32(chunk, crc)
        return [value.stat().st_size, crc]
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def fingerprint(config: PipelineConfig) -> str:
    """The config as JSON less ``_UNFINGERPRINTED``, input files by content."""
    doc = asdict(config)
    for name in _UNFINGERPRINTED:
        del doc[name]
    return json.dumps(doc, sort_keys=True, default=_plain) + "\n"


def _digests(root: Path, paths: list[Path]) -> dict[str, object]:
    """Each file of ``paths``, a directory's one by one, by its path under
    ``root``: ``[size, CRC-32]``, or None when it is missing."""
    files = [f for p in paths for f in (sorted(p.iterdir()) if p.is_dir() else [p])]
    return {f.relative_to(root).as_posix(): _plain(f) if f.is_file() else None for f in files}


def _encoded_dim(model_path: Path) -> int:
    """``encoded_dim`` from the header lines that :func:`autoencoder.save_model`
    writes before the weights, read without parsing the weights."""
    with model_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.strip().rstrip(",").partition(": ")
            if key == '"encoded_dim"':
                return int(value)
    raise ValueError(f"{model_path}: missing field 'encoded_dim'")


def _recorded(stamp: Path, built_from: str) -> dict[str, object]:
    """The digests in ``stamp`` if it parses and its settings are this run's."""
    try:
        settings, digests = stamp.read_text(encoding="utf-8").split("\n", 1)
        recorded = json.loads(digests)
    except (OSError, ValueError):
        return {}
    return recorded if settings + "\n" == built_from and isinstance(recorded, dict) else {}


@contextmanager
def _failing_as(stage: str) -> Iterator[None]:
    try:
        yield
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(config: PipelineConfig, upto: str | None = None) -> RunResult:
    """Run the pipeline.

    With ``upto=None`` every stage is computed fresh. With a stage name,
    the stages before it are reused or computed by the module's rule, the
    named stage is computed, the run stops after it and every later
    stage's files are removed. After each stage that can be read back,
    ``fingerprint.json`` is rewritten with the digests of this run's
    stages so far.
    """
    if upto is not None and upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}, expected one of {STAGES}")
    root = config.output_dir
    root.mkdir(parents=True, exist_ok=True)
    with _failing_as("run"):
        lexicon = load_lexicon(config.lexicon_path)
        corpus = load_corpus(config.corpus_path)
        vocab = _lexicon_step(lexicon, config)[0]
        built_from, stamp = fingerprint(config), root / FINGERPRINT
        recorded = _recorded(stamp, built_from) if upto is not None else {}

    last = STAGES.index(upto or STAGES[-1])
    # Later stages' artifacts no longer follow from this run's; drop them.
    for path in (root / name for stage in _TABLE[last + 1 :] for name in stage.files):
        if path.is_dir():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)

    stages = _TABLE[: last + 1]
    paths = {stage.name: [root / name for name in stage.files] for stage in stages}
    # Reuse only files the stamp vouches for, byte for byte. Once a stage is
    # computed, every later stage is computed too; upto's stage always is.
    reused: dict[str, dict[str, object]] = {}
    for stage in stages[:last] if recorded else ():
        with _failing_as(stage.name):
            digests = _digests(root, paths[stage.name])
        if digests != {k: v for k, v in recorded.items() if k.split("/")[0] in stage.files}:
            break
        reused[stage.name] = digests
    # Read a reused stage back only for a computed stage that reads it; the
    # mentions always, since the counts need them.
    wanted = {"ner"}.union(*(stage.reads for stage in stages if stage.name not in reused))

    run, stamped = _Run(config, lexicon, corpus, vocab), {}
    for stage in stages:
        with _failing_as(stage.name):
            digests = reused.get(stage.name)
            if digests is None:
                stage.compute(run, *paths[stage.name])
            elif stage.name in wanted:
                stage.read(run, *paths[stage.name])
            # eval's files are never read back, so they need no digest.
            if stage.read is not None:
                stamped.update(digests or _digests(root, paths[stage.name]))
                stamp.write_text(built_from + json.dumps(stamped) + "\n", encoding="utf-8")

    # From the files, which every run that reaches the stage has, parsed or not.
    return RunResult(
        n_docs=len(corpus),
        n_mentions=len(run.mentions),
        n_unfiltered=sum(1 for m in run.mentions if not m.filtered),
        m_concepts=len(read_id_file(root / "concept_order.txt")) if "matrix" in paths else 0,
        encoded_dim=_encoded_dim(root / "autoencoder.json") if "autoencoder" in paths else None,
        auc_raw=run.aucs.get("raw"),
        auc_encoded=run.aucs.get("encoded"),
    )


def lexicon_summary(config: PipelineConfig) -> dict[str, object]:
    """Counts for the lexicon subcommand; also writes the resolved
    concept list."""
    lexicon = load_lexicon(config.lexicon_path)
    vocab, leaves, roots, expanded = _lexicon_step(lexicon, config)
    return {
        "concepts": len(lexicon),
        "terms": lexicon.n_terms(),
        "leaves": len(leaves),
        "expansion_roots": len(roots),
        "expanded": len(expanded),
        "selected": len(leaves | expanded),
        "patterns": len(vocab),
        "selected_path": str(config.output_dir / SELECTED_CONCEPTS),
    }
