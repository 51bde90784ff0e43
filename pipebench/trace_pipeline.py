"""One traced pipeline pass, timed from outside the program.

    python3 pipebench/trace_pipeline.py --config C --output DIR [--threads N] [--stage eval]

Calls the layers' public functions in the order ``pipeline.run_pipeline``
calls them and times each call. Without ``--stage`` it is a full run that
writes the artifacts; with ``--stage eval`` it is the cached rerun that
reads them back. The last line of standard output is a JSON object with
``ms`` (time summed over calls, by layer metric), ``counts``, ``total_ms``
(every span on the run path) and the two PR-AUC values.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

from conceptmine import autoencoder as ae
from conceptmine import evaluate as ev
from conceptmine.config import load_config
from conceptmine.ingest import load_corpus
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.matrix import (
    CoocMatrix,
    DocConceptMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embeddings,
    read_id_file,
    read_sparse_counts,
    write_id_file,
    write_sparse_matrix,
)
from conceptmine.ner import (
    apply_filter_rules,
    find_corpus_mentions,
    find_mentions,
    read_mentions,
    write_mentions,
)
from conceptmine.pipeline import select_concepts
from conceptmine.selflabel import ScoredMention, read_scored, score_mentions, write_labels_csv, write_scored
from conceptmine.tokenize import tokenize

SPACES = ("raw", "encoded")


class Trace:
    def __init__(self) -> None:
        self.ms: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - started) * 1e3
            self.ms[name] = self.ms.get(name, 0.0) + elapsed


def traced_run(config, rerun: bool) -> dict:
    t = Trace()
    out = config.output_dir
    with t.span("lexicon.load_ms"):
        lexicon = load_lexicon(config.lexicon_path)
    with t.span("ingest.load_corpus_ms"):
        corpus = load_corpus(config.corpus_path)
    with t.span("lexicon.load_ms"):
        selected = select_concepts(lexicon, config.expand_groups)
        vocab = build_vocabulary(lexicon, selected)
        write_id_file(sorted(selected), out / "selected_concepts.txt")

    if rerun:
        with t.span("ner.read_mentions_ms"):
            mentions = read_mentions(out / "mentions.jsonl")
        with t.span("matrix.read_ms"):
            concept_ids = read_id_file(out / "concept_order.txt")
            X = DocConceptMatrix(
                doc_ids=read_id_file(out / "doc_order.txt"),
                concept_ids=concept_ids,
                counts=read_sparse_counts(out / "doc_concept_matrix.txt"),
            )
            C = CoocMatrix(concept_ids=concept_ids, counts=read_sparse_counts(out / "cooc_matrix.txt"))
        with t.span("autoencoder.load_ms"):
            ae.load_model(out / "autoencoder.json")
        with t.span("selflabel.read_scored_ms"):
            scored = {space: read_scored(out / f"scored_{space}.jsonl") for space in SPACES}
    else:
        with t.span("ner.find_corpus_mentions_ms"):
            mentions = find_corpus_mentions(corpus, vocab, rules=config.rules, threads=config.threads)
        with t.span("ner.write_mentions_ms"):
            write_mentions(mentions, out / "mentions.jsonl")
        with t.span("matrix.build_ms"):
            X = build_doc_concept_matrix(corpus, mentions, lexicon)
            C = build_cooc_matrix(X)
        with t.span("matrix.write_ms"):
            write_sparse_matrix(X, out / "doc_concept_matrix.txt")
            write_id_file(X.doc_ids, out / "doc_order.txt")
            write_id_file(X.concept_ids, out / "concept_order.txt")
            write_sparse_matrix(C, out / "cooc_matrix.txt")

        m = C.m_concepts
        ae_config = ae.AEConfig(
            input_dim=m,
            encoded_dim=config.ae.encoded_dim or max(1, m // 4),
            learning_rate=config.ae.learning_rate,
            epochs=config.ae.epochs,
            batch_size=config.ae.batch_size,
            seed=config.seed,
            activation=config.ae.activation,
        )
        with t.span("autoencoder.train_ms"):
            data = concept_embeddings(C, normalized=config.normalized)
            model, _ = ae.train(ae.init_model(ae_config), data, ae_config)
        with t.span("autoencoder.save_ms"):
            ae.save_model(model, out / "autoencoder.json", seed=config.seed)

        with t.span("selflabel.score_mentions_ms"):
            spaces = {
                "raw": concept_embeddings(C, normalized=config.normalized),
                "encoded": ae.encode_all(model, C, normalized=config.normalized),
            }
            scoreable = [m for m in mentions if X.has_concept(m.concept_id)]
            rest = [m for m in mentions if not X.has_concept(m.concept_id)]
        scored = {}
        for space, embeddings in spaces.items():
            with t.span("selflabel.score_mentions_ms"):
                rows = score_mentions(scoreable, X, embeddings)
                rows += [ScoredMention(mention=m, score=0.0) for m in rest]
                rows.sort(key=lambda s: s.mention.sort_key())
                scored[space] = rows
            with t.span("selflabel.write_scored_ms"):
                write_scored(rows, out / f"scored_{space}.jsonl")
            labels_dir = out / f"labels_{space}"
            with t.span("selflabel.write_labels_ms"):
                labels_dir.mkdir(parents=True, exist_ok=True)
                for tau in config.sweep.thresholds:
                    write_labels_csv(rows, tau, labels_dir / f"threshold_{tau:g}.csv")
            t.counts["selflabel.label_bytes"] = t.counts.get("selflabel.label_bytes", 0) + sum(
                p.stat().st_size for p in labels_dir.iterdir()
            )
        t.counts["selflabel.scored"] = sum(len(rows) for rows in scored.values())
        t.counts["selflabel.label_rows"] = t.counts["selflabel.scored"] * len(config.sweep.thresholds)
        t.counts["autoencoder.steps"] = ae_config.epochs * math.ceil(m / ae_config.batch_size)
        t.counts["matrix.nnz"] = X.counts.nnz + C.counts.nnz

    with t.span("evaluate.load_gold_ms"):
        gold = ev.load_gold(config.gold_path, corpus)
    with t.span("evaluate.baseline_ms"):
        predicted = [(m, not m.filtered) for m in mentions]
        ev.compute_metrics(ev.match_to_gold(predicted, gold))
        ev.per_concept_metrics(predicted, gold, lexicon)
    auc = {}
    for space in SPACES:
        with t.span("evaluate.pr_sweep_ms"):
            points = ev.pr_sweep(scored[space], gold, config.sweep)
            ev.write_pr_csv(points, out / f"pr_{space}.csv")
            auc[space] = ev.pr_auc(points)
    total_ms = sum(t.ms.values())

    if not rerun:
        # The split of NER into matching and filtering, measured in a
        # second sequential pass that the run total leaves out.
        for doc in corpus.docs:
            with t.span("ner.find_mentions_ms"):
                found = find_mentions(doc, vocab)
            with t.span("ner.apply_filter_rules_ms"):
                apply_filter_rules(found, doc, config.rules)
        t.counts["ner.tokens"] = sum(len(tokenize(doc.text)) for doc in corpus.docs)
        t.counts["ner.mentions"] = len(mentions)
        t.counts["ner.filtered"] = sum(1 for m in mentions if m.filtered)
    return {"ms": t.ms, "counts": t.counts, "total_ms": total_ms, "auc": auc}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--stage", choices=("eval",))
    args = parser.parse_args()
    overrides = {"output": str(args.output.resolve())}
    if args.threads:
        overrides["threads"] = args.threads
    config = load_config(args.config, overrides)
    print(json.dumps(traced_run(config, rerun=args.stage == "eval")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
