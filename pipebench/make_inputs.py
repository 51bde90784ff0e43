"""Generate one workload's inputs with ``conceptmine.synth``.

    python3 pipebench/make_inputs.py --workload synth-5k --seed 1 --out DIR

Writes ``lexicon.csv``, ``corpus.jsonl``, ``gold.jsonl`` and ``config.ini``
into DIR. The long-posts workload also writes ``unpadded/`` with the
corpus before padding and its own config, for the padding check. The same
workload and seed always give the same bytes.
"""

from __future__ import annotations

import argparse
import configparser
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from conceptmine.evaluate import write_gold
from conceptmine.ingest import Corpus, save_corpus
from conceptmine.lexicon import load_lexicon
from conceptmine.synth import FILLERS, SynthSpec, generate

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

# Synth docs run to about 50 tokens and fillers to about 9.3, so 155
# fillers give about 1.5k tokens per document.
LONG_POST_FILLERS = 155

WORKLOADS = {
    # n_docs, filler sentences appended to every document, whether the
    # config takes data/config.ini's settings (else the defaults)
    "bundled": (SynthSpec.n_docs, 0, True),
    "synth-1k": (1000, 0, False),
    "synth-5k": (5000, 0, False),
    "long-posts": (300, LONG_POST_FILLERS, False),
}


def pad(corpus: Corpus, fillers: int, seed: int) -> Corpus:
    """Append vocabulary-free filler sentences after each document's text,
    so every original character offset (and gold span) is unchanged."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for doc in corpus.docs:
        tail = " ".join(FILLERS[int(i)] for i in rng.integers(len(FILLERS), size=fillers))
        text = f"{doc.text} {tail}" if doc.text else tail
        docs.append(replace(doc, text=text))
    return Corpus(docs=tuple(docs))


def write_config(path: Path, bundled_settings: bool) -> None:
    parser = configparser.ConfigParser()
    if bundled_settings:
        parser.read(DATA / "config.ini", encoding="utf-8")
    parser["paths"] = {
        "lexicon": "lexicon.csv",
        "corpus": "corpus.jsonl",
        "gold": "gold.jsonl",
    }
    with path.open("w", encoding="utf-8") as handle:
        parser.write(handle)


def make_inputs(workload: str, seed: int, out: Path) -> None:
    n_docs, fillers, bundled_settings = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(DATA / "lexicon.csv", out / "lexicon.csv")
    lexicon = load_lexicon(out / "lexicon.csv")
    corpus, gold = generate(lexicon, SynthSpec(n_docs=n_docs, seed=seed))
    if fillers:
        plain = out / "unpadded"
        plain.mkdir(exist_ok=True)
        shutil.copyfile(out / "lexicon.csv", plain / "lexicon.csv")
        save_corpus(corpus, plain / "corpus.jsonl")
        write_gold(gold, plain / "gold.jsonl")
        write_config(plain / "config.ini", bundled_settings)
        corpus = pad(corpus, fillers, seed)
    save_corpus(corpus, out / "corpus.jsonl")
    write_gold(gold, out / "gold.jsonl")
    write_config(out / "config.ini", bundled_settings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
