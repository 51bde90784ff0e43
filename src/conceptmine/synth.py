"""Synthetic corpus generator with planted co-occurrence structure.

Documents are built from sentence templates around terms of one theme
(a cluster of related concepts), so concepts within a theme co-occur
heavily and concepts across themes rarely do. Each injected term span is
recorded as a gold annotation:

- on-theme insertions are NLP_TRUE (real mentions the matcher finds),
- off-theme noise and negated insertions are Not_ACEs (matcher output
  that should be rejected),
- paraphrases the vocabulary cannot match are Manual_ACEs (misses).

A :class:`SynthSpec` sets only the number of themed documents and the
seed. Theme concepts no themed document planted get ``post-fill-*``
documents, and three filler-only and two empty documents close the corpus.
Generation is fully deterministic given the spec. Run as a module, with
``--docs`` and ``--seed`` >= 0, to regenerate the bundled corpus:

    python -m conceptmine.synth --lexicon data/lexicon.csv --output data

A file or lexicon error prints one ``error:`` line and exits 1, as
``conceptmine`` does.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import GoldAnnotation, write_gold
from .ingest import Corpus, Document, save_corpus
from .lexicon import Lexicon, build_vocabulary, load_lexicon
from .ner import find_mentions

THEMES: dict[str, tuple[str, ...]] = {
    "abuse_neglect": (
        "C3000011", "C3000012", "C3000013", "C3000014",
        "C3000021", "C3000022", "C3000035",
    ),
    "household": (
        "C3000031", "C3000032", "C3000033", "C3000034",
        "C3200070", "C3200080",
    ),
    "mood": (
        "C3100011", "C3100012", "C3100013",
        "C3200030", "C3200040", "C3200050",
    ),
    "anxiety": (
        "C3100020", "C3100021", "C3100022", "C3100023",
        "C3100024", "C3100070",
    ),
    "crisis": (
        "C3200010", "C3200020", "C3200021", "C3200022",
        "C3200060", "C3100031",
    ),
    "disorders": (
        "C3100040", "C3100051", "C3100052",
        "C3100061", "C3100062", "C3100080",
    ),
}

TEMPLATES = (
    "i have been dealing with {term} for years.",
    "my therapist keeps asking about {term}.",
    "someone here posted about {term} and it hit home.",
    "the {term} got worse over the winter.",
    "i finally opened up about {term} to a friend.",
    "reading about {term} makes everything feel heavy.",
    "been thinking about my {term} a lot lately.",
    "their story about {term} sounded exactly like mine.",
    "it took me years to even say {term} out loud.",
    "every thread about {term} pulls me back in.",
)

NEGATION_TEMPLATES = (
    "i do not have {term} according to them.",
    "they said it was never {term} to begin with.",
    "the doctor found no sign of {term} last month.",
)

FILLERS = (
    "the weather keeps flipping between gray and grayer.",
    "work ran long again and the commute even longer.",
    "my roommate keeps playing the same song on repeat.",
    "dinner was instant noodles for the third time this week.",
    "i spent the whole evening staring at the ceiling.",
    "the bus was late and the rain would just keep coming.",
)

PARAPHRASES: dict[str, tuple[str, ...]] = {
    "C3200020": ("end it all", "take my own life"),
    "C3200021": ("thoughts of ending things",),
    "C3200010": ("hurting myself again",),
    "C3100011": ("feeling so low lately", "stuck under a dark cloud"),
    "C3000011": ("they hit me when i was small",),
    "C3000031": ("fights turning physical at home",),
    "C3100020": ("constant worry i cannot switch off",),
    "C3200030": ("feel cut off from everyone",),
}


PARAPHRASE_TEMPLATE = "she wrote {term} in the post."

NOISE_RATE = 0.3
PARAPHRASE_RATE = 0.25
NEGATION_RATE = 0.12
MIN_MENTIONS = 3
MAX_MENTIONS = 6


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 240
    seed: int = 2024


def generate(
    lexicon: Lexicon, spec: SynthSpec = SynthSpec()
) -> tuple[Corpus, list[GoldAnnotation]]:
    """Build the synthetic corpus and its programmatic gold annotations,
    the gold in generation order (:func:`write_gold` sorts what it writes)."""
    theme_names = sorted(THEMES)
    planted = {cid for ids in THEMES.values() for cid in ids}
    vocab = build_vocabulary(lexicon, planted)
    # Fixture text must not accidentally contain vocabulary terms.
    paraphrases = [p for ps in PARAPHRASES.values() for p in ps]
    for what, sentences in (
        ("template", [t.format(term="thing") for t in TEMPLATES + NEGATION_TEMPLATES]),
        ("filler", FILLERS),
        ("paraphrase", [PARAPHRASE_TEMPLATE.format(term=p) for p in paraphrases]),
    ):
        for sentence in sentences:
            hits = find_mentions(Document(doc_id="probe", text=sentence), vocab)
            if hits:
                raise ValueError(
                    f"{what} {sentence!r} contains vocabulary term {hits[0].surface!r}"
                )

    rng = np.random.default_rng(spec.seed)
    docs: list[Document] = []
    gold: list[GoldAnnotation] = []
    injected_clean: set[str] = set()

    def pick(options: Sequence[str]) -> str:
        # All draws share one stream, so reordering them changes the output.
        return options[int(rng.integers(len(options)))]

    def make_doc(doc_id: str, theme: str, concepts: list[str]) -> None:
        # One sentence per planted mention plus filler; spans recorded
        # while rendering so gold offsets are exact.
        parts: list[tuple[str, str | None, str | None, str | None]] = []
        for cid in concepts:
            term = pick(lexicon.get(cid).terms()).lower()
            parts.append((pick(TEMPLATES), term, cid, "NLP_TRUE"))
            injected_clean.add(cid)
        if rng.random() < NOISE_RATE:
            other_theme = pick(theme_names)
            if other_theme != theme:
                noise_cid = pick(THEMES[other_theme])
                noise_term = lexicon.get(noise_cid).terms()[0].lower()
                parts.append((pick(TEMPLATES), noise_term, noise_cid, "Not_ACEs"))
        if rng.random() < NEGATION_RATE:
            neg_cid = pick(THEMES[theme])
            neg_term = lexicon.get(neg_cid).terms()[0].lower()
            parts.append((pick(NEGATION_TEMPLATES), neg_term, neg_cid, "Not_ACEs"))
        if rng.random() < PARAPHRASE_RATE:
            candidates = [c for c in THEMES[theme] if c in PARAPHRASES]
            if candidates:
                para_cid = pick(candidates)
                paraphrase = pick(PARAPHRASES[para_cid])
                parts.append((PARAPHRASE_TEMPLATE, paraphrase, para_cid, "Manual_ACEs"))
        parts.append((pick(FILLERS), None, None, None))
        order = rng.permutation(len(parts))

        text = ""
        for k in order:
            template, term, cid, label = parts[k]
            text += " " if text else ""
            if term is None:
                text += template
                continue
            start = len(text) + template.index("{term}")
            end = start + len(term)
            gold.append(GoldAnnotation(doc_id, start, end, cid, label))  # type: ignore[arg-type]
            text += template.format(term=term)
        docs.append(Document(doc_id=doc_id, text=text, meta={"theme": theme}))

    for i in range(spec.n_docs):
        theme = pick(theme_names)
        pool = THEMES[theme]
        k = min(int(rng.integers(MIN_MENTIONS, MAX_MENTIONS + 1)), len(pool))
        make_doc(f"post-{i:04d}", theme, [pool[j] for j in rng.permutation(len(pool))[:k]])

    # Guarantee every theme concept occurs unfiltered at least once.
    for j, cid in enumerate(sorted(planted - injected_clean)):
        theme = next(t for t in theme_names if cid in THEMES[t])
        mates = [c for c in THEMES[theme] if c != cid][:2]
        make_doc(f"post-fill-{j:02d}", theme, [cid] + mates)

    for j in range(3):
        text = " ".join(pick(FILLERS) for _ in range(2))
        docs.append(Document(doc_id=f"post-plain-{j}", text=text, meta={"theme": "none"}))
    for j in range(2):
        docs.append(Document(doc_id=f"post-empty-{j}", text="", meta={}))

    return Corpus(docs=tuple(docs)), gold


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the bundled synthetic corpus and gold file"
    )
    parser.add_argument("--lexicon", required=True, type=Path)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--docs", type=int, default=SynthSpec.n_docs)
    parser.add_argument("--seed", type=int, default=SynthSpec.seed)
    args = parser.parse_args(argv)
    if args.docs < 0 or args.seed < 0:
        parser.error(f"--docs and --seed must be >= 0, got {args.docs} and {args.seed}")

    try:
        lexicon = load_lexicon(args.lexicon)
        corpus, gold = generate(lexicon, SynthSpec(n_docs=args.docs, seed=args.seed))
        args.output.mkdir(parents=True, exist_ok=True)
        save_corpus(corpus, args.output / "corpus.jsonl")
        write_gold(gold, args.output / "gold.jsonl")
    except (OSError, ValueError) as exc:  # LexiconError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(corpus)} documents and {len(gold)} gold annotations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
