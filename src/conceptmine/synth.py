"""Synthetic corpus generator with planted co-occurrence structure.

Documents are built from sentence templates around terms of one theme
(a cluster of related concepts), so concepts within a theme co-occur
heavily and concepts across themes rarely do. Each injected term span is
recorded as a gold annotation:

- on-theme insertions are NLP_TRUE (real mentions the matcher finds),
- off-theme noise and negated insertions are Not_ACEs (matcher output
  that should be rejected),
- paraphrases the vocabulary cannot match are Manual_ACEs (misses).

Generation is fully deterministic given the seed. Run as a module to
regenerate the bundled corpus:

    python -m conceptmine.synth --lexicon data/lexicon.csv --output data
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import GoldAnnotation, write_gold
from .ingest import Corpus, Document, save_corpus
from .lexicon import Lexicon, Vocabulary, build_vocabulary, load_lexicon
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


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 240
    seed: int = 2024
    noise_rate: float = 0.3
    paraphrase_rate: float = 0.25
    negation_rate: float = 0.12
    min_mentions: int = 3
    max_mentions: int = 6


def _check_clean(vocab: Vocabulary, sentences: list[str], what: str) -> None:
    # Fixture text must not accidentally contain vocabulary terms.
    for sentence in sentences:
        probe = Document(doc_id="probe", text=sentence)
        hits = find_mentions(probe, vocab)
        if hits:
            raise ValueError(
                f"{what} {sentence!r} contains vocabulary term "
                f"{hits[0].surface!r}"
            )


def generate(
    lexicon: Lexicon, spec: SynthSpec = SynthSpec()
) -> tuple[Corpus, list[GoldAnnotation]]:
    """Build the synthetic corpus and its programmatic gold annotations,
    the gold in generation order (:func:`write_gold` sorts what it writes)."""
    theme_names = sorted(THEMES)
    for theme in theme_names:
        for cid in THEMES[theme]:
            if cid not in lexicon:
                raise ValueError(f"theme {theme} references unknown concept {cid}")
    vocab = build_vocabulary(
        lexicon, {cid for ids in THEMES.values() for cid in ids}
    )
    _check_clean(vocab, [t.format(term="thing") for t in TEMPLATES], "template")
    _check_clean(
        vocab, [t.format(term="thing") for t in NEGATION_TEMPLATES], "template"
    )
    _check_clean(vocab, list(FILLERS), "filler")
    _check_clean(
        vocab,
        [f"she wrote {p} in the post." for ps in PARAPHRASES.values() for p in ps],
        "paraphrase",
    )

    rng = np.random.default_rng(spec.seed)
    docs: list[Document] = []
    gold: list[GoldAnnotation] = []
    injected_clean: set[str] = set()

    def make_doc(doc_id: str, theme: str, concepts: list[str]) -> None:
        # One sentence per planted mention plus filler; spans recorded
        # while rendering so gold offsets are exact.
        parts: list[tuple[str, str | None, str | None, str | None]] = []
        for cid in concepts:
            concept = lexicon.get(cid)
            terms = concept.terms()
            term = terms[int(rng.integers(len(terms)))].lower()
            template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
            parts.append((template, term, cid, "NLP_TRUE"))
            injected_clean.add(cid)
        if rng.random() < spec.noise_rate:
            other_theme = theme_names[int(rng.integers(len(theme_names)))]
            if other_theme != theme:
                noise_cid = THEMES[other_theme][
                    int(rng.integers(len(THEMES[other_theme])))
                ]
                noise_term = lexicon.get(noise_cid).terms()[0].lower()
                template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
                parts.append((template, noise_term, noise_cid, "Not_ACEs"))
        if rng.random() < spec.negation_rate:
            neg_cid = THEMES[theme][int(rng.integers(len(THEMES[theme])))]
            neg_term = lexicon.get(neg_cid).terms()[0].lower()
            template = NEGATION_TEMPLATES[
                int(rng.integers(len(NEGATION_TEMPLATES)))
            ]
            parts.append((template, neg_term, neg_cid, "Not_ACEs"))
        if rng.random() < spec.paraphrase_rate:
            candidates = [c for c in THEMES[theme] if c in PARAPHRASES]
            if candidates:
                para_cid = candidates[int(rng.integers(len(candidates)))]
                options = PARAPHRASES[para_cid]
                paraphrase = options[int(rng.integers(len(options)))]
                parts.append(
                    ("she wrote {term} in the post.", paraphrase, para_cid,
                     "Manual_ACEs")
                )
        parts.append((FILLERS[int(rng.integers(len(FILLERS)))], None, None, None))
        order = rng.permutation(len(parts))

        text = ""
        for k in order:
            template, term, cid, label = parts[k]
            if text:
                text += " "
            if term is None:
                text += template
                continue
            slot = template.index("{term}")
            start = len(text) + slot
            text += template.format(term=term)
            gold.append(
                GoldAnnotation(
                    doc_id=doc_id,
                    start=start,
                    end=start + len(term),
                    concept_id=cid,
                    label=label,  # type: ignore[arg-type]
                )
            )
        docs.append(Document(doc_id=doc_id, text=text, meta={"theme": theme}))

    for i in range(spec.n_docs):
        doc_id = f"post-{i:04d}"
        theme = theme_names[int(rng.integers(len(theme_names)))]
        pool = list(THEMES[theme])
        k = int(rng.integers(spec.min_mentions, spec.max_mentions + 1))
        k = min(k, len(pool))
        picks = [pool[j] for j in rng.permutation(len(pool))[:k]]
        make_doc(doc_id, theme, picks)

    # Guarantee every theme concept occurs unfiltered at least once.
    missing = sorted(
        {cid for ids in THEMES.values() for cid in ids} - injected_clean
    )
    for j, cid in enumerate(missing):
        theme = next(t for t in theme_names if cid in THEMES[t])
        mates = [c for c in THEMES[theme] if c != cid][:2]
        make_doc(f"post-fill-{j:02d}", theme, [cid] + mates)

    for j in range(3):
        docs.append(
            Document(
                doc_id=f"post-plain-{j}",
                text=" ".join(
                    FILLERS[int(rng.integers(len(FILLERS)))] for _ in range(2)
                ),
                meta={"theme": "none"},
            )
        )
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

    lexicon = load_lexicon(args.lexicon)
    corpus, gold = generate(lexicon, SynthSpec(n_docs=args.docs, seed=args.seed))
    args.output.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, args.output / "corpus.jsonl")
    write_gold(gold, args.output / "gold.jsonl")
    print(f"wrote {len(corpus)} documents and {len(gold)} gold annotations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
