"""Command-line interface: ``lexicon``, ``run``, and ``report`` subcommands.

Batch only; every run is driven by a config file plus overrides. Exit
codes: 0 success, 1 pipeline failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .config import OVERRIDES, ConfigError, PipelineConfig, load_config
from .evaluate import read_pr_csv
from .lexicon import load_lexicon
from .pipeline import STAGES, PipelineError, lexicon_summary, run_pipeline, stage_of


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptmine",
        description="concept mention mining, co-occurrence embeddings, "
        "self-labeling, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config file")
    common.add_argument(
        "--output",
        help="override the output directory (relative to the working directory)",
    )

    p_lex = sub.add_parser(
        "lexicon", parents=[common], help="load the lexicon and report its shape"
    )
    p_lex.set_defaults(func=cmd_lexicon)

    p_run = sub.add_parser(
        "run", parents=[common], help="execute the pipeline end to end"
    )
    p_run.add_argument(
        "--stage",
        choices=STAGES,
        help="run up to this stage, reusing cached artifacts before it",
    )
    # Values stay text here; load_config parses each like the file value.
    for dest, (section, option) in OVERRIDES.items():
        flag = "--" + dest.replace("_", "-")
        action = argparse.BooleanOptionalAction if dest == "normalized" else "store"
        note = "; accepted for compatibility, NER runs in one process" if dest == "threads" else ""
        p_run.add_argument(flag, action=action, help=f"override [{section}] {option}{note}")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser(
        "report", parents=[common], help="render metrics from run artifacts"
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, object]:
    return {k: getattr(args, k, None) for k in ("output", *OVERRIDES)}


def cmd_lexicon(args: argparse.Namespace, config: PipelineConfig) -> int:
    summary = lexicon_summary(config)
    print(f"concepts              {summary['concepts']}")
    print(f"terms                 {summary['terms']}")
    print(f"leaf concepts         {summary['leaves']}")
    print(f"expansion roots       {summary['expansion_roots']}")
    print(f"descendant expansion  {summary['expanded']}")
    print(f"selected for matching {summary['selected']}")
    print(f"vocabulary patterns   {summary['patterns']}")
    print(f"selected list written to {summary['selected_path']}")
    return 0


def cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    result = run_pipeline(config, upto=args.stage)
    print(f"documents          {result.n_docs}")
    print(f"mentions           {result.n_mentions} ({result.n_unfiltered} unfiltered)")
    if result.m_concepts:
        print(f"observed concepts  {result.m_concepts}")
    if result.encoded_dim:
        print(f"encoded dim        {result.encoded_dim}")
    if result.auc_raw is not None and result.auc_encoded is not None:
        print(f"pr_auc raw         {result.auc_raw:.6f}")
        print(f"pr_auc encoded     {result.auc_encoded:.6f}")
        print(f"pr_auc gap         {result.auc_gap:.6f}")
    return 0


def _read(path: Path, read: Callable[[Path], Any]) -> Any:
    """``read(path)``; a missing file or one that does not parse fails as
    the stage that writes it, naming the file."""
    stage = stage_of(path.name)
    if not path.is_file():
        raise PipelineError(stage, f"missing artifact {path.name}; run `conceptmine run` first")
    try:
        return read(path)
    except json.JSONDecodeError as exc:
        reason = f"line {exc.lineno}: invalid JSON ({exc.msg})"
    except (KeyError, TypeError, ValueError) as exc:
        reason = str(exc)
    raise PipelineError(stage, f"{path}: {reason}")


# The numbers ``report`` prints from each JSON artifact; ``*`` is every key
# of an object.
_REPORT_FIELDS = {
    "metrics.json": (
        *(f"gold.{key}" for key in ("total", "true", "not_aces")),
        *(f"baseline.{key}" for key in ("precision", "recall", "f1", "tp", "fp", "fn")),
        *(f"per_concept.*.{key}" for key in ("precision", "recall", "f1", "support")),
    ),
    "auc_summary.json": ("raw", "encoded", "gap"),
}


def _read_json(path: Path) -> Any:
    """The JSON in ``path``, checked to hold every number the report prints
    from it, so that a bad file fails before any output."""
    data = json.loads(path.read_text(encoding="utf-8"))
    for field in _REPORT_FIELDS[path.name]:
        _check_number(data, field.split("."), [])
    return data


def _check_number(value: Any, keys: list[str], seen: list[str]) -> None:
    """Raise ValueError unless ``value`` holds a number at the path ``keys``,
    where ``*`` is every key; ``seen`` is the path walked so far."""
    if not keys:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {'.'.join(seen)!r} is not a number")
        return
    if not isinstance(value, dict):
        where = f"field {'.'.join(seen)!r} is not" if seen else "expected"
        raise ValueError(f"{where} a JSON object")
    key, rest = keys[0], keys[1:]
    if key != "*" and key not in value:
        raise ValueError(f"missing field {'.'.join(seen + [key])!r}")
    for name in value if key == "*" else [key]:
        _check_number(value[name], rest, seen + [name])


def cmd_report(args: argparse.Namespace, config: PipelineConfig) -> int:
    root = config.output_dir
    metrics = _read(root / "metrics.json", _read_json)
    auc = _read(root / "auc_summary.json", _read_json)
    curves = {space: _read(root / f"pr_{space}.csv", read_pr_csv) for space in ("raw", "encoded")}
    lexicon = load_lexicon(config.lexicon_path)

    gold = metrics["gold"]
    if gold["total"] == 0:
        print("warning: gold file has no annotations; all metrics are zero",
              file=sys.stderr)
    print(f"gold annotations   {gold['total']} "
          f"({gold['true']} true, {gold['not_aces']} rejected)")
    base = metrics["baseline"]
    print("baseline dictionary NER vs gold (unfiltered mentions as positives):")
    print(f"  precision {100 * base['precision']:.1f}%"
          f"  recall {100 * base['recall']:.1f}%"
          f"  f1 {100 * base['f1']:.1f}%"
          f"  (tp={base['tp']} fp={base['fp']} fn={base['fn']})")

    per_concept = metrics["per_concept"]
    if per_concept:
        ranked = sorted(
            per_concept.items(), key=lambda kv: (-kv[1]["support"], kv[0])
        )
        top, rest = ranked[:5], ranked[5:]
        print("per-concept metrics (top 5 by support):")
        print(f"  {'concept':<34} {'precision':>9} {'recall':>7} {'f1':>6} {'support':>7}")
        for cid, row in top:
            name = lexicon.get(cid).preferred_name if cid in lexicon else cid
            print(
                f"  {name[:34]:<34} {100 * row['precision']:>8.1f}%"
                f" {100 * row['recall']:>6.1f}% {100 * row['f1']:>5.1f}%"
                f" {row['support']:>7}"
            )
        if rest:
            n = len(rest)
            avg_p = sum(r["precision"] for _, r in rest) / n
            avg_r = sum(r["recall"] for _, r in rest) / n
            avg_f = sum(r["f1"] for _, r in rest) / n
            support = sum(r["support"] for _, r in rest)
            print(
                f"  {'(average of ' + str(n) + ' others)':<34}"
                f" {100 * avg_p:>8.1f}% {100 * avg_r:>6.1f}%"
                f" {100 * avg_f:>5.1f}% {support:>7}"
            )

    print("self-label threshold sweep:")
    for space in ("raw", "encoded"):
        points = curves[space]
        print(f"  {space} embeddings: pr_auc {auc[space]:.6f} "
              f"({len(points)} thresholds, pr_{space}.csv)")
        print(f"    {'threshold':>9} {'precision':>9} {'recall':>7}")
        for point in points:
            print(
                f"    {point.threshold:>9.2f} {point.precision:>9.4f}"
                f" {point.recall:>7.4f}"
            )
    print(f"pr_auc gap         {auc['gap']:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
