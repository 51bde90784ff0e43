import ast
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conceptmine.cli import build_parser, main
from conceptmine.config import _OPTIONS, OVERRIDES, ConfigError, load_config
from conceptmine.evaluate import GoldAnnotation, write_gold
from conceptmine.ingest import save_corpus
from conceptmine.lexicon import load_lexicon
from conceptmine.ner import Mention
from conceptmine.selflabel import ScoredMention
from conceptmine.synth import SynthSpec, generate

from conftest import DATA_DIR, REPO_ROOT


def _source_trees():
    """The package's modules, and the AST of each package and benchmark module."""
    package = sorted((REPO_ROOT / "src" / "conceptmine").glob("*.py"))
    bench = sorted((REPO_ROOT / "pipebench").glob("*.py"))
    return package, {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + bench}


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """A reduced synthetic corpus and config for fast CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    lexicon = load_lexicon(DATA_DIR / "lexicon.csv")
    corpus, gold = generate(lexicon, SynthSpec(n_docs=40, seed=11))
    (root / "lexicon.csv").write_bytes((DATA_DIR / "lexicon.csv").read_bytes())
    save_corpus(corpus, root / "corpus.jsonl")
    write_gold(gold, root / "gold.jsonl")
    (root / "config.ini").write_text(
        "[paths]\n"
        "lexicon = lexicon.csv\n"
        "corpus = corpus.jsonl\n"
        "gold = gold.jsonl\n"
        "output = out\n"
        "[autoencoder]\n"
        "encoded_dim = auto\n"
        "learning_rate = 0.1\n"
        "epochs = 150\n"
        "batch_size = 16\n"
        "[run]\n"
        "seed = 7\n",
        encoding="utf-8",
    )
    return root


class TestLoadConfig:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_missing_paths_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nseed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="paths"):
            load_config(path)

    def test_missing_referenced_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[paths]\nlexicon = missing.csv\ncorpus = c.jsonl\ngold = g.jsonl\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="missing.csv"):
            load_config(path)

    def test_defaults_and_overrides(self, small_setup):
        config = load_config(small_setup / "config.ini")
        assert config.seed == 7
        assert config.threads == 1
        assert config.normalized is True
        assert config.ae.encoded_dim is None
        assert len(config.sweep.thresholds) == 21
        assert config.rules.negation_window == 3
        over = load_config(
            small_setup / "config.ini",
            {"seed": 0, "threads": 4, "encoded_dim": 5},
        )
        assert over.seed == 0
        assert over.threads == 4
        assert over.ae.encoded_dim == 5

    def test_relative_paths_resolve_to_config_dir(self, small_setup):
        config = load_config(small_setup / "config.ini")
        assert config.corpus_path == small_setup / "corpus.jsonl"
        assert config.output_dir == small_setup / "out"

    def test_output_override_resolves_to_working_dir(
        self, small_setup, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        config = load_config(small_setup / "config.ini", {"output": "relout"})
        assert config.output_dir.resolve() == (tmp_path / "relout").resolve()
        assert (tmp_path / "relout").is_dir()
        assert not (small_setup / "relout").exists()


    def test_colliding_threshold_file_names_exit_2(self, small_setup, capsys):
        path = small_setup / "colliding.ini"
        path.write_text(
            (small_setup / "config.ini").read_text(encoding="utf-8")
            + "[selflabel]\nthresholds = 0.1234561, 0.1234562\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="selflabel.thresholds.*threshold_0.123456.csv"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 2
        assert "0.1234562" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, flags, named",
        [
            pytest.param("encoded_dim = auto", "encoded_dim = abc", [],
                         "autoencoder.encoded_dim", id="encoded_dim-abc"),
            pytest.param("encoded_dim = auto", "encoded_dim = auto\nactivation = relu",
                         [], "autoencoder.activation", id="activation-relu"),
            pytest.param("epochs = 150", "epoch = 5", [],
                         "autoencoder.epoch: unknown option", id="unknown-option"),
            pytest.param("[run]", "[selflabels]\nthresholds = 0.5\n[run]", [],
                         "[selflabels]: unknown section", id="unknown-section"),
            pytest.param("[paths]", "[DEFAULT]\nepochs = 3\n[paths]", [],
                         "DEFAULT.epochs", id="default-section"),
            pytest.param("batch_size = 16", "batch_size = 0", [],
                         "autoencoder.batch_size", id="batch_size"),
            pytest.param("epochs = 150", "epochs = 0", [],
                         "autoencoder.epochs", id="epochs"),
            pytest.param("seed = 7", "seed = 7\nthreads = 0", [],
                         "run.threads", id="threads"),
            pytest.param("seed = 7", "seed = -1", [], "run.seed", id="seed"),
            pytest.param("[run]", "[selflabel]\nthresholds = 0.5\n[run]", [],
                         "selflabel.thresholds: expected at least 2", id="thresholds-one"),
            pytest.param("[run]", "[ner]\nnegation_window = -1\n[run]", [],
                         "ner.negation_window", id="negation_window"),
            pytest.param("[run]", "[ner]\nnegation_cues = no, --\n[run]", [],
                         "ner.negation_cues: negation cue '--'", id="negation_cues"),
            pytest.param("encoded_dim = auto", "encoded_dim = 0", [],
                         "autoencoder.encoded_dim", id="encoded_dim"),
            pytest.param("learning_rate = 0.1", "learning_rate = -0.1", [],
                         "autoencoder.learning_rate", id="learning_rate-negative"),
            pytest.param("learning_rate = 0.1", "learning_rate = nan", [],
                         "autoencoder.learning_rate", id="learning_rate-nan"),
            pytest.param("learning_rate = 0.1", "learning_rate = inf", [],
                         "autoencoder.learning_rate", id="learning_rate-inf"),
            pytest.param("", "", ["--epochs", "0"], "autoencoder.epochs", id="--epochs"),
            pytest.param("", "", ["--epochs", "abc"], "autoencoder.epochs",
                         id="--epochs-abc"),
            pytest.param("", "", ["--seed", "-1"], "run.seed", id="--seed"),
            pytest.param("", "", ["--threads", "0"], "run.threads", id="--threads"),
            pytest.param("", "", ["--encoded-dim", "0"], "autoencoder.encoded_dim",
                         id="--encoded-dim"),
            pytest.param("", "", ["--learning-rate", "inf"], "autoencoder.learning_rate",
                         id="--learning-rate"),
        ],
    )
    def test_rejected_value_exits_2(self, small_setup, capsys, old, new, flags, named):
        path = small_setup / "rejected.ini"
        path.write_text(
            (small_setup / "config.ini").read_text(encoding="utf-8").replace(old, new),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(path), *flags]) == 2
        assert f"config error: {path}: {named}" in capsys.readouterr().err

    def test_values_are_literal(self, small_setup):
        path = small_setup / "percent.ini"
        path.write_text(
            (small_setup / "config.ini").read_text(encoding="utf-8")
            + "[ner]\nstop_surfaces = 100% done, 50%%\n",
            encoding="utf-8",
        )
        assert load_config(path).rules.stop_surfaces == {"100% done", "50%%"}

    def test_every_override_is_a_run_flag(self):
        args = build_parser().parse_args(["run", "--config", "c.ini"])
        assert set(OVERRIDES) <= set(vars(args))
        assert set(OVERRIDES.values()) <= set(_OPTIONS)

    def test_readme_names_every_option(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        bullets = {
            bullet.split("`", 2)[1]: bullet for bullet in section.split("\n- ")[1:]
        }
        missing = [
            f"[{s}] {o}" for s, o in _OPTIONS if f"`{o}`" not in bullets.get(f"[{s}]", "")
        ]
        assert missing == []

    def test_every_public_name_has_a_caller(self):
        """``src/`` holds only what a run runs: each public top-level
        function or class, and each public method, is named by code in the
        package or the benchmark. A method that is not a property counts
        only where a call names it as an attribute, so a field or a dict
        method of the same name does not hide it. Docstrings and tests do
        not count."""
        package, trees = _source_trees()
        used, called = set(), set()
        for node in (node for tree in trees.values() for node in ast.walk(tree)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

        def is_method(member):
            return not isinstance(member, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "property" for d in member.decorator_list
            )

        unused = []
        for path in package:
            for node in (n for n in trees[path].body if isinstance(n, defs)):
                members = node.body if isinstance(node, ast.ClassDef) else []
                named = [(node.name, node.name, used)] + [
                    (f"{node.name}.{m.name}", m.name, called if is_method(m) else used)
                    for m in members if isinstance(m, defs)
                ]
                unused += [
                    f"{path.stem}.{qualified}" for qualified, name, names in named
                    if not name.startswith("_") and name not in names
                ]
        assert unused == []

    def test_only_ner_orders_mentions(self):
        """``ner.find_corpus_mentions`` is the one home of the mention order,
        so no line of ``src/`` names ``sort_key`` but the one where
        ``ner.Mention`` defines it: a writer that sorts again fails here."""
        package, trees = _source_trees()
        ner = trees[REPO_ROOT / "src" / "conceptmine" / "ner.py"]
        [mention] = [n for n in ner.body if isinstance(n, ast.ClassDef) and n.name == "Mention"]
        [defined] = [m.lineno for m in mention.body if getattr(m, "name", None) == "sort_key"]
        named = [
            (path.stem, line_no)
            for path in package
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\bsort_key\b", line)
        ]
        assert named == [("ner", defined)]

    def test_only_synth_draws_from_numpy_random(self):
        """A run must not import ``numpy.random``, which loads ``secrets``
        and OpenSSL: no module of ``src/`` but ``synth`` (which makes inputs,
        not runs) names ``np.random`` or ``numpy.random`` in its code, by
        attribute or by import. Docstrings do not count."""
        package, trees = _source_trees()
        named = set()
        for path in package:
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [f"{node.value.id}.{node.attr}"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(n in ("np.random", "numpy.random") or n.startswith("numpy.random.")
                       for n in names):
                    named.add(path.stem)
        assert named == {"synth"}

    def test_per_mention_records_hold_no_dict(self):
        """A run holds one ``Mention`` per mention and one ``GoldAnnotation``
        per gold record, and the benchmark's trace a ``ScoredMention`` per
        mention and space. Each is slotted, so it has no ``__dict__``, and no
        line of ``src/`` reads one into being."""
        mention = Mention("d", "C1", 0, 4, "self")
        gold = GoldAnnotation("d", 0, 4, None, "NLP_TRUE")
        records = (mention, gold, ScoredMention(mention, 0.5))
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
        package, _ = _source_trees()
        reads = [
            (path.stem, line_no)
            for path in package
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if ".__dict__" in line
        ]
        assert reads == []

    def test_every_dataclass_default_is_overridden(self):
        """A field default that no code in the package or the benchmark ever
        replaces is a constant, not a setting: each field with a default in
        a public ``src/`` dataclass is set by some call of that class, by
        keyword, by position, or through ``*`` or ``**``."""
        package, trees = _source_trees()
        fields = {}
        for node in (n for path in package for n in trees[path].body):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields[node.name] = [
                    (f.target.id, f.value is not None) for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                ]
        overridden = set()
        for call in (n for tree in trees.values() for n in ast.walk(tree)):
            if not isinstance(call, ast.Call):
                continue
            cls = getattr(call.func, "id", getattr(call.func, "attr", None))
            names = [name for name, _ in fields.get(cls, [])]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                overridden.update((cls, name) for name in names)
            overridden.update((cls, name) for name in names[: len(call.args)])
            overridden.update((cls, k.arg) for k in call.keywords if k.arg in names)
        constants = [
            f"{cls}.{name}" for cls, members in fields.items()
            for name, has_default in members if has_default and (cls, name) not in overridden
        ]
        assert constants == []


class TestCommands:
    def test_lexicon_summary(self, small_setup, capsys):
        code = main(["lexicon", "--config", str(small_setup / "config.ini")])
        out = capsys.readouterr().out
        assert code == 0
        assert "concepts              47" in out
        assert "leaf concepts         35" in out
        assert (small_setup / "out" / "selected_concepts.txt").is_file()

    def test_missing_config_exits_2(self, capsys):
        code = main(["run", "--config", "/nonexistent/config.ini"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_writes_all_artifacts(self, small_setup, capsys):
        out_dir = small_setup / "full"
        code = main(
            [
                "run",
                "--config", str(small_setup / "config.ini"),
                "--output", str(out_dir),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pr_auc raw" in stdout
        for name in (
            "mentions.jsonl", "doc_concept_matrix.txt", "doc_order.txt",
            "concept_order.txt", "cooc_matrix.txt", "autoencoder.json",
            "train_report.json", "scored_raw.jsonl", "scored_encoded.jsonl",
            "pr_raw.csv", "pr_encoded.csv", "metrics.json", "auc_summary.json",
        ):
            assert (out_dir / name).is_file(), name
        labels = sorted((out_dir / "labels_raw").glob("threshold_*.csv"))
        assert len(labels) == 21
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert set(metrics) == {"baseline", "gold", "per_concept", "selflabel"}

    def test_stage_prefix_runs(self, small_setup):
        out_dir = small_setup / "staged"
        code = main(
            [
                "run", "--config", str(small_setup / "config.ini"),
                "--output", str(out_dir), "--stage", "ner",
            ]
        )
        assert code == 0
        assert (out_dir / "mentions.jsonl").is_file()
        assert not (out_dir / "cooc_matrix.txt").exists()
        code = main(
            [
                "run", "--config", str(small_setup / "config.ini"),
                "--output", str(out_dir), "--stage", "matrix",
            ]
        )
        assert code == 0
        assert (out_dir / "cooc_matrix.txt").is_file()

    def test_override_takes_every_value_the_file_takes(self, small_setup, capsys):
        path = small_setup / "fixed_dim.ini"
        path.write_text(
            (small_setup / "config.ini").read_text(encoding="utf-8").replace(
                "encoded_dim = auto", "encoded_dim = 1"
            ),
            encoding="utf-8",
        )
        argv = ["run", "--config", str(path), "--output", str(small_setup / "auto"),
                "--stage", "autoencoder"]
        assert main([*argv, "--encoded-dim", "auto"]) == 0
        out = capsys.readouterr().out
        m = int(out.split("observed concepts")[1].split()[0])
        assert f"encoded dim        {m // 4}\n" in out
        assert main([*argv, "--no-normalized"]) == 0
        assert "encoded dim        1\n" in capsys.readouterr().out

    def test_report_after_run(self, small_setup, capsys):
        out_dir = small_setup / "full"
        if not (out_dir / "metrics.json").is_file():
            main(["run", "--config", str(small_setup / "config.ini"),
                  "--output", str(out_dir)])
            capsys.readouterr()
        code = main(
            ["report", "--config", str(small_setup / "config.ini"),
             "--output", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline dictionary NER" in out
        assert "raw embeddings: pr_auc" in out
        assert "encoded embeddings: pr_auc" in out
        assert "per-concept metrics" in out

    def test_override_is_checked_on_a_cached_rerun(self, small_setup, capsys):
        out_dir = small_setup / "full"
        if not (out_dir / "metrics.json").is_file():
            main(["run", "--config", str(small_setup / "config.ini"),
                  "--output", str(out_dir)])
        capsys.readouterr()
        code = main(
            ["run", "--config", str(small_setup / "config.ini"),
             "--output", str(out_dir), "--stage", "eval", "--epochs", "0"]
        )
        assert code == 2
        assert "autoencoder.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("damaged, text, reason", [
        (None, None, "missing artifact metrics.json"),
        ("metrics.json", '{"gold": ', "line 1: invalid JSON (Expecting value)"),
        ("auc_summary.json", "{", "line 1: invalid JSON"),
        ("pr_raw.csv", "threshold,precision,recall\n0.5,x,0.1\n", "could not convert"),
        ("metrics.json", "{}", "missing field 'gold'"),
        ("metrics.json", '{"gold": {}}', "missing field 'gold.total'"),
        ("auc_summary.json", '{"raw": 0.5, "gap": 0.0}', "missing field 'encoded'"),
    ], ids=[
        "never_ran", "metrics.json", "auc_summary.json", "pr_raw.csv",
        "metrics.json-no-gold", "metrics.json-no-total", "auc_summary.json-no-encoded",
    ])
    def test_report_without_artifacts_exits_1(
        self, small_setup, capsys, tmp_path, damaged, text, reason
    ):
        out_dir = small_setup / "never_ran"
        if damaged is not None:
            full = small_setup / "full"
            if not (full / "metrics.json").is_file():
                main(["run", "--config", str(small_setup / "config.ini"), "--output", str(full)])
            out_dir = tmp_path / "out"
            shutil.copytree(full, out_dir)
            (out_dir / damaged).write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["report", "--config", str(small_setup / "config.ini"),
             "--output", str(out_dir)]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "stage eval" in err
        where = "" if damaged is None else f"{out_dir / damaged}: "
        assert f"error: stage eval: {where}{reason}" in err

    def test_empty_gold_reports_warning(self, small_setup, capsys, tmp_path):
        empty_gold = small_setup / "empty_gold.jsonl"
        empty_gold.write_text("", encoding="utf-8")
        config_text = (small_setup / "config.ini").read_text(encoding="utf-8")
        patched = small_setup / "config_empty_gold.ini"
        patched.write_text(
            config_text.replace("gold = gold.jsonl", "gold = empty_gold.jsonl"),
            encoding="utf-8",
        )
        out_dir = small_setup / "empty_gold_out"
        assert main(["run", "--config", str(patched), "--output", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(patched), "--output", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["baseline"]["precision"] == 0.0
        assert metrics["baseline"]["recall"] == 0.0


def test_cli_imports_only_stdlib(tmp_path):
    # Every conceptmine process pays for its imports, so a fresh
    # interpreter importing the CLI may load no third-party package; numpy
    # waits for the first stage that computes or parses arrays.
    probe = (
        "import sys; before = set(sys.modules); import conceptmine.cli; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    loaded = set(proc.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"conceptmine"}
    # Nor concurrent.futures, which costs every start 6-8 ms for nothing,
    # nor pickle, which only a forked NER worker and its reader use.
    assert "concurrent" not in loaded
    assert "pickle" not in loaded


def test_forked_ner_workers_print_nothing(small_setup, tmp_path):
    # Text printed before the run waits in the stdout buffer when the NER
    # workers fork; a worker that flushed its copy would print it again.
    # Enough CPUs are reported that --threads 2 forks on any machine.
    probe = (
        "import os, sys; os.cpu_count = lambda: 4; print('before the run'); "
        "from conceptmine.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    # Buffered, as a pipe is by default.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = pythonpath
    stdouts = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", probe, "run", "--config", str(small_setup / "config.ini"),
             "--output", str(tmp_path / f"out{threads}"), "--epochs", "5", "--threads", threads],
            cwd=tmp_path, capture_output=True, text=True, check=True, env=env,
        )
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
    assert stdouts[1].count("before the run") == 1
    assert "pr_auc gap" in stdouts[1]


def test_a_cached_rerun_loads_no_openssl(small_setup, tmp_path):
    # hashlib loads OpenSSL and numpy its array code, megabytes of peak RSS
    # that a cached rerun has no use for. A fresh run needs numpy but not
    # numpy.random, which imports _hashlib through secrets and hmac: the
    # autoencoder draws its seeded stream from conceptmine.pcg64.
    probe = (
        "import sys; from conceptmine.cli import main; code = main(sys.argv[1:]); "
        "watched = {'_hashlib', 'numpy', 'numpy.random', 'secrets', 'ssl'}; "
        "print('loaded', *sorted(watched & set(sys.modules))); "
        "sys.exit(code)"
    )
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-c", probe, "run", "--config", str(small_setup / "config.ini"),
            "--output", str(tmp_path / "out"), "--epochs", "5"]
    loaded = []
    for extra in ([], ["--stage", "eval"]):
        proc = subprocess.run(
            [*argv, *extra], cwd=tmp_path, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        loaded.append(proc.stdout.splitlines()[-1].split()[1:])
    assert loaded[0] == ["numpy"]
    assert loaded[1] == []
