"""Every output file's bytes, pinned, so that a change to an artifact
shows in the diff of this file.

Two inputs run into temporary directories: the bundled corpus under
``data/config.ini``, and ``pipebench/make_inputs.py --workload bundled
--seed 1``. Each runs fresh, then with ``--stage eval`` over the same tree,
then fresh at ``threads = 2``; every run must leave the pinned
``pipeline._digests`` (``[size, CRC-32]`` per file) and the pinned stdout.

The text and integer files depend on nothing but the code. The others
come from the autoencoder's and the scorer's matrix products, whose last
bits can differ between numpy builds and BLAS kernels, so they are pinned
in a case of their own.
"""

import io
import runpy
from contextlib import redirect_stdout

import pytest

from conceptmine.cli import main
from conceptmine.pipeline import _digests

from conftest import DATA_DIR, REPO_ROOT

EXACT = (
    "concept_order.txt",
    "cooc_matrix.txt",
    "doc_concept_matrix.txt",
    "doc_order.txt",
    "mentions.jsonl",
    "selected_concepts.txt",
)

PINNED = {
    "data": {
        "auc_summary.json": [93, 1053939757],
        "autoencoder.json": [17815, 716969023],
        "concept_order.txt": [333, 4065491766],
        "cooc_matrix.txt": [5573, 1668399366],
        "doc_concept_matrix.txt": [9492, 3501637436],
        "doc_order.txt": [2465, 1309562553],
        "fingerprint.json": [3213, 982189655],
        "labels_encoded/threshold_0.05.csv": [61191, 2453396505],
        "labels_encoded/threshold_0.1.csv": [61197, 1985538079],
        "labels_encoded/threshold_0.15.csv": [61198, 4126489851],
        "labels_encoded/threshold_0.2.csv": [61198, 4126489851],
        "labels_encoded/threshold_0.25.csv": [61198, 4126489851],
        "labels_encoded/threshold_0.3.csv": [61201, 3136627261],
        "labels_encoded/threshold_0.35.csv": [61202, 1856042938],
        "labels_encoded/threshold_0.4.csv": [61204, 306639680],
        "labels_encoded/threshold_0.45.csv": [61204, 306639680],
        "labels_encoded/threshold_0.5.csv": [61205, 4086414357],
        "labels_encoded/threshold_0.55.csv": [61205, 4086414357],
        "labels_encoded/threshold_0.6.csv": [61205, 4086414357],
        "labels_encoded/threshold_0.65.csv": [61205, 4086414357],
        "labels_encoded/threshold_0.7.csv": [61206, 1711720302],
        "labels_encoded/threshold_0.75.csv": [61209, 3305826643],
        "labels_encoded/threshold_0.8.csv": [61215, 3133646663],
        "labels_encoded/threshold_0.85.csv": [61223, 3660092682],
        "labels_encoded/threshold_0.9.csv": [61253, 4151947790],
        "labels_encoded/threshold_0.95.csv": [61366, 767627213],
        "labels_encoded/threshold_0.csv": [61182, 4272839899],
        "labels_encoded/threshold_1.csv": [62300, 1437119609],
        "labels_raw/threshold_0.05.csv": [61117, 2674144809],
        "labels_raw/threshold_0.1.csv": [61159, 3840543691],
        "labels_raw/threshold_0.15.csv": [61177, 737600145],
        "labels_raw/threshold_0.2.csv": [61177, 737600145],
        "labels_raw/threshold_0.25.csv": [61177, 737600145],
        "labels_raw/threshold_0.3.csv": [61177, 737600145],
        "labels_raw/threshold_0.35.csv": [61177, 737600145],
        "labels_raw/threshold_0.4.csv": [61177, 737600145],
        "labels_raw/threshold_0.45.csv": [61177, 737600145],
        "labels_raw/threshold_0.5.csv": [61177, 737600145],
        "labels_raw/threshold_0.55.csv": [61177, 737600145],
        "labels_raw/threshold_0.6.csv": [61177, 737600145],
        "labels_raw/threshold_0.65.csv": [61177, 737600145],
        "labels_raw/threshold_0.7.csv": [61177, 737600145],
        "labels_raw/threshold_0.75.csv": [61177, 737600145],
        "labels_raw/threshold_0.8.csv": [61177, 737600145],
        "labels_raw/threshold_0.85.csv": [61178, 2550183078],
        "labels_raw/threshold_0.9.csv": [61218, 3345390772],
        "labels_raw/threshold_0.95.csv": [61373, 3974144241],
        "labels_raw/threshold_0.csv": [61110, 1772344595],
        "labels_raw/threshold_1.csv": [62272, 194703393],
        "mentions.jsonl": [172649, 110139460],
        "metrics.json": [5397, 1481330846],
        "pr_encoded.csv": [761, 480469837],
        "pr_raw.csv": [656, 3233800837],
        "scored_encoded.jsonl": [207120, 3765026507],
        "scored_raw.jsonl": [207092, 956696444],
        "selected_concepts.txt": [387, 2251173231],
        "train_report.json": [35901, 2050824740],
    },
    "synth": {
        "auc_summary.json": [93, 1210868311],
        "autoencoder.json": [17804, 2502405271],
        "concept_order.txt": [333, 4065491766],
        "cooc_matrix.txt": [5195, 3282361189],
        "doc_concept_matrix.txt": [9450, 1801955831],
        "doc_order.txt": [2465, 1309562553],
        "fingerprint.json": [3207, 977765015],
        "labels_encoded/threshold_0.05.csv": [61128, 2164709509],
        "labels_encoded/threshold_0.1.csv": [61130, 407494005],
        "labels_encoded/threshold_0.15.csv": [61136, 1412589188],
        "labels_encoded/threshold_0.2.csv": [61140, 3844794447],
        "labels_encoded/threshold_0.25.csv": [61142, 903988909],
        "labels_encoded/threshold_0.3.csv": [61142, 903988909],
        "labels_encoded/threshold_0.35.csv": [61142, 903988909],
        "labels_encoded/threshold_0.4.csv": [61142, 903988909],
        "labels_encoded/threshold_0.45.csv": [61142, 903988909],
        "labels_encoded/threshold_0.5.csv": [61142, 903988909],
        "labels_encoded/threshold_0.55.csv": [61142, 903988909],
        "labels_encoded/threshold_0.6.csv": [61142, 903988909],
        "labels_encoded/threshold_0.65.csv": [61142, 903988909],
        "labels_encoded/threshold_0.7.csv": [61142, 903988909],
        "labels_encoded/threshold_0.75.csv": [61143, 3266067275],
        "labels_encoded/threshold_0.8.csv": [61150, 4052334819],
        "labels_encoded/threshold_0.85.csv": [61163, 571174371],
        "labels_encoded/threshold_0.9.csv": [61187, 1403032214],
        "labels_encoded/threshold_0.95.csv": [61282, 3081624647],
        "labels_encoded/threshold_0.csv": [61121, 1772363222],
        "labels_encoded/threshold_1.csv": [62238, 1907919116],
        "labels_raw/threshold_0.05.csv": [61070, 3216208005],
        "labels_raw/threshold_0.1.csv": [61107, 374487768],
        "labels_raw/threshold_0.15.csv": [61123, 4060810231],
        "labels_raw/threshold_0.2.csv": [61127, 900269475],
        "labels_raw/threshold_0.25.csv": [61127, 900269475],
        "labels_raw/threshold_0.3.csv": [61127, 900269475],
        "labels_raw/threshold_0.35.csv": [61127, 900269475],
        "labels_raw/threshold_0.4.csv": [61127, 900269475],
        "labels_raw/threshold_0.45.csv": [61127, 900269475],
        "labels_raw/threshold_0.5.csv": [61127, 900269475],
        "labels_raw/threshold_0.55.csv": [61127, 900269475],
        "labels_raw/threshold_0.6.csv": [61127, 900269475],
        "labels_raw/threshold_0.65.csv": [61127, 900269475],
        "labels_raw/threshold_0.7.csv": [61127, 900269475],
        "labels_raw/threshold_0.75.csv": [61127, 900269475],
        "labels_raw/threshold_0.8.csv": [61127, 900269475],
        "labels_raw/threshold_0.85.csv": [61128, 3297027996],
        "labels_raw/threshold_0.9.csv": [61171, 1172840791],
        "labels_raw/threshold_0.95.csv": [61293, 951887047],
        "labels_raw/threshold_0.csv": [61065, 3524821576],
        "labels_raw/threshold_1.csv": [62223, 1459103080],
        "mentions.jsonl": [172654, 3035664386],
        "metrics.json": [5274, 329226772],
        "pr_encoded.csv": [685, 1656340198],
        "pr_raw.csv": [671, 4108998543],
        "scored_encoded.jsonl": [207069, 3892916949],
        "scored_raw.jsonl": [207054, 3671060210],
        "selected_concepts.txt": [387, 2251173231],
        "train_report.json": [35984, 2502919419],
    },
}

STDOUT = {
    "data": (
        'documents          245\n'
        'mentions           1190 (1162 unfiltered)\n'
        'observed concepts  37\n'
        'encoded dim        9\n'
        'pr_auc raw         0.565175\n'
        'pr_auc encoded     0.549998\n'
        'pr_auc gap         0.015177\n'
    ),
    "synth": (
        'documents          245\n'
        'mentions           1189 (1158 unfiltered)\n'
        'observed concepts  37\n'
        'encoded dim        9\n'
        'pr_auc raw         0.549242\n'
        'pr_auc encoded     0.537709\n'
        'pr_auc gap         0.011533\n'
    ),
}

RUNS = ("fresh", "stage-eval", "threads-2")
BLAS_NOTE = (
    "these bytes come from numpy matrix products and can depend on the "
    "machine's numpy and BLAS kernels; if the text and integer case passes, "
    "re-pin them for a new machine"
)


def _tree(config, out, *flags):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["run", "--config", str(config), "--output", str(out), *flags]) == 0
    return _digests(out, sorted(out.iterdir())), stdout.getvalue()


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """``(input, run) -> (digests, stdout)`` for both inputs and all ``RUNS``."""
    root = tmp_path_factory.mktemp("bytes")
    make_inputs = runpy.run_path(str(REPO_ROOT / "pipebench" / "make_inputs.py"))
    make_inputs["make_inputs"]("bundled", 1, root / "synth")
    trees = {}
    for name, config in (("data", DATA_DIR), ("synth", root / "synth")):
        config, out = config / "config.ini", root / f"{name}-out"
        trees[name, "fresh"] = _tree(config, out, "--threads", "1")
        trees[name, "stage-eval"] = _tree(config, out, "--stage", "eval")
        trees[name, "threads-2"] = _tree(config, root / f"{name}-out-2", "--threads", "2")
    return trees


def _part(digests, exact):
    return {k: v for k, v in digests.items() if (k in EXACT) == exact}


def _integer_lines(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("pr_auc")]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("name", ["data", "synth"])
def test_text_and_integer_artifacts_keep_their_bytes(trees, name, run):
    digests, stdout = trees[name, run]
    assert _part(digests, True) == _part(PINNED[name], True)
    assert _integer_lines(stdout) == _integer_lines(STDOUT[name])


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("name", ["data", "synth"])
def test_floating_point_artifacts_keep_their_bytes(trees, name, run):
    digests, stdout = trees[name, run]
    assert _part(digests, False) == _part(PINNED[name], False), BLAS_NOTE
    assert stdout == STDOUT[name], BLAS_NOTE
