import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conceptmine.autoencoder import (
    AEConfig,
    AEModel,
    TrainingDiverged,
    encode_all,
    forward_all,
    init_model,
    load_model,
    save_model,
    train,
)
from conceptmine.ingest import Corpus, Document
from conceptmine.matrix import (
    CoocMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embeddings,
)
from conceptmine.ner import Mention

from conftest import csr_from_dense, flat_lexicon, loss_and_gradients


def oracle_loss(model: AEModel, X: np.ndarray) -> float:
    """Independent forward pass and mean squared error."""
    Z = X @ model.W_enc.T + model.b_enc
    H = 1.0 / (1.0 + np.exp(-Z)) if model.activation == "sigmoid" else Z
    R = H @ model.W_dec.T + model.b_dec
    return float(np.mean((R - X) ** 2))


def numeric_gradient(model: AEModel, X: np.ndarray, field: str, step=1e-5):
    base = getattr(model, field)
    grad = np.zeros_like(base)
    for index in np.ndindex(base.shape):
        plus = base.copy()
        plus[index] += step
        minus = base.copy()
        minus[index] -= step
        loss_plus = oracle_loss(dataclasses.replace(model, **{field: plus}), X)
        loss_minus = oracle_loss(dataclasses.replace(model, **{field: minus}), X)
        grad[index] = (loss_plus - loss_minus) / (2.0 * step)
    return grad


class TestConfig:
    def test_encoded_dim_must_shrink(self):
        with pytest.raises(ValueError, match="smaller"):
            AEConfig(input_dim=4, encoded_dim=4)

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ValueError, match="epochs"):
            AEConfig(input_dim=4, encoded_dim=2, epochs=0)

    def test_bad_activation(self):
        with pytest.raises(ValueError, match="activation"):
            AEConfig(input_dim=4, encoded_dim=2, activation="relu")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            AEConfig(input_dim=4, encoded_dim=2, seed=-1)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        config = AEConfig(input_dim=10, encoded_dim=3, seed=99)
        a = init_model(config)
        b = init_model(config)
        for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_shapes_322_to_50(self):
        model = init_model(AEConfig(input_dim=322, encoded_dim=50))
        assert model.W_enc.shape == (50, 322)
        assert model.W_dec.shape == (322, 50)
        assert model.b_enc.shape == (50,)
        assert model.b_dec.shape == (322,)

    def test_init_scale_and_zero_biases(self):
        config = AEConfig(input_dim=40, encoded_dim=10, seed=3)
        model = init_model(config)
        bound = math.sqrt(6.0 / 50.0)
        assert np.abs(model.W_enc).max() <= bound
        assert np.abs(model.W_dec).max() <= bound
        assert not model.b_enc.any()
        assert not model.b_dec.any()


def forward(model, x):
    """:func:`forward_all` on a one-row batch."""
    encoded, reconstructed = forward_all(model, np.array([x], dtype=np.float64))
    return encoded[0], reconstructed[0]


class TestForward:
    def test_zero_model_zero_output(self):
        model = AEModel(
            W_enc=np.zeros((2, 3)), b_enc=np.zeros(2),
            W_dec=np.zeros((3, 2)), b_dec=np.zeros(3),
            activation="identity",
        )
        encoded, reconstructed = forward(model, np.array([1.0, -2.0, 3.0]))
        assert encoded.tolist() == [0.0, 0.0]
        assert reconstructed.tolist() == [0.0, 0.0, 0.0]

    def test_hand_computed_projection(self):
        model = AEModel(
            W_enc=np.array([[1.0, 0.0]]), b_enc=np.zeros(1),
            W_dec=np.array([[1.0], [0.0]]), b_dec=np.zeros(2),
            activation="identity",
        )
        encoded, reconstructed = forward(model, np.array([3.0, 5.0]))
        assert encoded.tolist() == [3.0]
        assert reconstructed.tolist() == [3.0, 0.0]

    def test_sigmoid_at_zero_preactivation(self):
        model = AEModel(
            W_enc=np.zeros((2, 3)), b_enc=np.zeros(2),
            W_dec=np.zeros((3, 2)), b_dec=np.zeros(3),
            activation="sigmoid",
        )
        encoded, _ = forward(model, np.array([4.0, 5.0, 6.0]))
        assert encoded.tolist() == [0.5, 0.5]

    def test_dimension_mismatch(self):
        model = init_model(AEConfig(input_dim=4, encoded_dim=2))
        with pytest.raises(ValueError, match="input_dim"):
            forward(model, np.ones(5))


class TestLossAndGradients:
    def test_perfect_reconstruction_zero_everything(self):
        # Identity-weight model reconstructs exactly on the encoder range.
        model = AEModel(
            W_enc=np.array([[1.0, 0.0], [0.0, 1.0]])[:1],
            b_enc=np.zeros(1),
            W_dec=np.array([[1.0], [0.0]]),
            b_dec=np.zeros(2),
            activation="identity",
        )
        batch = np.array([[2.0, 0.0], [0.5, 0.0]])
        loss, grads = loss_and_gradients(model, batch)
        assert loss == 0.0
        for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
            assert not getattr(grads, field).any()

    def test_zero_batch_zero_model(self):
        model = AEModel(
            W_enc=np.zeros((1, 2)), b_enc=np.zeros(1),
            W_dec=np.zeros((2, 1)), b_dec=np.zeros(2),
            activation="identity",
        )
        loss, _ = loss_and_gradients(model, np.zeros((1, 2)))
        assert loss == 0.0

    def test_empty_batch_is_error(self):
        model = init_model(AEConfig(input_dim=3, encoded_dim=2))
        with pytest.raises(ValueError, match="empty"):
            loss_and_gradients(model, [])

    @pytest.mark.parametrize("activation", ["identity", "sigmoid"])
    def test_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(31)
        for trial in range(4):
            config = AEConfig(
                input_dim=4, encoded_dim=2, seed=int(rng.integers(10_000)),
                activation=activation,
            )
            model = init_model(config)
            X = rng.normal(size=(5, 4))
            _, grads = loss_and_gradients(model, X)
            for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
                numeric = numeric_gradient(model, X, field)
                analytic = getattr(grads, field)
                denom = np.maximum(np.abs(numeric), 1e-8)
                rel = np.abs(analytic - numeric) / denom
                assert rel.max() < 1e-4, field


class TestTrain:
    def test_lr_zero_is_identity_with_one_loss_entry(self):
        config = AEConfig(input_dim=4, encoded_dim=2, learning_rate=0.0, epochs=1, seed=5)
        model = init_model(config)
        data = np.random.default_rng(6).normal(size=(8, 4))
        trained, report = train(model, data, config)
        assert len(report.loss_per_epoch) == 1
        for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
            assert np.array_equal(getattr(trained, field), getattr(model, field))

    def test_rank_k_data_reaches_tiny_loss(self):
        rng = np.random.default_rng(7)
        m, k, n = 8, 3, 24
        basis, _ = np.linalg.qr(rng.normal(size=(m, k)))
        data = rng.normal(size=(n, k)) @ basis.T
        config = AEConfig(
            input_dim=m, encoded_dim=k, learning_rate=0.1, epochs=2000,
            batch_size=8, seed=8, activation="identity",
        )
        model, report = train(init_model(config), data, config)
        assert report.final_loss < 1e-3
        assert len(report.loss_per_epoch) == config.epochs
        assert all(v >= 0 and math.isfinite(v) for v in report.loss_per_epoch)

    def test_deterministic_given_seed(self):
        config = AEConfig(input_dim=5, encoded_dim=2, epochs=20, seed=42)
        data = np.random.default_rng(1).normal(size=(12, 5))
        _, report_a = train(init_model(config), data, config)
        _, report_b = train(init_model(config), data, config)
        assert report_a == report_b

    def test_divergence_names_epoch(self):
        config = AEConfig(
            input_dim=4, encoded_dim=2, learning_rate=1e6, epochs=50, seed=2
        )
        data = np.random.default_rng(3).normal(size=(16, 4))
        with pytest.raises(TrainingDiverged, match=r"epoch \d+"):
            train(init_model(config), data, config)

    def test_small_lr_epoch_losses_stay_stable(self):
        # Median worst epoch-over-epoch increase across 10 seeds <= 10%.
        rng = np.random.default_rng(9)
        data = rng.normal(size=(20, 6))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        worst = []
        for seed in range(10):
            config = AEConfig(
                input_dim=6, encoded_dim=2, learning_rate=1e-3, epochs=10,
                batch_size=4, seed=seed,
            )
            _, report = train(init_model(config), data, config)
            ratios = [
                b / a
                for a, b in zip(report.loss_per_epoch, report.loss_per_epoch[1:])
            ]
            worst.append(max(ratios))
        assert float(np.median(worst)) <= 1.10


def small_cooc():
    corpus = Corpus(
        docs=tuple(Document(doc_id=f"d{i}", text="") for i in range(6))
    )
    cids = [f"C{j}" for j in range(5)]
    lexicon = flat_lexicon(cids)
    rng = np.random.default_rng(44)
    mentions = [
        Mention(doc_id=f"d{int(rng.integers(6))}", concept_id=cids[int(rng.integers(5))],
                start=0, end=1, surface="x")
        for _ in range(30)
    ]
    X = build_doc_concept_matrix(corpus, mentions, lexicon)
    return build_cooc_matrix(X)


class TestEncodeAll:
    def test_shape_contract(self):
        C = small_cooc()
        m = C.m_concepts
        config = AEConfig(input_dim=m, encoded_dim=2, seed=1)
        model = init_model(config)
        encoded = encode_all(model, C, normalized=True)
        assert encoded.shape == (m, 2)

    def test_matches_per_row_forward(self):
        C = small_cooc()
        m = C.m_concepts
        model = init_model(AEConfig(input_dim=m, encoded_dim=2, seed=1))
        encoded = encode_all(model, C, normalized=True)
        for i, row in enumerate(concept_embeddings(C, normalized=True)):
            assert encoded[i] == pytest.approx(forward(model, row)[0].tolist())

    def test_dim_mismatch(self):
        C = small_cooc()
        model = init_model(AEConfig(input_dim=C.m_concepts + 1, encoded_dim=2))
        with pytest.raises(ValueError, match="input_dim"):
            encode_all(model, C)

    def test_322_concepts_to_50_dimensions(self):
        C = CoocMatrix(
            concept_ids=tuple(f"C{i:04d}" for i in range(322)),
            counts=csr_from_dense(np.identity(322, dtype=np.int64)),
        )
        model = init_model(AEConfig(input_dim=322, encoded_dim=50, seed=0))
        assert encode_all(model, C, normalized=True).shape == (322, 50)


def test_model_file_round_trips_bit_exactly(tmp_path):
    config = AEConfig(input_dim=7, encoded_dim=3, seed=123)
    model = init_model(config)
    path = tmp_path / "model.json"
    save_model(model, path, seed=config.seed)
    loaded = load_model(path)
    assert loaded.activation == model.activation
    for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
        assert np.array_equal(getattr(loaded, field), getattr(model, field))
    # Save -> load -> save is byte-stable.
    again = tmp_path / "model2.json"
    save_model(loaded, again, seed=config.seed)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "key, value",
    [
        ("b_enc", [5.0]),
        ("w_dec", [[0.0]]),
        ("b_dec", [1.0]),
        ("activation", "relu"),
    ],
    ids=["b_enc", "w_dec", "b_dec", "activation"],
)
def test_load_model_checks_every_parameter(tmp_path, key, value):
    path = tmp_path / "model.json"
    save_model(init_model(AEConfig(input_dim=7, encoded_dim=3, seed=1)), path)
    record = json.loads(path.read_text(encoding="utf-8"))
    record[key] = value
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=f"model.json: {key}"):
        load_model(path)


def test_load_model_names_a_malformed_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(AEConfig(input_dim=7, encoded_dim=3, seed=1)), path)
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["w_dec"]
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match="model.json: missing field 'w_dec'"):
        load_model(path)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="model.json: expected a JSON object"):
        load_model(path)


def test_load_model_names_the_file_and_line_of_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(AEConfig(input_dim=7, encoded_dim=3, seed=1)), path)
    cut = path.read_text(encoding="utf-8")[:500]
    path.write_text(cut, encoding="utf-8")
    line = cut.count("\n") + 1
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: invalid JSON (")):
        load_model(path)


def test_batched_forward_matches_single(tmp_path):
    model = init_model(AEConfig(input_dim=6, encoded_dim=2, seed=10))
    X = np.random.default_rng(11).normal(size=(4, 6))
    encoded, reconstructed = forward_all(model, X)
    for i in range(4):
        e, r = forward(model, X[i])
        assert encoded[i] == pytest.approx(e.tolist())
        assert reconstructed[i] == pytest.approx(r.tolist())
