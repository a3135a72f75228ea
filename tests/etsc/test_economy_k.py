"""Tests for ECONOMY-K: cost function, cluster memberships, decisions."""

import numpy as np
import pytest

from repro.core import StreamingSession
from repro.core.prediction import collect_predictions
from repro.data import train_test_split
from repro.etsc import EconomyK
from repro.exceptions import ConfigurationError
from repro.serve import GuardedStreamingSession
from repro.stats import accuracy
from tests.conftest import make_shift_dataset, make_sinusoid_dataset


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"misclassification_cost": 0.0},
            {"delay_cost": -1.0},
            {"n_checkpoints": 0},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EconomyK(**kwargs)


class TestTraining:
    def test_error_rate_table_shape(self):
        model = EconomyK(n_clusters=2, n_checkpoints=4, n_estimators=5)
        model.train(make_sinusoid_dataset(40))
        assert model._error_rates.shape == (len(model._checkpoints), 2)
        assert ((model._error_rates >= 0) & (model._error_rates <= 1)).all()

    def test_cluster_grid_search_picks_some_k(self):
        model = EconomyK(
            n_clusters=None, cluster_grid=(1, 2), n_checkpoints=4,
            n_estimators=5,
        )
        model.train(make_sinusoid_dataset(40))
        assert model._kmeans.n_clusters in (1, 2)

    def test_error_rates_fall_with_longer_prefixes_on_shift_data(self):
        # Before the onset nothing is learnable, after it everything is.
        model = EconomyK(n_clusters=1, n_checkpoints=6, n_estimators=10)
        model.train(make_shift_dataset(80, length=24, onset=12))
        early_error = model._error_rates[0].mean()
        late_error = model._error_rates[-1].mean()
        assert late_error < early_error


class TestDecision:
    def test_expected_cost_vector_length(self):
        model = EconomyK(n_clusters=2, n_checkpoints=5, n_estimators=5)
        dataset = make_sinusoid_dataset(40)
        model.train(dataset)
        row = dataset.values[0, 0, :]
        first = model._expected_costs(row[: model._checkpoints[0]], 0)
        assert len(first) == len(model._checkpoints)
        last = model._expected_costs(row, len(model._checkpoints) - 1)
        assert len(last) == 1

    def test_high_delay_cost_forces_early_decisions(self):
        dataset = make_sinusoid_dataset(60)
        train, test = train_test_split(dataset, 0.25)
        patient = EconomyK(
            n_clusters=2, n_checkpoints=6, delay_cost=0.0, n_estimators=6
        ).train(train)
        hasty = EconomyK(
            n_clusters=2, n_checkpoints=6, delay_cost=50.0, n_estimators=6
        ).train(train)
        _, patient_prefixes = collect_predictions(patient.predict(test))
        _, hasty_prefixes = collect_predictions(hasty.predict(test))
        assert hasty_prefixes.mean() <= patient_prefixes.mean()

    def test_decisions_land_on_checkpoints(self):
        dataset = make_sinusoid_dataset(40)
        train, test = train_test_split(dataset, 0.25)
        model = EconomyK(
            n_clusters=2, n_checkpoints=5, n_estimators=5
        ).train(train)
        checkpoints = set(model._checkpoints)
        for prediction in model.predict(test):
            assert prediction.prefix_length in checkpoints

    def test_learns_sinusoids(self):
        train, test = train_test_split(make_sinusoid_dataset(60), 0.25)
        model = EconomyK(
            n_clusters=2, n_checkpoints=6, n_estimators=10
        ).train(train)
        labels, _ = collect_predictions(model.predict(test))
        assert accuracy(test.labels, labels) > 0.7


class TestSeriesShorterThanFirstCheckpoint:
    @pytest.fixture(scope="class")
    def trained(self):
        dataset = make_sinusoid_dataset(40)
        model = EconomyK(n_clusters=2, n_checkpoints=5, n_estimators=5)
        return model.train(dataset), dataset

    def test_forced_majority_commitment_at_the_series_end(self, trained):
        model, dataset = trained
        labels, counts = np.unique(dataset.labels, return_counts=True)
        assert model._checkpoints[0] > 1
        prediction = model.predict_one(dataset.values[0, :, :1])
        assert prediction.prefix_length == prediction.series_length == 1
        assert prediction.label == labels[counts.argmax()]

    def test_majority_tie_goes_to_the_smallest_label(self):
        # make_sinusoid_dataset balances its two classes exactly.
        dataset = make_sinusoid_dataset(40, seed=3)
        model = EconomyK(n_clusters=1, n_checkpoints=4, n_estimators=3)
        model.train(dataset)
        assert model.predict_one(dataset.values[0, :, :1]).label == 0

    def test_streaming_session_completes(self, trained):
        model, dataset = trained
        decision = StreamingSession(model, dataset.length).run(
            dataset.values[0]
        )
        assert decision.decided_at >= model._checkpoints[0]

    def test_guarded_session_records_no_consult_failures(self, trained):
        model, dataset = trained
        session = GuardedStreamingSession.for_dataset(model, dataset)
        decision = session.run(dataset.values[0])
        assert not decision.degraded
        assert session.metrics.snapshot().get("serve.consult_failures", 0) == 0
