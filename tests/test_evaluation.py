import itertools
import json
import re

import numpy as np
import pytest

from heartbn import (
    Cpt,
    DataTable,
    DiscreteBayesNet,
    Variable,
    build_dag,
    confusion,
    metrics,
    run_experiment,
)
from heartbn import evaluation


class TestConfusion:
    def test_perfect_three(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert (cm["tp"], cm["tn"], cm["fp"], cm["fn"]) == (2, 1, 0, 0)

    def test_all_false_positives(self):
        cm = confusion([1] * 5, [0] * 5)
        assert cm["fp"] == 5
        assert sum(cm.values()) == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            confusion([2], [0])

    def test_51_of_60_gives_085(self):
        cm = dict(tp=30, fp=4, fn=5, tn=21)
        assert sum(cm.values()) == 60
        assert metrics(cm)["accuracy"] == pytest.approx(0.85)


class TestMetrics:
    def test_worked_example(self):
        m = metrics(dict(tp=20, fp=5, fn=4, tn=31))
        assert m["accuracy"] == pytest.approx(0.85)
        assert m["precision"] == pytest.approx(0.8)
        assert m["recall"] == pytest.approx(0.833333, abs=1e-6)
        assert m["f1"] == pytest.approx(0.816327, abs=1e-6)

    def test_perfect_prediction(self):
        m = metrics(dict(tp=10, fp=0, fn=0, tn=10))
        assert (m["accuracy"], m["precision"], m["recall"], m["f1"]) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_precision_is_zero(self):
        m = metrics(dict(tp=0, fp=0, fn=3, tn=7))
        assert m["precision"] == 0.0
        assert m["f1"] == 0.0

    @pytest.mark.parametrize("tp", range(4))
    def test_degenerate_fields_name_the_zero_denominators(self, tp):
        # every nonempty confusion with cells 0-3; F1 is degenerate exactly
        # when precision + recall is zero
        for fp, fn, tn in itertools.product(range(4), repeat=3):
            cm = dict(tp=tp, fp=fp, fn=fn, tn=tn)
            if tp + fp + fn + tn == 0:
                continue
            m = metrics(cm)
            zero = {
                "precision": tp + fp == 0,
                "recall": tp + fn == 0,
                "f1": m["precision"] + m["recall"] == 0,
            }
            assert evaluation.degenerate_fields(cm) == [k for k, v in zero.items() if v], cm

    def test_dicts_keyed_in_report_order(self):
        cm = confusion([1, 0, 0, 1], [1, 1, 0, 0])
        assert cm == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}
        assert list(cm) == ["tp", "fp", "fn", "tn"]
        assert list(metrics(cm)) == ["accuracy", "precision", "recall", "f1"]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(dict(tp=0, fp=0, fn=0, tn=0))

    def test_accuracy_equals_agreement_fraction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            predicted = rng.integers(0, 2, size=n).tolist()
            actual = rng.integers(0, 2, size=n).tolist()
            m = metrics(confusion(predicted, actual))
            agree = sum(p == a for p, a in zip(predicted, actual)) / n
            assert m["accuracy"] == agree


class TestRunExperiment:
    def test_deterministic_report(self, heart_table):
        first = run_experiment(heart_table, "bn-paper", 0.8, [3, 1])
        second = run_experiment(heart_table, "bn-paper", 0.8, [1, 3])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_report_structure(self, heart_table):
        report = run_experiment(heart_table, "nb", 0.8, [0, 1])
        assert report["model_kind"] == "nb"
        assert [entry["seed"] for entry in report["per_seed"]] == [0, 1]
        entry = report["per_seed"][0]
        assert set(entry["confusion"]) == {"tp", "fp", "fn", "tn"}
        assert set(entry["metrics"]) == {"accuracy", "precision", "recall", "f1"}
        assert sum(entry["confusion"].values()) == 60

    def test_aggregate_mean_matches_per_seed(self, heart_table):
        report = run_experiment(heart_table, "bn-paper", 0.8, [0, 1, 2])
        accuracies = [entry["metrics"]["accuracy"] for entry in report["per_seed"]]
        assert report["aggregate"]["mean"]["accuracy"] == pytest.approx(
            float(np.mean(accuracies)), abs=1e-12
        )

    # the pc learner legitimately reports orientation conflicts on this data
    @pytest.mark.filterwarnings("ignore::heartbn.errors.ConflictingOrientationWarning")
    @pytest.mark.parametrize("learner", ["hc", "pc", "hybrid"])
    def test_learned_structure_variants_run(self, heart_table, learner):
        report = run_experiment(
            heart_table, "bn-learned", 0.8, [0], learner=learner, estimator="bayes", ess=5.0
        )
        assert report["learner"] == learner
        assert 0.0 <= report["per_seed"][0]["metrics"]["accuracy"] <= 1.0

    def test_impossible_nb_row_goes_straight_to_prior(self, monkeypatch):
        # A Naive Bayes blanket is every feature, so restricting the evidence
        # to it would repeat the impossible query; classify_rows has already
        # flagged it, so the only per-row query is the prior's.
        seed = 0
        test_row = int(np.random.default_rng(seed).permutation(10)[-1])
        rows = np.array([[i % 2, i // 2 % 2, 0] for i in range(10)])
        rows[test_row, 2] = 1  # a state the training rows never show
        schema = (Variable("target", "01"), Variable("a", "01"), Variable("b", "01"))
        evidence_sizes = []
        real_classify = evaluation.classify

        def spy(net, class_var, evidence):
            evidence_sizes.append(len(evidence))
            return real_classify(net, class_var, evidence)

        monkeypatch.setattr(evaluation, "classify", spy)
        report = run_experiment(DataTable(schema, rows), "nb", 0.9, [seed], pseudo=0.0)
        assert report["per_seed"][0]["zero_evidence_rows"] == 1
        assert evidence_sizes == [0]

    def test_impossible_blanket_evidence_falls_back_to_the_prior(self, monkeypatch):
        # f = 1 is impossible whatever the class, so dropping g, which lies
        # outside the blanket {f}, still leaves impossible evidence
        target, f, g = Variable("target", "01"), Variable("f", "01"), Variable("g", "01")
        net = DiscreteBayesNet(
            build_dag((target, f, g), (("target", "f"),)),
            {
                "target": Cpt(target, (), np.array([[0.3, 0.7]])),
                "f": Cpt(f, (target,), np.array([[1.0, 0.0], [1.0, 0.0]])),
                "g": Cpt(g, (), np.array([[0.5, 0.5]])),
            },
        )
        queried = []
        real_classify = evaluation.classify

        def spy(net, class_var, evidence):
            queried.append(dict(evidence))
            return real_classify(net, class_var, evidence)

        monkeypatch.setattr(evaluation, "classify", spy)
        assert evaluation._fallback_classify(net, {"f": 1, "g": 0}) == 1
        assert queried == [{"f": 1}, {}]

    def test_unknown_estimator_rejected(self, heart_table):
        with pytest.raises(ValueError) as err:
            evaluation.fit_model(heart_table, "nb", None, "map", 10.0, 0.05, "bic", 1.0)
        assert str(err.value) == "estimator must be one of ('mle', 'bayes')"

    def test_unknown_learner_rejected(self, heart_table):
        with pytest.raises(ValueError):
            run_experiment(heart_table, "bn-learned", 0.8, [0], learner="zzz")

    def test_unknown_model_kind(self, heart_table):
        with pytest.raises(ValueError):
            run_experiment(heart_table, "zzz", 0.8, [0])

    def test_empty_seed_list_rejected(self, heart_table):
        with pytest.raises(ValueError):
            run_experiment(heart_table, "nb", 0.8, [])

    def test_repeated_seed_rejected(self, heart_table):
        with pytest.raises(ValueError, match="distinct"):
            run_experiment(heart_table, "nb", 0.8, [3, 3, 4])

    @pytest.mark.parametrize("seeds", [[1.5], [True], ["3"], [1, 1.2], [np.True_]], ids=repr)
    def test_non_integer_seed_rejected_before_any_split(self, heart_table, monkeypatch, seeds):
        # each was once converted by int(): 1.5, True and "3" ran seeds 1, 1 and 3,
        # and [1, 1.2] failed as the repeated list [1, 1]
        def no_split(*args):
            raise AssertionError("split called")

        monkeypatch.setattr(evaluation, "split", no_split)
        got = re.escape(f"got {seeds}")
        with pytest.raises(ValueError, match=rf"seeds must be .* integers, {got}$"):
            run_experiment(heart_table, "nb", 0.8, seeds)

    def test_numpy_integer_seeds_accepted(self, heart_table):
        report = run_experiment(heart_table, "nb", 0.8, np.array([2, 0]))
        assert [entry["seed"] for entry in report["per_seed"]] == [0, 2]
        assert all(type(entry["seed"]) is int for entry in report["per_seed"])

    def test_negative_seed_rejected_before_any_split(self, heart_table, monkeypatch):
        # -1 used to pass the seed check and fail inside numpy's default_rng
        def no_split(*args):
            raise AssertionError("split called")

        monkeypatch.setattr(evaluation, "split", no_split)
        with pytest.raises(ValueError, match=r"seeds must be .* non-negative .*, got \[-1\]"):
            run_experiment(heart_table, "nb", 0.8, [-1])

    def test_json_serializable(self, heart_table):
        report = run_experiment(heart_table, "bn-paper", 0.8, [0])
        json.dumps(report)
