import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mergepipe.errors import EmptyInput, LengthMismatch, NoPositives, SingleClass
from mergepipe.metrics import (
    ConfusionMatrix,
    EvalReport,
    confusion_at,
    evaluate,
    pr_curve,
    roc_curve,
    scalar_metrics,
)


class TestConfusion:
    def test_direct_count(self):
        cm = confusion_at([1, 0, 1, 0], [0.9, 0.2, 0.4, 0.8], 0.5)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_threshold_zero_everything_positive(self):
        cm = confusion_at([1, 0, 1], [0.2, 0.3, 0.9], 0.0)
        assert cm.fn == 0 and cm.tn == 0
        assert cm.tp == 2 and cm.fp == 1

    def test_threshold_above_max_everything_negative(self):
        cm = confusion_at([1, 0, 1], [0.2, 0.3, 0.9], 0.95)
        assert cm.tp == 0 and cm.fp == 0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(500) < 0.3).astype(int)
        scores = rng.random(500)
        for thr in (0.1, 0.5, 0.9):
            assert confusion_at(labels, scores, thr).total == 500

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_at([1, 0], [0.5], 0.5)


class TestScalars:
    def test_forced_arithmetic(self):
        m = scalar_metrics(ConfusionMatrix(tp=3, fp=1, tn=5, fn=1))
        assert m["precision"] == pytest.approx(0.75)
        assert m["recall"] == pytest.approx(0.75)
        assert m["f1"] == pytest.approx(0.75)
        assert m["accuracy"] == pytest.approx(0.8)

    def test_zero_denominator_returns_none(self):
        m = scalar_metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=2))
        assert m["precision"] is None
        assert m["f1"] is None

    def test_perfect_prediction(self):
        m = scalar_metrics(ConfusionMatrix(tp=4, fp=0, tn=6, fn=0))
        assert all(m[k] == 1.0 for k in ("accuracy", "precision", "recall", "f1"))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            scalar_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, tn, fn = rng.integers(1, 50, size=4)
            m = scalar_metrics(ConfusionMatrix(int(tp), int(fp), int(tn), int(fn)))
            expected = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
            assert abs(m["f1"] - expected) < 1e-12


def mann_whitney_auc(labels, scores):
    """Rank-statistic oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    labels = np.asarray(labels)
    pos = np.asarray(scores)[labels == 1]
    neg = np.asarray(scores)[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        _, auroc = roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auroc == pytest.approx(1.0)

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(300) < 0.4).astype(int)
        scores = rng.random(300)  # distinct with probability 1
        _, auroc = roc_curve(labels, scores)
        assert abs(auroc - mann_whitney_auc(labels, scores)) < 1e-9

    def test_matches_rank_statistic_with_ties(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(400) < 0.3).astype(int)
        scores = rng.integers(0, 10, size=400) / 10.0
        _, auroc = roc_curve(labels, scores)
        assert abs(auroc - mann_whitney_auc(labels, scores)) < 1e-9

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(10_000) < 0.5).astype(int)
        scores = rng.random(10_000)
        _, auroc = roc_curve(labels, scores)
        assert 0.48 <= auroc <= 0.52

    def test_reversed_scores_symmetry(self):
        rng = np.random.default_rng(5)
        labels = (rng.random(200) < 0.3).astype(int)
        scores = rng.random(200)
        _, auroc = roc_curve(labels, scores)
        _, rev = roc_curve(labels, 1.0 - scores)
        assert abs(rev - (1.0 - auroc)) < 1e-12

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(6)
        labels = (rng.random(150) < 0.4).astype(int)
        scores = rng.random(150)
        points, _ = roc_curve(labels, scores)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        labels = (rng.random(100) < 0.4).astype(int)
        scores = rng.random(100)
        _, a = roc_curve(labels, scores)
        _, b = roc_curve(labels, np.exp(3.0 * scores))
        assert abs(a - b) < 1e-12

    def test_single_class(self):
        with pytest.raises(SingleClass):
            roc_curve([1, 1, 1], [0.1, 0.2, 0.3])


class TestPr:
    def test_perfect_separation(self):
        _, aupr = pr_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert aupr == pytest.approx(1.0)

    def test_random_scores_near_prevalence(self):
        rng = np.random.default_rng(8)
        labels = (rng.random(10_000) < 0.2).astype(int)
        scores = rng.random(10_000)
        _, aupr = pr_curve(labels, scores)
        prevalence = labels.mean()
        assert abs(aupr - prevalence) < 0.03

    def test_all_scores_equal_single_point(self):
        labels = [1, 0, 0, 0, 1]
        points, aupr = pr_curve(labels, [0.5] * 5)
        assert points == [(1.0, 0.4)]
        assert aupr == pytest.approx(0.4)

    def test_step_hand_case(self):
        labels = [1, 0, 1]
        scores = [0.9, 0.8, 0.7]
        # sweep: (R, P) = (0.5, 1.0), (0.5, 0.5), (1.0, 2/3)
        _, step = pr_curve(labels, scores)
        assert step == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            pr_curve([0, 0, 0], [0.1, 0.2, 0.3])


class TestEvaluate:
    def test_report_consistency(self):
        rng = np.random.default_rng(10)
        labels = (rng.random(400) < 0.25).astype(int)
        scores = np.clip(rng.random(400) + 0.4 * labels, 0, 1)
        report = evaluate(labels, scores, threshold=0.5)
        m = scalar_metrics(report.confusion)
        assert report.accuracy == m["accuracy"]
        assert report.recall == m["recall"]
        assert report.confusion.total == 400

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        labels = (rng.random(60) < 0.4).astype(int)
        scores = rng.random(60)
        report = evaluate(labels, scores)
        again = EvalReport.from_json(report.to_json())
        assert again.auroc == report.auroc
        assert again.confusion == report.confusion
        assert again.roc_points == report.roc_points

    def test_one_class_curves_are_undefined(self):
        scores = [0.2, 0.7, 0.4]
        negatives = evaluate([0, 0, 0], scores)
        assert negatives.auroc is None and negatives.roc_points == []
        assert negatives.aupr is None and negatives.pr_points == []
        assert negatives.recall is None and negatives.accuracy == 2 / 3
        again = EvalReport.from_json(negatives.to_json())
        assert again == negatives
        # with positives only, the PR curve is still defined
        positives = evaluate([1, 1, 1], scores)
        assert positives.auroc is None and positives.roc_points == []
        assert positives.aupr == pr_curve([1, 1, 1], scores)[1]


# scores on a coarse grid, so ties within and across the classes are common
GRID_SCORES = st.lists(st.integers(0, 6).map(lambda i: i / 6), min_size=2, max_size=40)
# strictly increasing on [0, 1] and injective there in float64
MONOTONE = {
    "affine": lambda s: 3.0 * s - 1.0,
    "exp": lambda s: np.exp(4.0 * s),
    "cube": lambda s: s ** 3 + 0.5,
    "logit": lambda s: np.log((s + 0.01) / (1.01 - s)),
}


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), scores=GRID_SCORES)
    def test_auroc_is_the_mann_whitney_statistic(self, data, scores):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores)), label="labels")
        assume(0 < sum(labels) < len(labels))
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        # each positive-negative pair counts 1 when ranked right, 1/2 when tied
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        _, auroc = roc_curve(labels, scores)
        assert auroc == pytest.approx(wins / (len(pos) * len(neg)), rel=1e-12, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), scores=GRID_SCORES, transform=st.sampled_from(sorted(MONOTONE)))
    def test_curve_areas_ignore_monotone_transforms(self, data, scores, transform):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores)), label="labels")
        assume(0 < sum(labels) < len(labels))
        scores = np.array(scores)
        moved = MONOTONE[transform](scores)
        grid = np.arange(7) / 6
        assert (np.diff(MONOTONE[transform](grid)) > 0).all()
        assert roc_curve(labels, moved)[1] == roc_curve(labels, scores)[1]
        assert pr_curve(labels, moved)[1] == pr_curve(labels, scores)[1]
