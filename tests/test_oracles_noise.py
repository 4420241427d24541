"""Tests for the noise models."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.oracles.noise import (
    AdversarialNoise,
    ExactNoise,
    ProbabilisticNoise,
)


class TestExactNoise:
    def test_always_correct(self):
        noise = ExactNoise()
        assert noise.answer(1.0, 2.0, "k") is True
        assert noise.answer(2.0, 1.0, "k") is False
        assert noise.answer(1.0, 1.0, "k") is True

    def test_repr(self):
        assert "ExactNoise" in repr(ExactNoise())


class TestAdversarialNoise:
    def test_correct_outside_band(self):
        noise = AdversarialNoise(mu=0.5)
        # Ratio 3 > 1.5: must be correct.
        assert noise.answer(1.0, 3.0, "a") is True
        assert noise.answer(3.0, 1.0, "b") is False

    def test_lie_inside_band(self):
        noise = AdversarialNoise(mu=1.0, adversary="lie")
        # Ratio 1.5 <= 2: the lying adversary answers incorrectly.
        assert noise.answer(1.0, 1.5, "a") is False
        assert noise.answer(1.5, 1.0, "b") is True

    def test_mu_zero_is_exact_for_distinct_values(self):
        noise = AdversarialNoise(mu=0.0)
        assert noise.answer(1.0, 2.0, "a") is True
        assert noise.answer(2.0, 1.0, "b") is False

    def test_band_membership(self):
        noise = AdversarialNoise(mu=0.5)
        assert noise.in_confusion_band(10.0, 14.9)
        assert not noise.in_confusion_band(10.0, 15.1)
        assert noise.in_confusion_band(0.0, 0.0)

    def test_zero_band_handling(self):
        noise = AdversarialNoise(mu=1.0, zero_band=0.5)
        assert noise.in_confusion_band(0.0, 0.4)
        assert not noise.in_confusion_band(0.0, 0.6)

    def test_negative_values_rejected(self):
        noise = AdversarialNoise(mu=0.5)
        with pytest.raises(InvalidParameterError):
            noise.in_confusion_band(-1.0, 2.0)

    def test_random_adversary_is_persistent(self):
        noise = AdversarialNoise(mu=1.0, adversary="random", seed=0)
        answers = {noise.answer(1.0, 1.5, "same-key") for _ in range(20)}
        assert len(answers) == 1

    def test_random_adversary_reset_may_change_answer(self):
        noise = AdversarialNoise(mu=1.0, adversary="random", seed=0)
        outcomes = set()
        for _ in range(30):
            outcomes.add(noise.answer(1.0, 1.5, "k"))
            noise.reset()
        assert outcomes == {True, False}

    def test_custom_adversary_callable(self):
        noise = AdversarialNoise(mu=1.0, adversary=lambda left, right, key: True)
        assert noise.answer(2.0, 1.5, "x") is True

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            AdversarialNoise(mu=-0.1)
        with pytest.raises(InvalidParameterError):
            AdversarialNoise(mu=float("nan"))
        with pytest.raises(InvalidParameterError):
            AdversarialNoise(mu=0.5, adversary="bogus")
        with pytest.raises(InvalidParameterError):
            AdversarialNoise(mu=0.5, adversary=3)


class TestProbabilisticNoise:
    def test_p_zero_is_exact(self):
        noise = ProbabilisticNoise(p=0.0, seed=0)
        assert noise.answer(1.0, 2.0, "a") is True
        assert noise.answer(2.0, 1.0, "b") is False

    def test_answers_are_persistent(self):
        noise = ProbabilisticNoise(p=0.49, seed=1)
        first = noise.answer(1.0, 2.0, "query")
        assert all(noise.answer(1.0, 2.0, "query") == first for _ in range(50))
        assert noise.n_persisted == 1

    def test_error_rate_close_to_p(self):
        p = 0.3
        noise = ProbabilisticNoise(p=p, seed=2)
        n = 4000
        wrong = sum(
            noise.answer(1.0, 2.0, ("q", i)) is False for i in range(n)
        )
        assert abs(wrong / n - p) < 0.03

    def test_reset_clears_persistence(self):
        noise = ProbabilisticNoise(p=0.4, seed=0)
        noise.answer(1.0, 2.0, "q")
        assert noise.n_persisted == 1
        noise.reset()
        assert noise.n_persisted == 0

    def test_non_persistent_mode_reflips(self):
        noise = ProbabilisticNoise(p=0.5 - 1e-9, seed=0, persistent=False)
        answers = {noise.answer(1.0, 2.0, "k") for _ in range(100)}
        assert answers == {True, False}

    def test_invalid_p_rejected(self):
        for bad in (-0.1, 0.5, 0.9):
            with pytest.raises(InvalidParameterError):
                ProbabilisticNoise(p=bad)


class TestAnswerBatchValidation:
    """`answer_batch` must reject length mismatches on every implementation.

    Historically the base loop's `zip` silently truncated the batch to the
    shortest input when `keys` was shorter than `left`/`right`.
    """

    MODELS = (
        lambda: ExactNoise(),
        lambda: AdversarialNoise(mu=0.5),  # vectorised "lie" path
        lambda: AdversarialNoise(mu=0.5, adversary="random", seed=0),  # base loop
        lambda: ProbabilisticNoise(p=0.2, seed=0),
        lambda: ProbabilisticNoise(p=0.2, seed=0, persistent=False),
    )

    @pytest.mark.parametrize("make_model", MODELS)
    def test_short_keys_rejected(self, make_model):
        model = make_model()
        with pytest.raises(InvalidParameterError):
            model.answer_batch([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [10, 11])

    @pytest.mark.parametrize("make_model", MODELS)
    def test_mismatched_quantities_rejected(self, make_model):
        model = make_model()
        with pytest.raises(InvalidParameterError):
            model.answer_batch([1.0, 2.0], [2.0], [10, 11])
        with pytest.raises(InvalidParameterError):
            model.answer_batch([1.0], [2.0, 3.0], [10])

    @pytest.mark.parametrize("make_model", MODELS)
    def test_empty_batch_answers_empty(self, make_model):
        model = make_model()
        answers = model.answer_batch([], [], [])
        assert answers.dtype == bool
        assert answers.shape == (0,)

    def test_excess_keys_rejected_too(self):
        # Extra keys would have been silently ignored by the zip as well.
        with pytest.raises(InvalidParameterError):
            ProbabilisticNoise(p=0.1, seed=0).answer_batch(
                [1.0], [2.0], [10, 11, 12]
            )
