"""Synthetic cohort generator: determinism, structure, and calibration."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from losanova import ValidationError, generate, write_csv
from losanova.synth import (
    REFERENCE_CELL_COUNTS,
    REFERENCE_TOTAL,
    CohortSpec,
    TermCoefficient,
    cell_mean,
    default_layout,
    reference_cohort_spec,
)

from conftest import level_matrix


def test_reference_spec_probabilities():
    spec = reference_cohort_spec(n=1000, seed=0)
    layout = spec.layout
    assert sum(spec.cell_probabilities) == pytest.approx(1.0, abs=1e-12)
    idx = list(layout.cells()).index(layout.resolve_cell(("female", "winter", "1")))
    assert spec.cell_probabilities[idx] == pytest.approx(609 / 82718)
    assert sum(REFERENCE_CELL_COUNTS.values()) == REFERENCE_TOTAL == 82718
    assert spec.error_sd == pytest.approx(math.sqrt(0.216))


def test_cell_mean_reference_values():
    spec = reference_cohort_spec(n=1000, seed=0)
    layout = spec.layout
    reference_cell = layout.resolve_cell(("female", "winter", "5"))
    assert cell_mean(spec, reference_cell) == pytest.approx(0.573)
    male_age3 = layout.resolve_cell(("male", "winter", "3"))
    assert cell_mean(spec, male_age3) == pytest.approx(0.573 + 0.091 + 0.133)
    summer_age2 = layout.resolve_cell(("female", "summer", "2"))
    assert cell_mean(spec, summer_age2) == pytest.approx(0.573 + 0.161 - 0.032 - 0.056)


# sha256 of the seed-0, N = 8,000 reference cohort as written by write_csv,
# pinned before the generator was vectorised; a seed must keep its meaning
REFERENCE_8000_SEED_0_SHA256 = "f2bd737e14d03541282c083b6137e3701961df11cde69736eaaa7a842dbeb9ca"


def test_seeded_stream_digest_pinned(tmp_path):
    path = tmp_path / "cohort.csv"
    write_csv(generate(reference_cohort_spec(n=8000, seed=0)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_8000_SEED_0_SHA256


def test_same_seed_bit_identical():
    a = generate(reference_cohort_spec(n=600, seed=42))
    b = generate(reference_cohort_spec(n=600, seed=42))
    assert np.array_equal(a.codes, b.codes) and np.array_equal(a.responses, b.responses)
    c = generate(reference_cohort_spec(n=600, seed=43))
    assert not (np.array_equal(a.codes, c.codes) and np.array_equal(a.responses, c.responses))


def test_zero_error_sd_hits_cell_means_exactly():
    spec = reference_cohort_spec(n=200, seed=5, error_sd=0.0)
    d = generate(spec)
    for levels, y in zip(level_matrix(d).tolist(), d.responses.tolist()):
        eta = cell_mean(spec, tuple(levels))
        assert math.log10(y) == pytest.approx(eta, abs=1e-12)


def test_cell_means_within_sampling_bounds():
    spec = reference_cohort_spec(n=8000, seed=11)
    d = generate(spec)
    logs = np.log10(d.responses)
    codes = d.codes
    cells = list(d.layout.cells())
    for flat, cell in enumerate(cells):
        members = logs[codes == flat]
        if members.size < 5:
            continue
        eta = cell_mean(spec, cell)
        bound = 3.0 * spec.error_sd / math.sqrt(members.size)
        assert abs(float(members.mean()) - eta) <= bound + 1e-12


def test_cell_frequencies_match_probabilities():
    spec = reference_cohort_spec(n=8000, seed=19)
    d = generate(spec)
    observed = d.cells.counts
    expected = np.array(spec.cell_probabilities) * spec.n
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


def test_raw_scale_lognormal_structure():
    # log-scale constant variance implies sd proportional to mean on the raw
    # scale; the fitted slope is noisy cell-to-cell but the pooled ratio
    # sd/mean should be nearly common across cells
    d = generate(reference_cohort_spec(n=8000, seed=0))
    n, mean, m2 = d.cells.counts, d.cells.means, d.cells.m2
    usable = n >= 50
    ratios = np.sqrt(m2[usable] / (n[usable] - 1)) / mean[usable]
    assert ratios.std() / ratios.mean() < 0.5


def test_spec_validation():
    layout = default_layout()
    probs = tuple(1.0 / layout.n_cells for _ in range(layout.n_cells))
    coefs = (TermCoefficient((), 0.5),)
    with pytest.raises(ValidationError, match="sum"):
        CohortSpec(layout, tuple(p * 0.9 for p in probs), 100, coefs, 0.1, 0)
    with pytest.raises(ValidationError, match="at least"):
        CohortSpec(layout, probs, 10, coefs, 0.1, 0)
    with pytest.raises(ValidationError, match="error_sd"):
        CohortSpec(layout, probs, 100, coefs, -0.1, 0)
    with pytest.raises(ValidationError, match="probabilities"):
        CohortSpec(layout, (-0.5,) + probs[1:], 100, coefs, 0.1, 0)


def test_generated_dataset_is_raw_scale():
    d = generate(reference_cohort_spec(n=100, seed=1))
    assert d.response_name == "los"
    assert (d.responses > 0).all()
