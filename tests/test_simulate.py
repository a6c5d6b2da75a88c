"""Tests for the synthetic experiment generator."""

import pytest

from ctrec.errors import ValidationError
from ctrec.simulate import simulate_dataset
from helpers import toy_ct


@pytest.mark.parametrize("noise_sd", [-1.0, -1e-12, float("nan")])
def test_simulate_dataset_rejects_negative_noise(noise_sd):
    # a negative scale flipped the noise sign and dropped the residual set
    with pytest.raises(ValidationError, match="noise_sd"):
        simulate_dataset(toy_ct(), n_origins=2, noise_sd=noise_sd)

