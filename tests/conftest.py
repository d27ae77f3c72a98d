import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lebesgue_interp import (
    SampledSeries,
    TimeSeries,
    interp_linear,
    interp_nearest,
    interp_pchip,
    interp_zoh,
    reconstruct_zechip,
    reconstruct_zechipc,
    reconstruct_zeli,
    reconstruct_zelic,
)

UCR_ENV = "LEBESGUE_INTERP_UCR_DIR"

# the public per-signal reconstructor of each method, as (sampled, params) -> Reconstruction
PER_SIGNAL = {
    "zoh": lambda s, p: interp_zoh(s),
    "linear": lambda s, p: interp_linear(s),
    "nearest": lambda s, p: interp_nearest(s),
    "pchip": lambda s, p: interp_pchip(s),
    "zeli": reconstruct_zeli,
    "zelic": reconstruct_zelic,
    "zechip": reconstruct_zechip,
    "zechipc": reconstruct_zechipc,
}


def make_sampled(indices, values, source_length, threshold=0.05):
    return SampledSeries(
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        source_length,
        threshold,
    )


@pytest.fixture
def ts():
    return lambda values: TimeSeries(np.asarray(values, dtype=np.float64))


def find_ucr_dataset(name: str):
    """Locate <name>_TRAIN.tsv under $LEBESGUE_INTERP_UCR_DIR or ./data/UCR."""
    roots = []
    if os.environ.get(UCR_ENV):
        roots.append(Path(os.environ[UCR_ENV]))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "UCR")
    for root in roots:
        for candidate in (root / name, root):
            train = candidate / f"{name}_TRAIN.tsv"
            if train.exists():
                test = candidate / f"{name}_TEST.tsv"
                return train, (test if test.exists() else None)
    return None
