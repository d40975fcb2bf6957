import numpy as np
import pytest

from twodesign import OptimizerOptions, subset_bound_spectrum, sic_povm


@pytest.fixture(scope="session")
def hesse_spectra():
    """Full subset enumeration of the d=3 SIC for every subset size.

    The optimizers run once per symmetry orbit (11 orbits for sizes 3-9)
    and the group is searched at most once, so this takes about 0.1-0.2 s
    on 2 cores.  Returns the spectra keyed by subset size.
    """
    sic = sic_povm(3)
    opts = OptimizerOptions(seed=0)
    return {mt: subset_bound_spectrum(sic, mt, opts) for mt in range(3, 10)}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
