import time

import numpy as np
import pytest

from twodesign import OptimizerOptions, subset_bound_spectrum, sic_povm


@pytest.fixture(scope="session")
def hesse_spectra():
    """Full subset enumeration of the d=3 SIC for every subset size.

    Shared by the table-reproduction and figure-value acceptance checks.
    The optimizers run once per symmetry orbit (11 orbits for sizes 3-9),
    so this takes about 0.3-0.4 s on 2 cores.  Returns the spectra
    keyed by subset size plus the wall time the enumeration took, so the
    acceptance runtime checks can account for it.
    """
    sic = sic_povm(3)
    opts = OptimizerOptions(seed=0)
    start = time.perf_counter()
    spectra = {mt: subset_bound_spectrum(sic, mt, opts) for mt in range(3, 10)}
    elapsed = time.perf_counter() - start
    return {"spectra": spectra, "seconds": elapsed}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
