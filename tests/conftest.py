import numpy as np
from hypothesis import settings

settings.register_profile("numerics", deadline=None)
settings.load_profile("numerics")


def pytest_configure(config):
    # A complex array read as float64 drops its imaginary part with only a
    # ComplexWarning; make that an error in every test.  The warning moved
    # to numpy.exceptions in numpy 1.25, and the package supports 1.24.
    where = "numpy.exceptions" if hasattr(np, "exceptions") else "numpy"
    config.addinivalue_line("filterwarnings", f"error::{where}.ComplexWarning")
