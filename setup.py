"""Setuptools entry point.

The execution environment is offline and has no ``wheel`` package, so the
PEP 517/660 editable-install path (which builds a wheel) is unavailable.
Keeping a ``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` code path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Characterizing and Taming Resolution in "
        "Convolutional Neural Networks' (IISWC 2021)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    # scipy is a test-only oracle: the SSIM box filter is checked against
    # scipy.ndimage.uniform_filter bit for bit.
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
)
