"""Legacy setup shim (the environment's pip/setuptools lack wheel support)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    description=(
        "Reproduction of 'Toward a Progress Indicator for Database Queries' "
        "(SIGMOD 2004)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
