import pytest

from capsched import ExperimentConfig, build_workload_set, train_bundle
from capsched.core import INDEX_NAMES, SystemIndexVector


def index_vector(values) -> SystemIndexVector:
    """The index vector whose as_array() is values, one per INDEX_NAMES entry."""
    return SystemIndexVector(**dict(zip(INDEX_NAMES, map(float, values), strict=True)))


@pytest.fixture(scope="session")
def small_config():
    # Scaled-down experiment for unit tests: enough workloads to train a
    # bundle, small enough that each runner finishes in a second or two.
    return ExperimentConfig(
        rng_seed=7,
        archetype_count=5,
        workload_count=15,
        train_count=12,
        val_count=3,
        k=5,
        trials=2,
        tenants_per_trial=14,
        cluster_nodes=3,
        mlp_epochs=400,
    )


@pytest.fixture(scope="session")
def small_wset(small_config):
    return build_workload_set(small_config)


@pytest.fixture(scope="session")
def small_bundle(small_config, small_wset):
    return train_bundle(small_config, small_wset)


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_wset(default_config):
    return build_workload_set(default_config)


@pytest.fixture(scope="session")
def default_bundle(default_config, default_wset):
    return train_bundle(default_config, default_wset)
