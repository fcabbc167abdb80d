import pytest
from dataclasses import replace

from wws import predictor as P
from wws.mpc import ControllerConfig, condense
from wws.plant import PlantModel


@pytest.fixture(scope="session")
def nominal_model():
    return PlantModel.nominal()


@pytest.fixture(scope="session")
def demo_model():
    return PlantModel.demo()


@pytest.fixture(scope="session")
def demo_predictor(demo_model):
    data = P.generate_dataset(
        demo_model, P.DatasetConfig(K=3000, seed=0, state_range=(5.0, 60.0)))
    return P.fit_edmd_from_dataset(P.DEFAULT_OBSERVABLES, data)


@pytest.fixture(scope="session")
def demo_cfg():
    # reference above the supply floor keeps the hard constraint slack, so
    # model error cannot push the realized trace below it (see README)
    return replace(ControllerConfig(), reference=42.0, r_weight=0.02)


@pytest.fixture(scope="session")
def demo_cond(demo_predictor, demo_cfg):
    return condense(demo_predictor, demo_cfg)


@pytest.fixture(scope="session")
def nominal_dataset_10k(nominal_model):
    return P.generate_dataset(nominal_model, P.DatasetConfig(K=10_000, seed=0))


@pytest.fixture(scope="session")
def nominal_predictor(nominal_dataset_10k):
    return P.fit_edmd_from_dataset(P.DEFAULT_OBSERVABLES, nominal_dataset_10k)


@pytest.fixture(scope="session")
def demo_equilibrium(demo_model):
    return P.find_equilibrium(demo_model, 10.0, 40.0)

