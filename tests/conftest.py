import json

import numpy as np
import pytest

from tropfit.regression import PwlModel


def _number(value):
    # float() reads the "inf"/"-inf" tokens as well as JSON numbers
    return None if value is None else float(value)


def decode_model(text: str) -> PwlModel:
    """The PwlModel of a model.json text, whose declared dim and support it must have."""
    doc = json.loads(text)
    model = PwlModel(
        slopes=np.array(doc["slopes"], dtype=np.float64),
        intercepts=np.array([float(v) for v in doc["intercepts"]]),
        p=float(doc["p"]),
        theta=float(doc["theta"]),
        estimator=doc["estimator"],
        rms=_number(doc["errors"]["rms"]),
        max_abs=_number(doc["errors"]["max_abs"]),
    )
    assert (doc["dim"], doc["support"]) == (model.dim, model.support_size)
    return model


@pytest.fixture(scope="session")
def read_model():
    """decode_model: tropfit writes models and reads none back, so the tests decode them."""
    return decode_model
