"""Fuzz the two text boundaries: config files and loop JSON payloads.

Every input must either parse or raise ``MagflowError``/``ValueError``, the
errors the command line turns into one ``error:`` line; anything else would
reach the user as a traceback.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magflow import latitude_loop
from magflow.cli import _SCHEMA, parse_config
from magflow.errors import MagflowError
from magflow.loop_space import lifted_from_dict

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# text without surrogates, so every example can be written as UTF-8
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
).map(repr)
VALUE = st.one_of(
    TEXT,
    NUMBER,
    st.lists(NUMBER, min_size=1, max_size=4).map(",".join),
    st.lists(NUMBER, min_size=1, max_size=4).map(":".join),
    st.sampled_from([default for _, default in _SCHEMA.values() if default]),
    st.builds("{}({})".format, st.sampled_from(["height", "linear", "zonal_poly", "azimuthal"]),
              st.lists(NUMBER, max_size=5).map(", ".join)),
)
LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(_SCHEMA)), VALUE),
    TEXT,
)


@FUZZ
@given(lines=st.lists(LINE, max_size=6))
def test_parse_config_parses_or_rejects(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        parse_config(path)
    except (MagflowError, ValueError):
        pass


JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    TEXT,
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)
NODES = st.one_of(
    JSON_VALUE,
    st.just(latitude_loop(0.0, 32).nodes.tolist()),
    st.integers(min_value=16, max_value=40).flatmap(
        lambda n: st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=n, max_size=n)
    ),
)
PAYLOAD = st.one_of(
    JSON_VALUE,
    st.fixed_dictionaries(
        {"nodes": NODES, "p": JSON_SCALAR, "flux": JSON_SCALAR},
        optional={"extra": JSON_VALUE},
    ),
)


@FUZZ
@given(payload=PAYLOAD)
def test_lifted_from_dict_parses_or_rejects(payload):
    # payloads go through JSON text, as load_lifted reads them
    data = json.loads(json.dumps(payload))
    try:
        ll = lifted_from_dict(data)
    except (MagflowError, ValueError):
        return
    assert math.isfinite(ll.p) and math.isfinite(ll.flux)
    assert np.all(np.isfinite(ll.nodes))


@pytest.mark.parametrize("sign", ["", "-"])
def test_lifted_from_dict_huge_integers(sign):
    # JSON integers beyond the float range are rejected, not raised as OverflowError
    big = sign + "1" + "0" * 400
    nodes = latitude_loop(0.0, 32).nodes.tolist()
    for payload in (
        f'{{"nodes": {json.dumps(nodes)}, "p": {big}, "flux": 0.0}}',
        f'{{"nodes": {json.dumps(nodes)}, "p": 1.0, "flux": {big}}}',
        f'{{"nodes": [[{big}, 0.0, 0.0]], "p": 1.0, "flux": 0.0}}',
    ):
        with pytest.raises(ValueError):
            lifted_from_dict(json.loads(payload))
