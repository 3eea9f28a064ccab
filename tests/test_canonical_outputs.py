"""The printed curvature of every catalogue scene is reproduced byte for byte.

`tests/data/canonical_outputs.json` holds `gric_gr(scene.pair()).to_dict()`
for each `CATALOG` scene except `cp2_three_lines` (covered on its own in
`test_curvature.py`). The canonical strings are the engine's bit-identity
contract, so a speed-up must leave this file unchanged. Regenerate it, only
when a change of canonical form is intended, with

    PYTHONPATH=src python tests/test_canonical_outputs.py
"""

import json
import pathlib

from gkcurv.curvature import gric_gr
from gkcurv.examples import CATALOG

FIXTURE = pathlib.Path(__file__).parent / "data" / "canonical_outputs.json"


def canonical_outputs() -> str:
    out = {name: gric_gr(make().pair()).to_dict()
           for name, make in CATALOG.items() if name != "cp2_three_lines"}
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_catalogue_curvature_matches_fixture():
    assert canonical_outputs() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(canonical_outputs())
