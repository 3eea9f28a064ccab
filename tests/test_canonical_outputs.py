"""The printed curvature of every catalogue scene is reproduced byte for byte.

`tests/data/canonical_outputs.json` holds `gric_gr(scene.pair()).to_dict()`
for each `CATALOG` scene except `cp2_three_lines` (covered on its own in
`test_curvature.py`). Under the key `t4_nonintegrable.clifford` it also
holds the Lambda^3 obstruction of that scene's `j1` (`n3` and `n03` from
`eta_N_extract`) and `n3.spin_act(j1.spinor())`, each as an ordered list of
(index, string) pairs, so the key order of the Clifford layer is pinned
too. `n3.spin_act(pair.psi())` is not used: it is 0 by the obstruction
lemma. The canonical strings are the engine's bit-identity contract, so a
speed-up must leave this file unchanged. Regenerate it, only when a change
of canonical form is intended, with

    PYTHONPATH=src python tests/test_canonical_outputs.py
"""

import json
import pathlib

from gkcurv.curvature import gric_gr
from gkcurv.examples import CATALOG
from gkcurv.spinor import eta_N_extract

FIXTURE = pathlib.Path(__file__).parent / "data" / "canonical_outputs.json"


def _ordered(terms, names) -> list:
    return [[list(idx), c.to_string(names)] for idx, c in terms.items()]


def clifford_outputs() -> dict:
    j1 = CATALOG["t4_nonintegrable"]().j1
    names = j1.chart.coords
    res = eta_N_extract(j1)
    return {"n3": _ordered(res.n3.coef, names),
            "n03": _ordered(res.n03.coef, names),
            "n3_spin_act_phi": _ordered(res.n3.spin_act(j1.spinor()).terms, names)}


def canonical_outputs() -> str:
    out = {name: gric_gr(make().pair()).to_dict()
           for name, make in CATALOG.items() if name != "cp2_three_lines"}
    out["t4_nonintegrable.clifford"] = clifford_outputs()
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_catalogue_curvature_matches_fixture():
    assert canonical_outputs() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(canonical_outputs())
