"""Golden bytes of the CLI outputs.

The SHA-256 hashes were recorded from the code before leg solves were
memoised, so an optimisation that changes a single written float fails
here. A change that alters outputs on purpose updates the hashes and
says so in CHANGES.md.
"""

import hashlib

import pytest

from wallclimber import cli
from wallclimber.config import CONFIG_ENV_VAR

SLIP_CONFIG = "[scenario]\nclimb_angle_deg = 45\ncycles = 3\n"

CASES = {
    "simulate": (["simulate", "-o", "{out}/sim"], {
        "sim.summary.json": "c2f75bbebb22d6ef7f8343bfef905caa01568a61a20499904602e800d1eb703a",
        "sim.series.csv": "74cdc22cc68265d788046e02852d8dc672ee4dbf899a4847600cdbec09317848",
    }),
    # 45 deg: slip is active on every advance
    "simulate_slip": (["--config", "{out}/slip.ini", "simulate", "-o", "{out}/slip"], {
        "slip.summary.json": "b2ea89397e6cd4e7bd5c59a7661615ccf75179b635f3b37f5d671acfd11c027c",
        "slip.series.csv": "97782451ad775a19b2c03832af125f8e1add654f1d53c0c5a68c451a52646130",
    }),
    "sweep": (["sweep", "-o", "{out}/sweep.csv"], {
        "sweep.csv": "a5624c63fbc60ef7119bce7e3ea2499eebb168cd243c1faccfbc63a386ef7522",
    }),
    "gait": (["gait", "-o", "{out}/table.csv"], {
        "table.csv": "76de0760f1df23de896124449cf4291612d392df6a3b419ac4bce285631ed2ce",
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_hashes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    (tmp_path / "slip.ini").write_text(SLIP_CONFIG, encoding="utf-8")
    argv, hashes = CASES[case]
    assert cli.main([arg.format(out=tmp_path) for arg in argv]) == cli.EXIT_OK
    capsys.readouterr()
    for name, digest in hashes.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
