"""Every artifact of every campaign id, and every file that ``cvpuk enroll`` and
``cvpuk verify`` write, pinned by its SHA-256 at one small config.

A pure refactor must leave each of these files byte-identical.  A declared
change of the random-number stream layout, of a file format or of the float
bits of a computed quantity changes the table below, and says which files
moved and why in ``CHANGES.md``.  Numpy
does not promise that a ``Generator`` stream stays the same from one version
to the next (NEP 19), so the table holds only under the numpy version it was
made with, and the test is skipped under any other.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from cvpuk.cli import main
from cvpuk.experiments import EXPERIMENT_IDS, CampaignConfig, run_campaign

NUMPY_VERSION = "2.4.6"

# 40 trials is a partial chunk; 0.6 and 1.0 replace more than half of the modes
CONFIG = {"seed": 7, "trials": 40, "mode_counts": [16, 121], "d_values": [0.0, 0.03, 0.6, 1.0]}

SHA256 = {
    "response_cloud": {
        "cloud.csv": "e2ccdd57deec44a7f8b81f570d4267d2c1efcc27925b0085c8809920aa3998b3",
        "config.json": "51fb12e4a56c118cc1ed20c5a3214c47e07b0d33f9afaa75c09b894868fb6f27",
        "summary.json": "8de8baec67c5aaf5fc4c01d5669cbba3382687a923ec20087ac3a014b24cb67a",
    },
    "enhancement_condition": {
        "config.json": "697803290f06cb9076d713ffd06578d6964fd00f66618ad5892364ba9fc63574",
        "summary.json": "f738b15cbb04c0e522aeaa74c9b0d0e1a226899d00f6d3277e10cf5c0e215ee5",
        "thresholds.csv": "886b25f4dc2a61e2ced3bc6671919e7d45c683737a4f57438fa18df2232200f5",
    },
    "collision_histogram": {
        "config.json": "0c0eed9e6972927a387f046a2389f88af0f1f138bf9db69dd1b80af82024dbbf",
        "histogram.csv": "90f7426e5e6ad47b689af37936daeb9aa80a773e66ba49e4e7b01585cc768a26",
        "summary.json": "7ddb90fd5a5896f2b1006d42c4f0dfc6c6d6e0bb8990a2b92d5df083887a2d79",
    },
    "clone_cloud": {
        "clone_cloud_n121.csv": "a01409ab6add1575c4c2f78ad7d9c64a83a2437a9b3f3dfb888a15279dead09f",
        "clone_cloud_n16.csv": "9a89ac22232261daf84512837c45f20cd8ca6275871b24e1278ebcfa5ef8b43f",
        "config.json": "3d81e797877e8d5f0fc425257e2ad70f12ef8fe0252f471730fc399c7e3b5fa7",
        "summary.json": "8a09cbaf9e1340fee51236fc1d4833731b5a05c6a3a05756be416c0bcd189c8d",
    },
    "clone_histograms": {
        "clone_histograms_n121.csv": "d60bee7c3884775156fd780e038c70896f9d2ecc46282ee203fa29c10a3151a8",
        "clone_histograms_n16.csv": "faadbaa833d86eff296c716d589653246ce817224b4de08df9eb8a518943ef43",
        "config.json": "439290a6df9b7b8f4342c1ac285f809cd7524f3462281c3ec033567ede4ce70e",
        "summary.json": "e701ffff66fd1b8158641e9340a8b110bc78ffc4c5c4b0d0f7df9d50737bb72e",
    },
    "cheating_curve": {
        "cheating.csv": "9baf5e519c260a6e809738d557552ad4fcc88baf3c6276d7befb619b9c310007",
        "config.json": "ebdb4400a4d4ec60e2c9dda04e09f7da2cb47be11f67afc308687b2a50097eb0",
        "summary.json": "3fde75569f072ff09893a4f02067a7e5e126858f7bc4383c68bcd923cc11bc03",
    },
}


def test_the_table_names_every_campaign_id():
    assert sorted(SHA256) == sorted(EXPERIMENT_IDS)


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"artifact digests were made with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_artifacts_match_their_digests(tmp_path, experiment_id):
    config = CampaignConfig.from_dict({**CONFIG, "experiment_id": experiment_id})
    paths = run_campaign(config, tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in paths.values()}
    assert digests == SHA256[experiment_id]


ENROLL_CONFIG = {"n_modes": 16, "l_over_L": 0.2, "mu_p": 2500.0, "tau": 0.8, "eta": 0.55,
                 "delta_over_sigma": 2.0, "n_probe_states": 11, "seed": 7}
ENROLLMENTS = {"exact": {}, "sampled": {"enrollment": "sampled", "per_quadrature_samples": 1000}}

# both enrollments draw the key from the same stream, so key.json is the same file
CLI_SHA256 = {
    "enroll_exact": {
        "database.json": "0e9a8d465a80038b43770d3b6b360521eade6ec135cd719f7cf7b243d9be8cc9",
        "key.json": "e65eb4ab7a5ce2125ce5588efaf839105e570964f261391dfef3c3c29e7f3405",
    },
    "enroll_sampled": {
        "database.json": "9421f3e1ed4d7546dccb00ae93257c4c2b07615a4210aaf6e0d757f13d44bccf",
        "key.json": "e65eb4ab7a5ce2125ce5588efaf839105e570964f261391dfef3c3c29e7f3405",
    },
    "verify": {
        "report.json": "08763a9b392821de2104a16ea57d09ac718e0096a6defe6b6c510ac9dddab257",
    },
    "verify_trace": {
        "report.json": "0909d356daa15cc85417a2a3030eadb56e54c46ff1feead7d5056b08ecc7e1f5",
        "trace.csv": "29fbaf8780060356401b1fb79e5edc4ef9a397d059213e62bc4307320bc68b00",
    },
}


def _run(argv, expected_code=0):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == expected_code


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"artifact digests were made with numpy {NUMPY_VERSION}")
def test_enroll_and_verify_files_match_their_digests(tmp_path):
    digests = {}
    for mode, fields in ENROLLMENTS.items():
        config_path = tmp_path / f"{mode}.json"
        config_path.write_text(json.dumps({**ENROLL_CONFIG, **fields}))
        _run(["enroll", "--config", str(config_path), "--out", str(tmp_path / mode)])
        digests[f"enroll_{mode}"] = _digests(tmp_path / mode)
    # 5,000 sessions against the sampled database, untraced and traced
    for name, flags in (("verify", []), ("verify_trace", ["--trace"])):
        _run(["verify", "--database", str(tmp_path / "sampled" / "database.json"),
              "--key", str(tmp_path / "sampled" / "key.json"), "--sessions", "5000",
              "--seed", "3", "--out", str(tmp_path / name), *flags])
        digests[name] = _digests(tmp_path / name)
    assert digests == CLI_SHA256
