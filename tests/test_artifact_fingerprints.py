"""Every artifact of every campaign id, pinned by its SHA-256 at one small config.

A pure refactor must leave each of these files byte-identical.  A declared
change of the random-number stream layout or of a file format changes the
table below, and says which files moved and why in ``CHANGES.md``.  Numpy
does not promise that a ``Generator`` stream stays the same from one version
to the next (NEP 19), so the table holds only under the numpy version it was
made with, and the test is skipped under any other.
"""

import hashlib

import numpy as np
import pytest

from cvpuk.experiments import EXPERIMENT_IDS, CampaignConfig, run_campaign

NUMPY_VERSION = "2.4.6"

# 40 trials is a partial chunk; 0.6 and 1.0 replace more than half of the modes
CONFIG = {"seed": 7, "trials": 40, "mode_counts": [16, 121], "d_values": [0.0, 0.03, 0.6, 1.0]}

SHA256 = {
    "response_cloud": {
        "cloud.csv": "e2ccdd57deec44a7f8b81f570d4267d2c1efcc27925b0085c8809920aa3998b3",
        "config.json": "51fb12e4a56c118cc1ed20c5a3214c47e07b0d33f9afaa75c09b894868fb6f27",
        "summary.json": "17899b894d0b918880474b8560ae2d41eda2e5430d1eb049cc2bf6da61735691",
    },
    "enhancement_condition": {
        "config.json": "697803290f06cb9076d713ffd06578d6964fd00f66618ad5892364ba9fc63574",
        "summary.json": "f738b15cbb04c0e522aeaa74c9b0d0e1a226899d00f6d3277e10cf5c0e215ee5",
        "thresholds.csv": "886b25f4dc2a61e2ced3bc6671919e7d45c683737a4f57438fa18df2232200f5",
    },
    "collision_histogram": {
        "config.json": "0c0eed9e6972927a387f046a2389f88af0f1f138bf9db69dd1b80af82024dbbf",
        "histogram.csv": "6566deb97b62168fd8f8789f3d9bc48941418463e304fd52c887897607f2b455",
        "summary.json": "5bd03facb18e4bf1e9591aadfdf68eb09d308145feaab2a9619e8d7da9e71deb",
    },
    "clone_cloud": {
        "clone_cloud_n121.csv": "bc514a37ccac78cce23c462a46107bc1efb3a903583c43f013fcb52d0f5e5e56",
        "clone_cloud_n16.csv": "9a89ac22232261daf84512837c45f20cd8ca6275871b24e1278ebcfa5ef8b43f",
        "config.json": "3d81e797877e8d5f0fc425257e2ad70f12ef8fe0252f471730fc399c7e3b5fa7",
        "summary.json": "927f5c6fc38951357cf7777f3b1654370e67d292776d54196187b8f2ff438134",
    },
    "clone_histograms": {
        "clone_histograms_n121.csv": "5d7fe5118f7b39316872861e106cc4e3beefe6c866cf7d5832f39377febc275f",
        "clone_histograms_n16.csv": "cb2b0d6cc66cd0d919acbdb45c3c5360ff32835fffd2d0f99e7839bd15376f63",
        "config.json": "439290a6df9b7b8f4342c1ac285f809cd7524f3462281c3ec033567ede4ce70e",
        "summary.json": "e701ffff66fd1b8158641e9340a8b110bc78ffc4c5c4b0d0f7df9d50737bb72e",
    },
    "cheating_curve": {
        "cheating.csv": "d6c765419e22310858e460e8d0afc131254b952d9bde4c6c41935322c908792a",
        "config.json": "ebdb4400a4d4ec60e2c9dda04e09f7da2cb47be11f67afc308687b2a50097eb0",
        "summary.json": "c595b86f64524df21cc66bc81b08563d07958781fa49ee599c9a80b2012e5c76",
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
