"""Golden report bytes: the SHA-256 of every emitted format, pinned.

Refactors must leave the JSON, CSV and markdown reports and the re-saved
snapshot byte-identical. The hashes below were taken from the original
implementation; a change that alters any of them changes the output, and
must not be made by editing this file. ``lexicon_path`` stays unset
because the config echo embeds that path.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import rich_snapshot_dict, summary_target_dict
from prtrust import (
    AnalysisConfig,
    analyze_snapshot,
    build_bundle,
    config_echo,
    csv_text,
    json_text,
    markdown_summary,
    save_snapshot,
    snapshot_from_dict,
)

FIXTURES = {"rich": rich_snapshot_dict, "summary_target": summary_target_dict}

CONFIGS = {
    "default": AnalysisConfig,
    "tuned": lambda: AnalysisConfig(
        f_cap=2.5,
        exclude_bots=False,
        weights={
            "action": 3.0,
            "commitment": 0.5,
            "competence": 1.0,
            "institutional": 2.0,
            "personality": 0.25,
            "transferred": 1.5,
        },
    ),
}

GOLDEN = {
    ("rich", "default"): {
        "json": "4d18b9a0e60d97632cfabb82e819faf57988bb5ccc4a3c2afe2ae0023ca22c6e",
        "csv": "e369e9a34424923f7d72d71eeae2f53bd9085185b368d68c378dee0418326a49",
        "markdown": "ae52048023d307440bc7bbd1d9b497e682f5055e66c493225dae614a587d607d",
        "snapshot": "f4888a0199dd8792773471122ea30899d92babd00ae36d0717ebdceda11d6da3",
    },
    ("rich", "tuned"): {
        "json": "397ab7ba73886da9426fcab47a9ec7f12155cbddf797b3c7807205dd927ae444",
        "csv": "3fbd741635ac9becd02e79c0685709486b664ce251a5cac5c1db961909461c62",
        "markdown": "06bdd145cda2556d821776e79fa1e3edc708c9fcf6f2a2db8bfbf7ae49922212",
        "snapshot": "f4888a0199dd8792773471122ea30899d92babd00ae36d0717ebdceda11d6da3",
    },
    ("summary_target", "default"): {
        "json": "725a130509feb042df09c82c0e3a5b6df6a2cec88fb49aa42167c50325b82212",
        "csv": "230725a0fc479441c7f5c5b92e94718f8f713b129932405ed0d2591b8f53e4df",
        "markdown": "b2517dc4f80a4a17de9bff61bbf83556c09b0014d0aefcd1a008bbbe600b67e1",
        "snapshot": "7b4cb32c9763a3ed55d04e76ef3cf2c140e5991b428132e04511a22212210d1f",
    },
    ("summary_target", "tuned"): {
        "json": "356beed60fe8ca59165a6a539d1cf2c3684a44e018d58ed04144e5dc360e1cb9",
        "csv": "c1db06f834a8bbd09d7d3c057b3c6c426029ceadea7f741722bebb06eac0a368",
        "markdown": "b2517dc4f80a4a17de9bff61bbf83556c09b0014d0aefcd1a008bbbe600b67e1",
        "snapshot": "7b4cb32c9763a3ed55d04e76ef3cf2c140e5991b428132e04511a22212210d1f",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fixture, config_name", sorted(GOLDEN))
def test_report_and_snapshot_bytes_are_pinned(fixture, config_name, tmp_path):
    snap = snapshot_from_dict(FIXTURES[fixture]())
    config = CONFIGS[config_name]()
    config.validate()
    lexicon = config.load_lexicon()
    profiles, summary = analyze_snapshot(snap, config, lexicon)
    bundle = build_bundle(snap, profiles, summary, config_echo(config, lexicon))

    saved = tmp_path / "snapshot.json"
    save_snapshot(snap, saved)
    actual = {
        "json": _sha256(json_text(bundle).encode("utf-8")),
        "csv": _sha256(csv_text(bundle).encode("utf-8")),
        "markdown": _sha256(markdown_summary(bundle).encode("utf-8")),
        "snapshot": _sha256(saved.read_bytes()),
    }
    assert actual == GOLDEN[(fixture, config_name)]
