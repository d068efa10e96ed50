"""Golden outputs: the paper's results, pinned to the byte.

The SHA-256 of the stdout of every result command and of every file
``repro export all`` writes is committed below.  The commands run in
this one process with no result cache; Figures 9 and 11 run again at
``--jobs 2``, so the pooled engine path is held to the same bytes as
the inline one, and the queue, TLB and predictor studies run twice on
one result cache, so payloads read back from disk are held to them too.

An intended change of results updates these tables in the same change
and says why in CHANGES.md.  On a mismatch the failure lists every
changed entry with its new digest, in the tables' own format.
"""

from __future__ import annotations

import hashlib

from repro.cli import main

#: ``repro <command>`` -> SHA-256 of its stdout.
STDOUT_DIGESTS = {
    "figure 1a": "0f49e7a157b278f100762e79a30a32f31559ac8c80bab53dadfdd03d5452352b",
    "figure 1b": "e51df8a6a1632c49d899c1b77d7933da70f35ff9fb9d051d8af61a6b8bbe01b3",
    "figure 2": "103d2f3d7aa6f87d49008f0bf70c3f3654d25c378213228a29fa45c9dfc838ff",
    "figure 7": "fecc98162c1587168f0aa9ee0e53a6100b74dc62c4df3aa55ba25858f5e41b36",
    "figure 8": "4ffcfc2cfc4a449e4e6bfeb1975d193b68eccebb91db7a90776f838b7897de06",
    "figure 9": "e4992dbf8965eb3fdd29dc47df93d41212ac7cecc8afb71ba39f4d5d85b6c6f9",
    "figure 10": "1bd129e9445d5c3804a8ccac28e19f3a9c7a1c25ce3ddc656e5350228282b602",
    "figure 11": "c05c956a8d3c4ddbd2716934cca80d86a96932657da841e8183ca34b45634ed9",
    "figure 12": "e7bf56fa6e8143848f2bc778fff0720858b0e1c936d4e97b018ef1c309d10302",
    "figure 13a": "740ba3af263227413b709fc21c06b0ef0fbbfbb828287eb0c0d52a61e17b2a01",
    "figure 13b": "cf1ca9ace99f1e3cae02f95206ce085599729d656bfc9e5883bc9d768298c20e",
    "ablation granularity": "08abfea3daf7fd0cdb74eac770b084f62c2b2c1d4be9f847ae055b5a8949600b",
    "ablation latency-mode": "011bc98dab6c27e156a90e19d2477075e54a7fbb36bd7051d7629851b1e6707a",
    "ablation flush": "3527324130496931d079c1fbaa48eb539f68dccb034099edfafb11308d1f62e3",
    "ablation confidence": "acd787306dd5695ed92a7dbfdefdde5ef94a8ca89be5ca98f9d1c30dbebae6ca",
    "ablation switch-cost": "e2e0680a002ec4147aad3da449e10893cd3f194bde525db34f867193787a6058",
    "extension tlb": "501d0197a7fba9b91d02d88c3b6d523d3512b884a3fcdfc13be6c8cbb434ed89",
    "extension bpred": "33dd9c2b6ac9905f0fa1ceccf8da7281ec436d261e5ae507afaf335b74019569",
    "extension concert": "0fdeadaaffe0e1494d0aa6b52907f09f311cc75cb866dcdbb5df83cd9c077a5b",
    "extension cache-intervals": "c497b77dde6a6adb8667758d03f725c719f15ebbb866c5a87eea1a35368fc484",
    "degrade": "632d36ddde148fc581ac900e0feef9f51f179343841ee230d8dabf64eebc8d44",
    "suite": "1ed1256e1971b6351c394f4b668046a0e1ce50e31ef855da2fb86ac8daf65d11",
    "clock": "12d8d7454f4e285e747ede7552fecb2bc3aeacb1689fb1e3c6f3c824a73426ed",
    "power": "c9f363263fd1db92200b09c264b417e2e05a06fc4a7d2d7319cd1b8d2408fa83",
}

#: File written by ``repro export all`` -> SHA-256 of its bytes.
EXPORT_DIGESTS = {
    "figure10.csv": "ceeb43058f2706aec69be60c52e0aecbd83820a410c0afa6d04fc250243c96e6",
    "figure11.csv": "6f92256c5f3fa66d9cee99c80f95bc5841028d3a5d9e2b104cc071ac973fa71f",
    "figure12.csv": "798ed9c873f8a215493e3a52f3c29fb679642447fce688da07346da881745afc",
    "figure13a.csv": "7263d129242415b9dced66b0dd0620ec84ad2366114ec33f2d3f67d390ad6c23",
    "figure13b.csv": "369107cda345699eafcef031d8a99436d6c7207e5600cd715811c69439ae7d9c",
    "figure1a.csv": "39d87d5ce8996c91dfce608e59f18ce4bf13a91b463911a9d69c1b88c8ab5c6b",
    "figure1b.csv": "41cb4e1285130d418ee44fe6d1e28e4b2bea643abed0588cd5454e639292ba1a",
    "figure2.csv": "a942e37e67dc47797b8643c314dc99102b81bf49e757aeb25c947dbefec8117c",
    "figure7.csv": "6b249b30d11a69e7c03a8667ba0196e33acba493a2a0f18774a1167f7f99a45b",
    "figure8.csv": "adab466a89c4f82fbb63a709af96d4d6e67889320c61d420d58bbf80c0a99ed2",
    "figure9.csv": "26f6260d820b8eb8a868a21e3cb38298ce38ea91fcfd6d205a2daa96c9954c37",
}

#: Commands re-run through a two-worker process pool.
POOLED = ("figure 9", "figure 11")

#: Commands re-run on a result cache: once filling it, once reading it.
CACHED = ("figure 10", "figure 11", "extension tlb", "extension bpred")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_digest(capsys, command: str, *options: str) -> str:
    assert main([*command.split(), *options]) == 0, command
    return _sha256(capsys.readouterr().out.encode("utf-8"))


def _changed(expected: dict[str, str], actual: dict[str, str]) -> str:
    """Every entry of ``actual`` that differs, with its new digest."""
    return "\n".join(
        f'    "{name}": "{digest}",'
        for name, digest in actual.items()
        if expected.get(name) != digest
    )


def test_command_stdout_matches(capsys):
    actual = {
        command: _stdout_digest(capsys, command) for command in STDOUT_DIGESTS
    }
    changed = _changed(STDOUT_DIGESTS, actual)
    assert not changed, f"stdout changed; new digests:\n{changed}"


def test_export_all_matches(tmp_path):
    assert main(["export", "all", "--out", str(tmp_path)]) == 0
    actual = {path.name: _sha256(path.read_bytes()) for path in tmp_path.iterdir()}
    assert sorted(actual) == sorted(EXPORT_DIGESTS)
    changed = _changed(EXPORT_DIGESTS, actual)
    assert not changed, f"exported files changed; new digests:\n{changed}"


def test_pooled_figures_match_inline(capsys):
    actual = {
        command: _stdout_digest(capsys, f"{command} --jobs 2") for command in POOLED
    }
    changed = _changed(STDOUT_DIGESTS, actual)
    assert not changed, f"--jobs 2 stdout changed; new digests:\n{changed}"


def test_cached_figures_match_uncached(capsys, tmp_path):
    for run in ("cold", "warm"):
        actual = {
            command: _stdout_digest(capsys, command, "--cache-dir", str(tmp_path))
            for command in CACHED
        }
        changed = _changed(STDOUT_DIGESTS, actual)
        assert not changed, f"{run} --cache-dir stdout changed; new digests:\n{changed}"
