"""Reproducibility guard: fixed CLI commands keep their exact CSV bodies.

Each command's non-``#`` lines are hashed and compared with a recorded
SHA-256 digest.  Most bodies are exact rationals or integers (the simulate
rows are the integer ``.runs.csv`` records).  The float bodies here
(float ``spectrum`` and ``local-times``) are pure-Python IEEE arithmetic,
only + - * / on doubles with no BLAS and no libm call, so their digests
are as portable as the exact ones; float ``propagate`` and
``moments`` go through libm ``pow`` and are left to the numeric tests.  A
change that moves any of these digests changes published output and must
be declared, with the digest re-recorded.
"""

import hashlib

import pytest

from votermodel import cli

SIM = ("--runs", "20", "--seed", "5")

#: id -> (argv, path suffix whose body is hashed or None for stdout, digest)
GOLDEN = {
    "spectrum-12": (
        ("spectrum", "--n", "12"), None,
        "9418b0861a5211ca67c77626be4fb8b28efbb26b87c3f111d41c458aecb7d256",
    ),
    "propagate-33-spectral": (
        ("propagate", "--n", "33", "--init", "delta:10", "--steps", "50"), None,
        "18458c8511f225d2a72747fe7a38ca2b9594b25d098fa2d2ed65fe2971a060f4",
    ),
    "propagate-33-direct": (
        ("propagate", "--n", "33", "--init", "delta:10", "--steps", "50",
         "--method", "direct"), None,
        "18458c8511f225d2a72747fe7a38ca2b9594b25d098fa2d2ed65fe2971a060f4",
    ),
    "moments-64-exact": (
        ("moments", "--n", "64", "--init", "delta:20", "--p", "4", "--method", "exact"),
        None,
        "753710740047a2d9f864c994f05a8c8c43c1467d7554d8a0766e9dd7e2011198",
    ),
    "moments-64-asymptotic": (
        ("moments", "--n", "64", "--init", "delta:20", "--p", "4",
         "--method", "asymptotic"), None,
        "781f363d37c7dc2ec1a5a475d24adaf6b33801cf0cb3ee437894c9e856623da3",
    ),
    "moments-64-oracle": (
        ("moments", "--n", "64", "--init", "delta:20", "--p", "4", "--method", "oracle"),
        None,
        "0167e508b0af1d3807a3c5ee1db163f815331e6f87e50783dbfe4f45ba96a5fe",
    ),
    "local-times-64-exact": (
        ("local-times", "--n", "64", "--init", "uniform", "--method", "exact"), None,
        "10f8e8fa3ae7bd9b9da115d6f512eed67bc94b24dfb903dbe3dc1c8b2d0d5741",
    ),
    "local-times-64-oracle": (
        ("local-times", "--n", "64", "--init", "uniform", "--method", "oracle"), None,
        "10f8e8fa3ae7bd9b9da115d6f512eed67bc94b24dfb903dbe3dc1c8b2d0d5741",
    ),
    "propagate-64-uniform-256": (
        ("propagate", "--n", "64", "--init", "uniform", "--steps", "256"), None,
        "81721e23636296209e88e9ec498e67f38a0b8bbbf187121601de79be5efea726",
    ),
    "local-times-64-delta-1": (
        ("local-times", "--n", "64", "--init", "delta:1"), None,
        "a1b202e7bc0e16a5b60a3fcd2066660aebfd19300507ac297d30a2c51a118a4d",
    ),
    "spectrum-70-float": (
        ("spectrum", "--n", "70", "--mode", "float"), None,
        "7680d30f9a307e063379ccc310aa439fb1dfd35af2ae19aeebde76999f574870",
    ),
    "local-times-120-uniform-float": (
        ("local-times", "--n", "120", "--init", "uniform"), None,
        "b3209a0172ab89beb7da70d11705245a709c67f9572a3f0266fc02735c0d2b5c",
    ),
    "local-times-136-delta-45-float": (
        ("local-times", "--n", "136", "--init", "delta:45"), None,
        "e0cc17cb998eba51aff9648be66611b23a5293b54b52eab53f24ff94d83a6e51",
    ),
    "simulate-complete-30": (
        ("simulate", "--topology", "complete:30", "--init", "delta:15", *SIM),
        ".runs.csv",
        "b80fc7c7d50861431d5b1307f10ef822f1703e17cc1bc5eaf44b3d5bc335ba88",
    ),
    "simulate-bipartite-12-4": (
        ("simulate", "--topology", "bipartite:12,4", "--init", "delta:8", *SIM,
         "--pmax", "3"), ".runs.csv",
        "6bf0564b14c994d033a8950dc7d4d7ccd1a2cec1f03806011835be00c58df0f2",
    ),
    "simulate-er-60": (
        ("simulate", "--topology", "er:60,0.1", "--init", "density:0.5", *SIM,
         "--pmax", "2", "--normalize"), ".runs.csv",
        "4eb05c27308a44eebc3942ea739caa298099a8092b42f588d35e238521505022",
    ),
}


def body_digest(text):
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def golden_body(argv, suffix, tmp_path, capsys):
    if suffix is None:
        code = cli.main(list(argv))
        text = capsys.readouterr().out
    else:
        out = tmp_path / "out.csv"
        code = cli.main([*argv, "--out", str(out)])
        text = (tmp_path / f"out{suffix}").read_text()
    assert code == 0
    return text


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_body_is_unchanged(name, tmp_path, capsys):
    argv, suffix, digest = GOLDEN[name]
    assert body_digest(golden_body(argv, suffix, tmp_path, capsys)) == digest
