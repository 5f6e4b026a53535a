"""File formats: .hg (hypergraph), .w (weights), .cfg (configuration),
.cert (balance certificate), .json (reports).

All files are JSON with sorted keys and a trailing newline so fixtures diff
cleanly; scalars are exact ("p/q" strings over the rationals, plain ints
over a prime field). The field is recorded in every geometric file. A
certificate is written by certificate_to_dict and read back, against the
configuration it certifies, by load_certificate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .configs import JointsConfiguration
from .extremal import SimpleHypergraph
from .fields import QQ, as_int, field_from_key
from .geometry import Flat
from .hypergraph import Hypergraph, WeightFunction


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_json(path, data) -> None:
    Path(path).write_text(dumps(data))


def load_json(path):
    return json.loads(Path(path).read_text())


def parse_fraction(text) -> Fraction:
    return QQ.parse(str(text))


def load_hypergraph(path) -> Hypergraph:
    return Hypergraph.from_dict(load_json(path))


def load_simple_hypergraph(path) -> SimpleHypergraph:
    data = load_json(path)
    if "n" in data:
        return SimpleHypergraph.from_dict(data)
    # accept colored hypergraph files as hosts, dropping colors
    h = Hypergraph.from_dict(data)
    return SimpleHypergraph.from_sets(h.d, h.edges)


def load_weights(path, h: Hypergraph) -> WeightFunction:
    data = load_json(path)
    return WeightFunction.for_hypergraph(
        h, [parse_fraction(t) for t in data["weights"]])


def load_config(path) -> JointsConfiguration:
    return JointsConfiguration.from_dict(load_json(path))


def certificate_to_dict(h, result) -> dict:
    """Serialize a HandicapResult; flats are identified by canonical data."""
    flats = []
    flat_index = {}
    for (rank, fl) in result.b:
        if fl not in flat_index:
            flat_index[fl] = len(flats)
            flats.append(fl)
    field = flats[0].field if flats else None
    return {
        "field": list(field.key()) if field else ["rational"],
        "d": h.d,
        "n": result.ledger_set.n,
        "status": result.status,
        "rounds": result.rounds,
        "lambda": result.lam,
        "delta": result.delta,
        "spread": result.spread,
        "alpha": [result.alpha[r] for r in range(len(result.alpha))],
        "W": [result.W[r] for r in range(len(result.W))],
        "flats": [fl.to_dict() | {"dim": fl.dim} for fl in flats],
        "b": [{"point": rank, "flat": flat_index[fl], "value": str(val)}
              for (rank, fl), val in sorted(
                  result.b.items(), key=lambda kv: (kv[0][0], flat_index[kv[0][1]]))],
        "trace": result.trace,
    }


def load_certificate(path, config) -> tuple[dict, dict]:
    """A certificate's b, keyed by (rank, canonical Flat), and W, keyed by
    rank, for the configuration it certifies; ValueError where its field
    or d differs or b names a point or flat outside the configuration."""
    cert = load_json(path)
    field, d = field_from_key(cert["field"]), as_int(cert["d"])
    if (field, d) != (config.field, config.d):
        raise ValueError(f"certificate over {field} in d={d}, configuration "
                         f"over {config.field} in d={config.d}")
    flats = [Flat.from_dict(field, d, fd) for fd in cert["flats"]]
    b = {}
    for entry in cert["b"]:
        for key, size in (("point", len(config.points)), ("flat", len(flats))):
            if not isinstance(entry[key], int) or not 0 <= entry[key] < size:
                raise ValueError(f"certificate {key} {entry[key]!r} is not in "
                                 f"0..{size - 1}")
        b[entry["point"], flats[entry["flat"]]] = parse_fraction(entry["value"])
    held = {fl for cls in config.classes for fl in cls}
    if any(fl not in held for _, fl in b):
        raise ValueError("certificate b names a flat in no configuration class")
    return b, {r: float(v) for r, v in enumerate(cert["W"])}
