"""File formats: .hg (hypergraph), .w (weights), .cfg (configuration),
.cert (balance certificate), .json (reports).

All files are JSON with sorted keys and a trailing newline so fixtures diff
cleanly; scalars are exact ("p/q" strings over the rationals, plain ints
over a prime field). The field is recorded in every geometric file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .configs import JointsConfiguration
from .extremal import SimpleHypergraph
from .fields import QQ
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
