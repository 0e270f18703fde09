"""Near-miss records for the five JSON readers, with each message pinned.

The readers are the HN bundle, the surface bundle, the Zariski
certificate, its reduction step and its effective part (one entry of
"N"). Each field is sent missing, null, a bool, a float, a string and past
1024 bits, and each record is sent as a non-object; every outcome pins the
full message, the field it names and the reason list.
"""

import copy
import re

import pytest

from conecalc.bundles import HNCurveBundle, SurfaceBundleData
from conecalc.errors import InputError
from conecalc.zariski import ReductionStep, ZariskiCertificate

FIRST = HNCurveBundle(3, 4, [(1, 0), (2, 4)])
SECOND = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
# decompose(FIRST, SECOND, (2, 1, 5)).to_json(): one step, one effective part
CERT = {
    "input": ["2", "1", "5"],
    "steps": [
        {
            "factor": "first",
            "mult": "2",
            "to": {"name": "E", "rank": 2, "degree": 4, "hn": [[2, 4]]},
        }
    ],
    "terminal": "one_corank_one",
    "P": ["2", "0", "6"],
    "N": [{"gen": ["0", "1", "-1"], "coeff": "1"}],
    "verified": True,
}
BASES = {
    "hn": {"name": "E", "rank": 3, "degree": 4, "hn": [[1, 0], [2, 4]]},
    "surface": {"rank": 2, "c1": ["1/2"], "c2": "0", "semistable": True},
    "cert": CERT,
    "step": CERT["steps"][0],
    "effective": CERT["N"][0],
}
READERS = {
    "hn": HNCurveBundle.from_json,
    "surface": SurfaceBundleData.from_json,
    "cert": lambda record: ZariskiCertificate.from_json(record, FIRST, SECOND),
    "step": lambda record: ReductionStep.from_json(record, FIRST),
    "effective": lambda entry: ZariskiCertificate.from_json({**CERT, "N": [entry]}, FIRST, SECOND),
}

BIG = 2**1100
MISSING = object()
STATES = {
    "missing": MISSING, "null": None, "bool": True, "float": 2.5, "string": "x", "big": BIG,
    "list": [],
}
BIG_ECHO = str(BIG)[:40] + "..."
INTEGER_BOUND = "integer has 1101 bits; at most 1024 are allowed"
RATIONAL_BOUND = "rational has 1101 bits in numerator or denominator; at most 1024 are allowed"

# (reader, path) -> {state: outcome}; the path "" is the record itself. An
# outcome is None when the record reads; a message, raised with no field
# and as the one reason; (field, message); or (field, message, *reasons).
# The certificate reader lifts the 1024-bit bound.
CORPUS = {
    ("hn", "rank"): {
        "missing": "bundle record needs integer rank and degree",
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("rank", INTEGER_BOUND),
    },
    ("hn", "degree"): {
        "missing": "bundle record needs integer rank and degree",
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("degree", INTEGER_BOUND),
    },
    ("hn", "hn"): {
        "missing": None,
        "null": None,
        "bool": "hn must be a list of [rank, degree] pairs",
        "float": "hn must be a list of [rank, degree] pairs",
        "string": "hn must be a list of [rank, degree] pairs",
        "big": "hn must be a list of [rank, degree] pairs",
    },
    ("hn", "hn[0]"): {
        "null": "hn must be a list of [rank, degree] pairs",
        "bool": "hn must be a list of [rank, degree] pairs",
        "float": "hn must be a list of [rank, degree] pairs",
        "string": "hn must be a list of [rank, degree] pairs",
        "big": "hn must be a list of [rank, degree] pairs",
    },
    ("hn", "hn[0][0]"): {
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("hn[0][0]", INTEGER_BOUND),
    },
    ("hn", "hn[0][1]"): {
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("hn[0][1]", INTEGER_BOUND),
    },
    ("hn", "hn[1][1]"): {
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("hn[1][1]", INTEGER_BOUND),
    },
    ("hn", "name"): {
        "missing": None,
        "null": "bundle name must be a JSON string",
        "bool": "bundle name must be a JSON string",
        "float": "bundle name must be a JSON string",
        "string": None,
        "big": "bundle name must be a JSON string",
    },
    ("hn", ""): {
        "list": "bundle record must be a JSON object",
        "string": "bundle record must be a JSON object",
        "null": "bundle record must be a JSON object",
    },
    ("surface", "rank"): {
        "missing": "surface bundle record needs rank, c1, c2",
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": ("rank", INTEGER_BOUND),
    },
    ("surface", "c1"): {
        "missing": "surface bundle record needs rank, c1, c2",
        "null": "malformed coordinate list: None",
        "bool": "malformed coordinate list: True",
        "float": "malformed coordinate list: 2.5",
        "string": "malformed coordinate list: 'x'",
        "big": "malformed coordinate list: " + BIG_ECHO,
    },
    ("surface", "c1[0]"): {
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": ("c1[0]", RATIONAL_BOUND),
    },
    ("surface", "c2"): {
        "missing": "surface bundle record needs rank, c1, c2",
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": ("c2", RATIONAL_BOUND),
    },
    ("surface", "semistable"): {
        "missing": None,
        "null": "malformed boolean: None",
        "bool": None,
        "float": "malformed boolean: 2.5",
        "string": "malformed boolean: 'x'",
        "big": "malformed boolean: " + BIG_ECHO,
    },
    ("surface", ""): {
        "list": "surface bundle record needs rank, c1, c2",
        "string": "surface bundle record needs rank, c1, c2",
        "null": "surface bundle record needs rank, c1, c2",
    },
    ("cert", "input"): {
        "missing": "malformed certificate record",
        "null": "malformed coordinate list: None",
        "bool": "malformed coordinate list: True",
        "float": "malformed coordinate list: 2.5",
        "string": "malformed coordinate list: 'x'",
        "big": "malformed coordinate list: " + BIG_ECHO,
    },
    ("cert", "input[0]"): {
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": None,
    },
    ("cert", "steps"): {
        "missing": "malformed certificate record",
        "null": "malformed record list: None",
        "bool": "malformed record list: True",
        "float": "malformed record list: 2.5",
        "string": "malformed record list: 'x'",
        "big": "malformed record list: " + BIG_ECHO,
    },
    ("cert", "steps[0]"): {
        "null": "malformed reduction step record",
        "bool": "malformed reduction step record",
        "float": "malformed reduction step record",
        "string": "malformed reduction step record",
        "big": "malformed reduction step record",
    },
    ("cert", "terminal"): {
        "missing": "malformed certificate record",
        "null": "unknown terminal case None",
        "bool": "unknown terminal case True",
        "float": "unknown terminal case 2.5",
        "string": "unknown terminal case 'x'",
        "big": "unknown terminal case " + BIG_ECHO,
    },
    ("cert", "P"): {
        "missing": "malformed certificate record",
        "null": "malformed coordinate list: None",
        "bool": "malformed coordinate list: True",
        "float": "malformed coordinate list: 2.5",
        "string": "malformed coordinate list: 'x'",
        "big": "malformed coordinate list: " + BIG_ECHO,
    },
    ("cert", "P[2]"): {
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": None,
    },
    ("cert", "N"): {
        "missing": "malformed certificate record",
        "null": "malformed record list: None",
        "bool": "malformed record list: True",
        "float": "malformed record list: 2.5",
        "string": "malformed record list: 'x'",
        "big": "malformed record list: " + BIG_ECHO,
    },
    ("cert", "N[0]"): {
        "null": "malformed effective-part record",
        "bool": "malformed effective-part record",
        "float": "malformed effective-part record",
        "string": "malformed effective-part record",
        "big": "malformed effective-part record",
    },
    ("cert", "verified"): {
        "missing": "malformed certificate record",
        "null": "malformed boolean: None",
        "bool": None,
        "float": "malformed boolean: 2.5",
        "string": "malformed boolean: 'x'",
        "big": "malformed boolean: " + BIG_ECHO,
    },
    ("cert", ""): {
        "list": "malformed certificate record",
        "string": "malformed certificate record",
        "null": "malformed certificate record",
    },
    ("step", "factor"): {
        "missing": "malformed reduction step record",
        "null": "unknown factor None",
        "bool": "unknown factor True",
        "float": "unknown factor 2.5",
        "string": "unknown factor 'x'",
        "big": "unknown factor " + BIG_ECHO,
    },
    ("step", "mult"): {
        "missing": "malformed reduction step record",
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": None,
    },
    ("step", "to"): {
        "missing": "malformed reduction step record",
        "null": "bundle record must be a JSON object",
        "bool": "bundle record must be a JSON object",
        "float": "bundle record must be a JSON object",
        "string": "bundle record must be a JSON object",
        "big": "bundle record must be a JSON object",
    },
    ("step", "to.rank"): {
        "missing": "bundle record needs integer rank and degree",
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": (None, "invalid quotient ladder: rank sum mismatch", "rank sum mismatch"),
    },
    ("step", "to.degree"): {
        "missing": "bundle record needs integer rank and degree",
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": (None, "invalid quotient ladder: degree sum mismatch", "degree sum mismatch"),
    },
    ("step", "to.hn"): {
        "missing": None,
        "null": None,
        "bool": "hn must be a list of [rank, degree] pairs",
        "float": "hn must be a list of [rank, degree] pairs",
        "string": "hn must be a list of [rank, degree] pairs",
        "big": "hn must be a list of [rank, degree] pairs",
    },
    ("step", "to.hn[0][1]"): {
        "null": "malformed integer: None",
        "bool": "malformed integer: True",
        "float": "malformed integer: 2.5",
        "string": "malformed integer: 'x'",
        "big": (None, "invalid quotient ladder: degree sum mismatch", "degree sum mismatch"),
    },
    ("step", "to.name"): {
        "missing": None,
        "null": "bundle name must be a JSON string",
        "bool": "bundle name must be a JSON string",
        "float": "bundle name must be a JSON string",
        "string": None,
        "big": "bundle name must be a JSON string",
    },
    ("step", ""): {
        "list": "malformed reduction step record",
        "string": "malformed reduction step record",
        "null": "malformed reduction step record",
    },
    ("effective", "gen"): {
        "missing": "malformed effective-part record",
        "null": "malformed coordinate list: None",
        "bool": "malformed coordinate list: True",
        "float": "malformed coordinate list: 2.5",
        "string": "malformed coordinate list: 'x'",
        "big": "malformed coordinate list: " + BIG_ECHO,
    },
    ("effective", "gen[1]"): {
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": None,
    },
    ("effective", "coeff"): {
        "missing": "malformed effective-part record",
        "null": "malformed rational: None",
        "bool": "malformed rational: True",
        "float": "malformed rational: 2.5",
        "string": "malformed rational: 'x'",
        "big": None,
    },
    ("effective", ""): {
        "list": "malformed effective-part record",
        "string": "malformed effective-part record",
        "null": "malformed effective-part record",
    },
}

# when two fields fail, the first one read names the error
FIRST_FAILING = [
    ("hn", {"rank": BIG}, ("rank", INTEGER_BOUND)),
    ("hn", {"rank": "2", "degree": BIG}, "malformed integer: '2'"),
    ("hn", {"rank": 2, "degree": BIG, "hn": [[1, "x"]]}, ("degree", INTEGER_BOUND)),
    ("hn", {"rank": 2, "degree": 0, "hn": [[1, BIG], [1, "x"]]}, ("hn[0][1]", INTEGER_BOUND)),
    ("hn", {"rank": 2, "degree": 0, "hn": [[1, "x"], [1, BIG]]}, "malformed integer: 'x'"),
    ("hn", {"rank": 2, "degree": 0, "hn": [[BIG, 1], [1, BIG]]}, ("hn[0][0]", INTEGER_BOUND)),
    ("surface", {"rank": 2, "c1": [BIG, "x"], "c2": "0"}, ("c1[0]", RATIONAL_BOUND)),
    ("surface", {"rank": 2, "c1": ["x", BIG], "c2": "0"}, "malformed rational: 'x'"),
    ("surface", {"rank": 2, "c1": ["0", BIG], "c2": BIG}, ("c1[1]", RATIONAL_BOUND)),
    ("surface", {"rank": "2", "c1": [BIG], "c2": BIG}, "malformed integer: '2'"),
    ("surface", {"rank": BIG, "c1": "x", "c2": "0"}, ("rank", INTEGER_BOUND)),
    ("surface", {"rank": 2, "c1": "x", "c2": BIG}, "malformed coordinate list: 'x'"),
    ("surface", {"rank": 1, "c1": [], "c2": "0", "semistable": "x"}, "malformed boolean: 'x'"),
    ("surface", {"rank": 1, "c1": [], "c2": "0"}, "surface bundle rank must be at least 2"),
]


def _with(record, path, value):
    """A deep copy of ``record`` with the field at ``path`` ('to.hn[0][1]')
    set to ``value``, or deleted when it is ``MISSING``; the path "" gives
    ``value`` itself."""
    if not path:
        return value
    keys = [int(index) if index else key for key, index in re.findall(r"(\w+)|\[(\d+)\]", path)]
    record = copy.deepcopy(record)
    parent = record
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return record


CASES = [
    pytest.param(reader, _with(BASES[reader], path, STATES[state]), outcome,
                 id=f"{reader}-{path or 'record'}-{state}")
    for (reader, path), outcomes in CORPUS.items()
    for state, outcome in outcomes.items()
] + [
    pytest.param(reader, record, outcome, id=f"{reader}-first-failing-{i}")
    for i, (reader, record, outcome) in enumerate(FIRST_FAILING)
]


@pytest.mark.parametrize("reader, record, outcome", CASES)
def test_reader_names_the_first_failing_field(reader, record, outcome):
    if outcome is None:
        READERS[reader](record)
        return
    field, message, *reasons = (None, outcome) if isinstance(outcome, str) else outcome
    with pytest.raises(InputError) as err:
        READERS[reader](record)
    assert str(err.value) == (message if field is None else f"{field}: {message}")
    assert err.value.field == field
    assert err.value.reasons == (tuple(reasons) or (message,))
