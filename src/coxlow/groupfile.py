"""Reading group-input JSON files.

Schema:

    {
      "rank": 3,
      "coxeter": [[1, 3, "inf"], [3, 1, 2], ["inf", 2, 1]],
      "gram_overrides": [{"pair": [0, 2], "value": -1.5}],
      "backend": "float"
    }

"coxeter" has 1 on the diagonal and, off it, integers >= 2 or the string
"inf"; "gram_overrides" (values <= -1, on "inf" bonds only) and "backend"
("float" or "rational", the default "float") are optional.

This module reads the JSON: the document, "rank", the list shapes, the
"inf" spelling and the override items.  Every value rule is checked by
its owner in coxlow.core, whose error is re-raised naming the field.  A
number that is not finite (NaN, Infinity, 1e999) stays its spelling.
"""

import json
import math

from .core import (
    DEFAULT_EPS, INF, CoxeterMatrix, build_root_system, check_backend,
    check_override)
from .errors import CoxlowError, ParseError, ValidationError


def _number(spelling):
    """A JSON float, or its spelling if it is not finite."""
    value = float(spelling)
    return value if math.isfinite(value) else spelling


def _field(name, check, *args):
    """check(*args), its error re-raised naming the field."""
    try:
        return check(*args)
    except CoxlowError as exc:
        raise ValidationError("field %s: %s" % (name, exc)) from exc


def parse_group_file(text):
    """Parse a group-input document; returns (matrix, overrides, backend)."""
    try:
        doc = json.loads(text, parse_float=_number, parse_constant=_number)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    if not isinstance(doc, dict):
        raise ValidationError("top-level document must be a JSON object")

    rank = doc.get("rank")
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValidationError('field "rank": must be a positive integer')

    coxeter = doc.get("coxeter")
    if (not isinstance(coxeter, list) or len(coxeter) != rank
            or any(not isinstance(row, list) or len(row) != rank
                   for row in coxeter)):
        raise ValidationError('field "coxeter": must be a %dx%d matrix'
                              % (rank, rank))
    matrix = _field('"coxeter"', CoxeterMatrix,
                    [[INF if m == "inf" else m for m in row]
                     for row in coxeter])

    items = doc.get("gram_overrides", [])
    if not isinstance(items, list):
        raise ValidationError('field "gram_overrides": must be a list')
    overrides = {}
    for k, item in enumerate(items):
        where = '"gram_overrides"[%d]' % k
        if (not isinstance(item, dict) or "pair" not in item
                or "value" not in item):
            raise ValidationError('field %s: must be {"pair": [i, j], '
                                  '"value": v}' % where)
        pair, value = item["pair"], item["value"]
        pair = tuple(pair) if isinstance(pair, list) else pair
        _field(where, check_override, matrix, pair, value)
        overrides[pair] = value

    backend = doc.get("backend", "float")
    _field('"backend"', check_backend, backend)
    return matrix, overrides, backend


def load_root_system(text, backend=None, eps=DEFAULT_EPS):
    """Build a root system directly from group-file text; a ``backend``
    other than None replaces the file's."""
    matrix, overrides, file_backend = parse_group_file(text)
    return build_root_system(
        matrix, gram_overrides=overrides, eps=eps,
        backend=file_backend if backend is None else backend)


def group_to_json(matrix, overrides=None, backend="float"):
    """Serialize group data back to the file schema (used by tests/demos)."""
    coxeter = [["inf" if m == INF else m for m in row]
               for row in matrix.entries]
    doc = {"rank": matrix.rank, "coxeter": coxeter, "backend": backend}
    if overrides:
        doc["gram_overrides"] = [{"pair": list(pair), "value": value}
                                 for pair, value in sorted(overrides.items())]
    return json.dumps(doc, indent=2)
