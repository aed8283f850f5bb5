"""Parsing and validation of group-input JSON files.

Schema:

    {
      "rank": 3,
      "coxeter": [[1, 3, "inf"], [3, 1, 2], ["inf", 2, 1]],
      "gram_overrides": [{"pair": [0, 2], "value": -1.5}],
      "backend": "float"
    }

"coxeter" entries are integers >= 1 or the string "inf";
"gram_overrides" and "backend" are optional (backend defaults to "float").
"""

import json
import math

from .core import DEFAULT_EPS, INF, CoxeterMatrix, build_root_system
from .errors import ParseError, ValidationError


def _bond(value, where):
    if value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError('field "coxeter"%s: entry %r must be an '
                              'integer or "inf"' % (where, value))
    return value


def parse_group_file(text):
    """Parse a group-input document; returns (matrix, overrides, backend)."""
    try:
        doc = json.loads(text)
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
    entries = [[_bond(coxeter[i][j], "[%d][%d]" % (i, j))
                for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        if entries[i][i] != 1:
            raise ValidationError('field "coxeter"[%d][%d]: diagonal entries '
                                  'must be 1' % (i, i))
        for j in range(rank):
            if entries[i][j] != entries[j][i]:
                raise ValidationError('field "coxeter": entry [%d][%d] does '
                                      'not match [%d][%d]' % (i, j, j, i))
            if i != j and entries[i][j] != INF and entries[i][j] < 2:
                raise ValidationError('field "coxeter"[%d][%d]: off-diagonal '
                                      'labels must be >= 2 or "inf"' % (i, j))

    items = doc.get("gram_overrides", [])
    if not isinstance(items, list):
        raise ValidationError('field "gram_overrides": must be a list')
    overrides = {}
    for k, item in enumerate(items):
        where = 'field "gram_overrides"[%d]' % k
        if (not isinstance(item, dict) or "pair" not in item
                or "value" not in item):
            raise ValidationError('%s: must be {"pair": [i, j], "value": v}'
                                  % where)
        pair = item["pair"]
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(i, bool) or not isinstance(i, int)
                       or not 0 <= i < rank for i in pair)
                or pair[0] == pair[1]):
            raise ValidationError('%s.pair: must be two distinct generator '
                                  'indices in [0, %d)' % (where, rank))
        i, j = pair
        if entries[i][j] != INF:
            raise ValidationError('%s: override on finite bond (%d,%d)'
                                  % (where, i, j))
        value = item["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError('%s.value: must be a number' % where)
        if not math.isfinite(value):
            raise ValidationError('%s.value: must be finite' % where)
        if value > -1:
            raise ValidationError('%s.value: must be <= -1' % where)
        overrides[(i, j)] = value

    backend = doc.get("backend", "float")
    if backend not in ("float", "rational"):
        raise ValidationError('field "backend": must be "float" or "rational"')

    return CoxeterMatrix(entries), overrides, backend


def load_root_system(text, backend=None, eps=DEFAULT_EPS):
    """Build a root system directly from group-file text."""
    matrix, overrides, file_backend = parse_group_file(text)
    return build_root_system(matrix, gram_overrides=overrides,
                             backend=backend or file_backend, eps=eps)


def group_to_json(matrix, overrides=None, backend="float"):
    """Serialize group data back to the file schema (used by tests/demos)."""
    coxeter = [["inf" if m == INF else m for m in row]
               for row in matrix.entries]
    doc = {"rank": matrix.rank, "coxeter": coxeter, "backend": backend}
    if overrides:
        doc["gram_overrides"] = [{"pair": list(pair), "value": value}
                                 for pair, value in sorted(overrides.items())]
    return json.dumps(doc, indent=2)
