"""One checker for the JSON documents the tool writes and reads.

Each document's structure is a schema written as plain data; its
validator checks what a schema cannot express only once :func:`check`
passes.  The forms:

* a type, or a tuple of types: an instance, where a ``bool`` never
  counts as an ``int`` or a ``float``;
* ``{key: schema}``: an object holding every key (others are allowed);
  a key whose schema is :class:`Optional` may be absent or ``null``;
* ``[schema]``: a list whose items each match;
* :class:`Map`: an object with any keys whose values each match;
* :class:`Check`: a schema plus a predicate, for ranges and choices;
* any other value: a constant the value must equal.

A problem reads ``<path>: missing`` or ``<path>: expected <what>``, with
paths like ``overlap.pairs[3].overlap_fraction``.  :func:`check` never
raises on a JSON value.  No cold command loads this module.
"""

from collections import namedtuple

#: an object key that may be absent or ``null``
Optional = namedtuple("Optional", "schema")
#: an object with any keys whose values each match ``schema``
Map = namedtuple("Map", "schema")
#: a value matching ``schema`` for which ``predicate`` holds; ``what``
#: names it in the problem
Check = namedtuple("Check", "schema predicate what")

NUMBER = (int, float)
NON_NEGATIVE = Check(NUMBER, lambda v: v >= 0, "a non-negative number")
SHA256 = Check(str, lambda v: v.startswith("sha256:"), "a sha256: digest")

_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number",
    NUMBER: "a number", str: "a string", list: "a list", dict: "an object",
}


def one_of(*choices):
    """A value equal to one of ``choices``."""
    return Check(object, lambda v: v in choices, "one of " + ", ".join(
        repr(choice) for choice in choices))


#: the value of an absent object key
_MISSING = object()


def _key(where, key):
    return "{}.{}".format(where, key) if where else str(key)


def check(value, schema, where=""):
    """Problems of ``value`` against ``schema``, each prefixed with its
    path under ``where``; empty when the value matches."""
    if value is _MISSING:
        return [] if isinstance(schema, Optional) else [where + ": missing"]
    if isinstance(schema, Check):
        problems = check(value, schema.schema, where)
        if problems or schema.predicate(value):
            return problems
        what = schema.what
    elif isinstance(schema, Optional):
        return [] if value is None else check(value, schema.schema, where)
    elif isinstance(schema, (dict, Map)) and not isinstance(value, dict):
        what = "an object"
    elif isinstance(schema, Map):
        return [problem for key, item in value.items()
                for problem in check(item, schema.schema, _key(where, key))]
    elif isinstance(schema, dict):
        return [problem for key, item in schema.items()
                for problem in check(value.get(key, _MISSING), item,
                                     _key(where, key))]
    elif isinstance(schema, list) and not isinstance(value, list):
        what = "a list"
    elif isinstance(schema, list):
        return [problem for index, item in enumerate(value)
                for problem in check(item, schema[0],
                                     "{}[{}]".format(where, index))]
    elif isinstance(schema, (type, tuple)):
        if isinstance(value, schema) and not (
            isinstance(value, bool) and schema in (int, float, NUMBER)
        ):
            return []
        what = _NAMES.get(schema) or " or ".join(_NAMES[t] for t in schema)
    elif type(value) is type(schema) and value == schema:
        return []
    else:
        what = repr(schema)
    return ["{}: expected {}".format(where or "document", what)]


def assert_valid(what, problems):
    """Fail loudly when a document this program generated has problems:
    that is a bug in its generator, not a user error."""
    if problems:
        raise AssertionError("{} is invalid: {}".format(what, problems[:3]))
