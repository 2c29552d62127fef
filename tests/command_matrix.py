"""The CLI commands every shipped instance is run under, with the options
each takes, filled in from the instance's first group. It imports neither
pytest nor hypothesis, so `python tests/test_golden.py --check` runs on a
Python that has neither."""

COMMAND_MATRIX = {
    "validate": [],
    "classify": [],
    "subspace": ["--set", "{identity}", "--ops", "{first_op}"],
    "cosets": ["--set", "{identity}", "--ops", "{first_op}"],
    "normal": ["--set", "{identity}", "--ops", "{first_op}"],
    "series": [],
    "maximal-series": [],
    "span": ["--set", "{identity}"],
    "generators": [],
}


def _fill(args, ms):
    first = ms.groups[0]
    return [a.format(identity=first.identity, first_op=first.op_id) for a in args]
