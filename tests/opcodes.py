"""Bytecode counts of crtcount calls, shared by the tests that pin a constant cost.

Only opcodes run in frames of crtcount's own source files are counted; work
done in C (math.gcd, divmod, tuple repetition, list.sort, ...) is not.
"""

import sys
from pathlib import Path

import crtcount

PACKAGE = str(Path(crtcount.__file__).parent)


def opcodes_run(call):
    """Bytecode instructions run in crtcount's own frames during call()."""

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        frame.f_trace_opcodes = True
        return local

    # From 3.12 the first call traced this way can miss opcode events, so a
    # traced warm-up call runs before the counted one.
    previous = sys.gettrace()
    for _ in range(2):
        count = 0
        sys.settrace(tracer)  # this thread only
        try:
            call()
        finally:
            sys.settrace(previous)
    return count
