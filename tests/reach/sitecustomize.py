"""First-call hook of the reach census (``tests/test_reach.py``).

Put a copy of this file in a directory of its own and that directory
first on ``PYTHONPATH``: every interpreter started with it, spawned
children included, records each ``repro`` code object it runs for the
first time as one line ``<file>\\t<first line>\\t<qualname>`` (the file
relative to the ``repro`` package) in ``records/<pid>.tsv`` beside the
copy. A forked child reopens the file under its own pid, so pool workers
are counted too. Each line is one unbuffered write: a process that ends
in ``os._exit`` or SIGKILL loses nothing it ran.

The hook is a trace function (``sys.settrace``), not a profile function.
cProfile, which the end-to-end benchmark's traced pass runs, takes its
thread's profile slot and leaves it empty when it stops, so a profile
hook would miss everything that thread runs afterwards. The trace
function returns None, so no frame is traced line by line.
"""

import importlib.util
import os
import sys
import threading


def _install():
    spec = importlib.util.find_spec("repro")  # finds the package, runs none of it
    if spec is None or spec.origin is None:
        return
    root = os.path.dirname(spec.origin) + os.sep
    records = os.path.join(os.path.dirname(os.path.abspath(__file__)), "records")
    os.makedirs(records, exist_ok=True)
    seen = {}  # id -> code object, held so that no later code object reuses the id
    out = []

    def reopen():
        path = os.path.join(records, f"{os.getpid()}.tsv")
        out[:] = [os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)]

    def first_call(frame, event, arg):  # a global trace function sees "call" only
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            filename = code.co_filename
            if filename.startswith(root):
                qualname = getattr(code, "co_qualname", code.co_name)
                line = f"{filename[len(root):]}\t{code.co_firstlineno}\t{qualname}\n"
                os.write(out[0], line.encode())

    reopen()
    os.register_at_fork(after_in_child=reopen)
    threading.settrace(first_call)
    sys.settrace(first_call)


_install()
