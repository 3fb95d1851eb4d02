"""Support code of the end-to-end benchmark (see ``../README.md``).

Nothing here is imported by ``src/repro``: the harness times calls into
each layer's public functions from outside the program.
"""
