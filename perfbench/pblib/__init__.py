"""Library of the repro benchmark: workloads, load generator, span tracing.

Everything here drives the ``repro`` program from outside, the way its
users run it.  Only :mod:`pblib.traced_main` and :mod:`pblib.layers` run
inside the program's own process (the traced run), and they touch the
program only by wrapping its public functions.
"""
