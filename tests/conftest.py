"""One hypothesis profile for the suite: no per-example deadline (an example
may build a lattice or run a CLI experiment) and the reproduction blob of
every failure printed."""

from hypothesis import settings

settings.register_profile("timebin", deadline=None, print_blob=True)
settings.load_profile("timebin")
