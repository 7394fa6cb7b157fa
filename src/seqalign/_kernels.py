"""The DP backend flag that e2ebench/checks.py reads; ROADMAP item 1a removes it."""

HAVE_NUMBA = False
