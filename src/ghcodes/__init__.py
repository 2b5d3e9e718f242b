"""Universal integer codes over second-order additive sequences.

Includes the classic Fibonacci code, its generalized two-parameter
variant with existence analysis, an exhaustive-search oracle, and a
self-synchronizing binary container, all reachable from the `ghcodes`
command line tool.
"""
