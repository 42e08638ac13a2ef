"""The commit stamp the perf ledger writes into its result files."""

from __future__ import annotations

from repro.perf.timing import git_rev


def test_git_rev_is_a_short_hex_hash_or_empty():
    # "" outside a checkout or without git; never an error message.
    rev = git_rev()
    assert len(rev) <= 40
    assert all(c in "0123456789abcdef" for c in rev)
