"""The seed fixes the request sequence and eps_per_answer; a new seed changes
the cold structures but not the metric names."""

import report
import scenarios


def test_same_seed_same_cold_sequence():
    assert [r.describe() for r in scenarios.cold_block(7, 0)] == [
        r.describe() for r in scenarios.cold_block(7, 0)
    ]
    assert scenarios.warm_order(7, 0) == scenarios.warm_order(7, 0)


def test_other_seed_other_cold_structures_same_classes():
    first = scenarios.cold_block(7, 0)
    second = scenarios.cold_block(8, 0)
    assert not {r.describe() for r in first} & {r.describe() for r in second}
    # Same cost classes: dataset, kind, partition count and attribute.
    classes = lambda block: sorted(
        (r.dataset, r.kind, len(r.edges), r.attribute) for r in block
    )
    assert classes(first) == classes(second)
    # Blocks of one run never repeat a structure either.
    later = scenarios.cold_block(7, 1)
    assert not {r.describe() for r in first} & {r.describe() for r in later}


def _cold_pass(seed, scratch):
    state = scenarios.cold_setup(seed, str(scratch))
    try:
        return scenarios.cold_run(state, seed, 0.0)  # exactly one block
    finally:
        scenarios.close_state(state)


def test_cold_run_is_reproducible_and_seed_sensitive(tmp_path):
    first, again, other = (_cold_pass(s, tmp_path) for s in (11, 11, 12))
    assert first.request_log == again.request_log
    assert first.scored_eps == again.scored_eps
    assert report.end_to_end(first, [1.0])["eps_per_answer"] == report.end_to_end(
        again, [1.0]
    )["eps_per_answer"]
    assert set(first.request_log).isdisjoint(other.request_log)
    assert report.end_to_end(first, [1.0]).keys() == report.end_to_end(other, [1.0]).keys()
    for out in (first, again, other):
        assert all(report.correctness(out).values())
        assert out.counters["store_writes"] > 0
    assert not any(tmp_path.iterdir())  # each store directory is removed
